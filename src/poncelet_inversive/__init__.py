"""Conic loci and power invariants of inversive Poncelet triangle families."""

from .analysis import classify_O, sweep
from .conics import ConicType, conic_classify
from .errors import GeometryError
from .family import PonceletFamily
from .inversive import Circle, exact_locus_conic, inversive_coeffs
from .power import p3_point, p5_point

__all__ = ["Circle", "ConicType", "GeometryError", "PonceletFamily",
           "classify_O", "conic_classify", "exact_locus_conic",
           "inversive_coeffs", "p3_point", "p5_point", "sweep"]
__version__ = "0.1.0"
