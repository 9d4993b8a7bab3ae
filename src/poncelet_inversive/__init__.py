"""Conic loci and power invariants of inversive Poncelet triangle families."""

from .conics import (
    Conic,
    ConicType,
    Line,
    ProjectiveMap,
    conic_classify,
    conic_fit,
    conic_residual,
    conic_transform,
    tangents_from_point,
)
from .family import (
    EllipseGeom,
    PonceletFamily,
    Triangle,
    affine_image,
    family_from_inner_circle,
    inner_ellipse,
    inner_ellipse_world,
    triangle_at,
)
from .inversive import (
    Circle,
    InversiveCoefficients,
    barycenter,
    circumcenter,
    circumcenter_locus_conic,
    circumcircle,
    collinearity_and_ratio,
    euler_circle,
    exact_locus_conic,
    inversive_circumcenter_closed,
    inversive_coeffs,
    inversive_triangle,
    invert_point,
    orthocenter,
    pencil_membership,
    projective_map_of_locus,
)
from .power import (
    PowerPointResult,
    circumcenter_affine_in_lambda,
    p3_point,
    p3_preimage,
    p5_constants,
    p5_point,
    pi3_affine_in_lambda,
    power,
)
from .analysis import (
    OLocation,
    OLocationKind,
    Skip,
    SweepResult,
    classify_O,
    circle_fit,
    conic_type_check,
    external_similitude_center,
    homothety_check,
    nonconic_evidence,
    projectivity_check,
    sampled_location,
    similitude_check,
    sweep,
)

__version__ = "0.1.0"
