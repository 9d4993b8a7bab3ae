"""Sweeps over the family parameter and the verify table built on them:
one row per `verify` line, each a check of the sweep against its bound.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import conics
from .conics import (
    Conic,
    ConicType,
    conic_fit,
    conic_params,
    conic_residual,
    tangency_residual,
    tangents_from_point,
)
from .errors import SingularMap
from .family import (PonceletFamily, Triangle, affine_image, inner_ellipse,
                     inner_ellipse_world, triangle_at)
from .inversive import (
    Circle,
    InversiveCoefficients,
    barycenter,
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
)
from .power import PowerPointResult, p3_point, p3_preimage, p5_point, power

_SKIP_POWER_TOL = 1e-8


@dataclass
class SweepResult:
    """The run state of one uniform theta sweep, as arrays.

    `circumcircles` are the world circumcircles of every sample (x3 is
    their centres) and `worlds` every world-chart triangle, so checks need
    not solve again.  The inverted triangles' circumcircles have centres
    x3p and radii `image_radius`.  These and the other centre arrays hold
    NaN at skipped indices (inversion center on the circumcircle there,
    inversive circumcenter at infinity).  The closed-form coefficients, the
    exact X3' conic, P3, P5 and the incidence residuals are computed on
    first use, once.
    """

    thetas: np.ndarray
    circumcircles: Circle
    x3p: np.ndarray
    image_radius: np.ndarray
    inv_x3: np.ndarray
    x2p: np.ndarray
    x4p: np.ndarray
    x5p: np.ndarray
    power_at_O: np.ndarray
    skipped: list[int]
    family: PonceletFamily
    inversion: Circle
    worlds: Triangle

    @property
    def x3(self) -> np.ndarray:
        return self.circumcircles.center

    @cached_property
    def coeffs(self) -> InversiveCoefficients:
        return inversive_coeffs(self.family, self.inversion)

    @cached_property
    def exact_conic(self) -> Conic | None:
        """The exact X3' conic; None at a = b, where X3' is a point."""
        try:
            return exact_locus_conic(self.coeffs)
        except SingularMap:
            return None

    @cached_property
    def p3(self) -> PowerPointResult:
        return p3_point(self.family)

    @cached_property
    def p5(self) -> PowerPointResult:
        return p5_point(self.family)

    @cached_property
    def incidence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Collinearity of X3, O, X3', distance-ratio and pencil residuals
        on the kept samples (NaN compares False) where O is neither X3 nor
        X3' (collinearity_and_ratio rejects those)."""
        k = self.inversion
        at = ((np.abs(self.x3 - k.center) >= 1e-10)
              & (np.abs(self.x3p - k.center) >= 1e-10))
        circ = Circle(self.x3[at], self.circumcircles.radius[at])
        coll, ratio = collinearity_and_ratio(self.x3[at], k.center,
                                             self.x3p[at], circ, k)
        return coll, ratio, pencil_membership(
            circ, k, Circle(self.x3p[at], self.image_radius[at]))

    def valid(self, name: str) -> np.ndarray:
        pts = getattr(self, name)
        return pts[~np.isnan(pts)]


def sweep(fam: PonceletFamily, k: Circle, n: int = 720) -> SweepResult:
    if n < 64:
        raise ValueError("need at least 64 samples")
    thetas = 2 * np.pi * np.arange(n) / n
    worlds = affine_image(fam, triangle_at(fam, thetas))
    circ = circumcircle(worlds)
    pow_o = power(k.center, circ)
    kept = np.abs(pow_o) >= _SKIP_POWER_TOL * circ.radius ** 2
    tp = inversive_triangle(Triangle(*(v[kept] for v in worlds)), k)
    image = circumcircle(tp)
    x3p, inv_x3, x2p, x4p, x5p = np.full((5, n), complex(np.nan, np.nan))
    image_radius = np.full(n, np.nan)
    x3p[kept], image_radius[kept] = image.center, image.radius
    x2p[kept] = barycenter(tp)
    x4p[kept] = orthocenter(tp, image)
    x5p[kept] = euler_circle(tp, image).center
    off_o = kept & (np.abs(circ.center - k.center) > 1e-12)
    inv_x3[off_o] = invert_point(circ.center[off_o], k)
    return SweepResult(thetas, circ, x3p, image_radius, inv_x3, x2p, x4p, x5p,
                       pow_o, np.flatnonzero(~kept).tolist(), fam, k, worlds)


class OLocationKind(enum.Enum):
    EXTERIOR = "Exterior"
    INTERIOR = "Interior"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class OLocation:
    kind: OLocationKind
    crossing_count: int
    margin: float
    locus: ConicType | None = None  # the X3' locus type read with it

    def __str__(self) -> str:
        return (f"O={self.kind.value} locus={self.locus.value} "
                f"crossings={self.crossing_count} margin={self.margin:+.3e}")


def classify_O(fam: PonceletFamily, k: Circle) -> OLocation:
    """Locate the inversion center against the circumcircle sweep region,
    with the type of the exact X3' locus (Point when it collapses, a = b).

    The X3' denominator b0 + 2 Re(b2 lam) is a b times the power of O with
    respect to the circumcircle at lam, so that power's sinusoid is
    (b0, 2 |b2|) up to scale.  O is on the boundary when the exact locus
    conic classifies as a parabola, so the location obeys the conic-type
    law."""
    coeffs = inversive_coeffs(fam, k)
    try:
        locus = conics.conic_classify(exact_locus_conic(coeffs))
    except SingularMap:
        locus = ConicType.POINT
    loc = locate_O(coeffs.b0, 2 * abs(coeffs.b2), locus is ConicType.PARABOLA)
    return replace(loc, locus=locus)


def locate_O(c0: float, amp: float, boundary: bool) -> OLocation:
    """O location from the power of O over the family, the sinusoid
    c0 + amp cos(theta + phi), with the signed margin
    (|c0| - amp) / (|c0| + amp): Boundary when `boundary`, else crossed
    (Interior) iff |c0| < amp, else Exterior when c0 > 0 (O outside every
    circumcircle) and Interior when c0 < 0 (inside all).  Crossings count
    per vertex revolution (a loop of the parameter permutes the vertices
    cyclically): 6 when crossed, 3 double roots on the boundary, else 0."""
    margin = (abs(c0) - amp) / ((abs(c0) + amp) or 1.0)  # 0 if power == 0
    if boundary:
        return OLocation(OLocationKind.BOUNDARY, 3, margin)
    if abs(c0) < amp:
        return OLocation(OLocationKind.INTERIOR, 6, margin)
    kind = OLocationKind.EXTERIOR if c0 > 0 else OLocationKind.INTERIOR
    return OLocation(kind, 0, margin)


def sampled_location(sw: SweepResult, band: float) -> OLocation:
    """O location read off the sampled power of O, independently of the
    closed-form coefficients, on the boundary when |margin| <= band.  On
    the uniform theta grid the least-squares fit of [1, cos, sin] is a
    projection: c0 = mean(power) and amp = 2 |mean(power e^{-i theta})|."""
    pw = sw.power_at_O
    c0 = float(np.mean(pw))
    amp = 2 * float(abs(np.mean(pw * np.exp(-1j * sw.thetas))))
    return locate_O(c0, amp, abs(abs(c0) - amp) <= band * (abs(c0) + amp))


class Skip(Exception):
    """The line does not apply to this run; the message is its note."""


class CheckResult(NamedTuple):
    ok: bool
    residual: float | None = None  # printed as residual=...
    note: str = ""


def _below(residual, bound: float) -> CheckResult:
    return CheckResult(bool(residual < bound), float(residual))


def _exact_conic(sw: SweepResult) -> Conic:
    """sw.exact_conic; at a = b X3' is a point: every line reading it skips."""
    if sw.exact_conic is None:
        raise Skip("(X3' locus is a point: a = b)")
    return sw.exact_conic


def closed_form_check(sw: SweepResult, bound: float) -> CheckResult:
    """Closed form vs the swept X3', relative to max(1, |X3'|), on about 64
    of the kept samples where the closed form is finite."""
    at = np.arange(0, len(sw.thetas), max(1, len(sw.thetas) // 64))
    at = at[~np.isnan(sw.x3p[at])
            & ~sw.coeffs.on_circumcircle(np.exp(1j * sw.thetas[at]))]
    direct = sw.x3p[at]
    closed = inversive_circumcenter_closed(sw.coeffs, sw.thetas[at])
    return _below(np.max(np.abs(closed - direct)
                         / np.maximum(1.0, np.abs(direct))), bound)


def projectivity_check(sw: SweepResult, bound: float) -> CheckResult:
    """Relative defect of the X3' denominator b0 + 2 Re(b2 lam) as a b
    times the power of O, the power computed directly from the swept
    triangles: max |a b power - denominator| / (|b0| + 2 |b2|)."""
    co, fam = sw.coeffs, sw.family
    den = co.denominator(np.exp(1j * sw.thetas))
    return _below(np.max(np.abs(fam.a * fam.b * sw.power_at_O - den))
                  / co.denominator_scale(), bound)


def fitted_conic_check(sw: SweepResult, bound: float) -> CheckResult:
    """Distance of the exact conic from the conic fitted to the swept X3',
    in the fit's chart."""
    exact = _exact_conic(sw)  # skip before fitting a point locus
    return _below(conic_fit(sw.valid("x3p")).distance(exact), bound)


def exact_conic_check(sw: SweepResult, bound: float) -> CheckResult:
    """Largest world distance of a swept X3' from the exact conic."""
    return _below(np.max(conic_residual(_exact_conic(sw), sw.valid("x3p"))),
                  bound)


def conic_type_check(sw: SweepResult, band: float) -> CheckResult:
    """The conic-type law against the sampled location: an ellipse needs
    margin > 0 (O outside every circumcircle or inside all), a hyperbola
    margin < 0 (O crossed), a parabola |margin| <= band (conic_classify's
    parabola band lies within it)."""
    ctype = conics.conic_classify(_exact_conic(sw))
    loc = replace(sampled_location(sw, band), locus=ctype)
    lawful = {ConicType.ELLIPSE: loc.margin > 0,
              ConicType.HYPERBOLA: loc.margin < 0,
              ConicType.PARABOLA: loc.kind is OLocationKind.BOUNDARY}
    return CheckResult(lawful.get(ctype, False), None, str(loc))


def collinearity_check(sw: SweepResult, bound: float) -> CheckResult:
    return _below(np.max(sw.incidence[0], initial=0.0), bound)


def distance_ratio_check(sw: SweepResult, bound: float) -> CheckResult:
    return _below(np.max(sw.incidence[1], initial=0.0), bound)


def pencil_check(sw: SweepResult, bound: float) -> CheckResult:
    return _below(np.max(sw.incidence[2], initial=0.0), bound)


def _power_check(res, circles: Circle, bound: float) -> CheckResult:
    """max(std, |mean - Pi|) of res.point's power, over mean squared radius."""
    pows = power(res.point, circles)
    return _below(max(pows.std(), abs(pows.mean() - res.invariant_power))
                  / np.mean(circles.radius ** 2), bound)


def p3_power_check(sw: SweepResult, bound: float) -> CheckResult:
    return _power_check(sw.p3, sw.circumcircles, bound)


def p5_power_check(sw: SweepResult, bound: float) -> CheckResult:
    return _power_check(sw.p5, euler_circle(sw.worlds, sw.circumcircles),
                        bound)


def p3_interiority_check(sw: SweepResult, floor: float) -> CheckResult:
    """The preimage of P3 lies inside the inner ellipse: its focal-distance
    margin must exceed the floor."""
    fam, pre = sw.family, p3_preimage(sw.family)
    margin = inner_ellipse(fam).major_axis_length - (abs(pre - fam.f)
                                                     + abs(pre - fam.g))
    return CheckResult(bool(margin > floor), float(margin))


def similitude_check(sw: SweepResult, bound: float) -> CheckResult:
    """Tangents from O to the exact X3 locus must touch the exact X3'
    locus (residual under bound) and graze the swept inv(X3) cloud: within
    1e-4 of its spread of it, with all of it on one side."""
    l3p = _exact_conic(sw)
    lines = tangents_from_point(circumcenter_locus_conic(sw.family),
                                sw.inversion.center)
    if len(lines) < 2:
        raise Skip("(O interior to the X3 locus)")
    cloud = sw.valid("inv_x3")
    band = 1e-4 * float(np.max(np.abs(cloud - cloud.mean())))
    grazes = all(np.min(np.abs(d)) < band
                 and (np.all(d > -band) or np.all(d < band))
                 for d in (line.signed_distance(cloud) for line in lines))
    residual = max(tangency_residual(l3p, line) for line in lines)
    return CheckResult(bool(residual < bound and grazes), residual)


def homothety_check(sw: SweepResult, bound: float) -> CheckResult:
    """With the inversion centered at P3, the X3' locus is a translated and
    scaled copy of the X3 locus, scale |Pi3| / r^2: the axis-angle,
    squared-axis-ratio and relative scale defects are each under bound."""
    k, p3 = sw.inversion, sw.p3
    if not abs(k.center - p3.point) < 1e-9 * max(1.0, abs(p3.point)):
        raise Skip("(inversion center is not P3)")
    _, maj3p, min3p, angle3p = conic_params(_exact_conic(sw))  # a = b skips
    _, maj3, min3, angle3 = conic_params(conic_fit(sw.valid("x3")))
    d = abs(angle3 - angle3p) % np.pi
    predicted = abs(p3.invariant_power) / k.radius ** 2
    defects = [float(min(d, np.pi - d)),
               float(abs((min3 / maj3) ** 2 - (min3p / maj3p) ** 2)),
               float(abs(maj3 / maj3p - predicted) / predicted)]
    return CheckResult(all(x < bound for x in defects), max(defects))


def closure_check(sw: SweepResult, bound: float) -> CheckResult:
    """Every side of about 120 swept triangles touches the inner ellipse."""
    inner = inner_ellipse_world(sw.family)
    v1, v2, v3 = (v[:: max(1, len(sw.thetas) // 120)] for v in sw.worlds)
    return _below(max(np.max(inner.side_tangency_residual(s1, s2))
                      for s1, s2 in ((v1, v2), (v2, v3), (v3, v1))), bound)


def nonconic_evidence(sw: SweepResult, bound=None) -> CheckResult:
    """Best-fit conic residuals of X3', X2', X4', X5', in the note.  ok when
    only X3' is a conic: its residual under 1e-9 of its spread, each of the
    others over 1e-4 of its own; a point locus (spread under 1e-9) is
    printed as degenerate and is evidence neither way."""
    if len(sw.thetas) - len(sw.skipped) < 100:
        raise Skip("(need at least 100 valid samples)")
    rel, notes = {}, {}
    for name in ("x3p", "x2p", "x4p", "x5p"):
        pts = sw.valid(name)
        scale = float(np.max(np.abs(pts - pts.mean())))
        if scale < 1e-9:
            rel[name], notes[name] = np.nan, "degenerate"
        else:
            resid = float(np.max(conic_residual(conic_fit(pts), pts)))
            rel[name], notes[name] = resid / scale, f"{resid:.2e}"
    ok = rel.pop("x3p") < 1e-9 and all(v > 1e-4 for v in rel.values())
    note = ", ".join(f"{n}={v}" for n, v in notes.items())
    return CheckResult(ok, None, f"({note})")


# The verify lines in print order: (line, bound, name of its check in this
# module, looked up per run so a wrapped or patched binding is the one
# called).  A residual passes under its bound; p3_interiority's margin must
# exceed it, and conic_type_law's is the parabola band of O's margin.  A
# row without a bound is a report: it prints PASS and fails no run.
VERIFY = (
    ("closed_form_vs_direct", 1e-9, "closed_form_check"),
    ("projectivity_hypotheses", 1e-10, "projectivity_check"),
    ("exact_vs_fitted_conic", 1e-8, "fitted_conic_check"),
    ("sweep_on_exact_conic", 1e-9, "exact_conic_check"),
    ("conic_type_law", 1e-6, "conic_type_check"),
    ("collinearity", 1e-9, "collinearity_check"),
    ("distance_ratio", 1e-9, "distance_ratio_check"),
    ("pencil_membership", 1e-9, "pencil_check"),
    ("p3_constant_power", 1e-9, "p3_power_check"),
    ("p5_constant_power", 1e-8, "p5_power_check"),
    ("p3_interiority", 1e-12, "p3_interiority_check"),
    ("similitude_tangency", 1e-7, "similitude_check"),
    ("homothety", 1e-7, "homothety_check"),
    ("poncelet_closure", 1e-8, "closure_check"),
    ("nonconic_evidence", None, "nonconic_evidence"),
)


def circle_fit(points) -> tuple[Circle, float]:
    """Algebraic least-squares circle; returns (circle, max radial defect)."""
    pts = np.asarray(points, dtype=complex)
    x, y = pts.real, pts.imag
    m = np.column_stack([2 * x, 2 * y, np.ones_like(x)])
    rhs = x * x + y * y
    (cx, cy, d), *_ = np.linalg.lstsq(m, rhs, rcond=None)
    r = float(np.sqrt(d + cx * cx + cy * cy))
    resid = float(np.max(np.abs(np.abs(pts - complex(cx, cy)) - r)))
    return Circle(complex(cx, cy), r), resid


def external_similitude_center(c1: Circle, c2: Circle) -> complex:
    if abs(c1.radius - c2.radius) < 1e-300:
        raise ZeroDivisionError("equal radii: external center at infinity")
    return (c1.radius * c2.center - c2.radius * c1.center) \
        / (c1.radius - c2.radius)
