"""Sweeps over the family parameter and the verification suites built on
them: conic-type law, similitude tangency, homothety, constant-power and
non-conic evidence reports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import conics
from .conics import (
    Conic,
    ConicType,
    Line,
    conic_classify,
    conic_fit,
    conic_params,
    conic_residual,
    tangency_residual,
    tangents_from_point,
)
from .errors import SingularMap
from .family import PonceletFamily, Triangle, affine_image, triangle_at
from .inversive import (
    Circle,
    InversiveCoefficients,
    barycenter,
    circumcenter_locus_conic,
    circumcircle,
    euler_circle,
    exact_locus_conic,
    inversive_coeffs,
    inversive_triangle,
    invert_point,
    orthocenter,
)
from .power import p3_point, power

_SKIP_POWER_TOL = 1e-8
_BOUNDARY_MARGIN = 1e-6


@dataclass
class SweepResult:
    """The run state of one uniform theta sweep, as arrays.

    `circumcircles` are the world circumcircles of every sample (x3 is
    their centres) and `worlds` every world-chart triangle, so checks need
    not solve again.  The inverted triangles' circumcircles have centres
    x3p and radii `image_radius`.  These and the other centre arrays hold
    NaN at skipped indices (inversion center on the circumcircle there,
    inversive circumcenter at infinity).  The closed-form coefficients and
    the exact X3' conic are computed on first use, once: on a = b families
    the conic does not exist (SingularMap), and a sweep does not need it.
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
    def exact_conic(self) -> Conic:
        return exact_locus_conic(self.coeffs)

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


def projectivity_residual(sw: SweepResult) -> float:
    """Relative defect of the X3' denominator b0 + 2 Re(b2 lam) as a b
    times the power of O, the power computed directly from the swept
    triangles: max |a b power - denominator| / (|b0| + 2 |b2|)."""
    co, fam = sw.coeffs, sw.family
    den = co.denominator(np.exp(1j * sw.thetas))
    return float(np.max(np.abs(fam.a * fam.b * sw.power_at_O - den))
                 / co.denominator_scale())


class OLocationKind(enum.Enum):
    EXTERIOR = "Exterior"
    INTERIOR = "Interior"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class OLocation:
    kind: OLocationKind
    crossing_count: int
    margin: float
    locus: ConicType | None = None  # the exact X3' locus type (classify_O)


def classify_O(fam: PonceletFamily, k: Circle) -> OLocation:
    """Locate the inversion center against the circumcircle sweep region,
    with the type of the exact X3' locus (Point when it collapses, a = b).

    The X3' denominator b0 + 2 Re(b2 lam) is a b times the power of O with
    respect to the circumcircle at lam, so that power's sinusoid is
    (b0, 2 |b2|) up to scale.  O is on the boundary when the exact locus
    conic classifies as a parabola, so the location obeys the conic-type
    law.  conics.conic_classify is looked up per call, so it can be swapped.
    """
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


def _sampled_location(sw: SweepResult) -> OLocation:
    """O location read off the sampled power of O, independently of the
    closed-form coefficients.  On the uniform theta grid the least-squares
    fit of [1, cos, sin] is a projection: c0 = mean(power) and
    amp = 2 |mean(power e^{-i theta})|."""
    pw = sw.power_at_O
    c0 = float(np.mean(pw))
    amp = 2 * float(abs(np.mean(pw * np.exp(-1j * sw.thetas))))
    return locate_O(c0, amp,
                    abs(abs(c0) - amp) <= _BOUNDARY_MARGIN * (abs(c0) + amp))


@dataclass(frozen=True)
class ConicTypeReport:
    o_location: OLocation
    conic_type: ConicType
    consistent: bool


def verify_conic_type(sw: SweepResult) -> ConicTypeReport:
    """Check the conic-type law against the sampled location: an ellipse
    needs margin > 0 (O outside every circumcircle or inside all), a
    hyperbola margin < 0 (O crossed), a parabola |margin| within
    _BOUNDARY_MARGIN, which holds conic_classify's parabola band."""
    loc = _sampled_location(sw)
    ctype = conic_classify(sw.exact_conic)
    lawful = {ConicType.ELLIPSE: loc.margin > 0,
              ConicType.HYPERBOLA: loc.margin < 0,
              ConicType.PARABOLA: loc.kind is OLocationKind.BOUNDARY}
    return ConicTypeReport(loc, ctype, lawful.get(ctype, False))


@dataclass
class SimilitudeReport:
    status: str  # "ok" or "no-real-tangents"
    tangents: list[Line] = field(default_factory=list)
    locus_residuals: list[float] = field(default_factory=list)
    cloud_distances: list[float] = field(default_factory=list)
    cloud_one_sided: list[bool] = field(default_factory=list)
    scale: float = 0.0


def similitude_check(sw: SweepResult) -> SimilitudeReport:
    """Tangents from O to the X3 locus must also touch the X3' locus and
    graze the inv(X3) point cloud.  Both loci are exact; the swept cloud
    is the sampled tie."""
    l3 = circumcenter_locus_conic(sw.family)
    lines = tangents_from_point(l3, sw.inversion.center)
    if len(lines) < 2:
        return SimilitudeReport(status="no-real-tangents")
    l3p = sw.exact_conic
    cloud = sw.valid("inv_x3")
    scale = float(np.max(np.abs(cloud - cloud.mean()))) if len(cloud) else 1.0
    rep = SimilitudeReport(status="ok", tangents=lines, scale=scale)
    for line in lines:
        rep.locus_residuals.append(tangency_residual(l3p, line))
        d = line.signed_distance(cloud)
        rep.cloud_distances.append(float(np.min(np.abs(d))))
        band = 1e-4 * scale
        rep.cloud_one_sided.append(bool(np.all(d > -band) or np.all(d < band)))
    return rep


@dataclass
class HomothetyReport:
    status: str  # "ok" or "degenerate"
    angle_defect: float = np.nan
    eigenratio_defect: float = np.nan
    ratio_defect: float = np.nan
    scale_ratio: float = np.nan
    predicted_ratio: float = np.nan


def homothety_check(sw: SweepResult) -> HomothetyReport:
    """With the inversion centered at P3, the X3' locus is a translated and
    scaled copy of the X3 locus; the scale is r^2 / |Pi3|.  The sweep's
    inversion is taken to be centered at P3."""
    fam, k = sw.family, sw.inversion
    x3 = sw.valid("x3")
    spread = float(np.max(np.abs(x3 - x3.mean())))
    if spread < 1e-10 * max(1.0, abs(x3.mean())):
        return HomothetyReport(status="degenerate")
    _, maj3, min3, angle3 = conic_params(conic_fit(x3))
    _, maj3p, min3p, angle3p = conic_params(sw.exact_conic)
    eigenratio_defect = abs((min3 / maj3) ** 2 - (min3p / maj3p) ** 2)
    d = abs(angle3 - angle3p) % np.pi
    angle_defect = min(d, np.pi - d)

    scale_ratio = maj3 / maj3p
    predicted = abs(p3_point(fam).invariant_power) / k.radius ** 2
    return HomothetyReport(
        status="ok",
        angle_defect=float(angle_defect),
        eigenratio_defect=float(eigenratio_defect),
        ratio_defect=float(abs(scale_ratio - predicted) / predicted),
        scale_ratio=float(scale_ratio),
        predicted_ratio=float(predicted),
    )


@dataclass
class CenterFitReport:
    name: str
    residual: float  # max normalized conic residual, or nan when degenerate
    scale: float
    degenerate: bool


@dataclass
class NonConicReport:
    fits: dict
    conic_like: dict

    def is_evidence(self) -> bool:
        """True when only X3' fits a conic on this sweep."""
        others = [n for n in ("x2p", "x4p", "x5p") if not self.fits[n].degenerate]
        return (self.conic_like.get("x3p", False)
                and all(not self.conic_like[n] for n in others))


def nonconic_evidence(sw: SweepResult) -> NonConicReport:
    """Best-fit conic residuals for X2', X4', X5' versus X3'.

    Report only; a residual above 1e-4 * scale is taken as evidence that
    the locus is not a conic, below 1e-9 * scale that it is.
    """
    if len(sw.thetas) - len(sw.skipped) < 100:
        raise ValueError("need at least 100 valid samples")
    fits, conic_like = {}, {}
    for name in ("x3p", "x2p", "x4p", "x5p"):
        pts = sw.valid(name)
        scale = float(np.max(np.abs(pts - pts.mean())))
        if scale < 1e-9:
            fits[name] = CenterFitReport(name, np.nan, scale, True)
            conic_like[name] = True  # a point locus is (degenerately) conic
            continue
        c = conic_fit(pts)
        resid = float(np.max(conic_residual(c, pts)))
        fits[name] = CenterFitReport(name, resid, scale, False)
        conic_like[name] = resid < 1e-9 * scale
    return NonConicReport(fits, conic_like)


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
