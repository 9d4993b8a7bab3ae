"""Sweeps over the family parameter and the verification suites built on
them: conic-type law, similitude tangency, homothety, constant-power and
non-conic evidence reports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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
from .errors import AmbiguousBoundary, SingularMap
from .family import PonceletFamily, Triangle, affine_image, triangle_at
from .inversive import (
    Circle,
    InversiveCoefficients,
    barycenter,
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
_BOUNDARY_POWER_TOL = 1e-6


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


def classify_O(fam: PonceletFamily, k: Circle) -> OLocation:
    """Locate the inversion center against the circumcircle sweep region.

    The X3' denominator b0 + 2 Re(b2 lam) is a b times the power of O with
    respect to the circumcircle at lam, a sinusoid in theta: it changes
    sign iff |b0| < 2 |b2|, and otherwise keeps the sign of b0 (positive:
    O outside every circumcircle; negative: inside all, reported Interior).
    The boundary |b0| = 2 |b2| is read off the parabola band of the exact
    locus conic, so the reported location obeys the conic-type law.  One
    loop of the family parameter only permutes the vertices cyclically, so
    crossing counts are per vertex revolution (three loops): 6 when
    crossed, 3 double roots on the boundary, 0 otherwise.
    """
    coeffs = inversive_coeffs(fam, k)
    try:
        locus = conic_classify(exact_locus_conic(coeffs))
    except SingularMap:  # the X3' locus collapses to a point (e.g. a = b)
        locus = None
    return locate_O(coeffs, locus)


def locate_O(coeffs: InversiveCoefficients,
             locus: ConicType | None) -> OLocation:
    """classify_O from the X3' coefficients and the type of their exact
    locus conic (None when it does not exist), for callers that hold both."""
    if locus is ConicType.PARABOLA:
        return OLocation(OLocationKind.BOUNDARY, 3)
    if abs(coeffs.b0) < 2 * abs(coeffs.b2):
        return OLocation(OLocationKind.INTERIOR, 6)
    kind = OLocationKind.EXTERIOR if coeffs.b0 > 0 else OLocationKind.INTERIOR
    return OLocation(kind, 0)


def _sampled_location(sw: SweepResult) -> OLocation:
    """O location read off the sampled power of O, independently of the
    closed-form coefficients.

    Counts sign changes of theta -> power(O, circumcircle(theta)) over the
    sweep; local |power| minima below 1e-6 r^2 without a sign change are
    tangencies and flag the boundary case, as does a crossing pair whose
    every excursion past zero is that shallow.  Any other count raises
    AmbiguousBoundary.
    """
    pw = sw.power_at_O
    r2 = sw.circumcircles.radius ** 2
    prev, nxt = np.roll(pw, 1), np.roll(pw, -1)
    crossings = int(np.count_nonzero(pw * nxt < 0))
    eps = _BOUNDARY_POWER_TOL * r2
    size = np.abs(pw)
    tangencies = int(np.count_nonzero(
        (size <= np.abs(prev)) & (size < np.abs(nxt)) & (size < eps)
        & (prev * pw > 0) & (pw * nxt > 0)))

    if crossings == 0:
        if tangencies > 0:
            return OLocation(OLocationKind.BOUNDARY, 3 * tangencies)
        kind = OLocationKind.INTERIOR if np.all(pw < 0) else OLocationKind.EXTERIOR
        return OLocation(kind, 0)
    if crossings == 2:
        return OLocation(OLocationKind.INTERIOR, 3 * crossings)
    # A boundary configuration can split each double root into a shallow
    # crossing pair; accept it when every excursion past zero is shallow.
    minority = pw > 0 if np.sum(pw > 0) < len(pw) / 2 else pw < 0
    if crossings % 2 == 0 and np.all(size[minority] < eps[minority]):
        return OLocation(OLocationKind.BOUNDARY, 3 * crossings)
    raise AmbiguousBoundary(
        f"unexpected per-loop crossing count {crossings} "
        f"with {tangencies} tangencies")


def _expected_type(loc: OLocation) -> ConicType:
    # The locus is unbounded exactly when the closed-form denominator (a b
    # times the power of O) vanishes somewhere, i.e. when crossings occur.
    # An always-negative power is classified Interior with zero crossings
    # (O in the hole of the swept annulus); the locus is then still bounded.
    if loc.kind is OLocationKind.BOUNDARY:
        return ConicType.PARABOLA
    return ConicType.HYPERBOLA if loc.crossing_count > 0 else ConicType.ELLIPSE


@dataclass(frozen=True)
class ConicTypeReport:
    o_location: OLocation
    conic_type: ConicType
    consistent: bool


def verify_conic_type(sw: SweepResult) -> ConicTypeReport:
    """Check the conic-type law: Exterior -> ellipse, Interior (crossed)
    -> hyperbola, Boundary -> parabola.  O is located from the sweep's
    sampled power, so the boundary resolution follows the sample count."""
    loc = _sampled_location(sw)
    ctype = conic_classify(sw.exact_conic)
    return ConicTypeReport(loc, ctype, _expected_type(loc) == ctype)


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
    graze the inv(X3) point cloud."""
    l3 = conic_fit(sw.valid("x3"))
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
