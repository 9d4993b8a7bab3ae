"""Circle inversion, triangle centers, and the closed-form inversive
circumcenter with its projective-map consequences.

The closed form evaluated here is

    X3'(lam) = z0 + (a2 lam + a1 conj(lam) + a0) / (b0 + 2 Re(b2 lam))

with b0 real, so the denominator is a real scalar.  With
a, b the outer semiaxes and r the inversion radius, the denominator is
a b power(z0, circumcircle(lam)) and the numerator is a b r^2 (X3 - z0),
where X3 is the world-chart circumcenter; inversive_coeffs builds both
from the lam-affine forms of X3 and of the power in power.py.

The point-wise formulas (inversion, centers, circles, pencil and
collinearity residuals) take scalars or arrays alike; a guard raises when
any element of a batch trips it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conics import Chart, Conic, ProjectiveMap, conic_transform
from .errors import (
    CenterSingularity,
    CollinearVertices,
    DegenerateConfiguration,
    OnCircumcircle,
)
from .family import PonceletFamily, Triangle
from .power import circumcenter_affine_in_lambda, pi3_affine_in_lambda, power


@dataclass(frozen=True)
class Circle:
    """One circle, or a batch when center and radius are arrays."""

    center: complex
    radius: float

    def __post_init__(self):
        if not np.all(np.asarray(self.radius) > 0):
            raise ValueError("circle radius must be positive")
        center = np.asarray(self.center, dtype=complex)
        object.__setattr__(self, "center",
                           complex(center) if center.ndim == 0 else center)


def invert_point(z: complex, k: Circle) -> complex:
    """Inversion z -> z0 + r^2/(conj(z) - conj(z0)); an involution."""
    if np.any(np.abs(z - k.center) <= 1e-12):
        raise CenterSingularity("cannot invert the inversion center")
    return k.center + k.radius ** 2 / np.conj(z - k.center)


def inversive_triangle(t: Triangle, k: Circle) -> Triangle:
    return Triangle(*(invert_point(v, k) for v in t))


def circumcenter(t: Triangle) -> complex:
    w1, w2, w3 = t
    num = (abs(w1) ** 2 * (w2 - w3) + abs(w2) ** 2 * (w3 - w1)
           + abs(w3) ** 2 * (w1 - w2))
    den = (np.conj(w1) * (w2 - w3) + np.conj(w2) * (w3 - w1)
           + np.conj(w3) * (w1 - w2))
    scale = np.maximum.reduce([abs(w1 - w2), abs(w2 - w3), abs(w3 - w1)])
    if np.any(abs(den) <= 1e-12 * scale * scale):
        raise CollinearVertices("triangle vertices are collinear")
    return num / den


def circumcircle(t: Triangle) -> Circle:
    c = circumcenter(t)
    return Circle(c, abs(t.v1 - c))


def barycenter(t: Triangle) -> complex:
    return (t.v1 + t.v2 + t.v3) / 3


def orthocenter(t: Triangle, c: Circle) -> complex:
    """H = v1 + v2 + v3 - 2 X3, valid in any chart; c is t's circumcircle."""
    return t.v1 + t.v2 + t.v3 - 2 * c.center


def euler_circle(t: Triangle, c: Circle) -> Circle:
    """Nine-point circle: centre (X3 + H) / 2, radius R / 2, from t's
    circumcircle c."""
    return Circle((c.center + orthocenter(t, c)) / 2, c.radius / 2)


@dataclass(frozen=True)
class InversiveCoefficients:
    """Coefficients of the closed-form inversive circumcenter.

    a1 is the conj(lam) coefficient of the (lam, conj(lam))-affine
    numerator; the denominator b0 + 2 Re(b2 lam) is real, which is what
    makes the induced map of the locus a projective transformation.
    """

    a0: complex
    a1: complex
    a2: complex
    b0: float
    b2: complex
    r2: float
    z0: complex

    def numerator(self, lam: complex) -> complex:
        return self.a2 * lam + self.a1 * np.conj(lam) + self.a0

    def denominator(self, lam: complex) -> float:
        return self.b0 + 2 * np.real(self.b2 * lam)

    def denominator_scale(self) -> float:
        return 2 * abs(self.b2) + abs(self.b0)

    def on_circumcircle(self, lam):
        """True where the denominator is within 1e-10 of its scale, so the
        inversion center is taken to lie on the circumcircle at lam."""
        return np.abs(self.denominator(lam)) <= 1e-10 * self.denominator_scale()


def inversive_coeffs(fam: PonceletFamily, k: Circle) -> InversiveCoefficients:
    """a2, a1 = a b r^2 (c2, c1), a0 = a b r^2 (c0 - z0), b2 = a b M1(z0)
    and b0 = a b M3(z0), with X3 = c2 lam + c1 conj(lam) + c0
    and the circumcircle power M1 lam + conj(M1 lam) + M3 from power.py."""
    c0, c1, c2 = circumcenter_affine_in_lambda(fam)
    m1, m3 = pi3_affine_in_lambda(fam, k.center)
    ab = fam.p ** 2 - fam.q ** 2
    r2 = k.radius ** 2
    return InversiveCoefficients(a0=ab * r2 * (c0 - k.center), a1=ab * r2 * c1,
                                 a2=ab * r2 * c2, b0=ab * m3, b2=ab * m1,
                                 r2=r2, z0=k.center)


def inversive_circumcenter_closed(coeffs: InversiveCoefficients, theta):
    """X3' at theta, a scalar or an array; raises when the inversion center
    is on the circumcircle at any of them."""
    lam = np.exp(1j * np.asarray(theta, dtype=float))
    if np.any(coeffs.on_circumcircle(lam)):
        raise OnCircumcircle("inversion center on the circumcircle at this theta")
    return coeffs.z0 + coeffs.numerator(lam) / coeffs.denominator(lam)


def projective_map_of_locus(coeffs: InversiveCoefficients):
    """(m, chart): the X3' locus is the unit circle pushed through m into
    its chart, which `chart` places in the world.  With (X3' - z0) / r^2 =
    N(lam) / D(lam), the chart is centred on the X3' of the disk point
    lam0 = sign(b0) conj(b2) / (|b0| + 2 |b2|), where |D| >= half its scale
    even if b0 = 0; there N - D N(lam0) / D(lam0) = l2 lam + l1 conj(lam) + l0
    vanishes, and the scale is r^2 (|l2| + |l1|) / |D(lam0)|.  A point locus
    (a = b, l2 = l1 = 0) raises SingularMap.
    """
    co = coeffs
    with np.errstate(divide="ignore", invalid="ignore"):  # NaN is singular
        lam0 = np.sign(co.b0 or 1.0) * np.conj(co.b2) / co.denominator_scale()
        d0 = co.denominator(lam0)
        u = co.numerator(lam0) / (co.r2 * d0)
        l2, l1, l0 = (np.array([co.a2, co.a1, co.a0]) / co.r2
                      - u * np.array([co.b2, np.conj(co.b2), co.b0]))
        spread = abs(l2) + abs(l1)
        # The numerator lam -> l2 lam + l1 conj(lam) + l0 on [Re lam, Im lam, 1]
        m = np.array([[l2.real + l1.real, l1.imag - l2.imag, l0.real],
                      [l2.imag + l1.imag, l2.real - l1.real, l0.imag]])
        m = np.vstack([m / spread,
                       [2 * co.b2.real, -2 * co.b2.imag, co.b0] / abs(d0)])
    # Python scalars: a numpy complex scalar divides with other rounding.
    return ProjectiveMap(m), Chart(complex(co.z0 + co.r2 * u),
                                   float(co.r2 * spread / abs(d0)))


def _unit_circle_image(m: ProjectiveMap, chart: Chart) -> Conic:
    return Conic(conic_transform(Conic.unit_circle(), m).local, chart)


def exact_locus_conic(coeffs: InversiveCoefficients) -> Conic:
    """Exact conic swept by the inversive circumcenter, in its chart."""
    return _unit_circle_image(*projective_map_of_locus(coeffs))


def circumcenter_locus_conic(fam: PonceletFamily) -> Conic:
    """Exact ellipse swept by the world circumcenter: X3 = c2 lam +
    c1 conj(lam) + c0 is the X3' of projective_map_of_locus with D = 1,
    r = 1 and z0 = 0.  A point locus (a = b, c2 = c1 = 0) raises
    SingularMap."""
    c0, c1, c2 = circumcenter_affine_in_lambda(fam)
    m, chart = projective_map_of_locus(InversiveCoefficients(
        a0=c0, a1=c1, a2=c2, b0=1.0, b2=0j, r2=1.0, z0=0j))
    return _unit_circle_image(m, chart)


def pencil_membership(c1: Circle, c2: Circle, c3: Circle) -> float:
    """Relative smallest singular value of the stacked circle 4-vectors.

    Each circle maps to (1, -2 cx, -2 cy, power(0, c)); three circles are
    coaxial (one pencil) iff the 3x4 stack is rank deficient.  Batches of
    circles broadcast against each other and give one residual per stack.
    """
    cells = np.broadcast_arrays(*(
        x for c in (c1, c2, c3) for x in (
            1.0, -2 * c.center.real, -2 * c.center.imag, power(0j, c))))
    rows = np.stack(cells, axis=-1).reshape(cells[0].shape + (3, 4))
    s = np.linalg.svd(rows, compute_uv=False)
    return s[..., -1] / s[..., 0]


def collinearity_and_ratio(x3: complex, o: complex, x3p: complex,
                           circ: Circle, k: Circle) -> tuple[float, float]:
    """Residuals of the collinearity of X3, O, X3' and the distance ratio
    |O X3| / |O X3'| = |(|O - X3|^2 - R^2)| / r^2."""
    if np.any(np.abs(x3 - o) < 1e-10) or np.any(np.abs(x3p - o) < 1e-10):
        raise DegenerateConfiguration("O coincides with X3 or X3'")
    u, v = x3 - o, x3p - o
    coll = abs(np.imag(u * np.conj(v))) / (abs(u) * abs(v))
    ratio = abs(u) / abs(v)
    predicted = abs(power(o, circ)) / k.radius ** 2
    return coll, abs(ratio - predicted) / ratio
