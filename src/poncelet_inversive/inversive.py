"""Circle inversion, triangle centers, and the closed-form inversive
circumcenter with its projective-map consequences.

The closed form evaluated here is

    X3'(lam) = z0 + (a2 lam + a1 conj(lam) + a0) / (b2 lam + b1 conj(lam) + b0)

with b1 = conj(b2) and b0 real, so the denominator is a real scalar.  With
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

from .conics import Conic, ProjectiveMap, conic_transform
from .errors import (
    CenterSingularity,
    CollinearVertices,
    DegenerateConfiguration,
    OnCircumcircle,
)
from .family import PonceletFamily, Triangle
from .power import circumcenter_affine_in_lambda, pi3_affine_in_lambda


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
    numerator; b1 = conj(b2) and b0 is real by construction, which is what
    makes the induced map of the locus a projective transformation.
    """

    a0: complex
    a1: complex
    a2: complex
    b0: float
    b1: complex
    b2: complex
    r2: float
    z0: complex

    def numerator(self, lam: complex) -> complex:
        return self.a2 * lam + self.a1 * np.conj(lam) + self.a0

    def denominator(self, lam: complex) -> float:
        return np.real(self.b2 * lam + self.b1 * np.conj(lam) + self.b0)

    def denominator_scale(self) -> float:
        return 2 * abs(self.b2) + abs(self.b0)

    def on_circumcircle(self, lam):
        """True where the denominator is within 1e-10 of its scale, so the
        inversion center is taken to lie on the circumcircle at lam."""
        return np.abs(self.denominator(lam)) <= 1e-10 * self.denominator_scale()


def inversive_coeffs(fam: PonceletFamily, k: Circle) -> InversiveCoefficients:
    """a2, a1 = a b r^2 (c2, c1), a0 = a b r^2 (c0 - z0), b2 = a b M1(z0),
    b1 = conj(b2) and b0 = a b M3(z0), with X3 = c2 lam + c1 conj(lam) + c0
    and the circumcircle power M1 lam + conj(M1 lam) + M3 from power.py."""
    c0, c1, c2 = circumcenter_affine_in_lambda(fam)
    m1, m3 = pi3_affine_in_lambda(fam, k.center)
    ab = fam.p ** 2 - fam.q ** 2
    r2 = k.radius ** 2
    return InversiveCoefficients(a0=ab * r2 * (c0 - k.center), a1=ab * r2 * c1,
                                 a2=ab * r2 * c2, b0=ab * m3,
                                 b1=ab * m1.conjugate(), b2=ab * m1, r2=r2,
                                 z0=k.center)


def inversive_circumcenter_closed(coeffs: InversiveCoefficients, theta):
    """X3' at theta, a scalar or an array; raises when the inversion center
    is on the circumcircle at any of them."""
    lam = np.exp(1j * np.asarray(theta, dtype=float))
    if np.any(coeffs.on_circumcircle(lam)):
        raise OnCircumcircle("inversion center on the circumcircle at this theta")
    return coeffs.z0 + coeffs.numerator(lam) / coeffs.denominator(lam)


def projective_map_of_locus(coeffs: InversiveCoefficients):
    """Projective map sending lam (on the unit circle) to the locus chart.

    Returns (m, post): the locus of X3' is the unit circle pushed through
    m, then through the affine post-map z -> z0 + r^2 z.
    """
    k1 = coeffs.a2 / coeffs.r2
    k2 = coeffs.a1 / coeffs.r2
    k3 = coeffs.a0 / coeffs.r2
    row1 = [k1.real + k2.real, k2.imag - k1.imag, k3.real]
    row2 = [k1.imag + k2.imag, k1.real - k2.real, k3.imag]
    row3 = [2 * coeffs.b2.real, -2 * coeffs.b2.imag, coeffs.b0]
    m = ProjectiveMap(np.array([row1, row2, row3]))
    post = ProjectiveMap.affine(coeffs.r2, coeffs.z0)
    return m, post


def exact_locus_conic(coeffs: InversiveCoefficients) -> Conic:
    """Exact conic swept by the inversive circumcenter."""
    m, post = projective_map_of_locus(coeffs)
    return conic_transform(Conic.unit_circle(), post.compose(m))


def pencil_membership(c1: Circle, c2: Circle, c3: Circle) -> float:
    """Relative smallest singular value of the stacked circle 4-vectors.

    Each circle maps to (1, -2 cx, -2 cy, |c|^2 - r^2); three circles are
    coaxial (one pencil) iff the 3x4 stack is rank deficient.  Batches of
    circles broadcast against each other and give one residual per stack.
    """
    cells = np.broadcast_arrays(*(
        x for c in (c1, c2, c3) for x in (
            1.0, -2 * c.center.real, -2 * c.center.imag,
            abs(c.center) ** 2 - c.radius ** 2)))
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
    predicted = abs(abs(o - circ.center) ** 2 - circ.radius ** 2) / k.radius ** 2
    return coll, abs(ratio - predicted) / ratio
