"""Poncelet triangle families from the symmetric unit-disk parametrization.

A family is encoded by the inner-ellipse foci f, g inside the unit disk and
the affine map A(z) = p z + q conj(z) (p = (a+b)/2, q = (a-b)/2) that carries
the unit circle to the outer ellipse with semiaxes a >= b > 0.  For every
angle theta the three triangle vertices on the unit circle are the roots of

    z^3 - s1 z^2 + s2 z - s3 = 0,
    s1 = f + g + lam conj(f) conj(g),  s2 = f g + lam (conj(f) + conj(g)),
    s3 = lam = exp(i theta).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conics import Conic, Line, ProjectiveMap, conic_params, conic_from_ellipse, conic_transform
from .errors import CayleyViolation, FamilyError, NotNested, RootToleranceExceeded

# Reject |fg| -> 1, which breaks the constant-power denominators downstream.
_FG_GUARD = 1e-10


class Triangle(NamedTuple):
    """Three vertices: complex scalars, or arrays of one shape (a batch)."""

    v1: complex
    v2: complex
    v3: complex


@dataclass(frozen=True)
class EllipseGeom:
    """Ellipse as foci plus major axis length (|z-f1| + |z-f2| = length)."""

    focus1: complex
    focus2: complex
    major_axis_length: float

    def side_tangency_residual(self, p1: complex, p2: complex) -> float:
        """Relative tangency defect of the line through p1, p2.

        Reflects focus1 across the line; the line is tangent iff the
        reflection is at major-axis distance from focus2.
        """
        d = (p2 - p1) / abs(p2 - p1)
        mirrored = p1 + d * np.conj((self.focus1 - p1) / d)
        return abs(abs(mirrored - self.focus2) - self.major_axis_length) \
            / self.major_axis_length

    def contains(self, z: complex) -> bool:
        return abs(z - self.focus1) + abs(z - self.focus2) < self.major_axis_length

    def to_conic(self) -> Conic:
        center = (self.focus1 + self.focus2) / 2
        c = abs(self.focus2 - self.focus1) / 2
        semi_major = self.major_axis_length / 2
        semi_minor = float(np.sqrt(semi_major ** 2 - c ** 2))
        if c == 0:
            angle = 0.0
        else:
            angle = float(np.angle(self.focus2 - self.focus1))
        return conic_from_ellipse(center, semi_major, semi_minor, angle)

    @staticmethod
    def from_conic(c: Conic) -> "EllipseGeom":
        center, semi_major, semi_minor, angle = conic_params(c)
        foc = float(np.sqrt(max(semi_major ** 2 - semi_minor ** 2, 0.0)))
        off = foc * complex(np.cos(angle), np.sin(angle))
        return EllipseGeom(center - off, center + off, 2 * semi_major)


@dataclass(frozen=True)
class PonceletFamily:
    """Foci f, g in the unit disk plus affine coefficients p > |q| >= 0."""

    f: complex
    g: complex
    p: float
    q: float

    def __post_init__(self):
        if abs(self.f) >= 1 or abs(self.g) >= 1:
            raise FamilyError("focus outside unit disk")
        if not (self.p > abs(self.q) >= 0):
            raise FamilyError("require p > |q| >= 0 (i.e. a >= b > 0)")
        if self.p ** 2 == self.q ** 2:
            raise FamilyError("degenerate affine map: p^2 == q^2")
        if 1 - (abs(self.f) * abs(self.g)) ** 2 < _FG_GUARD:
            raise FamilyError("|fg| too close to 1")

    @staticmethod
    def from_axes(f: complex, g: complex, a: float, b: float) -> "PonceletFamily":
        if not (a >= b > 0):
            raise FamilyError("outer semiaxes must satisfy a >= b > 0")
        return PonceletFamily(complex(f), complex(g), (a + b) / 2, (a - b) / 2)

    @property
    def a(self) -> float:
        return self.p + self.q

    @property
    def b(self) -> float:
        return self.p - self.q

    def affine(self, z: complex) -> complex:
        return self.p * z + self.q * np.conj(z)

    def affine_map(self) -> ProjectiveMap:
        return ProjectiveMap(np.diag([self.a, self.b, 1.0]))

    def outer_conic(self) -> Conic:
        return conic_from_ellipse(0j, self.a, self.b, 0.0)


def triangle_at(fam: PonceletFamily, theta) -> Triangle:
    """Unit-circle-chart Poncelet triangle at parameter theta.

    theta may be a scalar or an array; each vertex then has theta's shape.
    Roots are eigenvalues of the stacked companion matrices (the matrix
    np.roots builds) with one Newton polish step, then projected radially
    onto the unit circle and sorted by argument.
    """
    lam = np.exp(1j * np.asarray(theta, dtype=float))
    s1 = fam.f + fam.g + lam * np.conj(fam.f) * np.conj(fam.g)
    s2 = fam.f * fam.g + lam * (np.conj(fam.f) + np.conj(fam.g))
    s3 = lam
    companion = np.zeros(lam.shape + (3, 3), dtype=complex)
    companion[..., 0, :] = np.stack([s1, -s2, s3], axis=-1)
    companion[..., 1, 0] = companion[..., 2, 1] = 1.0
    roots = np.linalg.eigvals(companion)
    s1, s2, s3 = s1[..., None], s2[..., None], s3[..., None]
    # Newton polish against the monic cubic.
    pval = ((roots - s1) * roots + s2) * roots - s3
    dval = (3.0 * roots - 2.0 * s1) * roots + s2
    safe = np.abs(dval) > 1e-14
    roots[safe] -= pval[safe] / dval[safe]
    drift = np.abs(np.abs(roots) - 1.0)
    if np.max(drift) > 1e-6:
        raise RootToleranceExceeded(
            f"root left the unit circle by {np.max(drift):.3e}")
    roots = roots / np.abs(roots)
    order = np.argsort(np.angle(roots) % (2 * np.pi), axis=-1)
    roots = np.take_along_axis(roots, order, axis=-1)
    return Triangle(*np.moveaxis(roots, -1, 0))


def affine_image(fam: PonceletFamily, t: Triangle) -> Triangle:
    """World-chart triangle: vertex-wise w = p z + q conj(z)."""
    return Triangle(*(fam.affine(v) for v in t))


def inner_ellipse(fam: PonceletFamily) -> EllipseGeom:
    """Unit-disk-chart inscribed ellipse: foci f, g, axis |1 - conj(f) g|."""
    return EllipseGeom(fam.f, fam.g, abs(1 - np.conj(fam.f) * fam.g))


def inner_ellipse_world(fam: PonceletFamily) -> EllipseGeom:
    """World-chart inscribed ellipse (affine image of inner_ellipse)."""
    c = conic_transform(inner_ellipse(fam).to_conic(), fam.affine_map())
    return EllipseGeom.from_conic(c)


def _preimage_foci(a: float, b: float, center: complex,
                   r: float) -> tuple[complex, complex]:
    """Foci of the unit-disk preimage of the world circle (center, r)."""
    c = np.sqrt(a * a - b * b)
    mid = complex(center.real / a, center.imag / b)
    off = 1j * (r * c / (a * b))
    return mid - off, mid + off


def family_from_inner_circle(a: float, b: float, center: complex,
                             r_in: float) -> PonceletFamily:
    """Family whose inscribed conic is the circle (center, r_in).

    Pulls the circle back through the inverse affine map: the preimage is
    an axis-aligned ellipse with semiaxes r/b >= r/a, center
    x_c/a + i y_c/b, and semi-focal length r c/(a b) along the imaginary
    direction (c^2 = a^2 - b^2).  Its foci are the family's f, g.
    Validates the triangle closure condition |1 - conj(f) g| = 2 r/b.
    """
    if not (a >= b > 0):
        raise FamilyError("outer semiaxes must satisfy a >= b > 0")
    if r_in <= 0:
        raise FamilyError("inner radius must be positive")
    f, g = _preimage_foci(a, b, complex(center), r_in)
    if abs(f) >= 1 or abs(g) >= 1:
        raise NotNested("preimage foci fall outside the unit disk")
    closure = abs(1 - np.conj(f) * g)
    target = 2 * r_in / b
    if abs(closure - target) > 1e-8 * target:
        raise CayleyViolation(
            f"closure |1-conj(f)g| = {closure:.12g} != 2 r/b = {target:.12g}")
    return PonceletFamily.from_axes(f, g, a, b)


def solve_inner_radius(a: float, b: float, center: complex) -> float:
    """Radius r_in for which (a, b, center, r_in) satisfies closure.

    With m = x_c/a + i y_c/b, closure |1 - conj(f) g| = 2 r/b squares to
    beta^2 t^2 + B t + alpha^2 = 0 in t = r^2, where alpha = 1 - |m|^2,
    beta = c^2/(a b)^2, gamma = 4 c^2 Re(m)^2/(a b)^2, delta = 4/b^2 and
    B = 2 alpha beta + gamma - delta.  The smaller root is
    t = 2 alpha^2 / (-B + sqrt(B^2 - 4 beta^2 alpha^2)), which also covers
    a = b (beta = 0, r = b alpha / 2).
    """
    m = complex(center.real / a, center.imag / b)
    c2, ab2 = a * a - b * b, (a * b) ** 2
    alpha, beta = 1 - abs(m) ** 2, c2 / ab2
    big_b = 2 * alpha * beta + 4 * c2 * m.real ** 2 / ab2 - 4 / b ** 2
    disc = big_b ** 2 - 4 * (beta * alpha) ** 2
    den = np.sqrt(max(disc, 0.0)) - big_b
    if disc >= 0 and den > 0:
        r = float(np.sqrt(2 * alpha ** 2 / den))
        if 0 < r < b:
            return r
    raise CayleyViolation("no closure radius in (0, b)")
