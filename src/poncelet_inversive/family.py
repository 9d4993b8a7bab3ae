"""Poncelet triangle families from the symmetric unit-disk parametrization.

A family is encoded by the inner-ellipse foci f, g inside the unit disk and
the affine map A(z) = p z + q conj(z) (p = (a+b)/2, q = (a-b)/2) that carries
the unit circle to the outer ellipse with semiaxes a >= b > 0.  For every
angle theta the three triangle vertices on the unit circle are the roots of

    z^3 - s1 z^2 + s2 z - s3 = 0,
    s1 = f + g + lam conj(f) conj(g),  s2 = f g + lam (conj(f) + conj(g)),
    s3 = lam = exp(i theta),

that is, of lam = B(z) = z (z - f)(z - g) / ((1 - conj(f) z)(1 - conj(g) z)),
a degree-3 Blaschke product.  triangle_at finds them by inverting the
phase of B on the unit circle; no eigenvalue problem is solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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


def _phase_parts(fam: PonceletFamily):
    """t -> (cos t, sin t, Re ab, Im ab, phi'(t)) for the factors
    a = 1 - f e^{-it} and b = 1 - g e^{-it} of the phase
    phi(t) = 3t + 2 arg(a b).

    Re a = (1 - |f|) + |f| |e^{it} - f/|f||^2 / 2 and Im a =
    Re f sin t - Im f cos t are free of cancellation, with 1 - |f| from
    the exact 1 - |f|^2, so arg a stays accurate where |a| is small (f
    near the unit circle).  Both arguments lie in (-pi/2, pi/2), so
    2 arg a + 2 arg b = 2 arg(a b).  phi' = 1 + (1 - |f|^2)/|a|^2 + (same, g).
    """
    consts = []
    for w in (complex(fam.f), complex(fam.g)):
        rho = abs(w)
        (xn, xd), (yn, yd) = (v.as_integer_ratio() for v in (w.real, w.imag))
        den = (xd * yd) ** 2  # 1 - |w|^2 exactly, in integers; rounded once
        c = (den - (xn * yd) ** 2 - (yn * xd) ** 2) / den
        unit = w / rho if rho else 1.0
        consts.append((w, unit, 0.5 * rho, c / (1 + rho), c))

    def parts(t):
        x, y = np.cos(t), np.sin(t)
        ab_re, ab_im, dphi = 1.0, 0.0, 1.0
        for w, unit, half_rho, deficit, c in consts:
            dx, dy = x - unit.real, y - unit.imag
            re = deficit + half_rho * (dx * dx + dy * dy)
            im = w.real * y - w.imag * x
            ab_re, ab_im = ab_re * re - ab_im * im, ab_re * im + ab_im * re
            dphi = dphi + c / (re * re + im * im)
        return x, y, ab_re, ab_im, dphi

    return parts


def triangle_at(fam: PonceletFamily, theta) -> Triangle:
    """Unit-circle-chart Poncelet triangle at parameter theta.

    theta may be a scalar or an array; each vertex then has theta's shape.
    On z = e^{it} the phase of B, phi(t) = 3t + 2 arg(1 - f e^{-it})
    + 2 arg(1 - g e^{-it}), increases strictly (phi' = 1 + P_f + P_g,
    Poisson kernels) by 6 pi per turn, so the vertices are the t in
    [0, 2 pi) where phi reaches the three targets theta + 2 pi k in
    [phi(0), phi(0) + 6 pi).  Each starts from a secant on a 513-point
    table of phi and runs a bracketed Newton iteration until
    |phi - target| <= 1e-9 (or t is within 4e-15, where phi is too steep
    for double t to reach that), then takes one step on the wrapped phase
    arg(B(e^{it}) conj(lam)), which is free of the rounding of the large
    phase values.  The vertices e^{it} lie on the unit circle and come in
    argument order.  Raises RootToleranceExceeded when they do not solve
    the cubic (the phase is not monotone: a focus outside the disk).
    """
    theta = np.asarray(theta, dtype=float)
    parts = _phase_parts(fam)
    grid = np.linspace(0.0, 2 * np.pi, 513)
    _, _, ab_re, ab_im, _ = parts(grid)
    table = 3 * grid + 2 * np.arctan2(ab_im, ab_re)
    th = theta.ravel()
    turns = np.ceil((table[0] - th) / (2 * np.pi)) + np.arange(3)[:, None]
    target = (th + 2 * np.pi * turns).ravel()  # vertex-major
    hi_idx = np.clip(np.searchsorted(table, target), 1, len(grid) - 1)
    lo, hi = grid[hi_idx - 1], grid[hi_idx]
    t = lo + (target - table[hi_idx - 1]) * (hi - lo) \
        / (table[hi_idx] - table[hi_idx - 1])
    for step in range(64):  # bisection alone: ~45 halvings of a table step
        x, y, re, im, dphi = parts(t)
        r = 3 * t + 2 * np.arctan2(im, re) - target
        moving = np.abs(r) > 1e-9 + 4e-15 * dphi
        if step == 63 or not moving.any():
            break
        lo = np.where(moving & (r < 0), t, lo)
        hi = np.where(moving & (r > 0), t, hi)
        newton = t - r / dphi
        inside = (lo <= newton) & (newton <= hi)
        t = np.where(moving, np.where(inside, newton, 0.5 * (lo + hi)), t)
    # One step on the wrapped phase arg(B(e^{it}) conj(lam)).
    lam = np.exp(1j * th)
    z, ab = x + 1j * y, re + 1j * im
    t = t - np.angle(z * z * z * np.tile(lam.conj(), 3) * ab * ab) / dphi
    z = np.exp(1j * t).reshape(3, -1)
    f, g = fam.f, fam.g
    s1 = f + g + lam * np.conj(f * g)
    s2 = f * g + lam * np.conj(f + g)
    resid = np.abs(((z - s1) * z + s2) * z - lam)
    if np.any(resid > 1e-8):
        raise RootToleranceExceeded(
            f"unit-circle vertices miss the cubic by {np.max(resid):.3e}")
    return Triangle(*z.reshape((3,) + theta.shape))


def affine_image(fam: PonceletFamily, t: Triangle) -> Triangle:
    """World-chart triangle: vertex-wise w = p z + q conj(z)."""
    return Triangle(*(fam.affine(v) for v in t))


def inner_ellipse(fam: PonceletFamily) -> EllipseGeom:
    """Unit-disk-chart inscribed ellipse: foci f, g, axis |1 - conj(f) g|."""
    return EllipseGeom(fam.f, fam.g, abs(1 - np.conj(fam.f) * fam.g))


def inner_ellipse_world(fam: PonceletFamily) -> EllipseGeom:
    """World-chart inscribed ellipse, the affine image of inner_ellipse.

    Unit chart: c + alpha e^{it} + beta e^{-it}, c = (f + g)/2,
    alpha, beta = u (L/2 +- b')/2 with u the unit direction from f to g
    (1 when f = g), L the major axis, b' the semi-minor axis.  A carries
    it to A(c) + alpha' e^{it} + beta' e^{-it}, alpha' = p alpha + q conj(beta),
    beta' = p beta + q conj(alpha): major axis 2 (|alpha'| + |beta'|), foci
    A(c) -+ 2 sqrt(alpha' beta'), their axis angle taken in [0, pi).
    """
    half = inner_ellipse(fam).major_axis_length / 2
    minor = np.sqrt(half ** 2 - abs(fam.g - fam.f) ** 2 / 4)
    u = np.exp(1j * np.angle(fam.g - fam.f))
    alpha, beta = u * (half + minor) / 2, u * (half - minor) / 2
    alpha_w = fam.p * alpha + fam.q * np.conj(beta)
    beta_w = fam.p * beta + fam.q * np.conj(alpha)
    off = 2 * np.sqrt(alpha_w * beta_w)
    if not 0 <= np.angle(off) < np.pi:
        off = -off
    center = fam.affine((fam.f + fam.g) / 2)
    return EllipseGeom(complex(center - off), complex(center + off),
                       float(2 * (abs(alpha_w) + abs(beta_w))))


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
