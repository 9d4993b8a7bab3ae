"""Conic and projective-map algebra.

A conic carries a chart, the similarity world = center + scale * chart, and
is stored as the canonical (unit-norm, first nonzero entry positive)
coefficients (A, B, C, D, E, F) of A x^2 + B xy + C y^2 + D x + E y + F = 0
in chart coordinates.  Every rank, type, tangent, parameter, residual and
distance test here runs in the chart, so a small conic far from the origin
is as well conditioned as a unit one; `Conic.coeffs` makes world ones.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateConicError, DegenerateInput, SingularMap


class ConicType(enum.Enum):
    ELLIPSE = "Ellipse"
    PARABOLA = "Parabola"
    HYPERBOLA = "Hyperbola"
    DEGENERATE = "DegenerateConic"
    POINT = "Point"  # a locus collapsed to one point: no conic


def _rank_deficient(s: np.ndarray, rank: int = 3) -> bool:
    """The one rank test, on the singular values of a matrix in chart
    coordinates: a conic or a map into a chart (3), a fit's design (5)."""
    return bool(s[rank - 1] <= 1e-9 * s[0])


def _canonical(coeffs: np.ndarray) -> np.ndarray:
    v = np.asarray(coeffs, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0 or not np.all(np.isfinite(v)):
        raise ValueError("conic coefficients must be finite and not all zero")
    return v / n if v[np.flatnonzero(v)[0]] > 0 else -v / n


@dataclass(frozen=True)
class Chart:
    """The similarity world = center + scale * chart."""

    center: complex = 0j
    scale: float = 1.0

    @property
    def m(self) -> np.ndarray:
        """T, with [world, 1] = T [chart, 1]."""
        s, c = self.scale, self.center
        return np.array([[s, 0.0, c.real], [0.0, s, c.imag], [0.0, 0.0, 1.0]])

    def local(self, z):
        return (z - self.center) / self.scale


@dataclass(frozen=True)
class Conic:
    """A x^2 + B xy + C y^2 + D x + E y + F = 0 in its chart (default: world)."""

    local: np.ndarray
    chart: Chart = Chart()

    def __post_init__(self):
        object.__setattr__(self, "local", _canonical(self.local))

    @property
    def coeffs(self) -> np.ndarray:
        """Canonical world coefficients."""
        return Conic.from_matrix(self.matrix()).local

    A = property(lambda self: self.coeffs[0])
    B = property(lambda self: self.coeffs[1])
    C = property(lambda self: self.coeffs[2])

    def local_matrix(self) -> np.ndarray:
        """Symmetric 3x3 Q with [w 1] Q [w 1]^T = conic at chart point w."""
        A, B, C, D, E, F = self.local
        return np.array([[A, B / 2, D / 2],
                         [B / 2, C, E / 2],
                         [D / 2, E / 2, F]])

    def matrix(self) -> np.ndarray:
        """The world matrix T^-T Q T^-1."""
        ti = np.linalg.inv(self.chart.m)
        return ti.T @ self.local_matrix() @ ti

    @staticmethod
    def from_matrix(q: np.ndarray, chart: Chart = Chart()) -> "Conic":
        q = 0.5 * (q + q.T)
        return Conic(np.array([q[0, 0], 2 * q[0, 1], q[1, 1],
                               2 * q[0, 2], 2 * q[1, 2], q[2, 2]]), chart)

    @staticmethod
    def unit_circle() -> "Conic":
        return Conic(np.array([1.0, 0.0, 1.0, 0.0, 0.0, -1.0]))

    def distance(self, other: "Conic") -> float:
        """Distance of the canonical coefficients in self's chart, up to sign."""
        rel = Chart(other.chart.local(self.chart.center),
                    self.chart.scale / other.chart.scale).m  # self's in other's
        v = Conic.from_matrix(rel.T @ other.local_matrix() @ rel).local
        return float(min(np.linalg.norm(self.local - v),
                         np.linalg.norm(self.local + v)))


@dataclass(frozen=True)
class Line:
    """Homogeneous line a x + b y + c = 0, normalized to a^2 + b^2 = 1."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        n = float(np.hypot(self.a, self.b))
        if n == 0.0:
            raise ValueError("line normal must be nonzero")
        object.__setattr__(self, "a", self.a / n)
        object.__setattr__(self, "b", self.b / n)
        object.__setattr__(self, "c", self.c / n)

    def signed_distance(self, p: complex) -> float:
        return self.a * p.real + self.b * p.imag + self.c


@dataclass(frozen=True)
class ProjectiveMap:
    """Nonsingular 3x3 real matrix acting on homogeneous plane points."""

    m: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("projective map must be 3x3")
        if not np.all(np.isfinite(m)) or _rank_deficient(
                np.linalg.svd(m, compute_uv=False)):
            raise SingularMap("projective map is singular within tolerance")
        object.__setattr__(self, "m", m)


def conic_fit(points) -> Conic:
    """Least-squares conic through >= 5 points (algebraic distance), exact
    through 5 independent ones, in the chart centred on their mean and
    scaled by their largest distance from it.  Raises DegenerateInput on
    coincident points or when the fit is not unique (points on a line)."""
    arr = np.asarray(points, dtype=complex)
    if len(arr) < 5:
        raise DegenerateInput("need at least 5 points to fit a conic")
    # All points equal: the unit chart, where the design has rank 1.
    chart = Chart(arr.mean(), float(np.max(np.abs(arr - arr.mean()))) or 1.0)
    w = chart.local(arr)
    if len(arr) <= 64:  # pairwise coincidence check only at small sizes
        d = np.abs(w[:, None] - w[None, :])
        if np.any(d[np.triu_indices(len(arr), 1)] < 1e-12):
            raise DegenerateInput("coincident points in conic fit")
    x, y = w.real, w.imag
    design = np.column_stack([x * x, x * y, y * y, x, y, np.ones_like(x)])
    # The thin SVD keeps all six rows of vt from six points on, and skips
    # the n x n U; five points need the full one for the null row.
    _, s, vt = np.linalg.svd(design, full_matrices=len(arr) < 6)
    if _rank_deficient(s, 5):
        raise DegenerateInput("design matrix rank < 5 (points on a line?)")
    return Conic(vt[-1], chart)


def conic_classify(c: Conic) -> ConicType:
    A, B, C = c.local[:3]
    disc = B * B - 4 * A * C
    eps = 1e-9 * (A * A + B * B + C * C)
    if _rank_deficient(np.linalg.svd(c.local_matrix(), compute_uv=False)):
        return ConicType.DEGENERATE
    if disc < -eps:
        return ConicType.ELLIPSE
    if disc > eps:
        return ConicType.HYPERBOLA
    return ConicType.PARABOLA


def conic_transform(c: Conic, m: ProjectiveMap) -> Conic:
    """Image conic under m, in the world chart: p on c maps to m(p) on it."""
    mi = np.linalg.inv(m.m @ c.chart.m)
    return Conic.from_matrix(mi.T @ c.local_matrix() @ mi)


def conic_residual(c: Conic, p: complex) -> float:
    """|conic(w)| over the gradient magnitude at w, the chart point of p,
    times the chart scale: a world distance to first order."""
    A, B, C, D, E, F = c.local
    w = c.chart.local(p)
    x, y = w.real, w.imag
    val = A * x * x + B * x * y + C * y * y + D * x + E * y + F
    gx = 2 * A * x + B * y + D
    gy = B * x + 2 * C * y + E
    return c.chart.scale * abs(val) / (np.hypot(gx, gy) + 1e-300)


def tangents_from_point(c: Conic, o: complex) -> list[Line]:
    """Tangent lines to c through o, solved in c's chart, h = [w, 1] the
    point of o.  det Q h^T Q h decides: one tangent when |h^T Q h| <= 1e-12
    |Q| |h|^2 (o on c), none when it is positive (o inside c), else two.
    They touch c where o's polar Q h meets it, at t = x p + y d (p the
    polar's point nearest the chart centre, d its point at infinity, and
    a x^2 + 2 b x y + e y^2 = 0); each tangent is the polar Q t."""
    if conic_classify(c) is ConicType.DEGENERATE:
        raise DegenerateConicError("tangents from point need a nondegenerate conic")
    w = c.chart.local(o)
    h = np.array([w.real, w.imag, 1.0])
    q = c.local_matrix()
    value = h @ q @ h
    on_c = abs(value) <= 1e-12 * np.linalg.norm(q) * (h @ h)
    if not on_c and np.linalg.det(q) * value > 0:
        return []
    l0, l1, l2 = q @ h  # o's polar line; rows of pd: its p and its d
    pd = (np.array([[-l0 * l2, -l1 * l2, l0 * l0 + l1 * l1], [-l1, l0, 0.0]])
          if l0 or l1 else np.eye(3)[:2])  # o a centre: the line at infinity
    (a, b), (_, e) = pd @ q @ pd.T
    k = -b - np.copysign(np.sqrt(abs(b * b - a * e)), b)  # roots (e, k) (k, a)
    ts = [h] if on_c else [(e, k) @ pd, (k, a) @ pd]  # on c, o touches
    return [Line(*np.linalg.solve(c.chart.m.T, q @ t)) for t in ts]


def tangency_residual(c: Conic, line: Line) -> float:
    """Dual-conic defect of the line, both taken into c's chart."""
    q = c.local_matrix()
    qa = np.linalg.inv(q) * np.linalg.det(q)  # the adjugate: the dual conic
    lv = c.chart.m.T @ np.array([line.a, line.b, line.c])
    return abs(lv @ qa @ lv) / (np.linalg.norm(qa) * (lv @ lv))


def conic_params(c: Conic):
    """Center, semi-axes (major first) and major-axis angle of a central conic."""
    q = c.local_matrix()
    a33 = q[:2, :2]
    if abs(np.linalg.det(a33)) <= 1e-14 * np.linalg.norm(a33) ** 2:
        raise DegenerateConicError("conic has no finite center")
    cx, cy = np.linalg.solve(a33, [-q[0, 2], -q[1, 2]])
    evals, evecs = np.linalg.eigh(a33)
    semi = c.chart.scale * np.sqrt(np.abs(np.linalg.det(q) / np.linalg.det(a33)
                                          / evals))
    i = int(np.argmax(semi))
    angle = float(np.arctan2(evecs[1, i], evecs[0, i])) % np.pi
    return (c.chart.center + c.chart.scale * complex(cx, cy), float(semi[i]),
            float(semi[1 - i]), angle)
