"""Conic and projective-map algebra.

Conics are stored as the 6 real coefficients (A, B, C, D, E, F) of
A x^2 + B xy + C y^2 + D x + E y + F = 0, canonicalized to a unit-norm
vector whose first nonzero entry is positive, so equality is testable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateConicError, DegenerateInput, SingularMap

# Relative rank cutoff for "this 3x3 conic matrix is rank deficient".
_RANK_TOL = 1e-9


class ConicType(enum.Enum):
    ELLIPSE = "Ellipse"
    PARABOLA = "Parabola"
    HYPERBOLA = "Hyperbola"
    DEGENERATE = "DegenerateConic"


def _canonical(coeffs: np.ndarray) -> np.ndarray:
    v = np.asarray(coeffs, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0 or not np.all(np.isfinite(v)):
        raise ValueError("conic coefficients must be finite and not all zero")
    v = v / n
    for x in v:
        if x != 0.0:
            if x < 0.0:
                v = -v
            break
    return v


@dataclass(frozen=True)
class Conic:
    """Canonical-form conic A x^2 + B xy + C y^2 + D x + E y + F = 0."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _canonical(self.coeffs))

    @property
    def A(self):
        return self.coeffs[0]

    @property
    def B(self):
        return self.coeffs[1]

    @property
    def C(self):
        return self.coeffs[2]

    def matrix(self) -> np.ndarray:
        """Symmetric 3x3 matrix Q with [x y 1] Q [x y 1]^T = conic."""
        A, B, C, D, E, F = self.coeffs
        return np.array([[A, B / 2, D / 2],
                         [B / 2, C, E / 2],
                         [D / 2, E / 2, F]])

    @staticmethod
    def from_matrix(q: np.ndarray) -> "Conic":
        q = 0.5 * (q + q.T)
        return Conic(np.array([q[0, 0], 2 * q[0, 1], q[1, 1],
                               2 * q[0, 2], 2 * q[1, 2], q[2, 2]]))

    @staticmethod
    def unit_circle() -> "Conic":
        return Conic(np.array([1.0, 0.0, 1.0, 0.0, 0.0, -1.0]))

    def distance(self, other: "Conic") -> float:
        """Euclidean distance between canonical coefficient vectors."""
        return float(np.linalg.norm(self.coeffs - other.coeffs))


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

    def vector(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])

    def signed_distance(self, p: complex) -> float:
        return self.a * p.real + self.b * p.imag + self.c

    @staticmethod
    def through(p1: complex, p2: complex) -> "Line":
        d = p2 - p1
        return Line(-d.imag, d.real, d.imag * p1.real - d.real * p1.imag)


@dataclass(frozen=True)
class ProjectiveMap:
    """Nonsingular 3x3 real matrix acting on homogeneous plane points."""

    m: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("projective map must be 3x3")
        scale = np.abs(m).max(axis=1, keepdims=True)
        if np.any(scale == 0) or abs(np.linalg.det(m / scale)) <= 1e-12:
            raise SingularMap("projective map is singular within tolerance")
        object.__setattr__(self, "m", m)

    def apply(self, p: complex) -> complex:
        v = self.m @ np.array([p.real, p.imag, 1.0])
        return complex(v[0] / v[2], v[1] / v[2])

    def compose(self, other: "ProjectiveMap") -> "ProjectiveMap":
        return ProjectiveMap(self.m @ other.m)

    def inverse(self) -> "ProjectiveMap":
        return ProjectiveMap(np.linalg.inv(self.m))

    @staticmethod
    def affine(scale: float, offset: complex) -> "ProjectiveMap":
        return ProjectiveMap(np.array([[scale, 0.0, offset.real],
                                       [0.0, scale, offset.imag],
                                       [0.0, 0.0, 1.0]]))


def conic_fit(points) -> Conic:
    """Least-squares conic through >= 5 points (algebraic distance).

    Exact through the points when exactly 5 independent points are given.
    Raises DegenerateInput on rank deficiency or coincident points.
    """
    arr = np.asarray(points, dtype=complex)
    if len(arr) < 5:
        raise DegenerateInput("need at least 5 points to fit a conic")
    if len(arr) <= 64:  # pairwise coincidence check only at small sizes
        d = np.abs(arr[:, None] - arr[None, :])
        if np.any(d[np.triu_indices(len(arr), 1)] < 1e-12):
            raise DegenerateInput("coincident points in conic fit")
    x, y = arr.real, arr.imag
    design = np.column_stack([x * x, x * y, y * y, x, y, np.ones_like(x)])
    # Column scaling stabilizes the fit when coordinates are large.
    col = np.abs(design).max(axis=0)
    col[col == 0] = 1.0
    # The thin SVD keeps all six rows of vt from six points on, and skips
    # the n x n U; five points need the full one for the null row.
    _, s, vt = np.linalg.svd(design / col, full_matrices=len(arr) < 6)
    if s[4] <= 1e-10 * s[0]:
        raise DegenerateInput("design matrix rank < 5 (points on a line?)")
    return Conic(vt[-1] / col)


def conic_classify(c: Conic) -> ConicType:
    A, B, C = c.A, c.B, c.C
    disc = B * B - 4 * A * C
    eps = 1e-9 * (A * A + B * B + C * C)
    q = c.matrix()
    s = np.linalg.svd(q, compute_uv=False)
    if s[2] <= _RANK_TOL * s[0]:
        return ConicType.DEGENERATE
    if disc < -eps:
        return ConicType.ELLIPSE
    if disc > eps:
        return ConicType.HYPERBOLA
    return ConicType.PARABOLA


def conic_transform(c: Conic, m: ProjectiveMap) -> Conic:
    """Image conic under m: every point p on c maps to m(p) on the result."""
    mi = np.linalg.inv(m.m)
    return Conic.from_matrix(mi.T @ c.matrix() @ mi)


def conic_residual(c: Conic, p: complex) -> float:
    """|conic(p)| normalized by the gradient magnitude at p."""
    A, B, C, D, E, F = c.coeffs
    x, y = p.real, p.imag
    val = A * x * x + B * x * y + C * y * y + D * x + E * y + F
    gx = 2 * A * x + B * y + D
    gy = B * x + 2 * C * y + E
    return abs(val) / (np.hypot(gx, gy) + 1e-300)


def _adjugate(q: np.ndarray) -> np.ndarray:
    return np.linalg.inv(q) * np.linalg.det(q)


def tangents_from_point(c: Conic, o: complex) -> list[Line]:
    """Tangent lines to c through o (0, 1, or 2 lines).

    Lines l through o satisfying the dual tangency condition l^T Q* l = 0.
    """
    q = c.matrix()
    s = np.linalg.svd(q, compute_uv=False)
    if s[2] <= _RANK_TOL * s[0]:
        raise DegenerateConicError("tangents from point need a nondegenerate conic")
    qa = _adjugate(q)
    # Lines through o: span of l1 = [1, 0, -ox] and l2 = [0, 1, -oy].
    l1 = np.array([1.0, 0.0, -o.real])
    l2 = np.array([0.0, 1.0, -o.imag])
    alpha = l1 @ qa @ l1
    beta = l1 @ qa @ l2
    gamma = l2 @ qa @ l2
    scale = max(abs(alpha), abs(beta), abs(gamma))
    if scale == 0.0:
        raise DegenerateConicError("dual form vanished identically")
    # Homogeneous quadratic alpha s^2 + 2 beta s t + gamma t^2 = 0 in (s : t).
    disc = beta * beta - alpha * gamma
    tol = 1e-12 * scale * scale
    if abs(disc) <= tol:
        # o on the conic: one tangent, the double root direction.
        if abs(alpha) >= abs(gamma):
            return [Line(*(-beta * l1 + alpha * l2))]
        return [Line(*(gamma * l1 - beta * l2))]
    if disc < 0:
        return []
    rt = np.sqrt(disc)
    if abs(alpha) >= abs(gamma):
        return [Line(*(((-beta + sgn * rt) / alpha) * l1 + l2)) for sgn in (1, -1)]
    return [Line(*(l1 + ((-beta + sgn * rt) / gamma) * l2)) for sgn in (1, -1)]


def tangency_residual(c: Conic, line: Line) -> float:
    qa = _adjugate(c.matrix())
    lv = line.vector()
    return abs(lv @ qa @ lv) / (np.linalg.norm(qa) * (lv @ lv))


def conic_params(c: Conic):
    """Center, semi-axes (major first) and major-axis angle of a central conic."""
    q = c.matrix()
    a33 = q[:2, :2]
    if abs(np.linalg.det(a33)) <= 1e-14 * np.linalg.norm(a33) ** 2:
        raise DegenerateConicError("conic has no finite center")
    cx, cy = np.linalg.solve(a33, [-q[0, 2], -q[1, 2]])
    evals, evecs = np.linalg.eigh(a33)
    k = -np.linalg.det(q) / np.linalg.det(a33)
    with np.errstate(invalid="ignore", divide="ignore"):
        semi = np.sqrt(np.abs(k / evals))
    order = np.argsort(-semi)
    semi = semi[order]
    axis = evecs[:, order[0]]
    angle = float(np.arctan2(axis[1], axis[0])) % np.pi
    return complex(cx, cy), float(semi[0]), float(semi[1]), angle


def conic_from_ellipse(center: complex, semi_major: float, semi_minor: float,
                       angle: float) -> Conic:
    """Implicit conic of the ellipse with the given center/axes/tilt."""
    ct, st = np.cos(angle), np.sin(angle)
    r = np.array([[ct, -st], [st, ct]])
    d = np.diag([1.0 / semi_major ** 2, 1.0 / semi_minor ** 2])
    a33 = r @ d @ r.T
    q = np.zeros((3, 3))
    q[:2, :2] = a33
    cv = np.array([center.real, center.imag])
    q[:2, 2] = -a33 @ cv
    q[2, :2] = q[:2, 2]
    q[2, 2] = cv @ a33 @ cv - 1.0
    return Conic.from_matrix(q)
