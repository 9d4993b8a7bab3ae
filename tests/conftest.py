import numpy as np
import pytest

from poncelet_inversive import Circle, PonceletFamily
from poncelet_inversive.conics import Chart, Conic, Line
from poncelet_inversive.errors import FamilyError
from poncelet_inversive.family import family_from_inner_circle, solve_inner_radius

# Reference configuration used across the suite: generic foci, 2:1 outer
# ellipse, inversion center inside the circumcircle sweep region.
REF_F = 0.3 + 0.0j
REF_G = 0.2 + 0.1j
REF_A, REF_B = 2.0, 1.0
REF_K = Circle(1.6 + 0.9j, 0.7)
EXTERIOR_K = Circle(4.0 + 3.0j, 0.7)
# Foci and axes of a family on P5's degenerate set: P5's denominator 2 D
# vanishes, and the constant-power circle of its Euler circles is a line.
P5_AT_INFINITY = (-0.1471293724861471 - 0.9210687042348751j,
                  -0.12503544596441718 + 0.7329637374078555j,
                  1.0, 0.315337958479478)


@pytest.fixture
def fam():
    return PonceletFamily.from_axes(REF_F, REF_G, REF_A, REF_B)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_family(rng, max_focus=0.6):
    f = rng.uniform(-max_focus, max_focus) + 1j * rng.uniform(-max_focus, max_focus)
    g = rng.uniform(-max_focus, max_focus) + 1j * rng.uniform(-max_focus, max_focus)
    a = rng.uniform(1.2, 3.0)
    b = rng.uniform(0.5 * a, a)
    return PonceletFamily.from_axes(f, g, a, b)


def random_circle(rng):
    center = rng.uniform(-3, 3) + 1j * rng.uniform(-3, 3)
    return Circle(center, rng.uniform(0.3, 1.5))


def random_inner_circle_family(rng):
    """Family inscribed in a drawn circle; redraws until closure has a radius."""
    while True:
        a = rng.uniform(1.2, 3.0)
        b = rng.uniform(0.5 * a, 0.95 * a)
        center = complex(rng.uniform(-0.3, 0.3) * a, rng.uniform(-0.3, 0.3) * b)
        try:
            return family_from_inner_circle(
                a, b, center, solve_inner_radius(a, b, center))
        except FamilyError:
            continue


# Constructions the tests build cases and oracles from; no command needs them.

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


def conic_from_ellipse(center: complex, semi_major: float, semi_minor: float,
                       angle: float) -> Conic:
    """Implicit conic of the ellipse with the given center/axes/tilt, in the
    chart centred on it and scaled by its semi-major axis."""
    ct, st = np.cos(angle), np.sin(angle)
    r = np.array([[ct, -st], [st, ct]])
    q = np.diag([0.0, 0.0, -1.0])
    q[:2, :2] = r @ np.diag([1.0, (semi_major / semi_minor) ** 2]) @ r.T
    return Conic.from_matrix(q, Chart(center, semi_major))


def line_through(p1: complex, p2: complex) -> Line:
    d = p2 - p1
    return Line(-d.imag, d.real, d.imag * p1.real - d.real * p1.imag)


def map_point(m, p: complex) -> complex:
    """The image of p under the ProjectiveMap m."""
    v = m.m @ np.array([p.real, p.imag, 1.0])
    return complex(v[0] / v[2], v[1] / v[2])


def ellipse_contains(e, z: complex) -> bool:
    """z strictly inside the EllipseGeom e."""
    return abs(z - e.focus1) + abs(z - e.focus2) < e.major_axis_length
