import numpy as np
import pytest

from poncelet_inversive import Circle, PonceletFamily
from poncelet_inversive.errors import FamilyError
from poncelet_inversive.family import family_from_inner_circle, solve_inner_radius

# Reference configuration used across the suite: generic foci, 2:1 outer
# ellipse, inversion center inside the circumcircle sweep region.
REF_F = 0.3 + 0.0j
REF_G = 0.2 + 0.1j
REF_A, REF_B = 2.0, 1.0
REF_K = Circle(1.6 + 0.9j, 0.7)
EXTERIOR_K = Circle(4.0 + 3.0j, 0.7)


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
