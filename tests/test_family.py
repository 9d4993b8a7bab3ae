import mpmath as mp
import numpy as np
import pytest

from poncelet_inversive import PonceletFamily
from poncelet_inversive.errors import (
    CayleyViolation,
    FamilyError,
    NotNested,
    RootToleranceExceeded,
)
from poncelet_inversive.family import (
    EllipseGeom,
    affine_image,
    family_from_inner_circle,
    inner_ellipse,
    inner_ellipse_world,
    solve_inner_radius,
    triangle_at,
)

from conftest import ellipse_contains, random_family


class TestFamilyConstruction:
    def test_from_axes(self):
        fam = PonceletFamily.from_axes(0.1, 0.2j, 2.0, 1.0)
        assert (fam.p, fam.q) == (1.5, 0.5)
        assert (fam.a, fam.b) == (2.0, 1.0)

    def test_focus_outside_disk(self):
        with pytest.raises(FamilyError):
            PonceletFamily.from_axes(1.2, 0.0, 2.0, 1.0)

    def test_bad_axes(self):
        with pytest.raises(FamilyError):
            PonceletFamily.from_axes(0.1, 0.1, 1.0, 2.0)  # a < b
        with pytest.raises(FamilyError):
            PonceletFamily(0.1, 0.1, 0.5, 0.5)  # p == |q|

    def test_fg_guard(self):
        f = 0.9999999999999
        with pytest.raises(FamilyError):
            PonceletFamily.from_axes(f, f, 2.0, 1.0)

    def test_affine_map(self):
        fam = PonceletFamily.from_axes(0.0, 0.0, 2.0, 1.0)
        assert fam.affine(1 + 0j) == pytest.approx(2.0)
        assert fam.affine(1j) == pytest.approx(1j)


class TestTriangleAt:
    def test_concentric_equilateral(self):
        # f = g = 0: vertices are the cube roots of lambda.
        fam = PonceletFamily.from_axes(0.0, 0.0, 2.0, 1.0)
        t = triangle_at(fam, 0.0)
        expect = sorted(np.exp(2j * np.pi * np.arange(3) / 3),
                        key=lambda z: np.angle(z) % (2 * np.pi))
        assert max(abs(v - e) for v, e in zip(t, expect)) < 1e-12

    def test_vertices_on_unit_circle(self, rng):
        for _ in range(20):
            fam = random_family(rng)
            t = triangle_at(fam, rng.uniform(0, 2 * np.pi))
            assert max(abs(abs(v) - 1) for v in t) < 1e-12

    def test_symmetric_polynomials(self, rng):
        # Oracle: the vertices must reproduce the cubic's coefficients.
        for _ in range(20):
            fam = random_family(rng)
            th = rng.uniform(0, 2 * np.pi)
            lam = np.exp(1j * th)
            v1, v2, v3 = triangle_at(fam, th)
            fb, gb = np.conj(fam.f), np.conj(fam.g)
            assert abs((v1 + v2 + v3) - (fam.f + fam.g + lam * fb * gb)) < 1e-10
            assert abs((v1 * v2 + v2 * v3 + v3 * v1)
                       - (fam.f * fam.g + lam * (fb + gb))) < 1e-10
            assert abs(v1 * v2 * v3 - lam) < 1e-10

    def test_periodicity(self, fam):
        t0 = triangle_at(fam, 0.3)
        t1 = triangle_at(fam, 0.3 + 2 * np.pi)
        assert max(abs(a - b) for a, b in zip(t0, t1)) < 1e-10

    def test_batch_matches_scalar_calls(self, rng):
        # Includes the 0 / 2 pi wrap of the parameter.
        thetas = np.r_[rng.uniform(0, 2 * np.pi, 200),
                       0.0, 2 * np.pi, -1e-17, 2 * np.pi - 1e-15]
        for _ in range(10):
            fam = random_family(rng)
            batch = triangle_at(fam, thetas)
            assert all(v.shape == thetas.shape for v in batch)
            scalar = np.array([triangle_at(fam, th) for th in thetas]).T
            assert np.max(np.abs(np.array(batch) - scalar)) <= 1e-15

    def test_batch_raises_off_the_unit_circle(self):
        # A focus outside the disk (validation bypassed) puts two roots
        # off the unit circle for every theta.
        bad = object.__new__(PonceletFamily)
        for name, value in (("f", 1.5 + 0j), ("g", 0.2j), ("p", 1.5),
                            ("q", 0.5)):
            object.__setattr__(bad, name, value)
        with pytest.raises(RootToleranceExceeded):
            triangle_at(bad, np.linspace(0, 2 * np.pi, 16))

    def test_continuity_of_vertex_set(self, fam):
        # Adjacent samples give nearby vertex sets (as sets, since the
        # argument sort can rotate labels).
        prev = triangle_at(fam, 0.0)
        for th in np.linspace(1e-4, 0.2, 50):
            cur = triangle_at(fam, th)
            for v in cur:
                assert min(abs(v - u) for u in prev) < 0.05
            prev = cur


def _oracle_vertices(fam, theta):
    """Roots of the family cubic at 40 digits, in argument order."""
    with mp.workdps(40):
        f, g, lam = mp.mpc(fam.f), mp.mpc(fam.g), mp.expj(mp.mpf(theta))
        roots = mp.polyroots([1, -(f + g + lam * mp.conj(f * g)),
                              f * g + lam * mp.conj(f + g), -lam],
                             maxsteps=200, extraprec=200)
        return sorted(roots, key=lambda z: mp.arg(z) % (2 * mp.pi))


def _theta_with_vertex_at(fam, t):
    """The parameter whose triangle has a vertex at e^{it}: lam = B(e^{it})."""
    with mp.workdps(40):
        z = mp.expj(mp.mpf(t))
        f, g = mp.mpc(fam.f), mp.mpc(fam.g)
        lam = z * (z - f) * (z - g) / ((1 - mp.conj(f) * z)
                                       * (1 - mp.conj(g) * z))
        return float(mp.arg(lam) % (2 * mp.pi))


class TestPhaseKernel:
    @pytest.mark.parametrize("modulus", [0.5, 0.9, 0.999, 0.99999])
    @pytest.mark.parametrize("equal_foci", [False, True])
    def test_matches_mpmath_oracle(self, modulus, equal_foci):
        # Seeded thetas, plus thetas that put a vertex 1e-4 to 3e-2 rad
        # from the direction of f, where 1 - f e^{-it} is small and a
        # cancelling evaluation of it loses digits.  Vertices must match
        # in argument order and sit on the unit circle to 2 ulp.
        rng = np.random.default_rng(int(modulus * 1e5) + equal_foci)
        f = modulus * np.exp(1j * rng.uniform(0, 2 * np.pi))
        g = f if equal_foci else modulus * np.exp(1j * rng.uniform(0, 2 * np.pi))
        fam = PonceletFamily.from_axes(f, g, 2.0, 1.0)
        near = np.angle(f) + np.outer([1, -1], [1e-4, 3e-3, 3e-2]).ravel()
        thetas = np.r_[rng.uniform(0, 2 * np.pi, 12),
                       [_theta_with_vertex_at(fam, t) for t in near]]
        got = np.array(triangle_at(fam, thetas))
        for j, th in enumerate(thetas):
            ref = _oracle_vertices(fam, th)
            err = max(float(abs(mp.mpc(v) - r)) for v, r in zip(got[:, j], ref))
            assert err <= 2e-15, (th, err)
        assert np.max(np.abs(np.abs(got) - 1)) <= 2 * np.finfo(float).eps

    def test_vertices_come_in_argument_order(self, rng):
        thetas = np.linspace(0, 2 * np.pi, 1000, endpoint=False)
        for _ in range(10):
            v = np.array(triangle_at(random_family(rng, 0.7), thetas))
            t = np.angle(v) % (2 * np.pi)
            assert np.all((t[0] < t[1]) & (t[1] < t[2]))

    def test_edge_family_converges(self):
        # |f| = |g| within 1e-10 of the circle: the phase climbs 4 pi in a
        # sliver of t, steeper than double t can resolve to 1e-9 in phase.
        f = (1 - 1e-10) * np.exp(0.7j)
        fam = PonceletFamily.from_axes(f, f, 2.0, 1.0)
        thetas = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        got = np.array(triangle_at(fam, thetas))
        for j in (0, 21, 42):
            ref = _oracle_vertices(fam, thetas[j])
            assert max(float(abs(mp.mpc(v) - r))
                       for v, r in zip(got[:, j], ref)) <= 2e-15


class TestInnerEllipse:
    def test_unit_chart_foci_and_axis(self, fam):
        e = inner_ellipse(fam)
        assert (e.focus1, e.focus2) == (fam.f, fam.g)
        assert e.major_axis_length == pytest.approx(
            abs(1 - np.conj(fam.f) * fam.g))

    def test_sides_tangent_in_unit_chart(self, fam, rng):
        e = inner_ellipse(fam)
        for th in rng.uniform(0, 2 * np.pi, 25):
            v1, v2, v3 = triangle_at(fam, th)
            for a, b in ((v1, v2), (v2, v3), (v3, v1)):
                assert e.side_tangency_residual(a, b) < 1e-12

    def test_world_chart_tangency(self, fam, rng):
        e = inner_ellipse_world(fam)
        for th in rng.uniform(0, 2 * np.pi, 25):
            w = affine_image(fam, triangle_at(fam, th))
            for a, b in ((w.v1, w.v2), (w.v2, w.v3), (w.v3, w.v1)):
                assert e.side_tangency_residual(a, b) < 1e-10

    def test_world_ellipse_is_affine_image(self, rng):
        # Oracle: points of the unit-chart ellipse, built from its foci and
        # axis, pushed through A, satisfy the world foci definition.
        t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        for _ in range(50):
            fam = random_family(rng)
            e = inner_ellipse(fam)
            half_focal = abs(fam.g - fam.f) / 2
            semi_major = e.major_axis_length / 2
            semi_minor = np.sqrt(semi_major ** 2 - half_focal ** 2)
            z = (fam.f + fam.g) / 2 + (fam.g - fam.f) / (2 * half_focal) \
                * (semi_major * np.cos(t) + 1j * semi_minor * np.sin(t))
            assert np.max(np.abs(abs(z - fam.f) + abs(z - fam.g)
                                 - e.major_axis_length)) < 1e-14
            world = inner_ellipse_world(fam)
            w = fam.affine(z)
            defect = abs(w - world.focus1) + abs(w - world.focus2) \
                - world.major_axis_length
            assert np.max(np.abs(defect)) < 1e-13 * world.major_axis_length

    def test_contains(self):
        e = EllipseGeom(-0.5 + 0j, 0.5 + 0j, 2.0)
        assert ellipse_contains(e, 0j)
        assert not ellipse_contains(e, 2 + 0j)


class TestInnerCircleFamilies:
    def test_generic_cayley_violation(self):
        with pytest.raises(CayleyViolation):
            family_from_inner_circle(2.0, 1.0, 0.1 + 0.2j, 0.3)

    def test_not_nested(self):
        with pytest.raises((NotNested, CayleyViolation)):
            family_from_inner_circle(2.0, 1.0, 1.9 + 0j, 0.05)

    def test_foci_outside_the_disk(self):
        with pytest.raises(NotNested):
            family_from_inner_circle(2.0, 1.0, 1.9 + 0j, 0.9)

    def test_solved_radius_gives_tangent_circle(self, rng):
        a, b = 2.0, 1.3
        center = 0.15 - 0.1j
        r = solve_inner_radius(a, b, center)
        fam = family_from_inner_circle(a, b, center, r)
        # Every world side must be tangent to the requested circle.
        for th in rng.uniform(0, 2 * np.pi, 25):
            w = affine_image(fam, triangle_at(fam, th))
            for s1, s2 in ((w.v1, w.v2), (w.v2, w.v3), (w.v3, w.v1)):
                d = (s2 - s1) / abs(s2 - s1)
                dist = abs(np.imag((center - s1) / d))
                assert abs(dist - r) < 1e-7 * r

    def test_solved_radius_closes_on_drawn_circles(self, rng):
        # The box of tests/conftest.py::random_inner_circle_family.
        for _ in range(200):
            a = rng.uniform(1.2, 3.0)
            b = rng.uniform(0.5 * a, 0.95 * a)
            center = complex(rng.uniform(-0.3, 0.3) * a,
                             rng.uniform(-0.3, 0.3) * b)
            r = solve_inner_radius(a, b, center)
            fam = family_from_inner_circle(a, b, center, r)
            closure = abs(1 - np.conj(fam.f) * fam.g)
            assert abs(closure - 2 * r / b) < 1e-14 * (2 * r / b)

    def test_solved_radius_when_a_equals_b(self, rng):
        for _ in range(20):
            b = rng.uniform(0.5, 2.0)
            center = complex(*rng.uniform(-0.4, 0.4, 2)) * b
            expected = b * (1 - abs(center / b) ** 2) / 2
            assert solve_inner_radius(b, b, center) == pytest.approx(
                expected, rel=1e-15)

    def test_no_radius_raises(self):
        # The centre's preimage is outside the unit disk.
        with pytest.raises(CayleyViolation):
            solve_inner_radius(2.0, 1.0, 2.5 + 0j)

    def test_world_inner_ellipse_matches_circle(self):
        a, b = 2.0, 1.3
        center = 0.15 - 0.1j
        r = solve_inner_radius(a, b, center)
        fam = family_from_inner_circle(a, b, center, r)
        e = inner_ellipse_world(fam)
        assert abs((e.focus1 + e.focus2) / 2 - center) < 1e-9
        assert e.major_axis_length / 2 == pytest.approx(r, rel=1e-9)
