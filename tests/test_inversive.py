import dataclasses

import numpy as np
import pytest

from poncelet_inversive import (
    Circle,
    PonceletFamily,
    Triangle,
    affine_image,
    barycenter,
    circumcenter_affine_in_lambda,
    circumcenter,
    circumcircle,
    euler_circle,
    exact_locus_conic,
    inversive_circumcenter_closed,
    inversive_coeffs,
    inversive_triangle,
    invert_point,
    orthocenter,
    pencil_membership,
    projective_map_of_locus,
    projectivity_residual,
    sweep,
    triangle_at,
)
from poncelet_inversive.conics import conic_residual
from poncelet_inversive.errors import (
    CenterSingularity,
    CollinearVertices,
    OnCircumcircle,
)
from poncelet_inversive.inversive import (
    InversiveCoefficients,
    collinearity_and_ratio,
)

from conftest import REF_K, random_circle, random_family


class TestInversion:
    def test_fixed_points_on_circle(self):
        k = Circle(1 + 1j, 0.5)
        for th in (0.0, 1.0, 2.5):
            z = k.center + k.radius * np.exp(1j * th)
            assert abs(invert_point(z, k) - z) < 1e-15

    def test_known_values(self):
        assert invert_point(2 + 0j, Circle(0j, 1.0)) == pytest.approx(0.5)
        assert invert_point(2 + 1j, Circle(1 + 1j, 0.5)) == pytest.approx(1.25 + 1j)

    def test_involution(self, rng):
        for _ in range(20):
            k = random_circle(rng)
            z = rng.uniform(-3, 3) + 1j * rng.uniform(-3, 3)
            if abs(z - k.center) < 0.1:
                continue
            assert abs(invert_point(invert_point(z, k), k) - z) < 1e-12

    def test_center_singularity(self):
        with pytest.raises(CenterSingularity):
            invert_point(1 + 1j, Circle(1 + 1j, 2.0))

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            Circle(0j, 0.0)


class TestTriangleCenters:
    T = Triangle(0j, 1 + 0j, 1j)

    def test_right_triangle_circumcenter(self):
        # Right angle at the origin: circumcenter at the hypotenuse midpoint.
        assert abs(circumcenter(self.T) - (0.5 + 0.5j)) < 1e-15
        assert circumcircle(self.T).radius == pytest.approx(np.sqrt(2) / 2)

    def test_right_triangle_orthocenter_at_right_angle(self):
        assert abs(orthocenter(self.T, circumcircle(self.T))) < 1e-15

    def test_equidistance(self, rng):
        for _ in range(20):
            t = Triangle(*(rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
                           for _ in range(3)))
            c = circumcenter(t)
            d = [abs(v - c) for v in t]
            assert max(d) - min(d) < 1e-10

    def test_collinear_raises(self):
        with pytest.raises(CollinearVertices):
            circumcenter(Triangle(0j, 1 + 1j, 2 + 2j))

    def test_barycenter(self):
        assert barycenter(self.T) == pytest.approx((1 + 1j) / 3)

    def test_euler_center_is_medial_circumcenter(self, rng):
        # Oracle: the nine-point center is the circumcenter of the medial
        # triangle, and the nine-point radius is half the circumradius.
        for _ in range(10):
            t = Triangle(*(rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
                           for _ in range(3)))
            medial = Triangle((t.v1 + t.v2) / 2, (t.v2 + t.v3) / 2,
                              (t.v3 + t.v1) / 2)
            euler = euler_circle(t, circumcircle(t))
            assert abs(euler.center - circumcenter(medial)) < 1e-10
            assert euler.radius == pytest.approx(circumcircle(t).radius / 2)

    def test_euler_line_collinearity(self, rng):
        t = Triangle(0.3 + 0.1j, -1 + 0.8j, 1.2 - 0.9j)
        x3, h = circumcenter(t), orthocenter(t, circumcircle(t))
        g = barycenter(t)
        # G divides OH in ratio 1:2 from O.
        assert abs(g - (x3 + (h - x3) / 3)) < 1e-12


class TestInversiveTriangle:
    def test_vertices_on_circle_fixed(self):
        k = Circle(0.5j, 1.2)
        t = Triangle(*(k.center + k.radius * np.exp(1j * a)
                       for a in (0.1, 2.0, 4.0)))
        ti = inversive_triangle(t, k)
        assert max(abs(a - b) for a, b in zip(t, ti)) < 1e-12

    def test_concyclic_points_stay_concyclic(self, rng):
        # Oracle: inversion maps circles not through O to circles, so the
        # image circumcircle passes through the image of any fourth
        # concyclic point.
        k = Circle(3 + 1j, 1.0)
        c = Circle(0.2 - 0.5j, 1.7)
        angs = [0.3, 1.4, 2.9, 5.1]
        pts = [c.center + c.radius * np.exp(1j * a) for a in angs]
        img_circ = circumcircle(inversive_triangle(Triangle(*pts[:3]), k))
        fourth = invert_point(pts[3], k)
        assert abs(abs(fourth - img_circ.center) - img_circ.radius) < 1e-12


class TestClosedForm:
    def test_concentric_coefficient_values(self):
        # f = g = 0 collapses most terms; check a2 and a1 by hand.
        fam = PonceletFamily.from_axes(0.0, 0.0, 2.0, 1.0)
        k = Circle(0.7 + 0.4j, 0.9)
        co = inversive_coeffs(fam, k)
        p, q, r2 = fam.p, fam.q, k.radius ** 2
        assert co.a2 == pytest.approx(p * p * q * r2)
        assert co.a1 == pytest.approx(-p * q * q * r2)
        assert co.b1 == pytest.approx(np.conj(co.b2))

    def test_matches_direct_path(self, rng):
        for _ in range(10):
            fam = random_family(rng)
            k = random_circle(rng)
            co = inversive_coeffs(fam, k)
            for th in rng.uniform(0, 2 * np.pi, 8):
                w = affine_image(fam, triangle_at(fam, th))
                circ = circumcircle(w)
                if abs(abs(k.center - circ.center) - circ.radius) < 1e-3:
                    continue  # O too close to the circumcircle
                direct = circumcenter(inversive_triangle(w, k))
                assert abs(inversive_circumcenter_closed(co, th) - direct) \
                    < 1e-9 * max(1.0, abs(direct))

    def test_denominator_is_ab_times_power(self, fam):
        # The real denominator equals a b power(O, circumcircle).
        co = inversive_coeffs(fam, REF_K)
        for th in (0.2, 1.1, 3.0, 5.5):
            circ = circumcircle(affine_image(fam, triangle_at(fam, th)))
            pw = abs(REF_K.center - circ.center) ** 2 - circ.radius ** 2
            assert co.denominator(np.exp(1j * th)) == pytest.approx(
                fam.a * fam.b * pw)

    def test_closed_form_scales_with_ab(self, rng):
        # denominator = a b power(O, circumcircle) and numerator =
        # a b r^2 (X3 - O) on every family; a b = 2 only on the reference.
        # Both are built on X3 = c2 lam + c1 conj(lam) + c0.
        worst_den = worst_num = worst_x3 = 0.0
        for _ in range(200):
            fam, k = random_family(rng), random_circle(rng)
            co = inversive_coeffs(fam, k)
            c0, c1, c2 = circumcenter_affine_in_lambda(fam)
            ab = fam.a * fam.b
            for th in 2 * np.pi * np.arange(8) / 8:
                lam = np.exp(1j * th)
                circ = circumcircle(affine_image(fam, triangle_at(fam, th)))
                worst_x3 = max(worst_x3, abs(c2 * lam + c1 * np.conj(lam) + c0
                                             - circ.center) / fam.a)
                u = circ.center - k.center
                pw = abs(u) ** 2 - circ.radius ** 2
                worst_den = max(worst_den, abs(co.denominator(lam) - ab * pw)
                                / (ab * (abs(u) ** 2 + circ.radius ** 2)))
                worst_num = max(worst_num,
                                abs(co.numerator(lam) - ab * co.r2 * u)
                                / (ab * co.r2 * (abs(u) + circ.radius)))
        assert worst_den < 1e-12 and worst_num < 1e-12
        assert worst_x3 < 1e-13

    def test_on_circumcircle_raises(self, fam):
        co = inversive_coeffs(fam, REF_K)

        # Find a sign change of the denominator, bisect to the root.
        ths = np.linspace(0, 2 * np.pi, 512, endpoint=False)
        vals = [co.denominator(np.exp(1j * t)) for t in ths]
        i = next(i for i in range(512) if vals[i] * vals[(i + 1) % 512] < 0)
        lo, hi = ths[i], ths[i] + 2 * np.pi / 512
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if vals[i] * co.denominator(np.exp(1j * mid)) <= 0:
                hi = mid
            else:
                lo = mid
        with pytest.raises(OnCircumcircle):
            inversive_circumcenter_closed(co, 0.5 * (lo + hi))

    def test_projectivity_residual_catches_corrupted_coefficients(self, rng):
        # The swept power of O is the oracle: a 1e-9 relative slip in b0 or
        # b2 is caught, where the exact coefficients sit near 1e-15.
        for _ in range(10):
            sw = sweep(random_family(rng), random_circle(rng), 256)
            assert projectivity_residual(sw) < 1e-13
            co = sw.coeffs
            slip = 1e-9 * co.denominator_scale()
            for bad in (dataclasses.replace(co, b0=co.b0 + slip),
                        dataclasses.replace(co, b2=co.b2 + slip,
                                            b1=np.conj(co.b2 + slip))):
                sw.coeffs = bad
                assert projectivity_residual(sw) > 1e-10


class TestProjectiveLocus:
    def test_trivial_coefficients_give_identity(self):
        co = InversiveCoefficients(a0=0j, a1=0j, a2=1 + 0j, b0=1.0,
                                   b1=0j, b2=0j, r2=1.0, z0=0j)
        m, post = projective_map_of_locus(co)
        assert np.allclose(m.m, np.eye(3))
        assert np.allclose(post.m, np.eye(3))

    def test_sweep_lies_on_exact_conic(self, fam):
        co = inversive_coeffs(fam, REF_K)
        conic = exact_locus_conic(co)
        for th in np.linspace(0, 2 * np.pi, 97):
            try:
                x3p = inversive_circumcenter_closed(co, th)
            except OnCircumcircle:
                continue
            assert conic_residual(conic, x3p) < 1e-9


class TestPencilAndCollinearity:
    def test_concentric_circles_are_coaxial(self):
        c = 0.3 + 0.2j
        r = pencil_membership(Circle(c, 1.0), Circle(c, 2.0), Circle(c, 3.0))
        assert r < 1e-15

    def test_generic_circles_are_not(self):
        r = pencil_membership(Circle(0j, 1.0), Circle(1 + 0j, 1.0),
                              Circle(1j, 1.0))
        assert r > 1e-2

    def test_pencil_with_shared_radical_axis(self):
        # Circles centered on the real axis through +-i share radical axis
        # x = 0: (x - c)^2 + y^2 = c^2 + 1.
        circles = [Circle(complex(c, 0), np.sqrt(c * c + 1))
                   for c in (0.0, 1.0, -2.5)]
        assert pencil_membership(*circles) < 1e-15

    def test_collinearity_residuals(self):
        circ = Circle(0j, 1.0)
        k = Circle(3 + 0j, 1.0)
        # x3 = 0, o = 3, x3' = o + r^2 (x3 - o)/power = 3 - 9/8... compute:
        pw = 9 - 1
        x3p = 3 + 1.0 * (0 - 3) / pw
        c, r = collinearity_and_ratio(0j, 3 + 0j, complex(x3p), circ, k)
        assert c < 1e-15 and r < 1e-15

    def test_collinearity_detects_offset(self):
        circ = Circle(0j, 1.0)
        k = Circle(3 + 0j, 1.0)
        c, _ = collinearity_and_ratio(0j, 3 + 0j, 2 + 1j, circ, k)
        assert c > 0.1
