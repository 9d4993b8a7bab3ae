import numpy as np
import pytest

from poncelet_inversive import (
    Circle,
    PonceletFamily,
    PowerKind,
    affine_image,
    circumcircle,
    p3_point,
    p3_preimage,
    p5_constants,
    p5_point,
    pi3_affine_in_lambda,
    power,
    triangle_at,
)
from poncelet_inversive.family import inner_ellipse
from poncelet_inversive.inversive import euler_circle

from conftest import random_family, random_inner_circle_family


class TestPower:
    def test_signs(self):
        c = Circle(0j, 1.0)
        assert power(0j, c) == pytest.approx(-1.0)
        assert power(1 + 0j, c) == pytest.approx(0.0)
        assert power(3 + 4j, c) == pytest.approx(24.0)


class TestP3:
    def test_concentric(self):
        fam = PonceletFamily.from_axes(0.0, 0.0, 2.0, 1.0)
        res = p3_point(fam)
        assert res.point == 0j
        assert res.invariant_power == pytest.approx(-(fam.p ** 2 + fam.q ** 2))
        assert res.kind is PowerKind.CIRCUMCIRCLE

    def test_chapple_formula(self):
        f = 0.2 - 0.3j
        fam = PonceletFamily.from_axes(f, f, 1.0, 1.0)
        assert abs(p3_point(fam).point - 2 * f / (1 + abs(f) ** 2)) < 1e-14

    def test_constancy_random_families(self, rng):
        for _ in range(10):
            fam = random_family(rng)
            res = p3_point(fam)
            pows = [power(res.point, circumcircle(
                affine_image(fam, triangle_at(fam, th))))
                for th in rng.uniform(0, 2 * np.pi, 16)]
            assert np.std(pows) < 1e-10 * abs(np.mean(pows))
            assert np.mean(pows) == pytest.approx(res.invariant_power)

    def test_preimage_maps_to_point(self, rng):
        for _ in range(10):
            fam = random_family(rng)
            assert abs(fam.affine(p3_preimage(fam)) - p3_point(fam).point) < 1e-12

    def test_preimage_inside_inner_ellipse(self, rng):
        for _ in range(50):
            fam = random_family(rng)
            assert inner_ellipse(fam).contains(p3_preimage(fam))


class TestP5:
    def test_concentric(self):
        fam = PonceletFamily.from_axes(0.0, 0.0, 2.0, 1.0)
        res = p5_point(fam)
        assert res.point == 0j
        assert res.kind is PowerKind.EULER_CIRCLE
        g1, g2 = p5_constants(fam)
        p, q = fam.p, fam.q
        assert g1 == pytest.approx(q ** 4 * p ** 4)
        assert g2 == pytest.approx(4 * p ** 4 * q ** 4)

    def test_chapple_p5_at_incircle_center(self):
        f = 0.25 + 0.1j
        fam = PonceletFamily.from_axes(f, f, 1.0, 1.0)
        assert abs(p5_point(fam).point - f) < 1e-13

    def test_gamma2_nonnegative(self, rng):
        for _ in range(25):
            _, g2 = p5_constants(random_family(rng))
            assert g2 >= 0

    def test_constancy_random_families(self, rng):
        for _ in range(10):
            fam = random_family(rng)
            res = p5_point(fam)
            pows = [power(res.point, euler_circle(
                affine_image(fam, triangle_at(fam, th))))
                for th in rng.uniform(0, 2 * np.pi, 16)]
            assert np.std(pows) < 1e-9 * abs(np.mean(pows))
            assert np.mean(pows) == pytest.approx(res.invariant_power, rel=1e-8)


def test_p5_power_on_inner_circle_families(rng):
    # Families inscribed in a circle reach near-cancellation in gamma1.
    th = 2 * np.pi * np.arange(720) / 720
    for _ in range(50):
        fam = random_inner_circle_family(rng)
        w = affine_image(fam, triangle_at(fam, th))
        res = p5_point(fam)
        err = np.max(np.abs(power(res.point, euler_circle(w))
                            - res.invariant_power))
        assert err <= 1e-10 * np.mean(circumcircle(w).radius ** 2)


class TestPi3Affine:
    def test_reproduces_sampled_power(self, rng):
        for _ in range(10):
            fam = random_family(rng)
            w0 = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            m1, m3 = pi3_affine_in_lambda(fam, w0)
            for th in rng.uniform(0, 2 * np.pi, 6):
                lam = np.exp(1j * th)
                pw = power(w0, circumcircle(
                    affine_image(fam, triangle_at(fam, th))))
                model = 2 * np.real(m1 * lam) + m3
                assert pw == pytest.approx(model, abs=1e-9)

    def test_m1_vanishes_only_at_p3(self, fam, rng):
        res = p3_point(fam)
        m1, m3 = pi3_affine_in_lambda(fam, res.point)
        assert abs(m1) < 1e-12
        assert m3 == pytest.approx(res.invariant_power)
        for _ in range(10):
            w0 = res.point + (rng.uniform(0.05, 1) *
                              np.exp(1j * rng.uniform(0, 2 * np.pi)))
            m1_off, _ = pi3_affine_in_lambda(fam, w0)
            assert abs(m1_off) > 1e-6
