import numpy as np
import pytest

from poncelet_inversive import (
    Conic,
    ConicType,
    Line,
    ProjectiveMap,
    conic_classify,
    conic_fit,
    conic_residual,
    conic_transform,
    tangents_from_point,
)
from poncelet_inversive.conics import (
    conic_from_ellipse,
    conic_params,
    tangency_residual,
)
from poncelet_inversive.errors import DegenerateInput, SingularMap


def circle_points(center, r, n, phase=0.0):
    th = 2 * np.pi * np.arange(n) / n + phase
    return center + r * np.exp(1j * th)


class TestConicBasics:
    def test_canonical_form_is_unit_norm_first_positive(self):
        c = Conic(np.array([-2.0, 0.0, -2.0, 0.0, 0.0, 2.0]))
        assert np.isclose(np.linalg.norm(c.coeffs), 1.0)
        assert c.coeffs[0] > 0

    def test_scaling_invariance(self):
        c1 = Conic(np.array([1.0, 0.0, 2.0, 0.0, 0.0, -3.0]))
        c2 = Conic(np.array([-5.0, 0.0, -10.0, 0.0, 0.0, 15.0]))
        assert c1.distance(c2) < 1e-15

    def test_matrix_round_trip(self):
        c = Conic(np.array([1.0, 0.3, 2.0, -0.5, 0.1, -3.0]))
        assert c.distance(Conic.from_matrix(c.matrix())) < 1e-15

    def test_residual_normalization(self):
        # At (2, 0): value 3, gradient (4, 0) -> residual 3/4 (pre-canonical
        # scaling cancels in the quotient).
        assert conic_residual(Conic.unit_circle(), 2 + 0j) == pytest.approx(0.75)
        assert conic_residual(Conic.unit_circle(), np.exp(0.7j)) < 1e-15

    def test_rejects_zero_and_nonfinite(self):
        with pytest.raises(ValueError):
            Conic(np.zeros(6))
        with pytest.raises(ValueError):
            Conic(np.array([1.0, 0, 0, 0, 0, np.nan]))


class TestClassify:
    @pytest.mark.parametrize("coeffs,expected", [
        ([1, 0, 1, 0, 0, -1], ConicType.ELLIPSE),
        ([1, 0, 4, 0, 0, -1], ConicType.ELLIPSE),
        ([1, 0, -1, 0, 0, -1], ConicType.HYPERBOLA),
        ([0, 1, 0, 0, 0, -1], ConicType.HYPERBOLA),   # xy = 1
        ([1, 0, 0, 0, -1, 0], ConicType.PARABOLA),    # y = x^2
        ([1, 0, -1, 0, 0, 0], ConicType.DEGENERATE),  # line pair
        ([1, 0, 1, 0, 0, 0], ConicType.DEGENERATE),   # single point
    ])
    def test_types(self, coeffs, expected):
        assert conic_classify(Conic(np.array(coeffs, dtype=float))) == expected

    def test_tilted_parabola_survives_rotation(self):
        # Classification tolerance must not depend on the frame.
        base = Conic(np.array([1.0, 0, 0, 0, -1.0, 0]))
        rot = np.cos(0.6), np.sin(0.6)
        m = ProjectiveMap(np.array([[rot[0], -rot[1], 0.3],
                                    [rot[1], rot[0], -0.7],
                                    [0, 0, 1.0]]))
        assert conic_classify(conic_transform(base, m)) == ConicType.PARABOLA


class TestFit:
    def test_exact_five_point_circle(self):
        c = conic_fit(circle_points(0.5 - 0.25j, 1.3, 5))
        expect = conic_from_ellipse(0.5 - 0.25j, 1.3, 1.3, 0.0)
        assert c.distance(expect) < 1e-12

    def test_overdetermined_fit(self, rng):
        target = conic_from_ellipse(1 + 2j, 2.0, 0.7, 0.4)
        center, a, b, ang = conic_params(target)
        th = rng.uniform(0, 2 * np.pi, 200)
        pts = center + (a * np.cos(th) + 1j * b * np.sin(th)) * np.exp(1j * ang)
        fitted = conic_fit(pts)
        assert fitted.distance(target) < 1e-10

    def test_too_few_points(self):
        with pytest.raises(DegenerateInput):
            conic_fit([0j, 1j, 2j, 3j])

    def test_collinear_points(self):
        with pytest.raises(DegenerateInput):
            conic_fit([complex(t, 2 * t) for t in range(6)])

    def test_coincident_points(self):
        with pytest.raises(DegenerateInput):
            conic_fit([1j, 1j, 2j, 3 + 0j, 1 + 1j])


class TestProjectiveMap:
    def test_identity(self):
        assert ProjectiveMap().apply(2 - 3j) == 2 - 3j

    def test_affine(self):
        m = ProjectiveMap.affine(2.0, 1 + 1j)
        assert m.apply(1j) == pytest.approx(1 + 3j)

    def test_singular_rejected(self):
        with pytest.raises(SingularMap):
            ProjectiveMap(np.array([[1, 2, 3], [2, 4, 6], [0, 0, 1.0]]))
        # Tiny but well-conditioned scaling must pass the normalized check.
        ProjectiveMap(1e-14 * np.eye(3))

    def test_inverse_round_trip(self, rng):
        m = ProjectiveMap(rng.normal(size=(3, 3)) + 3 * np.eye(3))
        p = 0.4 - 1.1j
        assert abs(m.inverse().apply(m.apply(p)) - p) < 1e-12

    def test_transform_transports_points(self, rng):
        c = conic_from_ellipse(0.5j, 1.5, 0.8, 0.3)
        m = ProjectiveMap(rng.normal(size=(3, 3)) + 4 * np.eye(3))
        img = conic_transform(c, m)
        center, a, b, ang = conic_params(c)
        for th in np.linspace(0, 2 * np.pi, 17):
            p = center + (a * np.cos(th) + 1j * b * np.sin(th)) * np.exp(1j * ang)
            assert conic_residual(img, m.apply(p)) < 1e-10

    def test_transform_round_trip(self, rng):
        c = conic_from_ellipse(-1 + 0.5j, 2.0, 1.0, 1.1)
        m = ProjectiveMap(rng.normal(size=(3, 3)) + 4 * np.eye(3))
        back = conic_transform(conic_transform(c, m), m.inverse())
        assert c.distance(back) < 1e-10


class TestTangents:
    def test_unit_circle_from_external_point(self):
        lines = tangents_from_point(Conic.unit_circle(), 2 + 0j)
        assert len(lines) == 2
        touch = {0.5 + 1j * np.sqrt(3) / 2, 0.5 - 1j * np.sqrt(3) / 2}
        for line in lines:
            assert abs(line.signed_distance(2 + 0j)) < 1e-12
            assert min(abs(line.signed_distance(t)) for t in touch) < 1e-12
            assert tangency_residual(Conic.unit_circle(), line) < 1e-9

    def test_interior_point_has_none(self):
        assert tangents_from_point(Conic.unit_circle(), 0.2 + 0.1j) == []

    def test_point_on_conic_single_tangent(self):
        lines = tangents_from_point(Conic.unit_circle(), 1 + 0j)
        assert len(lines) == 1
        # Tangent at (1, 0) is the vertical line x = 1.
        assert abs(lines[0].signed_distance(1 + 5j)) < 1e-9

    def test_tangency_residual_separates(self):
        c = Conic.unit_circle()
        assert tangency_residual(c, Line(1.0, 0.0, -1.0)) < 1e-15
        assert tangency_residual(c, Line(1.0, 0.0, 0.0)) > 1e-2


class TestLine:
    def test_normalization(self):
        line = Line(3.0, 4.0, 10.0)
        assert np.hypot(line.a, line.b) == pytest.approx(1.0)
        assert line.c == pytest.approx(2.0)

    def test_through_and_signed_distance(self):
        line = Line.through(0j, 1 + 1j)
        assert abs(line.signed_distance(0.5 + 0.5j)) < 1e-15
        assert abs(line.signed_distance(1 + 0j)) == pytest.approx(np.sqrt(2) / 2)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Line(0.0, 0.0, 1.0)


class TestParams:
    def test_ellipse_round_trip(self):
        c = conic_from_ellipse(2 - 1j, 3.0, 1.5, 0.7)
        center, a, b, ang = conic_params(c)
        assert abs(center - (2 - 1j)) < 1e-12
        assert (a, b) == (pytest.approx(3.0), pytest.approx(1.5))
        assert ang == pytest.approx(0.7)

    def test_major_axis_first(self):
        # Axes given minor-first must come back sorted.
        _, a, b, _ = conic_params(conic_from_ellipse(0j, 1.0, 2.0, 0.0))
        assert a == pytest.approx(2.0) and b == pytest.approx(1.0)
