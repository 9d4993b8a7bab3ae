import re

import numpy as np
import pytest

from poncelet_inversive import (
    Circle,
    ConicType,
    OLocationKind,
    PonceletFamily,
    Skip,
    Triangle,
    affine_image,
    circle_fit,
    circumcenter_locus_conic,
    classify_O,
    conic_fit,
    conic_type_check,
    conic_residual,
    exact_locus_conic,
    external_similitude_center,
    homothety_check,
    inversive_coeffs,
    nonconic_evidence,
    p3_point,
    sampled_location,
    similitude_check,
    sweep,
    tangents_from_point,
    triangle_at,
)
from poncelet_inversive import analysis, conics
from poncelet_inversive.conics import tangency_residual

from conftest import (EXTERIOR_K, REF_A, REF_F, REF_G, REF_K, random_circle,
                      random_family)


class TestSweep:
    def test_shapes_and_skips(self, fam):
        sw = sweep(fam, REF_K, 128)
        assert len(sw.thetas) == 128
        assert all(len(getattr(sw, n)) == 128
                   for n in ("x3", "x3p", "inv_x3", "x2p", "x4p", "x5p"))
        for i in sw.skipped:
            assert np.isnan(sw.x3p[i])
        assert len(sw.valid("x3p")) == 128 - len(sw.skipped)

    def test_one_batched_solve(self, fam, monkeypatch):
        solves = []
        solve = analysis.triangle_at

        def counted(f, theta):
            solves.append(np.size(theta))
            return solve(f, theta)

        monkeypatch.setattr(analysis, "triangle_at", counted)
        sweep(fam, REF_K, 128)
        assert solves == [128]

    def test_minimum_samples(self, fam):
        with pytest.raises(ValueError):
            sweep(fam, REF_K, 32)

    def test_concentric_family_fixed_circumcenter(self):
        # f = g = 0 with a = b: circumcircle is the unit circle for all theta.
        fam = PonceletFamily.from_axes(0.0, 0.0, 1.0, 1.0)
        sw = sweep(fam, Circle(3 + 0j, 1.0), 64)
        assert max(abs(z) for z in sw.x3) < 1e-12
        assert np.allclose(sw.power_at_O, 8.0)
        x3p = sw.valid("x3p")
        assert np.max(np.abs(x3p - x3p[0])) < 1e-12

    def test_power_column_matches_centers(self, fam):
        sw = sweep(fam, REF_K, 64)
        # power < 0 exactly when O is inside that circumcircle; compare
        # against the collinearity-ratio identity r^2 |x3 - O| / |x3' - O|.
        for i in range(64):
            if np.isnan(sw.x3p[i]):
                continue
            implied = REF_K.radius ** 2 * abs(sw.x3[i] - REF_K.center) \
                / abs(sw.x3p[i] - REF_K.center)
            assert abs(implied - abs(sw.power_at_O[i])) < 1e-9 * implied


def _margin(fam, k):
    """Signed distance of O from the sweep-region boundary in closed form:
    (|b0| - 2|b2|) / (|b0| + 2|b2|), negative when O is crossed."""
    co = inversive_coeffs(fam, k)
    return (abs(co.b0) - 2 * abs(co.b2)) / (abs(co.b0) + 2 * abs(co.b2))


def _at_margin(fam, target, end=EXTERIOR_K.center):
    """Inversion circle on the segment from REF_K to center end whose margin
    is target, by bisection (the margin runs from negative to positive)."""
    def circle(t):
        return Circle(REF_K.center + t * (end - REF_K.center), REF_K.radius)

    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _margin(fam, circle(mid)) < target:
            lo = mid
        else:
            hi = mid
    return circle(0.5 * (lo + hi))


class TestClassifyO:
    def test_reference_cases(self, fam):
        loc = classify_O(fam, REF_K)
        assert loc.kind is OLocationKind.INTERIOR
        assert loc.crossing_count == 6
        loc = classify_O(fam, EXTERIOR_K)
        assert loc.kind is OLocationKind.EXTERIOR
        assert loc.crossing_count == 0

    def test_always_inside_counts_as_interior(self):
        # Unit circumcircle for every theta; O at its center.
        fam = PonceletFamily.from_axes(0.0, 0.0, 1.0, 1.0)
        loc = classify_O(fam, Circle(0.1 + 0j, 0.5))
        assert loc.kind is OLocationKind.INTERIOR
        assert loc.crossing_count == 0

    def test_closed_form_matches_sampled_oracle(self, fam, rng):
        # Off the boundary the closed form and the sign-change count of the
        # directly computed power agree on kind and crossings.
        cases = [(fam, _at_margin(fam, m)) for m in (-1e-3, 1e-3)]
        cases.append((fam, Circle(0j, 0.7)))  # inside every circumcircle
        while len(cases) < 5:
            case = (random_family(rng), random_circle(rng))
            if abs(_margin(*case)) > 1e-4:
                cases.append(case)
        seen = set()
        for f, k in cases:
            assert abs(_margin(f, k)) > 1e-4
            loc = classify_O(f, k)
            oracle = sampled_location(sweep(f, k, 4096), 1e-6)
            assert (loc.kind, loc.crossing_count) \
                == (oracle.kind, oracle.crossing_count)
            assert abs(oracle.margin - loc.margin) <= 1e-12
            seen.add((loc.kind, loc.crossing_count))
        assert seen == {(OLocationKind.EXTERIOR, 0),
                        (OLocationKind.INTERIOR, 6),
                        (OLocationKind.INTERIOR, 0)}

    def test_grid_refinement_stability(self, fam):
        a = sampled_location(sweep(fam, REF_K, 1024), 1e-6)
        b = sampled_location(sweep(fam, REF_K, 4096), 1e-6)
        assert (a.kind, a.crossing_count) == (b.kind, b.crossing_count)
        # The power of O is exactly one sinusoid, so its fit does not move
        # with the grid.
        c = sampled_location(sweep(fam, REF_K, 64), 1e-6)
        assert max(abs(a.margin - c.margin), abs(b.margin - c.margin)) <= 1e-12

    def test_conic_type_law_consistency(self, fam):
        for k, locus in ((REF_K, ConicType.HYPERBOLA),
                         (EXTERIOR_K, ConicType.ELLIPSE)):
            res = conic_type_check(sweep(fam, k, 4096), 1e-6)
            assert res.ok and f" locus={locus.value} " in res.note

    def test_swapped_conic_type_is_inconsistent(self, fam, monkeypatch):
        swap = {ConicType.ELLIPSE: ConicType.HYPERBOLA,
                ConicType.HYPERBOLA: ConicType.ELLIPSE}
        classify = conics.conic_classify
        monkeypatch.setattr(conics, "conic_classify",
                            lambda c: swap[classify(c)])
        for k in (REF_K, EXTERIOR_K):
            assert not conic_type_check(sweep(fam, k, 256), 1e-6).ok

    @pytest.mark.parametrize("n", [720, 4096])
    def test_law_near_boundary(self, fam, n):
        # O stepped delta a off the boundary, to both sides, along two rays
        # from REF_K: outward to the outer boundary, and toward the family's
        # centre to the inner one (O inside every circumcircle beyond it).
        for end in (EXTERIOR_K.center, 0j):
            on = _at_margin(fam, 0.0, end).center
            step = REF_A * (end - REF_K.center) / abs(end - REF_K.center)
            for delta in np.logspace(-10, -6, 8):
                for side in (-1, 1):
                    k = Circle(on + side * delta * step, REF_K.radius)
                    sw = sweep(fam, k, n)
                    res = conic_type_check(sw, 1e-6)
                    m = sampled_location(sw, 1e-6).margin
                    assert res.ok, (end, side * delta, res)
                    if abs(m) > 1e-12:
                        assert np.sign(m) == np.sign(_margin(fam, k))

    def test_O_on_a_vertex(self, fam):
        # The sampled power of O is exactly 0 at theta = 0.
        o = complex(affine_image(fam, triangle_at(fam, 0.0)).v1)
        res = conic_type_check(sweep(fam, Circle(o, REF_K.radius), 256), 1e-6)
        assert res.ok and res.note.startswith("O=Interior ")
        assert " crossings=6 " in res.note

    def test_O_on_every_circumcircle(self):
        # Unit circumcircle for every theta, O on it: the power is 0.
        fam = PonceletFamily.from_axes(0.0, 0.0, 1.0, 1.0)
        assert classify_O(fam, Circle(1 + 0j, 0.5)).margin == 0.0


class TestSimilitude:
    def test_reference_config(self, fam):
        res = similitude_check(sweep(fam, REF_K, 360), 1e-7)
        assert res.ok and res.residual < 1e-7

    def test_locus_residuals_ignore_vertex_rounding(self, monkeypatch):
        # Near-circular family (b/a = 0.99999): the X3 locus spans ~1e-5, so
        # a conic fitted to the swept X3 moved the tangents with the last
        # bits of the vertices.  Both loci are exact now; rotating every
        # vertex by up to 3e-16 rad leaves the residuals bit for bit.
        fam = PonceletFamily.from_axes(REF_F, REF_G, 2.0, 2.0 * 0.99999)
        k = Circle(3.5 + 0.5j, 0.7)

        def residuals(sw):
            return [tangency_residual(sw.exact_conic, line) for line in
                    tangents_from_point(circumcenter_locus_conic(fam),
                                        k.center)]

        sw = sweep(fam, k, 720)
        base, base_residuals = similitude_check(sw, 1e-7), residuals(sw)
        assert base.ok and len(base_residuals) == 2
        assert max(base_residuals) < 1e-7
        rng = np.random.default_rng(12)
        solve = analysis.triangle_at

        def jittered(f, theta):
            return Triangle(*(v * np.exp(1j * rng.uniform(-3e-16, 3e-16,
                                                          np.shape(v)))
                              for v in solve(f, theta)))

        monkeypatch.setattr(analysis, "triangle_at", jittered)
        for _ in range(4):
            sw = sweep(fam, k, 720)
            assert residuals(sw) == base_residuals
            assert similitude_check(sw, 1e-7) == base

    @pytest.mark.parametrize("ratio", [0.999999, 0.9999999999999])
    def test_o_outside_a_near_circular_locus_has_two_tangents(self, ratio):
        # O sits some 1e6 to 1e13 of the X3 locus' spread away from it.
        fam = PonceletFamily.from_axes(REF_F, REF_G, 2.0, 2.0 * ratio)
        assert len(tangents_from_point(circumcenter_locus_conic(fam),
                                       3.5 + 0.5j)) == 2

    def test_o_inside_locus_has_no_tangents(self, fam):
        # Center O on the X3 locus centroid: no real tangents exist.
        sw = sweep(fam, REF_K, 128)
        centroid = complex(np.mean(sw.valid("x3")))
        with pytest.raises(Skip, match="O interior to the X3 locus"):
            similitude_check(sweep(fam, Circle(centroid, 0.4), 128), 1e-7)


class TestHomothety:
    def test_reference_family(self, fam):
        res = homothety_check(
            sweep(fam, Circle(p3_point(fam).point, 0.8), 360), 1e-7)
        assert res.ok and res.residual < 1e-7
        with pytest.raises(Skip, match="inversion center is not P3"):
            homothety_check(sweep(fam, REF_K, 128), 1e-7)

    def test_degenerate_chapple_locus(self):
        # Bicentric family: X3 is pinned at the origin, no conic to compare.
        fam = PonceletFamily.from_axes(0.3, 0.3, 1.0, 1.0)
        with pytest.raises(Skip, match=r"X3' locus is a point: a = b"):
            homothety_check(sweep(fam, Circle(p3_point(fam).point, 1.0), 128),
                            1e-7)


class TestNonConic:
    def test_reference_config(self, fam):
        res = nonconic_evidence(sweep(fam, REF_K, 360))
        assert res.ok and res.residual is None
        assert re.fullmatch(r"\(x3p=\S+, x2p=\S+, x4p=\S+, x5p=\S+\)", res.note)

    def test_point_loci_are_no_evidence(self):
        # a = b: X3' is a point, printed degenerate, so nothing is shown.
        fam = PonceletFamily.from_axes(0.3, 0.3, 1.0, 1.0)
        res = nonconic_evidence(sweep(fam, Circle(2 + 0j, 0.5), 256))
        assert not res.ok and res.note.startswith("(x3p=degenerate, ")

    def test_needs_enough_samples(self, fam):
        sw = sweep(fam, REF_K, 64)
        with pytest.raises(Skip, match="need at least 100 valid samples"):
            nonconic_evidence(sw)


class TestCircleFit:
    def test_exact_circle(self):
        th = np.linspace(0, 2 * np.pi, 50, endpoint=False)
        pts = (1 - 2j) + 1.7 * np.exp(1j * th)
        circ, resid = circle_fit(pts)
        assert abs(circ.center - (1 - 2j)) < 1e-12
        assert circ.radius == pytest.approx(1.7)
        assert resid < 1e-12

    def test_detects_non_circle(self):
        th = np.linspace(0, 2 * np.pi, 50, endpoint=False)
        pts = 2 * np.cos(th) + 1j * np.sin(th)
        _, resid = circle_fit(pts)
        assert resid > 0.1


class TestSimilitudeCenter:
    def test_known_value(self):
        c = external_similitude_center(Circle(0j, 2.0), Circle(3 + 0j, 1.0))
        assert c == pytest.approx(6 + 0j)

    def test_equal_radii_rejected(self):
        with pytest.raises(ZeroDivisionError):
            external_similitude_center(Circle(0j, 1.0), Circle(1 + 0j, 1.0))

    def test_exact_locus_is_conic_of_sweep(self, fam):
        conic = exact_locus_conic(inversive_coeffs(fam, REF_K))
        sw = sweep(fam, REF_K, 256)
        assert conic.distance(conic_fit(sw.valid("x3p"))) < 1e-8
        assert max(conic_residual(conic, p) for p in sw.valid("x3p")) < 1e-9
