"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines inline.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from poncelet_inversive import (
    Circle,
    ConicType,
    PonceletFamily,
    exact_locus_conic,
    inversive_coeffs,
    p3_point,
    p5_point,
    sweep,
)
from poncelet_inversive.analysis import (
    OLocationKind,
    conic_type_check,
    homothety_check,
    nonconic_evidence,
    projectivity_check,
    similitude_check,
)
from poncelet_inversive.conics import Conic, conic_fit, conic_residual
from poncelet_inversive.family import (
    affine_image,
    inner_ellipse,
    inner_ellipse_world,
    triangle_at,
)
from poncelet_inversive.inversive import (
    circumcenter,
    circumcircle,
    collinearity_and_ratio,
    euler_circle,
    inversive_circumcenter_closed,
    inversive_triangle,
    pencil_membership,
)
from poncelet_inversive.power import p3_preimage, pi3_affine_in_lambda, power

from conftest import (EXTERIOR_K, REF_A, REF_B, REF_F, REF_G, REF_K,
                      circle_fit, external_similitude_center, random_family)

FAMILIES = [
    (REF_F, REF_G, REF_A, REF_B),
    (0.1 + 0.4j, -0.3 + 0.2j, 2.5, 1.4),
    (-0.25 - 0.1j, 0.35 + 0.05j, 1.8, 1.2),
]
CIRCLES = [REF_K, Circle(0.9 - 0.6j, 1.1), Circle(-1.2 + 0.4j, 0.8)]


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  {detail}"
    print(line)
    assert ok, line


def _ref_family():
    return PonceletFamily.from_axes(REF_F, REF_G, REF_A, REF_B)


def test_01_closed_form_identity():
    worst = 0.0
    for (f, g, a, b), k in zip(FAMILIES, CIRCLES):
        fam = PonceletFamily.from_axes(f, g, a, b)
        coeffs = inversive_coeffs(fam, k)
        for th in 2 * np.pi * np.arange(64) / 64:
            w = affine_image(fam, triangle_at(fam, th))
            direct = circumcenter(inversive_triangle(w, k))
            closed = inversive_circumcenter_closed(coeffs, th)
            worst = max(worst, abs(closed - direct) / abs(direct))
    _report(1, "closed-form identity", worst < 1e-9, f"max rel err {worst:.3e}")


def test_02_projectivity_hypotheses(rng):
    worst = 0.0
    for _ in range(100):
        fam = random_family(rng)
        k = Circle(rng.uniform(-3, 3) + 1j * rng.uniform(-3, 3),
                   rng.uniform(0.3, 1.5))
        res = projectivity_check(sweep(fam, k, 256), 1e-10)
        worst = max(worst, res.residual)
    _report(2, "projectivity hypotheses", worst < 1e-10,
            f"max rel residual {worst:.3e}")


def test_03_conic_locus():
    fam = _ref_family()
    coeffs = inversive_coeffs(fam, REF_K)
    exact = exact_locus_conic(coeffs)
    sw = sweep(fam, REF_K, 720)
    pts = sw.valid("x3p")
    fitted = conic_fit(pts)
    dist = exact.distance(fitted)
    resid = max(conic_residual(exact, p) for p in pts)
    _report(3, "conic locus exact vs fitted", dist < 1e-8 and resid < 1e-9,
            f"canonical dist {dist:.3e}, max residual {resid:.3e}")


def _boundary_center():
    """Inversion center on the sweep-region boundary, found by bisecting
    the exact-conic discriminant between an interior and exterior center."""
    fam = _ref_family()

    def disc(t):
        c = REF_K.center + t * (EXTERIOR_K.center - REF_K.center)
        conic = exact_locus_conic(inversive_coeffs(fam, Circle(c, REF_K.radius)))
        return conic.B ** 2 - 4 * conic.A * conic.C

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if disc(mid) > 0:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return REF_K.center + t * (EXTERIOR_K.center - REF_K.center)


def test_04_conic_type_law():
    fam = _ref_family()
    cases = [
        (REF_K, OLocationKind.INTERIOR, ConicType.HYPERBOLA),
        (EXTERIOR_K, OLocationKind.EXTERIOR, ConicType.ELLIPSE),
        (Circle(_boundary_center(), REF_K.radius),
         OLocationKind.BOUNDARY, ConicType.PARABOLA),
    ]
    ok = True
    seen = []
    for k, want_loc, want_type in cases:
        res = conic_type_check(sweep(fam, k, 4096), 1e-6)
        seen.append(res.note)
        ok &= res.ok and res.note.startswith(
            f"O={want_loc.value} locus={want_type.value} ")
    _report(4, "conic-type law", ok, "; ".join(seen))


def test_05_collinearity_and_ratio():
    worst_c = worst_r = 0.0
    for (f, g, a, b), k in zip(FAMILIES, CIRCLES):
        fam = PonceletFamily.from_axes(f, g, a, b)
        sw = sweep(fam, k, 240)
        for i, th in enumerate(sw.thetas):
            if np.isnan(sw.x3p[i]):
                continue
            circ = circumcircle(affine_image(fam, triangle_at(fam, th)))
            c, r = collinearity_and_ratio(sw.x3[i], k.center, sw.x3p[i], circ, k)
            worst_c, worst_r = max(worst_c, c), max(worst_r, r)
    _report(5, "collinearity & distance ratio",
            worst_c < 1e-9 and worst_r < 1e-9,
            f"collinearity {worst_c:.3e}, ratio {worst_r:.3e}")


def test_06_pencil_membership():
    worst = 0.0
    for (f, g, a, b), k in zip(FAMILIES, CIRCLES):
        fam = PonceletFamily.from_axes(f, g, a, b)
        for th in 2 * np.pi * np.arange(240) / 240:
            w = affine_image(fam, triangle_at(fam, th))
            circ = circumcircle(w)
            if abs(power(k.center, circ)) < 1e-8 * circ.radius ** 2:
                continue
            img = circumcircle(inversive_triangle(w, k))
            worst = max(worst, pencil_membership(circ, k, img))
    _report(6, "pencil membership", worst < 1e-9, f"max residual {worst:.3e}")


def test_07_constant_power(rng):
    fam = _ref_family()
    thetas = 2 * np.pi * np.arange(720) / 720
    worlds = [affine_image(fam, triangle_at(fam, th)) for th in thetas]

    res3 = p3_point(fam)
    p3 = np.array([power(res3.point, circumcircle(w)) for w in worlds])
    rel3 = p3.std() / abs(p3.mean())
    err3 = abs(p3.mean() - res3.invariant_power) / abs(res3.invariant_power)

    res5 = p5_point(fam)
    p5 = np.array([power(res5.point, euler_circle(w, circumcircle(w)))
                   for w in worlds])
    rel5 = p5.std() / abs(p5.mean())
    err5 = abs(p5.mean() - res5.invariant_power) / abs(res5.invariant_power)

    interior = True
    for _ in range(1000):
        f2 = random_family(rng)
        inner = inner_ellipse(f2)
        pre = p3_preimage(f2)
        if abs(pre - f2.f) + abs(pre - f2.g) >= inner.major_axis_length:
            interior = False
            break

    ok = rel3 < 1e-9 and err3 < 1e-9 and rel5 < 1e-8 and err5 < 1e-8 and interior
    _report(7, "constant power P3/P5 + interiority", ok,
            f"P3 std/mean {rel3:.3e} err {err3:.3e}; "
            f"P5 std/mean {rel5:.3e} err {err5:.3e}; interior={interior}")


def test_08_argzero_characterization():
    fam = _ref_family()
    res = p3_point(fam)
    m1, m3 = pi3_affine_in_lambda(fam, res.point)
    scale = fam.p ** 2 + fam.q ** 2
    ok = (abs(m1) < 1e-10 * scale
          and abs(m3 - res.invariant_power) < 1e-10 * abs(res.invariant_power))
    _report(8, "argzero characterization of P3", ok,
            f"|M1| {abs(m1):.3e}, |M3-Pi3| {abs(m3 - res.invariant_power):.3e}")


def test_09_chapple_case():
    f = 0.35 + 0.15j
    fam = PonceletFamily.from_axes(f, f, 1.0, 1.0)
    res = p3_point(fam)
    expected = 2 * f / (1 + abs(f) ** 2)
    p3_err = abs(res.point - expected)

    # X56: external similitude center of the outer circle and the incircle.
    inner = inner_ellipse_world(fam)
    r_in = inner.major_axis_length / 2
    x56 = external_similitude_center(Circle(0j, 1.0),
                                     Circle(inner.focus1, r_in))
    x56_err = abs(res.point - x56)

    x5 = []
    for th in 2 * np.pi * np.arange(720) / 720:
        w = affine_image(fam, triangle_at(fam, th))
        c = euler_circle(w, circumcircle(w))
        x5.append(c.center)
    circ, resid = circle_fit(x5)
    concentric = abs(circ.center - f)

    ok = p3_err < 1e-12 and x56_err < 1e-10 and resid < 1e-9 and concentric < 1e-9
    _report(9, "Chapple case", ok,
            f"P3 err {p3_err:.3e}, X56 err {x56_err:.3e}, "
            f"X5 circle resid {resid:.3e}, center offset {concentric:.3e}")


def test_10_similitude():
    # Two real tangents from O (else Skip), each touching the X3' conic to
    # 1e-7 and grazing the inv(X3) cloud within 1e-4 of its spread.
    fam = _ref_family()
    res = similitude_check(sweep(fam, REF_K, 720), 1e-7)
    _report(10, "similitude tangency", res.ok,
            f"locus resid {res.residual:.3e}")


def test_11_homothety():
    # Axis angle, squared axis ratio and scale |Pi3| / r^2 each to 1e-7.
    fam = _ref_family()
    res = homothety_check(sweep(fam, Circle(p3_point(fam).point, 1.0), 720),
                          1e-7)
    _report(11, "homothety at O=P3", res.ok, f"max defect {res.residual:.3e}")


def test_12_nonconic_evidence():
    # X3' fits a conic to 1e-9 of its spread; X2', X4', X5' miss by over
    # 1e-4 of theirs.
    fam = _ref_family()
    res = nonconic_evidence(sweep(fam, REF_K, 720))
    _report(12, "non-conic evidence", res.ok, res.note)


def test_13_poncelet_closure():
    worst = 0.0
    for f, g, a, b in FAMILIES:
        fam = PonceletFamily.from_axes(f, g, a, b)
        inner = inner_ellipse_world(fam)
        for th in 2 * np.pi * np.arange(240) / 240:
            w = affine_image(fam, triangle_at(fam, th))
            for s1, s2 in ((w.v1, w.v2), (w.v2, w.v3), (w.v3, w.v1)):
                worst = max(worst, inner.side_tangency_residual(s1, s2))
    _report(13, "Poncelet closure", worst < 1e-8, f"max tangency {worst:.3e}")


def test_14_cli_round_trip(tmp_path):
    cfg = {
        "family": {"f": [REF_F.real, REF_F.imag], "g": [REF_G.real, REF_G.imag],
                   "a": REF_A, "b": REF_B},
        "inversion": {"center": [REF_K.center.real, REF_K.center.imag],
                      "radius": REF_K.radius},
        "samples": 720,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"

    r = subprocess.run(
        [sys.executable, "-m", "poncelet_inversive.cli", "sweep",
         "--config", str(cfg_path), "--out", str(out)],
        capture_output=True, text=True)
    assert r.returncode == 0, r.stderr

    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    pts = []
    for row in rows:
        cells = row.split(",")
        if cells[-1] == "1":
            continue
        pts.append(complex(float(cells[3]), float(cells[4])))
    refit = conic_fit(pts)
    meta = json.loads((out / "sweep_meta.json").read_text())
    stored = Conic(np.array(meta["exact_x3p_conic"]))
    dist = stored.distance(refit)

    v = subprocess.run(
        [sys.executable, "-m", "poncelet_inversive.cli", "verify",
         "--config", str(cfg_path), "--out", str(out)],
        capture_output=True, text=True)
    ok = dist < 1e-8 and v.returncode == 0
    _report(14, "CLI round-trip", ok,
            f"refit dist {dist:.3e}, verify exit {v.returncode}")
