import json
import math
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from poncelet_inversive import (
    Circle,
    Conic,
    PonceletFamily,
    conic_fit,
    conic_residual,
    exact_locus_conic,
    inversive_coeffs,
    p3_point,
)
from poncelet_inversive import analysis, cli, family, inversive
from poncelet_inversive.cli import (
    ConfigError,
    cmd_classify,
    load_config,
    main,
    run_verify,
)

from conftest import EXTERIOR_K, REF_A, REF_B, REF_F, REF_G, REF_K

REF_CONFIG = {
    "family": {"f": [REF_F.real, REF_F.imag], "g": [REF_G.real, REF_G.imag],
               "a": REF_A, "b": REF_B},
    "inversion": {"center": [REF_K.center.real, REF_K.center.imag],
                  "radius": REF_K.radius},
    "samples": 256,
}


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(REF_CONFIG))
    return str(path)


def write_cfg(tmp_path, mutate):
    raw = json.loads(json.dumps(REF_CONFIG))
    mutate(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestConfig:
    def test_loads_reference(self, cfg_path):
        cfg = load_config(cfg_path)
        assert cfg.fam.f == REF_F and cfg.fam.g == REF_G
        assert cfg.inversion.center == REF_K.center
        assert cfg.samples == 256

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/cfg.json")

    def test_both_family_forms_rejected(self, tmp_path):
        path = write_cfg(tmp_path, lambda raw: raw["family"].update(
            {"inner_circle_center": [0.1, 0.0], "inner_circle_radius": 0.4}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_samples_floor(self, tmp_path):
        path = write_cfg(tmp_path, lambda raw: raw.update({"samples": 10}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_complex(self, tmp_path):
        path = write_cfg(tmp_path, lambda raw: raw["family"].update({"f": 0.3}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_inner_circle_form(self, tmp_path):
        # Bicentric (Chapple) configuration given by its incircle.
        center = 0.2 + 0.1j
        r = 1.0 * (1 - abs(center) ** 2) / 2
        raw = {
            "family": {"a": 1.0, "b": 1.0,
                       "inner_circle_center": [center.real, center.imag],
                       "inner_circle_radius": r},
            "inversion": {"center": [2.0, 0.0], "radius": 0.5},
        }
        path = tmp_path / "chapple.json"
        path.write_text(json.dumps(raw))
        cfg = load_config(path)
        assert abs(cfg.fam.f - center) < 1e-12
        assert cfg.samples == 720  # default


class TestExitCodes:
    def test_config_error_is_2(self, capsys):
        assert main(["classify", "--config", "/nonexistent.json"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_family_error_is_3(self, tmp_path, capsys):
        path = write_cfg(tmp_path, lambda raw: raw["family"].update(
            {"f": [1.5, 0.0]}))
        assert main(["classify", "--config", path]) == 3
        assert "family error" in capsys.readouterr().err

    def test_samples_override_validated(self, cfg_path, capsys):
        assert main(["verify", "--config", cfg_path, "--samples", "8"]) == 2

    @pytest.mark.parametrize("flag", [["--out", "out"], ["--samples", "720"]],
                             ids=["out", "samples"])
    def test_classify_takes_only_config(self, cfg_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--config", cfg_path, *flag])
        assert exc.value.code == 2

    @pytest.mark.parametrize("mutate", [
        lambda raw: raw["inversion"].pop("center"),
        lambda raw: raw["inversion"].pop("radius"),
        lambda raw: raw["inversion"].update({"radius": 0}),
        lambda raw: raw["inversion"].update({"radius": "x"}),
        lambda raw: raw.update({"samples": "many"}),
        lambda raw: raw.update({"family": {
            "a": 2.0, "b": 1.3, "inner_circle_center": [0.15, -0.1],
            "inner_circle_radius": "x"}}),
        lambda raw: raw.update({"tolerances": {"closed_form": 1e-3}}),
        lambda raw: raw.update({"sample": 720}),
        lambda raw: raw.pop("inversion"),
    ], ids=["no-center", "no-radius", "zero-radius", "text-radius",
            "text-samples", "text-inner-radius", "tolerances", "unknown-key",
            "no-inversion"])
    def test_malformed_field_is_2(self, tmp_path, capsys, mutate):
        assert main(["classify", "--config", write_cfg(tmp_path, mutate)]) == 2
        assert "config error" in capsys.readouterr().err


class TestCommands:
    def test_classify_output(self, cfg_path, capsys):
        assert main(["classify", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert out == "O=Interior locus=Hyperbola crossings=6\n"

    def test_sweep_outputs(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg_path, "--out", str(out),
                     "--svg"]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 257  # header + samples
        assert rows[0].startswith("theta,x3_re")
        meta = json.loads((out / "sweep_meta.json").read_text())
        assert len(meta["exact_x3p_conic"]) == 6
        assert meta["samples"] == 256
        svg = (out / "sweep.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_sweep_is_deterministic(self, cfg_path, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["sweep", "--config", cfg_path, "--out", str(out1)])
        main(["sweep", "--config", cfg_path, "--out", str(out2)])
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_sweep_flags_sample_with_O_on_a_vertex(self, tmp_path):
        # O on a vertex of the theta = 0 triangle lies on that circumcircle
        # only, so sample 0 alone is skipped.
        fam = PonceletFamily.from_axes(REF_F, REF_G, REF_A, REF_B)
        o = complex(family.affine_image(fam, family.triangle_at(fam, 0.0)).v1)
        sw = analysis.sweep(fam, Circle(o, 0.7), 256)
        assert sw.skipped == [0]
        for name in ("x3p", "inv_x3", "x2p", "x4p", "x5p"):
            pts = sw.valid(name)
            assert len(pts) == 255 and np.all(np.isfinite(pts))
        path = write_cfg(tmp_path, lambda raw: raw["inversion"].update(
            {"center": [o.real, o.imag]}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out", str(out),
                     "--svg"]) == 0
        rows = [row.split(",") for row in
                (out / "sweep.csv").read_text().splitlines()[1:]]
        assert rows[0][3:13] == [""] * 10 and rows[0][-1] == "1"
        assert all(row[-1] == "0" and "" not in row for row in rows[1:])
        meta = json.loads((out / "sweep_meta.json").read_text())
        assert meta["skipped"] == [0]
        assert ET.parse(out / "sweep.svg").getroot().tag.endswith("svg")

    def test_csv_round_trip_matches_meta(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        main(["sweep", "--config", cfg_path, "--out", str(out)])
        pts = []
        for row in (out / "sweep.csv").read_text().splitlines()[1:]:
            cells = row.split(",")
            if cells[-1] == "1":
                continue
            pts.append(complex(float(cells[3]), float(cells[4])))
        meta = json.loads((out / "sweep_meta.json").read_text())
        stored = Conic(np.array(meta["exact_x3p_conic"]))
        assert stored.distance(conic_fit(pts)) < 1e-8

    def test_verify_reference_passes(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg_path, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "FAIL" not in text
        assert "closed_form_vs_direct: PASS" in text
        assert "conic_type_law: PASS" in text
        assert "homothety: SKIP" in text  # O is not P3 in this config
        assert (out / "report.txt").read_text() == text

    def test_verify_at_p3_runs_homothety(self, tmp_path, capsys):
        from poncelet_inversive import PonceletFamily, p3_point
        fam = PonceletFamily.from_axes(REF_F, REF_G, REF_A, REF_B)
        p3 = p3_point(fam).point
        raw = json.loads(json.dumps(REF_CONFIG))
        raw["inversion"] = {"center": [p3.real, p3.imag], "radius": 1.0}
        raw["samples"] = 720  # the similitude cloud check needs a dense sweep
        path = tmp_path / "p3.json"
        path.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
        text = capsys.readouterr().out
        assert "homothety: PASS" in text

    def test_inner_circle_family_with_small_gamma1(self, tmp_path, capsys):
        # gamma1 nearly cancels on this inscribed-circle family, so P5 must
        # come out real from the rounding alone.
        path = _inner_circle_config(tmp_path, 2.4767685645269455,
                                    1.782570946591304,
                                    0.12190868060156355 - 0.22755468527956835j)
        out = str(tmp_path / "out")
        assert main(["verify", "--config", path, "--out", out]) == 0
        assert "p5_constant_power: PASS" in capsys.readouterr().out
        assert main(["sweep", "--config", path, "--out", out]) == 0

    def test_inner_circle_family_with_small_pi5(self, tmp_path, capsys):
        # Pi5 is -1.4e-6 here, so a defect relative to |Pi5| would read
        # 8e-8 from rounding alone; the check holds it to the Euler
        # circles' mean squared radius instead.
        path = _inner_circle_config(tmp_path, 1.283064071706802,
                                    0.9004156560561578,
                                    -0.11690163699765854 + 0.11687072193315158j)
        assert main(["verify", "--config", path,
                     "--out", str(tmp_path / "out")]) == 0
        assert "p5_constant_power: PASS" in capsys.readouterr().out


def _inner_circle_config(tmp_path, a, b, center) -> str:
    """Config of the family inscribed in the circle about center whose
    radius closes, inverted in the circle (4 + 3i, 0.7)."""
    raw = {"family": {"a": a, "b": b,
                      "inner_circle_center": [center.real, center.imag],
                      "inner_circle_radius": family.solve_inner_radius(
                          a, b, center)},
           "inversion": {"center": [4.0, 3.0], "radius": 0.7}}
    path = tmp_path / "inner.json"
    path.write_text(json.dumps(raw))
    return str(path)


def _count_solves(monkeypatch):
    """Record every cubic solve, through analysis' by-name import too."""
    thetas = []
    solve = family.triangle_at

    def counted(fam, theta):
        thetas.extend(np.ravel(theta))  # np.size(theta) solves
        return solve(fam, theta)

    monkeypatch.setattr(family, "triangle_at", counted)
    monkeypatch.setattr(analysis, "triangle_at", counted)
    return thetas


def _count_calls(monkeypatch, *names):
    """Record the calls of inversive's named functions through every
    package module that binds them."""
    calls = {name: 0 for name in names}
    modules = [m for key, m in sys.modules.items()
               if key.split(".")[0] == "poncelet_inversive"]
    for name in names:
        original = getattr(inversive, name)

        def counted(*args, _fn=original, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


class TestSolveCounts:
    def test_verify_solves_each_sample_once(self, cfg_path, monkeypatch):
        thetas = _count_solves(monkeypatch)
        cfg = load_config(cfg_path)
        _, ok = run_verify(cfg)
        assert ok
        assert len(thetas) == cfg.samples

    @pytest.mark.parametrize("at_p3", [False, True])
    def test_verify_builds_the_run_state_once(self, cfg_path, monkeypatch,
                                              at_p3):
        calls = _count_calls(monkeypatch, "inversive_coeffs",
                             "exact_locus_conic", "inversive_triangle",
                             "circumcenter")
        cfg = load_config(cfg_path)
        if at_p3:  # homothety reads the exact conic too
            cfg.inversion = Circle(p3_point(cfg.fam).point, 1.0)
        _, ok = run_verify(cfg)
        assert ok
        # One circumcentre pass over the world and one over the image
        # triangles; X4', X5' and the Euler circles reuse them.
        assert calls == {"inversive_coeffs": 1, "exact_locus_conic": 1,
                         "inversive_triangle": 1, "circumcenter": 2}

    def test_classify_solves_nothing(self, cfg_path, monkeypatch, capsys):
        thetas = _count_solves(monkeypatch)
        assert cmd_classify(load_config(cfg_path)) == 0
        assert thetas == []

    def test_classify_builds_the_conic_once(self, cfg_path, monkeypatch,
                                            capsys):
        calls = _count_calls(monkeypatch, "inversive_coeffs",
                             "exact_locus_conic")
        assert cmd_classify(load_config(cfg_path)) == 0
        assert calls == {"inversive_coeffs": 1, "exact_locus_conic": 1}


def _boundary_center():
    """Point of the REF_K -> EXTERIOR_K segment where the exact X3' conic
    turns from hyperbola to ellipse, by bisecting its discriminant."""
    fam = PonceletFamily.from_axes(REF_F, REF_G, REF_A, REF_B)

    def disc(c):
        conic = exact_locus_conic(inversive_coeffs(fam, Circle(c, REF_K.radius)))
        return conic.B ** 2 - 4 * conic.A * conic.C

    lo, hi = REF_K.center, EXTERIOR_K.center
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if disc(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


LAW = {("Exterior", 0): "Ellipse", ("Interior", 6): "Hyperbola",
       ("Interior", 0): "Ellipse", ("Boundary", 3): "Parabola"}


def test_classify_obeys_law_near_boundary(tmp_path, capsys):
    boundary = _boundary_center()
    outward = EXTERIOR_K.center - REF_K.center
    outward /= abs(outward)
    seen = []
    for exponent in range(4, 11):
        for side, kinds in ((-1, ("Interior", "Boundary")),
                            (1, ("Exterior", "Boundary"))):
            o = boundary + side * 10.0 ** -exponent * REF_A * outward
            raw = json.loads(json.dumps(REF_CONFIG))
            raw["inversion"]["center"] = [o.real, o.imag]
            path = tmp_path / "near.json"
            path.write_text(json.dumps(raw))
            assert main(["classify", "--config", str(path)]) == 0
            fields = dict(item.split("=") for item in
                          capsys.readouterr().out.split())
            kind, crossings = fields["O"], int(fields["crossings"])
            seen.append((side, exponent, kind, fields["locus"]))
            assert kind in kinds, seen[-1]
            assert LAW.get((kind, crossings)) == fields["locus"], seen[-1]
    assert {kind for _, _, kind, _ in seen} \
        == {"Interior", "Exterior", "Boundary"}


def _reference_csv(sw) -> str:
    """The CSV formatted one cell at a time: '%.17g', NaN written empty."""
    lines = [cli.CSV_HEADER]
    for i in range(len(sw.thetas)):
        cells = [sw.thetas[i]]
        for name in ("x3", "x3p", "inv_x3", "x2p", "x4p", "x5p"):
            z = getattr(sw, name)[i]
            cells += [z.real, z.imag]
        cells.append(sw.power_at_O[i])
        row = ["" if math.isnan(x) else "%.17g" % x for x in cells]
        lines.append(",".join(row + [str(int(i in sw.skipped))]))
    return "\n".join(lines) + "\n"


def _reference_svg_path(points) -> str:
    """One pen command per point: M after a NaN (or first), L otherwise."""
    out, down = [], False
    for z in points:
        if math.isnan(z.real):
            down = False
            continue
        out.append(("L" if down else "M") + "%.6g %.6g" % (z.real, z.imag))
        down = True
    return " ".join(out)


class TestWriters:
    @pytest.fixture
    def fam(self):
        return PonceletFamily.from_axes(REF_F, REF_G, REF_A, REF_B)

    def test_csv_matches_cell_by_cell_reference(self, fam, tmp_path):
        block = cli._CSV_BLOCK
        sw = analysis.sweep(fam, EXTERIOR_K, block + 3)
        # Skipped samples on both sides of the first block boundary, and
        # at both ends.
        sw.skipped = [0, block - 2, block - 1, block, block + 2]
        for name in ("x3p", "inv_x3", "x2p", "x4p", "x5p"):
            getattr(sw, name)[sw.skipped] = complex(np.nan, np.nan)
        path = tmp_path / "sweep.csv"
        cli.write_csv(sw, path)
        text = path.read_text()
        assert text == _reference_csv(sw)
        assert text.count(",1\n") == 5 and "nan" not in text

    @pytest.mark.parametrize("pattern", [
        "..xxx..", "x.x.x", ".x", "x.", "xx..x.xx", "....", "", "x"],
        ids=["lead-trail", "isolated", "one-lead", "one-trail", "mixed",
             "all-nan", "empty", "single"])
    def test_svg_path_matches_per_point_reference(self, pattern):
        pts = np.array([complex(0.1 * i - 1, 1 / (i + 3)) if c == "x"
                        else complex(np.nan, np.nan)
                        for i, c in enumerate(pattern)], dtype=complex)
        assert cli._svg_path(pts) == _reference_svg_path(pts)

    def test_locus_overlay_lies_on_exact_conic(self, fam):
        # O outside every circumcircle: the X3' locus is an ellipse, drawn
        # whole inside write_svg's viewBox for EXTERIOR_K (half-widths 5.2
        # and 4.2).
        sw = analysis.sweep(fam, EXTERIOR_K, 256)
        pts = cli._locus_polyline(sw.coeffs, 5.2, 4.2)
        drawn = pts[~np.isnan(pts)]
        assert len(drawn) >= 256
        assert np.max(conic_residual(sw.exact_conic, drawn)) < 1e-9

    def test_locus_overlay_segments_keep_to_one_branch(self, fam):
        # O crosses the circumcircles: the locus is a hyperbola.  On it
        # (x - c)^T M (x - c) = k, and the coordinate along the eigenvector
        # of M whose eigenvalue has the sign of k never vanishes, so its
        # sign tells the branches apart.  The viewBox half-widths for
        # REF_K are 3.2 and 2.1.
        sw = analysis.sweep(fam, REF_K, 256)
        q = sw.exact_conic.matrix()
        c = np.linalg.solve(q[:2, :2], -q[:2, 2])
        k = -np.linalg.det(q) / np.linalg.det(q[:2, :2])
        evals, evecs = np.linalg.eigh(q[:2, :2])
        axis = evecs[:, np.argmax(evals * np.sign(k))]
        pts = cli._locus_polyline(sw.coeffs, 3.2, 2.1)
        side = np.sign(axis[0] * (pts.real - c[0]) + axis[1] * (pts.imag - c[1]))
        segment = ~np.isnan(pts[:-1]) & ~np.isnan(pts[1:])
        assert set(side[:-1][segment]) == {-1.0, 1.0}  # both branches drawn
        assert np.all(side[:-1][segment] == side[1:][segment])

    def test_csv_memory_does_not_grow_with_samples(self, fam, tmp_path):
        sw = analysis.sweep(fam, EXTERIOR_K, 16384)
        tracemalloc.start()
        try:
            cli.write_csv(sw, tmp_path / "sweep.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
