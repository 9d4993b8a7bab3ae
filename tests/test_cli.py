import cmath
import json
import math
import re
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from poncelet_inversive import (
    Circle,
    PonceletFamily,
    exact_locus_conic,
    inversive_coeffs,
    p3_point,
    p5_point,
)
from poncelet_inversive import analysis, cli, family, inversive
from poncelet_inversive.cli import (
    ConfigError,
    cmd_classify,
    load_config,
    main,
    run_verify,
)
from poncelet_inversive.conics import Conic, conic_fit, conic_residual
from poncelet_inversive.errors import SingularMap

from conftest import (EXTERIOR_K, P5_AT_INFINITY, REF_A, REF_B, REF_F, REF_G,
                      REF_K)

REF_CONFIG = {
    "family": {"f": [REF_F.real, REF_F.imag], "g": [REF_G.real, REF_G.imag],
               "a": REF_A, "b": REF_B},
    "inversion": {"center": [REF_K.center.real, REF_K.center.imag],
                  "radius": REF_K.radius},
    "samples": 256,
}


VERIFY_LINES = [
    "closed_form_vs_direct", "projectivity_hypotheses",
    "exact_vs_fitted_conic", "sweep_on_exact_conic", "conic_type_law",
    "collinearity", "distance_ratio", "pencil_membership",
    "p3_constant_power", "p5_constant_power", "p3_interiority",
    "similitude_tangency", "homothety", "poncelet_closure",
    "nonconic_evidence"]


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
        lambda raw: raw.update({"family": 5}),
    ], ids=["no-center", "no-radius", "zero-radius", "text-radius",
            "text-samples", "text-inner-radius", "tolerances", "unknown-key",
            "no-inversion", "number-family"])
    def test_malformed_field_is_2(self, tmp_path, capsys, mutate):
        assert main(["classify", "--config", write_cfg(tmp_path, mutate)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["5", "null"])
    def test_non_object_config_is_2(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["classify", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_numeric_failure_is_4(self, tmp_path, capsys):
        f, g, a, b = P5_AT_INFINITY
        path = write_cfg(tmp_path, lambda raw: raw["family"].update(
            {"f": [f.real, f.imag], "g": [g.real, g.imag], "a": a, "b": b}))
        assert main(["verify", "--config", path,
                     "--out", str(tmp_path / "out")]) == 4
        assert "numeric failure: P5 denominator" in capsys.readouterr().err


# a = b with O on the outer circle, which is every circumcircle: sweep skips
# every sample, so no X3' exists to check.
ON_EVERY_CIRCUMCIRCLE = {"o=2": 2 + 0j, "o=2e^0.7i": 2 * cmath.exp(0.7j)}
READ_NO_X3P = {"p3_constant_power", "p5_constant_power", "p3_interiority",
               "poncelet_closure"}


@pytest.fixture(params=list(ON_EVERY_CIRCUMCIRCLE))
def on_every_path(tmp_path, request):
    o = ON_EVERY_CIRCUMCIRCLE[request.param]
    path = tmp_path / "on_every.json"
    path.write_text(json.dumps({
        "family": {"f": [0.3, 0.0], "g": [0.3, 0.0], "a": 2.0, "b": 2.0},
        "inversion": {"center": [o.real, o.imag], "radius": 1.0}}))
    return str(path)


class TestOnEveryCircumcircle:
    @pytest.mark.parametrize("command", ["sweep", "verify", "classify"])
    def test_exits_without_traceback(self, on_every_path, tmp_path, capsys,
                                     command):
        argv = [command, "--config", on_every_path]
        if command != "classify":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) in range(5)  # an escaped exception fails the test

    def test_verify_skips_every_line_reading_x3p(self, on_every_path,
                                                 tmp_path, capsys):
        assert main(["verify", "--config", on_every_path,
                     "--out", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":", 1)[0] for line in lines] == VERIFY_LINES
        for name, line in zip(VERIFY_LINES, lines):
            status = line.split(": ", 1)[1]
            if name in READ_NO_X3P:
                assert status.startswith("PASS")
            else:
                assert status == "SKIP (O on every circumcircle)"

    def test_classify_names_the_location(self, on_every_path, capsys):
        assert main(["classify", "--config", on_every_path]) == 0
        assert capsys.readouterr().out == (
            "O=OnEveryCircumcircle locus=Point crossings=0 margin=+0.000e+00\n")


class TestCommands:
    def test_classify_output(self, cfg_path, capsys):
        assert main(["classify", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert out == ("O=Interior locus=Hyperbola crossings=6 "
                       "margin=-4.437e-01\n")

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

    def test_verify_line_contract(self, cfg_path, tmp_path, capsys):
        # One line per check, in this order; the conic-type law's note is
        # key=value tokens ending in the signed margin.
        main(["verify", "--config", cfg_path, "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":", 1)[0] for line in lines] == VERIFY_LINES
        assert re.fullmatch(
            r"conic_type_law: PASS O=Interior locus=Hyperbola crossings=6 "
            r"margin=-\d\.\d{3}e[+-]\d{2}", lines[4])

    def test_verify_table_bounds(self):
        # The bounds every verify line has always been held to; the
        # benchmark's verify-mix margins read the same ones.
        assert [row[0] for row in analysis.VERIFY] == VERIFY_LINES
        assert {line: bound for line, bound, _ in analysis.VERIFY} == {
            "closed_form_vs_direct": 1e-9, "projectivity_hypotheses": 1e-10,
            "exact_vs_fitted_conic": 1e-8, "sweep_on_exact_conic": 1e-9,
            "conic_type_law": 1e-6, "collinearity": 1e-9,
            "distance_ratio": 1e-9, "pencil_membership": 1e-9,
            "p3_constant_power": 1e-9, "p5_constant_power": 1e-8,
            "p3_interiority": 1e-12, "similitude_tangency": 1e-7,
            "homothety": 1e-7, "poncelet_closure": 1e-8,
            "nonconic_evidence": None}

    def test_verify_rows_run_the_module_binding(self, cfg_path, monkeypatch):
        # Rows name their check, so a rebound one (a tracer's wrapper) is
        # the one that runs; a FAIL fails the run, a report never does.
        monkeypatch.setattr(analysis, "pencil_check",
                            lambda sw, bound: analysis.CheckResult(False, 2.0))
        monkeypatch.setattr(analysis, "nonconic_evidence",
                            lambda sw, bound: analysis.CheckResult(False))
        lines, ok = run_verify(load_config(cfg_path))
        assert not ok
        assert lines[7] == "pencil_membership: FAIL residual=2.000e+00"
        assert lines[14] == "nonconic_evidence: PASS"
        monkeypatch.setattr(analysis, "pencil_check",
                            lambda sw, bound: analysis.CheckResult(True))
        assert run_verify(load_config(cfg_path))[1]

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


def _near_circular_config(tmp_path, ratio) -> str:
    """The reference foci with a = 2, b = 2 ratio, inverted in
    (3.5 + 0.5i, 0.7): O outside every circumcircle, and the X3' locus an
    ellipse of spread about 0.07 (1 - ratio) some 3.3 from the origin."""
    raw = {"family": {"f": [REF_F.real, REF_F.imag],
                      "g": [REF_G.real, REF_G.imag], "a": 2.0, "b": 2.0 * ratio},
           "inversion": {"center": [3.5, 0.5], "radius": 0.7}}
    path = tmp_path / "near-circular.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestNearCircular:
    @pytest.mark.parametrize("ratio", [0.995, 0.999, 0.9999, 0.99999])
    def test_verify_passes(self, tmp_path, capsys, ratio):
        path = _near_circular_config(tmp_path, ratio)
        assert main(["verify", "--config", path,
                     "--out", str(tmp_path / "out")]) == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("ratio", [0.999999, 0.9999999])
    def test_similitude_tangency_passes(self, tmp_path, capsys, ratio):
        # O is far from the X3 locus on its scale; its tangents, the polars
        # of their touching points, still touch the X3' locus.  The run
        # exits 1: the conic fitted to the swept X3' misses the exact one
        # by 2.4e-8 and 9.6e-8 at these ratios.
        path = _near_circular_config(tmp_path, ratio)
        main(["verify", "--config", path, "--out", str(tmp_path / "out")])
        assert "similitude_tangency: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("ratio", [0.995, 0.999, 0.9999, 0.99999,
                                       0.999999])
    def test_classify_reads_an_ellipse(self, tmp_path, capsys, ratio):
        path = _near_circular_config(tmp_path, ratio)
        assert main(["classify", "--config", path]) == 0
        assert capsys.readouterr().out.startswith("O=Exterior locus=Ellipse ")

    def test_classify_at_a_equals_b_reads_a_point(self, tmp_path, capsys):
        path = _chapple_config(tmp_path)
        assert main(["classify", "--config", path]) == 0
        fields = dict(item.split("=") for item in
                      capsys.readouterr().out.split())
        assert (fields["O"], fields["locus"]) == ("Exterior", "Point")
        cfg = load_config(path)
        with pytest.raises(SingularMap):
            exact_locus_conic(inversive_coeffs(cfg.fam, cfg.inversion))

    def test_verify_at_a_equals_b_skips_the_conic_lines(self, tmp_path,
                                                        capsys):
        path = _chapple_config(tmp_path)
        assert main(["verify", "--config", path,
                     "--out", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":", 1)[0] for line in lines] == VERIFY_LINES
        point_locus = ("exact_vs_fitted_conic", "sweep_on_exact_conic",
                       "conic_type_law", "similitude_tangency")
        for name, line in zip(VERIFY_LINES, lines):
            status = line.split(": ", 1)[1]
            if name in point_locus:
                assert status == "SKIP (X3' locus is a point: a = b)"
            elif name == "homothety":  # O is not P3
                assert status.startswith("SKIP")
            else:
                assert status.startswith("PASS")
        fam = load_config(path).fam
        for res in (p3_point(fam), p5_point(fam)):
            assert np.isfinite(res.point) and np.isfinite(res.invariant_power)

    def test_verify_at_a_equals_b_tries_the_conic_once(self, tmp_path,
                                                       monkeypatch):
        # Four lines read the missing conic; its failing build runs once.
        calls = _count_calls(monkeypatch, "exact_locus_conic")
        _, ok = run_verify(load_config(_chapple_config(tmp_path)))
        assert ok and calls == {"exact_locus_conic": 1}

    def test_sweep_at_a_equals_b_writes_no_conic(self, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--config", _chapple_config(tmp_path),
                     "--out", str(out), "--svg"]) == 0
        assert (out / "sweep.csv").read_text().startswith(cli.CSV_HEADER)
        ET.parse(out / "sweep.svg")
        meta = json.loads((out / "sweep_meta.json").read_text())
        assert meta["exact_x3p_conic"] is None
        assert np.isfinite(meta["pi3"]) and np.isfinite(meta["pi5"])


def _chapple_config(tmp_path) -> str:
    """The bicentric config of TestConfig.test_inner_circle_form: at a = b
    the circumcircle is fixed, so X3' does not move."""
    center = 0.2 + 0.1j
    raw = {"family": {"a": 1.0, "b": 1.0,
                      "inner_circle_center": [center.real, center.imag],
                      "inner_circle_radius": (1 - abs(center) ** 2) / 2},
           "inversion": {"center": [2.0, 0.0], "radius": 0.5}}
    path = tmp_path / "chapple.json"
    path.write_text(json.dumps(raw))
    return str(path)


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


def _count_calls(monkeypatch, *names, module=inversive):
    """Record the calls of the module's named functions through every
    package module that binds them."""
    calls = {name: 0 for name in names}
    modules = [m for key, m in sys.modules.items()
               if key.split(".")[0] == "poncelet_inversive"]
    for name in names:
        original = getattr(module, name)

        def counted(*args, _fn=original, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


class TestNoSecondPath:
    def test_commands_run_without_eigenvalue_or_root_solvers(
            self, cfg_path, tmp_path, monkeypatch, capsys):
        # The triangle kernel inverts the Blaschke phase; np.roots stays a
        # test oracle only.
        def banned(*args, **kwargs):
            raise AssertionError("eigenvalue or polynomial-root solver called")

        monkeypatch.setattr(np.linalg, "eigvals", banned)
        monkeypatch.setattr(np, "roots", banned)
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg_path, "--out", out,
                     "--svg"]) == 0
        assert main(["verify", "--config", cfg_path, "--out", out]) == 0
        assert main(["classify", "--config", cfg_path]) == 0


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
                             "circumcenter", "pencil_membership")
        cfg = load_config(cfg_path)
        if at_p3:  # homothety reads the exact conic too
            cfg.inversion = Circle(p3_point(cfg.fam).point, 1.0)
        _, ok = run_verify(cfg)
        assert ok
        # One circumcentre pass over the world and one over the image
        # triangles; X4', X5' and the Euler circles reuse them.  The
        # collinearity, distance-ratio and pencil lines share one pass.
        assert calls == {"inversive_coeffs": 1, "exact_locus_conic": 1,
                         "inversive_triangle": 1, "circumcenter": 2,
                         "pencil_membership": 1}

    def test_verify_at_p3_builds_p3_once(self, cfg_path, monkeypatch):
        # p3_constant_power and homothety read the sweep's one P3.
        cfg = load_config(cfg_path)
        cfg.inversion = Circle(p3_point(cfg.fam).point, 1.0)
        calls = _count_calls(monkeypatch, "p3_point",
                             module=sys.modules[p3_point.__module__])
        _, ok = run_verify(cfg)
        assert ok and calls == {"p3_point": 1}

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

    @pytest.mark.parametrize("config", ["exterior", "crossed", "chapple",
                                        "vertex"])
    def test_files_match_per_value_reference(self, config, fam, tmp_path,
                                             monkeypatch):
        # O outside every circumcircle at the benchmark's sample count; O
        # crossed, where X3' runs far out and some cells take exponent
        # notation; a = b, where X3' does not move; O on a swept vertex,
        # where sample 0 is skipped.
        if config == "chapple":
            cfg = load_config(_chapple_config(tmp_path))
            sw = analysis.sweep(cfg.fam, cfg.inversion, 720)
        else:
            o = complex(family.affine_image(
                fam, family.triangle_at(fam, 0.0)).v1)
            k = {"exterior": EXTERIOR_K, "crossed": REF_K,
                 "vertex": Circle(o, 0.7)}[config]
            sw = analysis.sweep(fam, k, 4096)
        assert (sw.skipped == [0]) == (config == "vertex")
        cli.write_csv(sw, tmp_path / "sweep.csv")
        csv = (tmp_path / "sweep.csv").read_text()
        assert csv == _reference_csv(sw)
        if config == "crossed":
            assert re.search(r"\de[-+]", csv)
        p3, p5 = sw.p3.point, sw.p5.point
        cli.write_svg(sw, p3, p5, tmp_path / "sweep.svg")
        monkeypatch.setattr(cli, "_svg_path", _reference_svg_path)
        cli.write_svg(sw, p3, p5, tmp_path / "reference.svg")
        assert ((tmp_path / "sweep.svg").read_text()
                == (tmp_path / "reference.svg").read_text())

    def test_csv_memory_does_not_grow_with_samples(self, fam, tmp_path):
        sw = analysis.sweep(fam, EXTERIOR_K, 16384)
        tracemalloc.start()
        try:
            cli.write_csv(sw, tmp_path / "sweep.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
