"""Smoke runs of the benchmark: every workload for a fraction of a second
on a reduced cycle of configs.

Run from the repository root:  python3 -m pytest benchmarks -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import harness  # noqa: E402
import tracing  # noqa: E402
from poncelet_inversive import analysis, cli, conics, family  # noqa: E402
from poncelet_inversive.conics import ConicType  # noqa: E402

WORKLOADS = ("sweep-large", "verify-mix", "classify-scan")
SECONDS = 0.1
SEED = 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_clean(workload):
    report = harness.run(workload, SEED, SECONDS, trace=0, smoke=True)
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] >= 3  # cold command, warm-up, timed op
    assert "cold_cmd_s" in report["ungated"]
    for name, metric in {**report["metrics"], **report["ungated"]}.items():
        assert metric["value"] > 0, name


def _flip_first_skip_flag(monkeypatch):
    write_csv = cli.write_csv

    def corrupted(sw, path):
        write_csv(sw, path)
        path.write_text(path.read_text().replace(",0\n", ",1\n", 1))

    monkeypatch.setattr(cli, "write_csv", corrupted)


def _inflate_first_residual(monkeypatch):
    run_verify = cli.run_verify

    def corrupted(cfg):
        lines, ok = run_verify(cfg)
        lines[0] = lines[0].split("residual=")[0] + "residual=1.000e-03"
        return lines, ok

    monkeypatch.setattr(cli, "run_verify", corrupted)


def _misreport_locus(monkeypatch):
    monkeypatch.setattr(conics, "conic_classify", lambda c: ConicType.PARABOLA)


def _print_garbage(monkeypatch):
    monkeypatch.setattr(cli, "cmd_classify", lambda cfg: print("garbage") or 0)


@pytest.mark.parametrize("workload, corrupt", [
    ("sweep-large", _flip_first_skip_flag),
    ("verify-mix", _inflate_first_residual),
    ("classify-scan", _misreport_locus),
    ("classify-scan", _print_garbage),
])
def test_corrupted_output_counts_as_failure(workload, corrupt, monkeypatch):
    corrupt(monkeypatch)
    report = harness.run(workload, SEED, SECONDS, trace=0, smoke=True)
    # Only the fresh-subprocess cold command escapes the in-process patch.
    assert report["failed"] == report["attempted"] - 1 > 0
    assert report["fail_ratio"] > 0 and not report["correct"]


COUNTERS = ("family.solves", "family.solves_per_sample", "inversive.calls",
            "power.calls", "conics.fit_calls", "conics.fit_points",
            "conics.residual_calls", "analysis.sweeps",
            "analysis.classify_solves", "analysis.skip_ratio",
            "cli.csv_bytes", "cli.svg_bytes")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    first = harness.run(workload, SEED, SECONDS, trace=1, smoke=True)
    second = harness.run(workload, SEED, SECONDS, trace=1, smoke=True)
    assert first["correct"] and second["correct"]
    for name in COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["extra"]["per_config"] == second["extra"]["per_config"]

    per_config = first["extra"]["per_config"]
    if workload == "verify-mix":
        # The traced wrapper sees analysis' by-name import of triangle_at.
        ref = per_config["00-ref-interior.json"]
        assert ref["family.solves"] == 7960
        assert ref["family.solves_per_sample"] == pytest.approx(11.0556, abs=1e-4)
    if workload == "sweep-large":
        assert first["metrics"]["family.solves_per_sample"]["value"] == 1.0
        assert first["metrics"]["analysis.sweeps"]["value"] == 1.0


def _bindings():
    modules = [m for name, m in list(sys.modules.items())
               if name.split(".")[0] == tracing.PACKAGE]
    out = {}
    for mod in modules:
        for name, obj in vars(mod).items():
            out[mod.__name__, name] = obj
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for attr, raw in vars(obj).items():
                    out[mod.__name__, f"{name}.{attr}"] = raw
    return out


def test_tracer_rebinds_by_name_imports_and_restores_them():
    before = _bindings()
    with tracing.Tracer():
        assert analysis.triangle_at is family.triangle_at
        assert hasattr(analysis.triangle_at, "__wrapped__")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
