"""Closed-loop runs of one workload: one client, one process, every op checked.

An op is one CLI command (`sweep`, `verify` or `classify`) run in-process
through `poncelet_inversive.cli.main` on a generated config.  The next op
starts only after the previous one returned and was checked.  Only the
commands are timed; the checks between them are not, so `ops_per_s` is
completed ops over the summed op wall time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from poncelet_inversive import cli

import tracing
from workloads import WORKLOADS, Config, OpOutput, make_configs, write_configs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
OUTPUT_FILES = ("sweep.csv", "sweep_meta.json", "sweep.svg", "report.txt")
# Fresh-interpreter set-ups and cold commands per run.  Few, because every
# second they take is a second less of timed ops in the run's time budget.
SETUP_REPEATS = 5
COLD_REPEATS = 3
# Measured and printed, but not in BENCHMARK.json: on a shared 2-vCPU VM the
# fastest of 7 cold commands per run still spread 0.34 (IQR/median) over 10
# verify-mix runs, above the largest bound a metric may have (0.25).
UNGATED_UNITS = {"cold_cmd_s": "s"}
TAIL_SAMPLES = 10  # samples that must lie beyond the reported tail


def child_env() -> dict:
    """Environment of child interpreters: this one's (thread pins from
    run.py included), with the checkout's src/ as the package path."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def provenance(workload: str, seed: int, trace: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {"workload": workload, "seed": seed, "trace": trace,
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "threads": {k: v for k, v in os.environ.items() if "THREADS" in k}}


def median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: the order statistics weighted
    by a Beta((n+1)/2, (n+1)/2) law.  On a shared machine whose speed drifts
    it spreads less from run to run than the middle sample alone."""
    x = np.sort(values)
    n = len(x)
    if n == 1:
        return float(x[0])
    grid = np.linspace(0.0, 1.0, 64 * n + 1)
    with np.errstate(divide="ignore"):
        log_pdf = (n - 1) / 2 * np.log(grid * (1 - grid))
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    return float(np.diff(cdf[::64]) @ x / cdf[-1])


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_SAMPLES samples beyond it,
    as (value, percentile); the maximum when there are too few samples."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_SAMPLES
    if k < 1:
        return ordered[-1], 100.0
    return ordered[k - 1], 100.0 * k / len(ordered)


class Runner:
    """Runs and checks ops of one workload on its generated configs."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload = WORKLOADS[workload]
        self.dir = OUT_ROOT / workload
        self.configs: list[Config] = make_configs(workload, seed, smoke)
        self.paths = write_configs(self.configs, self.dir / "configs")
        for path in self.paths:
            cli.load_config(str(path))
        self.out_dir = self.dir / "out"
        self.attempted = 0
        self.failed = 0
        self.margins: dict[int, list[float]] = {}

    def argv(self, i: int) -> list[str]:
        return self.workload.argv(self.paths[i], self.out_dir)

    def _clear(self) -> None:
        for name in OUTPUT_FILES:
            (self.out_dir / name).unlink(missing_ok=True)

    def record(self, i: int, code, stdout: str) -> bool:
        """Check one op's output and count it."""
        try:
            ok, margin = self.workload.check(
                self.configs[i], OpOutput(code, stdout, self.out_dir))
        except (LookupError, TypeError, ValueError):  # malformed output
            ok, margin = False, math.nan
        self.attempted += 1
        if ok:
            self.margins.setdefault(i, []).append(margin)
        else:
            self.failed += 1
            print(f"op failed: {self.workload.name} config {self.paths[i].name}"
                  f" exit={code}", file=sys.stderr)
        return ok

    def op(self, i: int) -> float:
        """Run, time and check one in-process op; returns its wall time."""
        self._clear()
        out, err = io.StringIO(), io.StringIO()
        code = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(self.argv(i))
            except Exception:  # an escaping exception is a failed op
                traceback.print_exc()
            dt = time.perf_counter() - t0
        if code is None:
            sys.stderr.write(err.getvalue())
        self.record(i, code, out.getvalue())
        return dt

    def cold(self, i: int) -> float:
        """One fresh `python -m poncelet_inversive.cli` process, checked."""
        self._clear()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "poncelet_inversive.cli", *self.argv(i)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=150)
        dt = time.perf_counter() - t0
        self.record(i, proc.returncode, proc.stdout)
        return dt


def setup_seconds(workload: str, seed: int, smoke: bool) -> float:
    """Fresh interpreter: import the package, generate and load the configs."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
           str(seed), "1" if smoke else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=150, check=True)
    return float(proc.stdout.split()[-1])


def _accuracy(runner: Runner) -> float:
    """Worst accuracy margin on the workload's first (reference) config."""
    return min(runner.margins.get(0, [math.nan]))


def run_untraced(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """Closed loop for `seconds` of op time.  The fresh-interpreter set-ups
    and cold commands are spread evenly over the loop, so they see the same
    stretch of machine time as the ops.  A cold command reports its fastest
    run: other tenants of a shared machine only ever add time to it."""
    n_setups, n_colds = (1, 1) if smoke else (SETUP_REPEATS, COLD_REPEATS)
    setups = [setup_seconds(workload, seed, smoke)]  # first: nothing timed yet
    runner = Runner(workload, seed, smoke)
    colds = [runner.cold(0)]
    runner.op(0)  # warm-up: lazy imports and caches, checked but not timed
    times: list[float] = []
    i = 0
    while (sum(times) < seconds or len(setups) < n_setups
           or len(colds) < n_colds):
        if len(setups) < n_setups and sum(times) >= seconds * len(setups) / n_setups:
            setups.append(setup_seconds(workload, seed, smoke))
        elif len(colds) < n_colds and sum(times) >= seconds * len(colds) / n_colds:
            colds.append(runner.cold(0))
        else:
            times.append(runner.op(i % len(runner.configs)))
            i += 1
    tail_s, tail_pct = tail(times)
    all_margins = [m for ms in runner.margins.values() for m in ms]
    metrics = {
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": median(times),
        "op_tail_s": tail_s,
        "cold_cmd_s": min(colds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "accuracy_margin_dec": _accuracy(runner),
        "setup_s": median(setups),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "op_p50_s": f"median of n={len(times)}",
        "ops_per_s": f"{len(times)} ops, {runner.configs[0].spec.get('samples', 720)}"
                     f" samples per config, {len(runner.configs)} configs",
        "op_tail_s": f"p{tail_pct:.1f}, n={len(times)}",
        "cold_cmd_s": f"fastest of {len(colds)}, config {runner.paths[0].name}; "
                      "not gated",
        "accuracy_margin_dec": (
            f"config {runner.paths[0].name}; over all ops: worst "
            f"{min(all_margins, default=math.nan):.3f}, median "
            f"{median(all_margins) if all_margins else math.nan:.3f}"),
    }
    return {"runner": runner, "metrics": metrics, "notes": notes,
            "extra": {"op_tail_percentile": tail_pct, "op_times": times,
                      "setup_samples": setups, "cold_samples": colds}}


def run_traced(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """Traced and untraced ops alternate on the same configs; per-layer
    counts come from the traced pass over the first cycle of configs."""
    runner = Runner(workload, seed, smoke)
    n_cfg = len(runner.configs)
    runner.op(0)  # warm-up, untraced
    tracer = tracing.Tracer()
    traced_t: list[float] = []
    plain_t: list[float] = []
    samples: dict[int, int] = {}
    j = 0
    while j < n_cfg or sum(traced_t) + sum(plain_t) < seconds:
        i = j % n_cfg
        for traced in ((True, False) if j % 2 == 0 else (False, True)):
            if traced:
                samples[j] = runner.configs[i].spec.get("samples", 720)
                with tracer, tracer.op_span(j):
                    traced_t.append(runner.op(i))
            else:
                plain_t.append(runner.op(i))
        j += 1
    tracer.save(runner.dir / "trace.npz")

    metrics = tracing.layer_metrics(tracer, timed_ops=range(j),
                                    count_ops=range(n_cfg), samples=samples)
    traced_rate = len(traced_t) / sum(traced_t)
    plain_rate = len(plain_t) / sum(plain_t)
    metrics["trace.overhead"] = traced_rate / plain_rate
    metrics["trace.ops_per_s_traced"] = traced_rate
    metrics["trace.ops_per_s_untraced"] = plain_rate
    solves = tracing.solves_by_op(tracer)
    per_config = {runner.paths[i].name: {
        "family.solves": solves.get(i, 0.0),
        "family.solves_per_sample": solves.get(i, 0.0) / samples[i]}
        for i in range(n_cfg)}
    notes = {"trace.overhead": f"traced {traced_rate:.4g} op/s over "
                               f"{len(traced_t)} ops / untraced "
                               f"{plain_rate:.4g} op/s over {len(plain_t)} ops"}
    return {"runner": runner, "metrics": metrics, "notes": notes,
            "extra": {"per_config": per_config, "spans": len(tracer.start)}}


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: int,
        smoke: bool = False) -> dict:
    """One run; returns the result object with its provenance and extras."""
    prov = provenance(workload, seed, trace)
    body = (run_traced if trace else run_untraced)(workload, seed, seconds, smoke)
    runner = body["runner"]
    units = declared_units(trace)
    if units.keys() | UNGATED_UNITS.keys() != body["metrics"].keys() | UNGATED_UNITS.keys():
        raise KeyError(f"metrics differ from BENCHMARK.json: "
                       f"{sorted(units.keys() ^ body['metrics'].keys())}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(body["metrics"][name]), "unit": unit}
                    for name, unit in units.items()},
    }
    report = {**result, "fail_ratio": runner.failed / max(runner.attempted, 1),
              "ungated": {name: {"value": float(value), "unit": UNGATED_UNITS[name]}
                          for name, value in body["metrics"].items()
                          if name not in units},
              "notes": body["notes"], "extra": body["extra"],
              "provenance": prov, "smoke": smoke}
    (OUT_ROOT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")
    return report


def print_report(report: dict) -> None:
    prov = report["provenance"]
    print(f"# {prov['workload']} seed={prov['seed']} trace={prov['trace']} "
          f"python={prov['python']} numpy={prov['numpy']} nproc={prov['nproc']} "
          f"loadavg={prov['loadavg'][0]:.2f} commit={prov['git_commit'][:12]} "
          f"src={prov['src_sha256'][:12]}")
    for name, m in {**report["metrics"], **report["ungated"]}.items():
        note = report["notes"].get(name, "")
        print(f"{name} = {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    print(f"fail_ratio = {report['fail_ratio']:.6g} 1  "
          f"({report['failed']} of {report['attempted']} ops)")
    for name, counts in report["extra"].get("per_config", {}).items():
        print(f"  {name}: " + ", ".join(f"{k}={v:.6g}" for k, v in counts.items()))
