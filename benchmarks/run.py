"""Benchmark of the poncelet-inversive CLI; BENCHMARK.json describes it.

Run from the repository root:

    python3 benchmarks/run.py --workload verify-mix --seed 1 --seconds 55 --trace 0
    python3 benchmarks/run.py --smoke

Workloads: sweep-large, verify-mix, classify-scan (see workloads.py); the
first two are the ones BENCHMARK.json gates, classify-scan is run by hand
(a third gated workload would cut every run to 25 s, too short to be steady
on a shared 2-vCPU VM).  With
--trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  --smoke runs every workload for about a
second on a reduced cycle of configs.  The last line of standard output is
one JSON object; the full report, with provenance, goes to
.bench_out/result-<workload>-seed<seed>-trace<trace>.json.

The package is imported from this checkout's src/ only; without it the run
stops with exit code 2.  BLAS and OpenMP are pinned to one thread.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "poncelet_inversive"
WORKLOAD_NAMES = ("sweep-large", "verify-mix", "classify-scan")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    # Before NumPy loads: one BLAS/OpenMP thread, also for child processes.
    os.environ.update({var: "1" for var in THREAD_VARS})
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"benchmark: no package source at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE_DIR.parent))
    import poncelet_inversive
    if Path(poncelet_inversive.__file__).resolve().parent != PACKAGE_DIR.resolve():
        print("benchmark: poncelet_inversive imported from outside src/",
              file=sys.stderr)
        return 2
    import harness

    if args.smoke:
        for name in WORKLOAD_NAMES:
            for trace in (0, 1):
                harness.print_report(harness.run(name, args.seed, 1.0, trace,
                                                 smoke=True))
        return 0
    report = harness.run(args.workload, args.seed, args.seconds, args.trace)
    harness.print_report(report)
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
