"""Set-up cost in a fresh interpreter: import the package, then generate,
write and load one workload's configs.  Prints the elapsed seconds.

Usage: python3 benchmarks/setup_probe.py WORKLOAD SEED SMOKE(0|1)
with the repository's src/ on PYTHONPATH.
"""

import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    import poncelet_inversive.cli  # noqa: F401  (the package import is timed)
    from harness import Runner  # generates, writes and loads the configs

    Runner(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
    print(f"{time.perf_counter() - t0:.9f}")


if __name__ == "__main__":
    main()
