"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 bench/probe.py <workload> <seed>

Generates the workload's inputs (not timed), then times importing peermesh
and loading those inputs into the program's types, and prints the seconds.
"""

import sys
import time
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(SRC))
    workload = workloads.make(name, seed, work_dir=Path("."))
    start = time.perf_counter()
    workload.load()
    print(f"{time.perf_counter() - start:.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
