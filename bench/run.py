"""peermesh benchmark: one workload per process, end to end or traced.

Usage, from the root of a checkout:

  python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace 0
  python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace 1

Workloads: mc-tables, sync-round, world-flat, world-split (see README.md).

--trace 0 runs whole rounds of the workload until --seconds have passed and
reports the end-to-end metrics: work_per_s (median over the rate samples:
one per command on mc-tables, one per round elsewhere), peak_rss_mb
of this process, and setup_s (median of fresh-process set-up probes).
--trace 1 runs one untraced and one traced round of every workload, so that
each per-layer metric comes from the workload that exercises it, writes the
spans to .bench_work/spans.csv and reports every per-layer metric and
the tracing overhead. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5
# What one unit of work_per_s is on each workload, by the name users know it.
RATE_NAMES = {
    "mc-tables": "mc_trials_per_s",
    "sync-round": "round_members_per_s",
    "world-flat": "script_events_per_s",
    "world-split": "script_events_per_s",
}


def import_program() -> None:
    """Import peermesh from this checkout's sources, never from elsewhere."""
    package = SRC / "peermesh"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no peermesh sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import peermesh

    if Path(peermesh.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported peermesh from {peermesh.__file__}, not {package}")


def setup_seconds(name: str, seed: int) -> float:
    """Median of fresh-process set-ups, after one untimed run that leaves
    the byte-code caches as every later run finds them."""
    cmd = [sys.executable, str(HERE / "probe.py"), name, str(seed)]
    times = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
        if i:
            times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def measure(name: str, seed: int, seconds: float) -> dict:
    setup = setup_seconds(name, seed)
    workload = workloads.make(name, seed, WORK)
    workload.load()
    workload.prepare()
    rates: list[float] = []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    while True:
        try:
            result = workload.run_round()
        except oracle.CheckFailed as exc:
            print(f"{name}: check failed: {exc}", file=sys.stderr)
            correct = False
            break
        rates.extend(n / dt for n, dt in result.samples)
        attempted += result.attempted
        failed += result.failed
        if time.perf_counter() - start >= seconds:
            break
    rate = statistics.median(rates) if rates else 0.0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{name}: {len(rates)} samples of {workload.items} items, {RATE_NAMES[name]} median {rate:.1f}")
    print(f"{name}: per sample {', '.join(f'{r:.1f}' for r in rates)}")
    if failed:
        print(f"{name}: {failed} of {attempted} operations failed: {workloads.HOLDER_LOSS_FAULT}")
    return {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            "setup_s": {"value": setup, "unit": "s"},
            "work_per_s": {"value": rate, "unit": "items/s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
        },
    }


def traced(name: str, seed: int) -> dict:
    views = {}
    metrics = {}
    attempted = failed = 0
    correct = True
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / "spans.csv"
    with spans_path.open("w") as out:
        out.write("leg,name,start_s,end_s,parent\n")
        for leg in workloads.WORKLOADS:
            workload = workloads.make(leg, seed, WORK)
            tracer = tracing.Tracer()
            try:
                workload.load()
                workload.prepare()
                plain = workload.run_round()
                with tracing.installed(tracer):
                    workload.load()
                    workload.prepare()
                    workload.tracer = tracer
                    traced_round = workload.run_round()
            except oracle.CheckFailed as exc:
                print(f"{leg}: check failed: {exc}", file=sys.stderr)
                correct = False
                break
            if leg == name:
                attempted += plain.attempted + traced_round.attempted
                failed += plain.failed + traced_round.failed
            plain_s = sum(s for _, s in plain.samples)
            traced_s = sum(s for _, s in traced_round.samples)
            overhead = 100 * (traced_s / plain_s - 1)
            metrics[f"trace.overhead_pct.{leg}"] = {"value": overhead, "unit": "%"}
            print(f"{leg}: untraced {plain_s:.3f} s, traced {traced_s:.3f} s, "
                  f"{len(tracer.spans)} spans, overhead {overhead:.1f}%")
            views[leg] = tracer.view()
            tracer.write(out, leg)
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    if correct:
        metrics = {**tracing.per_layer(views), **metrics}
    return {"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import_program()
    if args.trace:
        result = traced(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
