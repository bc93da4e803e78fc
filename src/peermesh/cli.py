"""Command line front end.

Subcommands:
  timing tables    sweep every built-in fleet size, one CSV table each
  timing sweep     sweep the factor pairs of one fleet size
  timing optimum   report the lowest-latency hops-array shape per fleet size
  timing figure9   fleet size vs. estimated update time in milliseconds
  mm1              single-queue load metrics from measured traffic
  scenario run     replay a scripted world and evaluate its checks
  scenario list    names of the bundled scenario scripts

The timing commands take --seed and --trials, and scenario run takes --seed;
given the same arguments the output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import os
import sys
from importlib import resources
from pathlib import Path

from . import queueing, timing
from .scenario import ScenarioError, ScenarioParseError, load_scenario, render_report, run_scenario
from .simcore import DEFAULT_SEED, check_seed, units_to_ms

FORMATS = ("csv", "plot-data", "pretty")


def seed(text: str) -> int:
    """Type of both --seed flags, named for argparse's "invalid seed value". A
    world draws its streams as it runs, so a bad seed must fail here, up front."""
    return check_seed(int(text))


class UsageError(ValueError):
    """A command line that argparse rejects."""


class _Parser(argparse.ArgumentParser):
    """Raises a usage error, which main reports in one line; subparsers inherit it."""

    def error(self, message):
        raise UsageError(message)


def _add_timing_flags(p: argparse.ArgumentParser, run) -> None:
    p.set_defaults(run=run)
    p.add_argument("--seed", type=seed, default=DEFAULT_SEED)
    p.add_argument("--trials", type=int, default=timing.DEFAULT_TRIALS)
    p.add_argument("--mode", choices=timing.MODES, default=timing.MODE_TABLE_CONSISTENT)
    p.add_argument("--format", choices=FORMATS, default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="peermesh", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_timing = sub.add_parser("timing", help="update propagation timing estimates")
    tsub = p_timing.add_subparsers(dest="timing_command", required=True)

    p_tables = tsub.add_parser("tables", help="sweep all built-in fleet sizes")
    _add_timing_flags(p_tables, _cmd_timing_tables)
    p_tables.add_argument("--out", help="directory for table_<total>.csv files")

    p_sweep = tsub.add_parser("sweep", help="sweep factor pairs of one fleet size")
    _add_timing_flags(p_sweep, _cmd_timing_sweep)
    p_sweep.add_argument("--total", type=int, required=True, help="total hops (power of two)")

    p_opt = tsub.add_parser("optimum", help="best shape per fleet size")
    _add_timing_flags(p_opt, _cmd_timing_optimum)
    p_opt.add_argument(
        "--total", type=int, action="append", help="fleet size; repeatable (default: built-ins)"
    )

    p_curve = tsub.add_parser("figure9", help="fleet size vs. update time in ms")
    _add_timing_flags(p_curve, _cmd_timing_curve)

    p_mm1 = sub.add_parser("mm1", help="single-queue load metrics")
    p_mm1.set_defaults(run=_cmd_mm1)
    p_mm1.add_argument("--g", type=float, help="mean gap between arrivals, seconds")
    p_mm1.add_argument("--a", type=float, help="arrival rate, 1/s")
    p_mm1.add_argument("--l", type=float, help="message length, bits")
    p_mm1.add_argument("--b", type=float, help="line speed, bits/s")
    p_mm1.add_argument("--s", type=float, help="service time, seconds")
    p_mm1.add_argument("--p-max", type=int, help="also print P_0..P_k occupancy probabilities")
    p_mm1.add_argument("--broadcast", action="store_true", help="naive full-mesh load instead")
    p_mm1.add_argument("--clients", type=int, help="broadcast: number of clients")
    p_mm1.add_argument("--bytes", type=int, dest="payload_bytes", help="broadcast: payload size")
    p_mm1.add_argument("--interval", type=float, default=1.0, help="broadcast: send period, s")

    p_scn = sub.add_parser("scenario", help="scripted world replays")
    ssub = p_scn.add_subparsers(dest="scenario_command", required=True)
    p_run = ssub.add_parser("run", help="replay a scenario file")
    p_run.set_defaults(run=_cmd_scenario_run)
    p_run.add_argument("file", help="path, or the name of a bundled scenario")
    p_run.add_argument("--seed", type=seed, default=DEFAULT_SEED)
    p_run.add_argument("--quiet", action="store_true", help="omit the event trace")
    ssub.add_parser("list", help="bundled scenario names").set_defaults(run=_cmd_scenario_list)

    return parser


# -- timing ------------------------------------------------------------------


def _sweep_lines(rows: list[timing.SweepRow], fmt: str) -> list[str]:
    if fmt == "csv":
        out = ["rows,columns,t_c,t_cl,t_c_prime,T_u"]
        for r in rows:
            out.append(
                f"{r.rows},{r.columns},{r.cluster_phase.mean:.2f},{r.leader_phase.mean:.2f},"
                f"{r.redistribute_phase.mean:.2f},{r.total.mean:.2f}"
            )
        return out
    if fmt == "plot-data":
        return [f"{r.rows} {r.total.mean:.2f}" for r in rows]
    out = [f"{'shape':>10} {'t_c':>8} {'t_cl':>8} {'t_c_prime':>10} {'T_u':>8}"]
    for r in rows:
        out.append(
            f"{str(r.dims):>10} {r.cluster_phase.mean:8.1f} {r.leader_phase.mean:8.1f}"
            f" {r.redistribute_phase.mean:10.1f} {r.total.mean:8.1f}"
        )
    return out


def _cmd_timing_tables(args) -> int:
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        if args.format != "csv":
            raise ValueError(f"--out writes csv tables, not --format {args.format}")
        out_dir.mkdir(parents=True, exist_ok=True)
    for total in timing.SWEEP_TOTALS:
        rows = timing.sweep(total, trials=args.trials, seed=args.seed, mode=args.mode)
        lines = _sweep_lines(rows, args.format)
        if out_dir is not None:
            path = out_dir / f"table_{total}.csv"
            path.write_text("\n".join(lines) + "\n")
            print(path)
        else:
            print(f"# total={total}")
            print("\n".join(lines))
            print()
    return 0


def _cmd_timing_sweep(args) -> int:
    rows = timing.sweep(args.total, trials=args.trials, seed=args.seed, mode=args.mode)
    print("\n".join(_sweep_lines(rows, args.format)))
    return 0


def _cmd_timing_optimum(args) -> int:
    totals = tuple(args.total) if args.total else timing.SWEEP_TOTALS
    for total in totals:
        best = timing.find_optimum(total, trials=args.trials, seed=args.seed, mode=args.mode)
        ms = units_to_ms(best.row.total.mean)
        if args.format == "plot-data":
            print(f"{total} {ms:.1f}")
        elif args.format == "csv":
            print(f"{total},{best.dims.rows},{best.dims.columns},{best.ratio:.4f},{ms:.1f}")
        else:
            print(
                f"total={total} best={best.dims} ratio={best.ratio:.4f}"
                f" T_u={best.row.total.mean:.1f} ({ms:.1f} ms)"
            )
    return 0


def _cmd_timing_curve(args) -> int:
    curve = timing.optimum_curve(trials=args.trials, seed=args.seed, mode=args.mode)
    if args.format == "csv":
        print("total_hops,T_u_ms")
        for total, ms in curve:
            print(f"{total},{ms:.1f}")
    else:
        for total, ms in curve:
            print(f"{total} {ms:.1f}")
    return 0


# -- queueing -----------------------------------------------------------------


def _cmd_mm1(args) -> int:
    if args.broadcast:
        if args.clients is None or args.payload_bytes is None:
            raise ValueError("mm1 --broadcast needs --clients and --bytes")
        load = queueing.naive_broadcast_load(args.clients, args.payload_bytes, args.interval)
        print(f"broadcast_bps {load:.6f}")
        return 0
    if args.p_max is not None and args.p_max < 0:
        raise ValueError(f"--p-max must be non-negative, got {args.p_max}")
    inputs = queueing.MMOneInputs(
        gap_interval_s=args.g,
        arrival_rate_per_s=args.a,
        message_bits=args.l,
        line_speed_bps=args.b,
        service_time_s=args.s,
    )
    metrics = queueing.mm1_metrics(inputs)
    for field in dataclasses.fields(metrics):
        print(f"{field.name} {getattr(metrics, field.name):.6f}")
    if args.p_max is not None:
        for k in range(args.p_max + 1):
            print(f"p_{k} {metrics.state_probability(k):.9f}")
    return 0


# -- scenarios ---------------------------------------------------------------


def _bundled_dir():
    return resources.files("peermesh") / "scenarios"


def _cmd_scenario_run(args) -> int:
    # A bundled scenario's name with no /, with or without .scenario, is that scenario.
    bundled = _bundled_dir() / f"{args.file.removesuffix('.scenario')}.scenario"
    path = Path(str(bundled)) if "/" not in args.file and bundled.is_file() else Path(args.file)
    if not path.exists():
        raise ValueError(f"no such scenario: {args.file}")
    script = load_scenario(path)
    report = run_scenario(script, seed=args.seed, trace=not args.quiet)
    render_report(report, _write_all)
    return 0 if report.passed else 1


def _write_all(text: str) -> None:
    """Write `text`, one block of a report, to stdout in full. Unbuffered
    (`python -u`), stdout sits on a raw file, whose write comes back short
    when the reader closes mid-text; so write the rest until it is taken or
    raises BrokenPipeError."""
    raw = getattr(sys.stdout, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[raw.write(data) :]


def _cmd_scenario_list(args) -> int:
    names = sorted(
        entry.name.removesuffix(".scenario")
        for entry in _bundled_dir().iterdir()
        if entry.name.endswith(".scenario")
    )
    for name in names:
        print(name)
    return 0


# The stderr prefix of each rejected-input type that main names; "error" otherwise.
_PREFIXES = {
    UsageError: "usage error",
    queueing.UnstableSystemError: "unstable",
    ScenarioParseError: "parse error",
    ScenarioError: "scenario error",
}


def main(argv: list[str] | None = None) -> int:
    """Run one command: exit 0, 1 when a scenario check fails, 2 on rejected
    input (one `<prefix>: <message>` line on stderr), 141 if stdout's reader goes."""
    try:
        args = build_parser().parse_args(argv)
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # an OSError, so caught before the rejections
        # `peermesh ... | head`: stdout goes to devnull, so the flush at exit writes nothing.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a command writing to a closed pipe
    except (ValueError, OSError, ScenarioError) as exc:
        print(f"{_PREFIXES.get(type(exc), 'error')}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
