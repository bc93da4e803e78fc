"""The four workloads: their inputs in the program's types, and one round each.

A workload's `load()` is what `setup_s` times in a fresh process: importing
peermesh and turning the generated inputs into program objects. `prepare()`
builds what the checks compare against and is never timed. `run_round()`
runs every operation of one round once, timing only the calls into the
program, and checks each output before the next operation starts.

peermesh is imported inside `load()`, never at module level, so that the
set-up probe can time the import itself.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass
from pathlib import Path

import gen
import oracle

MC_TOTALS = (256, 512, 1024, 2048)
HOLDER_LOSS_FAULT = (
    "UpdateRound checks liveness only for hop targets: the dropped ring holder is skipped on the "
    "descent and Redistribute pushes its stale list to its cluster (ROADMAP item 4)"
)


@dataclass
class RoundResult:
    # (items, host seconds inside the program's calls) per rate sample: one
    # per command on mc-tables, one per round elsewhere. Items are work units
    # fixed by the input: trials, members or script events.
    samples: list[tuple[int, float]]
    attempted: int
    failed: int


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _capture(main, argv: list[str]) -> tuple[int, str, float]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        rc = main(argv)
        dt = time.perf_counter() - t0
    return rc, buf.getvalue(), dt


class McTables:
    """`timing tables` then `timing figure9` through cli.main."""

    name = "mc-tables"

    def __init__(self, seed: int):
        self.seed = seed
        self.trials = gen.MC_TRIALS
        shapes = sum(len(oracle.factor_pairs(t)) for t in MC_TOTALS)
        self.items = shapes * self.trials  # per command: both sweep every shape
        self.digests: list[str] = []
        self.tracer = None

    def load(self) -> None:
        from peermesh import cli

        self.cli = cli

    def prepare(self) -> None:
        oracle.self_test()
        for total in MC_TOTALS:
            for rows, columns in oracle.factor_pairs(total):
                oracle.max_of_sums(rows, columns)

    def run_round(self) -> RoundResult:
        flags = ["--trials", str(self.trials), "--seed", str(self.seed)]
        rc, tables_out, dt_tables = _capture(self.cli.main, ["timing", "tables", *flags])
        oracle.require(rc == 0, f"timing tables exited {rc}")
        tables = oracle.check_tables(tables_out, MC_TOTALS, self.trials)
        rc, curve_out, dt_curve = _capture(self.cli.main, ["timing", "figure9", *flags])
        oracle.require(rc == 0, f"timing figure9 exited {rc}")
        oracle.check_figure9(curve_out, tables)
        self.digests.append(oracle.digest(tables_out + curve_out))
        oracle.require(self.digests[-1] == self.digests[0], "rerun of the same seed printed other tables")
        return RoundResult([(self.items, dt_tables), (self.items, dt_curve)], attempted=2, failed=0)


@dataclass
class _Case:
    spec: gen.RoundInput
    plan: object
    lists: dict
    entry_of: dict  # generated entry tuple -> AttributeEntry
    addr_of: dict  # int -> NodeAddress
    expected: object = None  # AttributeList every checked member must end with
    checked: tuple = ()  # members whose final list must equal `expected`


class SyncRound:
    """Four-phase update rounds at 64, 256 and 1024 members in three legs."""

    name = "sync-round"

    def __init__(self, seed: int):
        self.specs = gen.round_inputs(seed)
        self.items = sum(len(s.members) for s in self.specs)
        self.tracer = None

    def load(self) -> None:
        from peermesh import sync, topology

        self.sync = sync
        self.cases = []
        for spec in self.specs:
            addr_of = {a: topology.parse_address(a) for a in spec.members}
            nmap = topology.NeighborhoodMap.build(topology.NodeRecord(address=addr_of[a]) for a in spec.members)
            plan = topology.form_clusters(nmap, spec.cluster_size)
            entry_of = {}
            per_holder: dict = {a: [] for a in spec.members}
            for e in spec.entries:
                holder, owner, key, scope, cls, value, version = e
                entry = sync.AttributeEntry(
                    key=key, scope=scope, value=value.encode(), version=version,
                    owner=addr_of[owner], update_class=cls,
                )
                entry_of[e] = entry
                per_holder[holder].append(entry)
            lists = {addr_of[h]: sync.AttributeList(es) for h, es in per_holder.items()}
            self.cases.append(_Case(spec, plan, lists, entry_of, addr_of))

    def prepare(self) -> None:
        for case in self.cases:
            spec = case.spec
            live = set(spec.members) - set(spec.down)
            # Holder loss: every member was live when the ring collected its
            # entries, so every survivor should end with all of them.
            winners = oracle.lww_winners(spec.entries, live)
            case.expected = self.sync.AttributeList(case.entry_of[e] for e in winners.values())
            if spec.victim_cluster is not None:
                live.discard(spec.members[spec.victim_cluster * spec.cluster_size])
            case.checked = tuple(case.addr_of[a] for a in sorted(live))

    def _holder_loss(self, case: _Case):
        sync = self.sync
        victim = case.plan.leaders[case.spec.victim_cluster]
        down = set()
        rnd = sync.UpdateRound(case.plan, case.lists, is_active=lambda a: a not in down)
        ring = sync.Phase.LEADER_RING
        while not rnd.done:
            in_ring = rnd.phase is ring
            rnd.step()
            # The j-th ascending ring hop delivers to leader j.
            if in_ring and not down and rnd.phase_messages[ring] == case.spec.victim_cluster:
                down.add(victim)
        return rnd

    def run_round(self) -> RoundResult:
        seconds = 0.0
        failed = 0
        for case in self.cases:
            spec = case.spec
            down = {case.addr_of[a] for a in spec.down}
            with _span(self.tracer, f"sync.round.{len(spec.members)}"):
                t0 = time.perf_counter()
                if spec.leg == "holder-loss":
                    rnd = self._holder_loss(case)
                elif down:
                    rnd = self.sync.run_round(case.plan, case.lists, is_active=lambda a: a not in down)
                else:
                    rnd = self.sync.run_round(case.plan, case.lists)
                seconds += time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.add("sync.messages", rnd.message_count)
                for phase, n in rnd.phase_messages.items():
                    self.tracer.add(f"sync.messages.{phase.value}", n)
                self.tracer.add("sync.stale", len(rnd.stale))
            finals = rnd.final_lists()
            wrong = [a for a in case.checked if finals[a] != case.expected]
            where = f"{spec.leg} round of {len(spec.members)}"
            if spec.leg == "holder-loss":
                if wrong:
                    victim = case.plan.leaders[spec.victim_cluster]
                    cluster = set(case.plan.clusters[spec.victim_cluster])
                    oracle.require(set(wrong) <= cluster, f"{where}: survivors outside {victim}'s cluster diverged")
                    failed += 1
                continue
            oracle.require(not wrong, f"{where}: {len(wrong)} members differ from the last-writer-wins merge")
            chains = [sum(1 for a in c if a not in down) for c in case.plan.clusters]
            want = oracle.expected_messages([n for n in chains if n])
            oracle.require(rnd.message_count == want, f"{where}: {rnd.message_count} messages, want {want}")
            oracle.require(len(rnd.stale) == len(down), f"{where}: {len(rnd.stale)} stale, want {len(down)}")
        return RoundResult([(self.items, seconds)], attempted=len(self.cases), failed=failed)


class World:
    """A generated script replayed by `scenario run` with the trace shown."""

    def __init__(self, name: str, seed: int, work_dir: Path, downloads: int, critical_mass: int | None):
        self.name = name
        self.seed = seed
        self.script = gen.world_script(seed, downloads, critical_mass)
        self.items = self.script.script_events
        self.path = work_dir / f"{name}.scenario"
        self.digest = None
        self.tracer = None

    def load(self) -> None:
        from peermesh import cli, scenario

        self.cli = cli
        self.parsed = scenario.parse_scenario(self.script.text, name=self.path.name)

    def prepare(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(self.script.text)
        events = sum(1 for e in self.parsed.events if e.kind in ("download", "up", "down", "send"))
        oracle.require(events == self.items, f"parsed {events} script events, generated {self.items}")

    def run_round(self) -> RoundResult:
        rc, out, dt = _capture(self.cli.main, ["scenario", "run", str(self.path), "--seed", str(self.seed)])
        oracle.require(rc == 0, f"scenario run exited {rc}")
        digest = oracle.check_report(out)
        if self.digest is None:
            self.digest = digest
        oracle.require(digest == self.digest, "rerun of the same seed printed another report")
        return RoundResult([(self.items, dt)], attempted=1, failed=0)


WORKLOADS = ("mc-tables", "sync-round", "world-flat", "world-split")


def make(name: str, seed: int, work_dir: Path):
    if name == "mc-tables":
        return McTables(seed)
    if name == "sync-round":
        return SyncRound(seed)
    if name == "world-flat":
        return World(name, seed, work_dir, **gen.WORLD_FLAT)
    if name == "world-split":
        return World(name, seed, work_dir, **gen.WORLD_SPLIT)
    raise ValueError(name)
