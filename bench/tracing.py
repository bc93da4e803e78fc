"""Spans and counts around the program's public functions, and the
per-layer metrics derived from them.

The tracer wraps functions where their callers look them up: a module
attribute that the caller reaches through the module (`timing.sweep`), the
name a module imported (`scenario.elect_router`, `timing.RandomStream`), or a
method on its class. Spans live in memory as [name, start, end, parent] and
are written out when a leg ends. A span's self time is its duration minus
that of its direct children; calls nest, because the simulator runs on one
thread.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

from gen import ROUND_SHAPES
from workloads import MC_TOTALS

ROUND_SIZES = tuple(n for n, _cluster in ROUND_SHAPES)
HANDLER_KINDS = ("download", "message-delivery", "timer", "beacon", "node-up", "node-down", "send")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.commits: list = []  # proposals, to count the full ones once resolved
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[idx][1:3] = start, end

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def wrap(self, fn, name, after=None):
        """`fn` recorded as a span; `name` may be a function of the arguments,
        `after(result, args)` derives counts from what the call returned."""
        spans, stack = self.spans, self._open
        clock = time.perf_counter
        fixed = isinstance(name, str)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name if fixed else name(args, kwargs), 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec = spans[idx]
                rec[1] = start
                rec[2] = end
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name, after=None) -> None:
        orig = owner.__dict__[attr]
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(orig, name, after))

    def patch_count(self, owner, attr: str, key: str) -> None:
        orig = owner.__dict__[attr]
        counts = self.counts
        self._patched.append((owner, attr, orig))

        def counted(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)

        counted.__wrapped__ = orig
        setattr(owner, attr, counted)

    def restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- reading -------------------------------------------------------------

    def view(self) -> tuple[Counter, Counter, Counter, Counter]:
        """(counts, number of spans, inclusive seconds, self seconds), the
        last three by span name. Commits resolve after their proposal
        returns, so the full ones are counted here, once the leg is over."""
        n, total, self_s = Counter(), Counter(), Counter()
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _parent) in enumerate(self.spans):
            n[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
        counts = Counter(self.counts)
        counts["sync.commits_full"] = sum(1 for c in self.commits if c.resolution is not None and c.resolution.full)
        return counts, n, total, self_s

    def write(self, out, leg: str) -> None:
        base = self.spans[0][1] if self.spans else 0.0
        for name, start, end, parent in self.spans:
            out.write(f"{leg},{name},{start - base:.9f},{end - base:.9f},{parent}\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced entry point of peermesh for the duration."""
    from peermesh import cli, discovery, scenario, simcore, sync, timing, topology

    def named_sweep(args, kwargs):
        return f"timing.sweep.{args[0] if args else kwargs['total_hops']}"

    def count(key, of=lambda r: 1):
        return lambda result, _args: tracer.add(key, of(result))

    def on_bootstrap(result, _args):
        tracer.add("discovery.probes", len(result.attempts))
        tracer.add("discovery.probes_alive", sum(a.alive for a in result.attempts))

    def on_propose(result, _args):
        tracer.add("sync.commits")
        tracer.commits.append(result)

    def on_expire(result, _args):
        tracer.add("sync.commits_deadline", int(result.resolution is not None))

    p = tracer.patch
    try:
        # simcore
        p(timing, "RandomStream", "simcore.stream")
        p(simcore.RandomStream, "hop_delays", "simcore.draw")
        p(simcore.RandomStream, "hop_delay", "simcore.draw")
        p(simcore.Engine, "run", "simcore.engine_run", count("simcore.events", len))
        # counted without a span: there is one per engine event, and its cost
        # belongs to the handler that schedules
        tracer.patch_count(simcore.Engine, "schedule", "simcore.schedules")
        # timing
        p(timing, "sweep", named_sweep)
        p(timing, "find_optimum", "timing.optimum")
        p(timing, "optimum_curve", "timing.optimum_curve")
        p(timing, "monte_carlo", "timing.monte_carlo", count("timing.trials", lambda r: r.trials))
        # sync
        p(sync, "merge_lists", "sync.merge", count("sync.merge_entries", len))
        p(sync, "propose_commit", "sync.commit", on_propose)
        p(sync, "ack", "sync.commit", count("sync.acks"))
        p(sync, "expire", "sync.commit", on_expire)
        # topology
        for method in ("add", "remove", "set_active", "add_remote_router"):
            p(topology.NeighborhoodMap, method, "topology.map_op")
        p(topology, "form_clusters", "topology.form_clusters")
        p(scenario, "elect_router", "topology.elect")
        p(scenario, "subdivide", "topology.subdivide", count("topology.subdivisions"))
        # discovery
        p(discovery.DownloadRegistry, "register", "discovery.register")
        p(discovery, "bootstrap", "discovery.bootstrap", on_bootstrap)
        p(discovery, "router_refresh", "discovery.refresh", count("discovery.mapped", lambda r: len(r[1])))
        p(discovery.IntroductionQueue, "add", "discovery.intro_queue", count("discovery.intros_queued"))
        p(discovery.IntroductionQueue, "deliver_for", "discovery.intro_queue", count("discovery.intros_delivered", len))
        p(discovery.IntroductionQueue, "expire_due", "discovery.intro_queue", count("discovery.intros_expired", len))
        p(discovery.IntroductionQueue, "pending", "discovery.intro_queue")
        # scenario
        p(scenario, "parse_scenario", "scenario.parse")
        p(scenario.World, "handle", lambda args, _kw: f"scenario.handle.{args[2].kind}")
        p(cli, "load_scenario", "scenario.load")
        p(cli, "run_scenario", "scenario.run", count("scenario.actions", lambda r: len(r.actions)))
        p(cli, "render_report", "scenario.render")
        # cli
        p(cli, "main", "cli.main")
        yield tracer
    finally:
        tracer.restore()


# Per-layer metrics as (name, unit, leg, source, key). The source is "count"
# (a counter), "spans" (how many spans of that name), "s" (their inclusive
# seconds) or "self" (their self seconds). Leg "worlds" sums both worlds and
# leg "cli" sums every leg that goes through cli.main.
METRICS = [
    ("simcore.streams", "count", "mc-tables", "spans", "simcore.stream"),
    ("simcore.stream_s", "s", "mc-tables", "s", "simcore.stream"),
    ("simcore.hop_draws", "count", "mc-tables", "spans", "simcore.draw"),
    ("simcore.draw_s", "s", "mc-tables", "s", "simcore.draw"),
    ("simcore.events", "count", "world-flat", "count", "simcore.events"),
    ("simcore.schedules", "count", "world-flat", "count", "simcore.schedules"),
    ("simcore.engine_self_s", "s", "world-flat", "self", "simcore.engine_run"),
    *((f"timing.sweep_s.{t}", "s", "mc-tables", "s", f"timing.sweep.{t}") for t in MC_TOTALS),
    ("timing.optimum_s", "s", "mc-tables", "s", "timing.optimum"),
    ("timing.trial_us", "us", "mc-tables", "us_per_trial", "timing.monte_carlo"),
    *((f"sync.round_s.{n}", "s", "sync-round", "s", f"sync.round.{n}") for n in ROUND_SIZES),
    *(
        (name, "count", "sync-round", "count", name)
        for name in (
            "sync.messages",
            "sync.messages.intra-forward",
            "sync.messages.intra-reverse",
            "sync.messages.leader-ring",
            "sync.messages.redistribute",
        )
    ),
    ("sync.merges", "count", "sync-round", "spans", "sync.merge"),
    ("sync.merge_s", "s", "sync-round", "s", "sync.merge"),
    ("sync.merge_entries", "count", "sync-round", "count", "sync.merge_entries"),
    ("sync.stale", "count", "sync-round", "count", "sync.stale"),
    ("sync.commits", "count", "world-split", "count", "sync.commits"),
    ("sync.acks", "count", "world-split", "count", "sync.acks"),
    ("sync.commits_full", "count", "world-split", "count", "sync.commits_full"),
    ("sync.commits_deadline", "count", "world-split", "count", "sync.commits_deadline"),
    ("sync.commit_s", "s", "world-split", "s", "sync.commit"),
    ("topology.map_ops", "count", "world-split", "spans", "topology.map_op"),
    ("topology.map_op_s", "s", "world-split", "s", "topology.map_op"),
    ("topology.elections", "count", "world-split", "spans", "topology.elect"),
    ("topology.elect_s", "s", "world-split", "s", "topology.elect"),
    ("topology.subdivisions", "count", "world-split", "count", "topology.subdivisions"),
    ("topology.subdivide_s", "s", "world-split", "s", "topology.subdivide"),
    ("topology.form_clusters_s", "s", "sync-round", "s", "topology.form_clusters"),
    ("discovery.registrations", "count", "world-split", "spans", "discovery.register"),
    ("discovery.register_s", "s", "world-split", "s", "discovery.register"),
    ("discovery.probes", "count", "world-split", "count", "discovery.probes"),
    ("discovery.probes_alive", "count", "world-split", "count", "discovery.probes_alive"),
    ("discovery.bootstrap_s", "s", "world-split", "s", "discovery.bootstrap"),
    ("discovery.refreshes", "count", "world-split", "spans", "discovery.refresh"),
    ("discovery.refresh_s", "s", "world-split", "s", "discovery.refresh"),
    ("discovery.mapped", "count", "world-split", "count", "discovery.mapped"),
    ("discovery.intros_queued", "count", "world-flat", "count", "discovery.intros_queued"),
    ("discovery.intros_delivered", "count", "world-flat", "count", "discovery.intros_delivered"),
    ("discovery.intros_expired", "count", "world-flat", "count", "discovery.intros_expired"),
    ("discovery.intro_queue_s", "s", "world-flat", "s", "discovery.intro_queue"),
    ("scenario.parse_s", "s", "worlds", "s", "scenario.parse"),
    *((f"scenario.handler_s.{k}", "s", "worlds", "s", f"scenario.handle.{k}") for k in HANDLER_KINDS),
    ("scenario.actions", "count", "worlds", "count", "scenario.actions"),
    ("scenario.render_s", "s", "worlds", "s", "scenario.render"),
    ("cli.self_s", "s", "cli", "self", "cli.main"),
]
LEG_GROUPS = {"worlds": ("world-flat", "world-split"), "cli": ("mc-tables", "world-flat", "world-split")}


def _value(view: tuple, source: str, key: str) -> float:
    counts, spans, seconds, self_s = view
    if source == "us_per_trial":
        return 1e6 * seconds[key] / counts["timing.trials"]
    return {"count": counts, "spans": spans, "s": seconds, "self": self_s}[source][key]


def per_layer(views: dict[str, tuple]) -> dict[str, dict]:
    """Every per-layer metric from the views of the four legs' tracers."""
    out = {}
    for name, unit, leg, source, key in METRICS:
        value = sum(_value(views[g], source, key) for g in LEG_GROUPS.get(leg, (leg,)))
        out[name] = {"value": value, "unit": unit}
    return out
