"""Stateful property test of the scenario World under churn.

A state machine drives a World through its Engine with the passing of time
and with parsed script lines (downloads, downs, ups, sends, subdivisions),
and after every step checks that membership, routers, introductions and
commits stay consistent. With a drawn order seed the world runs on a
ShuffledEngine, which runs each line first at its unit and same-time world
events in a random order; without one, on the plain Engine.
Its settle rule lets the world come to rest and checks liveness: every
neighborhood that has a router candidate has a live router.

A second property times failovers: a router that flaps down and up fails
over when a walk of the beacon and monitor chains that the failover timer
replaced says it would. A third maps strays: a world that queues a router's
refresh only while a stray lies in its span gives the verdicts and action lines
of ChainWorld, the recurring refresh chain it replaced. A fourth checks that
the action log, which holds back actions stamped after the clock, reads as the
stable time sort of what was recorded. A fifth resolves commits: a world that
computes each commit's receipts at the send gives the verdicts and action
lines of MessageWorld, which ran each proposal and ack as an engine event. A
sixth keeps the offline view: a world that holds it as one set gives the
verdicts, action lines and trace lines of MapFlagWorld, which mirrored it into
the active flags of every neighborhood map. A seventh times introductions: a
world that reads each timeout from its neighborhood's sorted metrics gives the
verdicts, action lines and trace lines of ScanTimeoutWorld, which took the
median of a scan of the sender's map.
"""

import statistics
from bisect import insort
from collections import Counter
from dataclasses import replace
from typing import NamedTuple
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule
from outcomes import ShuffledEngine
from test_scenario import ABSENT_THEN_BACK, SPLIT_AFTER_SEND

from peermesh import discovery, scenario, sync
from peermesh.scenario import (
    BEACON_TIMEOUT_FACTOR,
    KIND_MESSAGE,
    KIND_TIMER,
    RouterRefresh,
    World,
    WorldConfig,
    parse_scenario,
    run_scenario,
    schedule_line,
)
from peermesh.simcore import Engine, RandomStream
from peermesh.topology import NodeAddress, elect_router, parse_address

# Uneven gaps, so that address distance orders the excerpts non-trivially.
POOL = [parse_address(0x0A000000 + k) for k in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233)]
MAX_COMMIT_TIMEOUT = 40


class WorldMachine(RuleBasedStateMachine):
    @initialize(
        critical_mass=st.sampled_from([None, 3, 4, 6]),
        min_clients=st.integers(0, 3),
        intro_timeout=st.sampled_from([None, 5, 20]),
        seed=st.integers(0, 3),
        order_seed=st.none() | st.integers(0, 2**32 - 1),
    )
    def start(self, critical_mass, min_clients, intro_timeout, seed, order_seed):
        config = WorldConfig(
            critical_mass=critical_mass,
            min_clients=min_clients,
            beacon_period=5,
            refresh_period=15,
            intro_timeout=intro_timeout,
            commit_timeout=30,
        )
        self.engine = Engine(seed) if order_seed is None else ShuffledEngine(seed, order_seed)
        self.world = World(self.engine, config)
        self.now = 0
        self.sends = 0

    def _run(self, text):
        """Replay one script line, so the world only sees events the parser accepts."""
        (line,) = parse_scenario(f"at={self.now} {text}").events
        schedule_line(self.engine, line)
        self.engine.run(self.world.handle, horizon=self.now)

    def _known(self, i):
        known = sorted(self.world.instances)
        return known[i % len(known)]

    @precondition(lambda self: len(self.world.instances) < len(POOL))
    @rule(
        i=st.integers(0, len(POOL) - 1),
        uptime=st.sampled_from(["0.5", "0.95", "1.0"]),
        capacity=st.sampled_from(["100000", "1000000"]),
        metric=st.sampled_from(["0", "7", "40"]),
    )
    def download(self, i, uptime, capacity, metric):
        fresh = [a for a in POOL if a not in self.world.instances]
        self._run(f"event=download addr={fresh[i % len(fresh)]} uptime={uptime} capacity={capacity} metric={metric}")

    @precondition(lambda self: self.world.instances)
    @rule(i=st.integers(0, len(POOL) - 1))
    def down(self, i):
        self._run(f"event=down addr={self._known(i)}")

    @precondition(lambda self: self.world.instances)
    @rule(i=st.integers(0, len(POOL) - 1))
    def up(self, i):
        self._run(f"event=up addr={self._known(i)}")

    def _mapped_live(self):
        return [a for a in sorted(self.world.nid_of) if self.world._live(a)]

    @precondition(lambda self: self._mapped_live())
    @rule(i=st.integers(0, len(POOL) - 1), timeout=st.integers(1, MAX_COMMIT_TIMEOUT))
    def send(self, i, timeout):
        senders = self._mapped_live()
        self.sends += 1
        self._run(f"event=send addr={senders[i % len(senders)]} key=k{self.sends} timeout={timeout}")

    @precondition(lambda self: self.world.nid_of)
    @rule(i=st.integers(0, len(POOL) - 1), critical_mass=st.integers(1, 3))
    def subdivide(self, i, critical_mass):
        mapped = sorted(self.world.nid_of)
        self._run(f"event=subdivide addr={mapped[i % len(mapped)]} critical_mass={critical_mass}")

    @rule(dt=st.integers(1, 60))
    def advance(self, dt):
        self.now += dt
        self.engine.run(self.world.handle, horizon=self.now)

    @rule()
    def settle(self):
        """Let every commit resolve, then give a dead router's beacon time to
        go stale and the monitor a period to fail it over. A neighborhood
        whose online members yield a candidate must then have a live router;
        the offline view decides, since commit absentees are offline only there."""
        config = self.world.config
        self.now += MAX_COMMIT_TIMEOUT + (BEACON_TIMEOUT_FACTOR + 1) * config.beacon_period
        self.engine.run(self.world.handle, horizon=self.now)
        for nid, hood in self.world.neighborhoods.items():
            if elect_router(self.world._online(hood), config.min_clients) is not None:
                assert self.world._live(hood.router), f"neighborhood {nid} has no live router"

    # -- invariants ------------------------------------------------------------

    @invariant()
    def membership_agrees_with_nid_of(self):
        world = self.world
        members = [
            (rec.address, nid) for nid, hood in world.neighborhoods.items() for rec in hood.map.members
        ]
        assert sorted(members) == sorted(world.nid_of.items())  # both ways, and disjoint
        assert len({a for a, _ in members}) == len(members)

    @invariant()
    def no_neighborhood_outgrows_critical_mass(self):
        # A router refresh or failover that maps nobody then has nothing for
        # _post_membership to split, so both may call it unconditionally.
        critical_mass = self.world.config.critical_mass
        if critical_mass is not None:
            for nid, hood in self.world.neighborhoods.items():
                assert len(hood.map) <= critical_mass, f"neighborhood {nid} holds {len(hood.map)}"

    @invariant()
    def routers_are_members_of_their_own_neighborhood(self):
        for hood in self.world.neighborhoods.values():
            assert hood.router is None or hood.router in hood.map

    @invariant()
    def every_neighborhood_keeps_its_members_metrics_sorted(self):
        for nid, hood in self.world.neighborhoods.items():
            assert hood.metrics == sorted(r.metric for r in hood.map.members), f"neighborhood {nid}"

    @invariant()
    def every_kept_membership_list_holds_its_own_entry_alone(self):
        # Deliveries absorb these lists, so none may take a write.
        for addr, own in self.world.own.items():
            assert [e.owner for e in own.entries()] == [addr]

    @invariant()
    def introductions_resolve_at_most_once(self):
        pending = [(i.sender, i.target) for i in self.world.intros.pending()]
        assert len(set(pending)) == len(pending)
        queued, resolved = Counter(), Counter()
        for a in self.world.actions:
            pair = (a.get("from"), a.get("to"))
            if a.kind == "queued":
                queued[pair] += 1
            elif a.kind in ("delivered", "expired"):
                resolved[pair] += 1
        for s, t in pending:
            resolved[str(s), str(t)] += 1
        assert resolved == queued

    @invariant()
    def the_offline_view_holds_the_down_and_the_missed(self):
        world = self.world
        assert {a for a in world.instances if not world._live(a)} <= world.offline
        assert world.offline <= world.instances.keys()
        missed = {a for c in world.commits if c.resolution is not None for a in c.resolution.absentees}
        assert {a for a in world.offline if world._live(a)} <= missed

    @invariant()
    def commits_resolve_once_by_their_deadline(self):
        reports = Counter(a.get("key") for a in self.world.actions if a.kind == "committed")
        assert sum(reports.values()) == sum(c.resolution is not None for c in self.world.commits)
        for commit in self.world.commits:
            assert reports[commit.key] == (commit.resolution is not None)
            if self.now >= commit.deadline:
                assert commit.resolution is not None and commit.resolution.at <= commit.deadline


WorldMachine.TestCase.settings = settings(
    max_examples=300, stateful_step_count=20, derandomize=True, deadline=None
)
TestWorldUnderChurn = WorldMachine.TestCase


def walked_failover(elected, period, flaps):
    """The first failover of the router elected at elected, as the old chains
    ran it: a beacon each period from the router's latest start while it is
    up, and a monitor tick each period from its election that fails it over
    once it is down and its last beacon is BEACON_TIMEOUT_FACTOR periods old.
    A flap line runs before the beacon and the tick due at its unit."""
    up, start, last = True, elected, elected
    for t in range(elected + 1, flaps[-1][0] + (BEACON_TIMEOUT_FACTOR + 2) * period):
        for _, kind in (f for f in flaps if f[0] == t):
            if kind == "down":
                up = False
            elif not up:
                up, start, last = True, t, t
        if up and (t - start) % period == 0:
            last = t
        if not up and (t - elected) % period == 0 and t - last >= BEACON_TIMEOUT_FACTOR * period:
            return t
    return None


@settings(max_examples=300, deadline=None)
@given(
    instances=st.integers(3, 4),
    period=st.integers(1, 12),
    # Gaps from none to two periods at the largest: the router often returns
    # before its timeout, so a later down times its failover from that return.
    flaps=st.lists(st.tuples(st.integers(0, 24), st.sampled_from(["down", "up"])), min_size=1, max_size=8),
)
@example(instances=3, period=10, flaps=[(10, "down"), (5, "up"), (12, "down")])
def test_a_router_fails_over_when_the_beacon_and_monitor_chains_would(instances, period, flaps):
    lines = [f"config min_clients=2 beacon_period={period}"]
    lines += [f"at={i} event=download addr=10.5.0.{i + 1} uptime=0.9{9 - i} capacity=256000" for i in range(instances)]
    at, timed = instances, []
    for gap, kind in flaps:
        at += gap
        timed.append((at, kind))
        lines.append(f"at={at} event={kind} addr=10.5.0.1")
    report = run_scenario(parse_scenario("\n".join(lines), name="flaps"), trace=False)
    elected = next(a for a in report.actions if a.kind == "elected")
    assert elected.get("addr") == "10.5.0.1"
    expired = [a.at for a in report.actions if a.kind == "beacon-expired"]
    assert (expired[0] if expired else None) == walked_failover(elected.at, period, timed)


class ChainWorld(World):
    """The refresh as it ran before it was queued on demand: each router start
    begins a chain that ticks every refresh_period, and a tick maps the strays
    in the span and reschedules itself while its start is the latest one and
    its router is live. Its ticks go through _post_membership whether they map
    a stray or not, so they match the world's actions only if nothing but a
    real membership change queues a round."""

    def _start_router(self, nid):
        super()._start_router(nid)
        refresh = RouterRefresh(nid, self.neighborhoods[nid].incarnation)
        self.engine.schedule(self.engine.now + self.config.refresh_period, KIND_TIMER, payload=refresh)

    def _want_refresh(self, nid):
        pass

    def _on_refresh(self, now, refresh):
        hood = self.neighborhoods.get(refresh.neighborhood)
        if hood is not None and hood.incarnation == refresh.incarnation and self._live(hood.router):
            World._on_refresh(self, now, refresh)
            self.engine.schedule(now + self.config.refresh_period, KIND_TIMER, payload=refresh)

    _ON = {**World._ON, RouterRefresh: _on_refresh}


@st.composite
def stray_scripts(draw):
    """Downloads on a narrow address range with an excerpt of at most one, so a
    download whose nearest registrant is down becomes a stray, often inside a
    span. The first instance outranks the rest, so it routes its neighborhood
    whenever it is live. After each download come down and up lines, each for
    the first instance or the newest one, and router flaps: the first instance
    goes down and comes back. A critical mass may split, and the horizon is 60
    units past the last line."""
    addrs = draw(st.lists(st.integers(1, 24), min_size=3, max_size=8, unique=True))
    config = (
        f"config min_clients={draw(st.integers(0, 2))} excerpt_cap={draw(st.integers(0, 1))}"
        f" beacon_period={draw(st.integers(1, 12))} refresh_period={draw(st.integers(1, 16))}"
        + draw(st.sampled_from(["", " critical_mass=2", " critical_mass=3"]))
    )
    lines, at = [], 0
    for i, addr in enumerate(addrs):
        at += draw(st.integers(0, 8))
        uptime = "1.0" if i == 0 else draw(st.sampled_from(["0.5", "0.95"]))
        lines.append(f"at={at} event=download addr=10.7.0.{addr} uptime={uptime}")
        flaps = st.tuples(st.integers(0, 10), st.sampled_from(["down", "up", "down up"]), st.sampled_from([0, i]))
        for gap, kinds, k in draw(st.lists(flaps, max_size=3)):
            for kind in kinds.split():
                at += gap
                lines.append(f"at={at} event={kind} addr=10.7.0.{addrs[0 if kinds == 'down up' else k]}")
    lines += [f"assert member addr=10.7.0.{a}" for a in addrs]
    return "\n".join([f"{config} horizon={at + 60}", *lines])


def verdicts_and_actions(world, text, seed):
    with mock.patch.object(scenario, "World", world):
        report = run_scenario(parse_scenario(text, name="strays"), seed=seed, trace=False)
    return [c.passed for c in report.checks], sorted(report.actions.lines)


# 10.6.0.27 takes over from 10.6.0.20 at 47, and 10.6.0.22 is a stray in its
# span from 72, mapped by its tick at 73. The chain queued that tick at 60 and
# the world queues it at 72 (found by a differential replay).
WITHIN_UNIT = """
config min_clients=0 excerpt_cap=1 beacon_period=3 refresh_period=13
at=0 event=download addr=10.6.0.33 uptime=0.65
at=5 event=download addr=10.6.0.20 uptime=0.92
at=11 event=download addr=10.6.0.27 uptime=0.93
at=19 event=download addr=10.6.0.38 uptime=0.91
at=43 event=download addr=10.6.0.7 uptime=0.53
at=43 event=down addr=10.6.0.20
at=47 event=download addr=10.6.0.24 uptime=0.50
at=72 event=download addr=10.6.0.22 uptime=0.79
assert member addr=10.6.0.22
"""


# Router 10.7.0.1 starts at 1. 10.7.0.8 is a stray from 3, due at 11, but the
# router flaps first, so the tick at 11 is void and its return at 5 maps the
# stray at 15. 10.7.0.4 is a stray from 25, a tick of that return: mapped then.
FLAP_AND_TICK = """
config min_clients=0 excerpt_cap=1 beacon_period=10 refresh_period=10
at=0 event=download addr=10.7.0.1 uptime=1.0
at=1 event=download addr=10.7.0.9 uptime=0.95
at=2 event=download addr=10.7.0.5 uptime=0.95
at=2 event=down addr=10.7.0.9
at=3 event=download addr=10.7.0.8 uptime=0.95
at=4 event=down addr=10.7.0.1
at=5 event=up addr=10.7.0.1
at=20 event=down addr=10.7.0.5
at=25 event=download addr=10.7.0.4 uptime=0.95
assert member at=16 addr=10.7.0.8
assert isolated at=25 addr=10.7.0.4
assert member at=26 addr=10.7.0.4
"""


@settings(max_examples=300, deadline=None)
@given(text=stray_scripts(), seed=st.integers(0, 7))
@example(text=WITHIN_UNIT, seed=7)
@example(text=FLAP_AND_TICK, seed=7919)
def test_a_router_maps_strays_when_the_refresh_chain_would(text, seed):
    assert verdicts_and_actions(World, text, seed) == verdicts_and_actions(ChainWorld, text, seed)


# (clock step, how far past the clock the action is stamped): each action is
# stamped at the clock or later, as a handshake's actions are.
recordings = st.lists(st.tuples(st.integers(0, 3), st.sampled_from([0, 0, 1, 2, 5])), max_size=30)


@given(recordings)
def test_the_action_log_is_the_stable_time_sort_of_what_was_recorded(steps):
    world = World(Engine(), WorldConfig())
    recorded = []
    for n, (step, ahead) in enumerate(steps):
        world.engine.now += step
        at = world.engine.now + ahead
        world._act(at, "k", f"n={n}")
        recorded.append((at, f"n={n}"))
        assert [(a.at, a.body) for a in world.actions] == sorted(recorded, key=lambda r: r[0])
    world._settle(float("inf"))
    assert world._later == []
    assert [(a.at, a.body) for a in world.actions] == sorted(recorded, key=lambda r: r[0])


class Proposal(NamedTuple):
    commit: int
    member: NodeAddress
    ack_delay: int


class CommitAck(NamedTuple):
    commit: int
    member: NodeAddress


class CommitDeadline(NamedTuple):
    commit: int


class MessageWorld(World):
    """Commits as they ran before their receipts were computed at the send:
    the send draws every proposal delay, then every ack delay, in member
    order, and runs each proposal and each ack as an engine event. A member
    acks if it is live when its proposal runs, an ack counts if it runs
    before the deadline while the commit is unresolved, and the deadline is a
    timer of its own. Its payloads render no trace, so it runs untraced."""

    def _on_send(self, now, line):
        addr, params = line.addr, line.params
        nid = self.nid_of[addr]
        group = {addr, *(r.address for r in self._online(self.neighborhoods[nid]))}
        commit = sync.propose_commit(
            group=group,
            proposer=addr,
            key=params["key"],
            value=params.get("value", b""),
            now=now,
            timeout=params.get("timeout", self.config.commit_timeout),
        )
        self.commits.append(commit)
        idx = len(self.commits) - 1
        self._act(now, "proposed", f"key={commit.key} by={addr} group={len(commit.group)}")
        if commit.resolution is not None:
            self._report_commit(now, commit)
            return
        stream = self.engine.stream(f"commit/{idx}")
        members = sorted(commit.group - {addr})
        arrivals = [now + stream.hop_delay() for _ in members]
        for member, at in zip(members, arrivals):
            self.engine.schedule(at, KIND_MESSAGE, payload=Proposal(idx, member, stream.hop_delay()))
        self.engine.schedule(commit.deadline, KIND_TIMER, payload=CommitDeadline(idx))

    def _on_proposal(self, now, proposal):
        if self._live(proposal.member):
            ack = CommitAck(proposal.commit, proposal.member)
            self.engine.schedule(now + proposal.ack_delay, KIND_MESSAGE, payload=ack)

    def _on_commit_ack(self, now, ack):
        commit = self.commits[ack.commit]
        if commit.resolution is None and now < commit.deadline:
            sync.ack(commit, ack.member, now)
            if commit.resolution is not None:
                self._report_commit(now, commit)

    def _on_commit_deadline(self, now, deadline):
        commit = self.commits[deadline.commit]
        if commit.resolution is None:
            sync.expire(commit, now)
            self._report_commit(now, commit)

    _ON = {
        **World._ON,
        "send": _on_send,
        Proposal: _on_proposal,
        CommitAck: _on_commit_ack,
        CommitDeadline: _on_commit_deadline,
    }


@st.composite
def commit_scripts(draw):
    """The sender downloads at 0 and stays up, and two to six more instances
    download by 7, so all of them are mapped by 10. Sends from the sender
    follow, each with a timeout of 1-30, and each with downs and ups of the
    others 0-12 units after it: a proposal lands 1-10 units after its send, so
    many of them fall in the unit of a proposal or next to it."""
    addrs = [f"10.8.0.{k}" for k in range(1, draw(st.integers(3, 7)) + 1)]
    lines = [f"at={k} event=download addr={a}" for k, a in enumerate(addrs)]
    at, sends = 10, draw(st.integers(1, 4))
    for k in range(sends):
        at += draw(st.integers(1, 40))
        lines.append(f"at={at} event=send addr={addrs[0]} key=k{k} timeout={draw(st.integers(1, 30))}")
        flaps = st.tuples(st.integers(0, 12), st.sampled_from(["down", "up"]), st.sampled_from(addrs[1:]))
        lines += [f"at={at + gap} event={kind} addr={a}" for gap, kind, a in draw(st.lists(flaps, max_size=4))]
    lines += [f"assert committed key=k{k}" for k in range(sends)]
    return "\n".join(lines)


# At seed 7919 the proposals land at 106 (10.8.0.2 and 10.8.0.3) and 101
# (10.8.0.4), and the acks would land at 114, the deadline, 108 and 102.
# 10.8.0.3 is down at its proposal's unit, though up again by its ack's, and
# 10.8.0.2's ack is late, so 10.8.0.4 alone acks with the proposer.
RECEIPT_EDGES = """
at=0 event=download addr=10.8.0.1
at=1 event=download addr=10.8.0.2
at=2 event=download addr=10.8.0.3
at=3 event=download addr=10.8.0.4
at=100 event=send addr=10.8.0.1 key=k timeout=14
at=106 event=down addr=10.8.0.3
at=107 event=up addr=10.8.0.3
assert committed key=k acks=2 absent=10.8.0.2,10.8.0.3
"""


@settings(max_examples=300, deadline=None)
@given(text=commit_scripts(), seed=st.integers(0, 7))
@example(text=RECEIPT_EDGES, seed=7919)
def test_commits_resolve_as_when_each_receipt_was_an_event(text, seed):
    assert verdicts_and_actions(World, text, seed) == verdicts_and_actions(MessageWorld, text, seed)


def test_the_receipt_edges_example_lands_a_down_on_a_proposal_and_an_ack_on_the_deadline():
    # The differential above keeps passing if its example loses these edges.
    script = parse_scenario(RECEIPT_EDGES, name="receipt-edges")
    *downloads, send, down, up = script.events
    members = sorted(e.addr for e in downloads if e.addr != send.addr)
    k, deadline = len(members), send.at + send.params["timeout"]
    delays = RandomStream(7919, "commit/0").next_delays(2 * k)
    proposal = dict(zip(members, (send.at + there for there in delays)))
    ack = {m: proposal[m] + back for m, back in zip(members, delays[k:])}
    assert (down.kind, up.kind, down.addr) == ("down", "up", up.addr)
    assert proposal[down.addr] == down.at and up.at < ack[down.addr] < deadline  # only the down keeps its ack out
    assert deadline in ack.values()
    report = run_scenario(script, seed=7919, trace=False)
    assert report.passed, [c.render() for c in report.checks]


class MapFlagWorld(World):
    """The offline view as it was kept before World.offline was its one
    record: each flip and each absentee in the proposer's neighborhood
    replaced the map with its member's active flag set, a stray was mapped
    with its live flag, and commit groups and elections read the active
    members. It still keeps offline, which only its joins read, and only for
    the members that are down."""

    def _set_active(self, line, active):
        nid = super()._set_active(line, active)
        if nid is not None:
            hood = self.neighborhoods[nid]
            hood.map = hood.map.set_active(line.addr, active)
        return nid

    def _online(self, hood):
        return hood.map.active_members()

    def _report_commit(self, now, commit):
        res = commit.resolution
        self._act(now, "committed", f"key={commit.key} acks={len(res.acks)} absent={scenario._absent_text(res)}")
        hood = self.neighborhoods[self.nid_of[commit.proposer]]
        for a in res.absentees:
            if a in hood.map:
                hood.map = hood.map.set_active(a, False)

    def _router_refresh(self, nid):
        hood, now = self.neighborhoods[nid], self.engine.now
        hood.map, added = discovery.router_refresh(
            hood.router, self.directory, hood.map, lambda a: replace(self.instances[a], active=self._live(a))
        )
        for addr in added:
            self.nid_of[addr] = nid
            self.mapped_at[addr] = now
            insort(hood.metrics, self.instances[addr].metric)
            self._act(now, "mapped", f"addr={addr} neighborhood={nid}")
        return bool(added)


@st.composite
def offline_scripts(draw):
    """Three to ten instances download on a narrow address range with mixed
    uptimes, each after the first followed by churn: downs, ups, subdivisions
    and sends with timeouts of 1-20 from any instance live by the script. A send
    from an instance that is not mapped, or a subdivision through one, is a
    scenario error; both worlds must then raise the same one."""
    addrs = [f"10.9.0.{k}" for k in draw(st.lists(st.integers(1, 40), min_size=3, max_size=10, unique=True))]
    config = (
        f"config min_clients={draw(st.integers(0, 3))} beacon_period={draw(st.integers(1, 8))}"
        f" refresh_period={draw(st.integers(1, 16))} excerpt_cap={draw(st.integers(1, 3))}"
        + draw(st.sampled_from(["", " critical_mass=3", " critical_mass=5"]))
    )
    lines, at, down, sends = [], 0, set(), 0
    step = st.tuples(
        st.integers(0, 12), st.sampled_from(["down", "up", "send", "send", "subdivide"]), st.integers(0, 9)
    )
    for i, addr in enumerate(addrs):
        at += draw(st.integers(0, 4))
        lines.append(f"at={at} event=download addr={addr} uptime={draw(st.sampled_from(['0.5', '0.95', '1.0']))}")
        for gap, kind, k in draw(st.lists(step, max_size=3 if i else 0)):
            at += gap
            target = addrs[k % (i + 1)]
            if kind == "send":
                if target in down:
                    continue
                sends += 1
                lines.append(f"at={at} event=send addr={target} key=k{sends} timeout={draw(st.integers(1, 20))}")
            elif kind == "subdivide":
                lines.append(f"at={at} event=subdivide addr={target} critical_mass={draw(st.integers(1, 3))}")
            else:
                (down.add if kind == "down" else down.discard)(target)
                lines.append(f"at={at} event={kind} addr={target}")
    lines += [f"assert committed key=k{k}" for k in range(1, sends + 1)]
    return "\n".join([f"{config} horizon={at + 60}", *lines])


def outcome(world, text, seed):
    """The verdicts, action lines and trace lines of a traced replay, or the
    scenario error that stopped it."""
    with mock.patch.object(scenario, "World", world):
        try:
            report = run_scenario(parse_scenario(text, name="offline"), seed=seed)
        except scenario.ScenarioError as exc:
            return str(exc)
    return [c.passed for c in report.checks], report.actions.lines, report.trace


@settings(max_examples=300, deadline=None)
@given(text=offline_scripts(), seed=st.integers(0, 7))
@example(text=ABSENT_THEN_BACK, seed=7)
@example(text=SPLIT_AFTER_SEND, seed=7)
def test_the_offline_view_is_the_one_the_map_flags_mirrored(text, seed):
    assert outcome(World, text, seed) == outcome(MapFlagWorld, text, seed)


def test_a_flip_leaves_the_map_alone():
    engine = Engine(7)
    world = World(engine, WorldConfig())

    def run(text, horizon):
        for line in parse_scenario(text).events:
            schedule_line(engine, line)
        engine.run(world.handle, horizon=horizon)

    run("\n".join(f"at={k} event=download addr=10.3.0.{k + 1}" for k in range(4)), 5)
    hood = world.neighborhoods[world.nid_of[parse_address("10.3.0.1")]]
    before = hood.map
    run("at=10 event=down addr=10.3.0.4", 10)
    run("at=11 event=up addr=10.3.0.4", 11)
    # 10.3.0.2 is down for every proposal (a hop takes 1-10 units), and back before the deadline.
    run("at=20 event=send addr=10.3.0.1 key=k timeout=30\nat=20 event=down addr=10.3.0.2", 20)
    run("at=31 event=up addr=10.3.0.2", 60)
    (commit,) = world.commits
    assert commit.resolution.absentees == {parse_address("10.3.0.2")}
    assert world.offline == {parse_address("10.3.0.2")}
    assert hood.map is before and world.neighborhoods[world.nid_of[parse_address("10.3.0.1")]] is hood


class ScanTimeoutWorld(World):
    """The introduction timeout as it was computed before each neighborhood
    kept its metrics sorted: ten moderate update periods over the median of
    a scan of the sender's current map, or of [0.0] for an isolated sender,
    with update_period's arithmetic as it was, on statistics.median."""

    def _intro_timeout(self, sender):
        if self.config.intro_timeout is not None:
            return self.config.intro_timeout
        nid = self.nid_of.get(sender)
        metrics = [0.0] if nid is None else [r.metric for r in self.neighborhoods[nid].map.members]
        base = sync.UPDATE_PERIOD_BASES["moderate"]
        return 10 * max(1, round(base * (1.0 + statistics.median(metrics) / sync.REFERENCE_METRIC)))


@st.composite
def timeout_scripts(draw):
    """Three to twelve instances with drawn metrics download on a narrow
    address range with an excerpt of one or two, so a download whose nearest
    registrants are down becomes a stray, which a router's refresh maps if it
    lies in a span. Each download is followed by downs and ups of the
    instances so far, so joins queue introductions for down members. A
    critical mass of 2-5 splits neighborhoods into halves of odd and even
    sizes. intro_timeout is unset, so every queued line's deadline is set by
    the median metric of the sender's neighborhood."""
    addrs = [f"10.10.0.{k}" for k in draw(st.lists(st.integers(1, 30), min_size=3, max_size=12, unique=True))]
    config = (
        f"config min_clients={draw(st.integers(0, 2))} excerpt_cap={draw(st.integers(1, 2))}"
        f" beacon_period={draw(st.integers(1, 8))} refresh_period={draw(st.integers(1, 12))}"
        + draw(st.sampled_from(["", " critical_mass=2", " critical_mass=3", " critical_mass=5"]))
    )
    lines, at = [], 0
    for i, addr in enumerate(addrs):
        at += draw(st.integers(0, 6))
        uptime = "1.0" if i == 0 else draw(st.sampled_from(["0.5", "0.95"]))
        lines.append(f"at={at} event=download addr={addr} uptime={uptime} metric={draw(st.integers(0, 60))}")
        flaps = st.tuples(st.integers(0, 8), st.sampled_from(["down", "up"]), st.integers(0, i))
        for gap, kind, k in draw(st.lists(flaps, max_size=3)):
            at += gap
            lines.append(f"at={at} event={kind} addr={addrs[k]}")
    lines += [f"assert member addr={a}" for a in addrs]
    return "\n".join([f"{config} horizon={at + 60}", *lines])


@settings(max_examples=300, deadline=None)
@given(text=timeout_scripts(), seed=st.integers(0, 7))
def test_an_introduction_times_out_as_when_each_join_scanned_its_map(text, seed):
    assert outcome(World, text, seed) == outcome(ScanTimeoutWorld, text, seed)
