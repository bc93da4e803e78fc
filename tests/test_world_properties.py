"""Properties of the scenario World that hold under churn and at its edges.

A state machine drives a World through its Engine with the passing of time
and with parsed script lines (downloads, downs, ups, sends, subdivisions),
and after every step checks that membership, routers, introductions and
commits stay consistent. With a drawn order seed the world runs on a
ShuffledEngine, which runs each line first at its unit and same-time world
events in a random order; without one, on the plain Engine.
Its settle rule lets the world come to rest and checks liveness: every
neighborhood that has a router candidate has a live router.

The action log, recorded in event order with each handshake's actions
stamped at its finish, reads as the stable time sort of what was recorded,
and a check timed at a unit sees exactly the actions stamped by then. Two
explicit edges stay pinned: RECEIPT_EDGES lands a down on a proposal and an
ack on its commit's deadline, and a flip or a commit absentee leaves the
neighborhood's map alone. Whether the world does what the scenario
docstring says is checked against tests/reference_world.py, in
test_reference_world.py.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule
from outcomes import ShuffledEngine

from peermesh.scenario import (
    BEACON_TIMEOUT_FACTOR,
    World,
    WorldConfig,
    parse_scenario,
    run_scenario,
    schedule_line,
)
from peermesh.simcore import Engine, RandomStream, SimEvent
from peermesh.topology import elect_router, parse_address

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


# (clock step, how far past the clock the action is stamped): each action is
# stamped at the clock or later, as a handshake's actions are.
recordings = st.lists(st.tuples(st.integers(0, 3), st.sampled_from([0, 0, 1, 2, 5])), max_size=30)


@given(recordings)
def test_the_action_log_is_the_stable_time_sort_of_what_was_recorded(steps):
    engine = Engine()
    world = World(engine, WorldConfig())
    recorded = []
    for n, (step, ahead) in enumerate(steps):
        engine.now += step
        at, sender = engine.now + ahead, parse_address(0x0A000100 + n)
        world._act(at, "queued", f"from={sender} to=10.0.0.1")
        recorded.append((at, f"from={sender} to=10.0.0.1"))
        assert [(a.at, a.body) for a in world.actions] == sorted(recorded, key=lambda r: r[0])
        # A check timed now sees exactly the actions stamped by now.
        for stamp, body in recorded:
            (check,) = parse_scenario(f"assert queued at={engine.now} {body.split()[0]}").checks
            world.handle(engine, SimEvent(engine.now, "check", check))
            assert world.check_results[-1].passed == (stamp <= engine.now)


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


def test_the_receipt_edges_example_lands_a_down_on_a_proposal_and_an_ack_on_the_deadline():
    # The reference check keeps passing if its example loses these edges.
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
