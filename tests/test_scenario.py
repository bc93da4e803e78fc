import gc
import math
import re
import sys
import weakref
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest
from outcomes import assert_same_outcome, report_text, run_shuffled

from peermesh import cli, scenario
from peermesh.scenario import (
    KIND_MESSAGE,
    KIND_TIMER,
    ScenarioError,
    ScenarioParseError,
    World,
    WorldConfig,
    load_scenario,
    parse_scenario,
    run_scenario,
    schedule_line,
)
from peermesh.simcore import Engine, RandomStream, SimEvent
from peermesh.timing import barrier_latency
from peermesh.topology import NeighborhoodMap, NodeAddress, parse_address


def bundled(name: str) -> str:
    return (resources.files("peermesh") / "scenarios" / name).read_text()


# -- grammar -------------------------------------------------------------------


def test_parse_full_grammar():
    script = parse_scenario(
        """
        # a comment
        config horizon=500 min_clients=3

        at=0 event=download addr=10.0.0.1 domain=alpha uptime=0.95
        at=5 event=down addr=10.0.0.1
        assert member at=3 addr=10.0.0.1
        assert isolated addr=10.0.0.1
        assert connected at=4 from=10.0.0.2 to=10.0.0.1
        assert committed key=k acks=0 absent=10.0.0.1,10.0.0.2 value=v
        assert committed key=k absent=-
        """,
        name="inline",
    )
    assert script.config == WorldConfig(horizon=500, min_clients=3)
    assert len(script.events) == 2
    ev = script.events[0]
    assert (ev.at, ev.kind, str(ev.addr)) == (0, "download", "10.0.0.1")
    assert ev.params == {"domain": "alpha", "uptime": 0.95}
    timed, untimed, pair, full, none_absent = script.checks
    assert timed.at == 3 and untimed.at is None
    assert pair.params == {"from": parse_address("10.0.0.2"), "to": parse_address("10.0.0.1")}
    assert type(pair.params["from"]) is NodeAddress
    absent = (parse_address("10.0.0.1"), parse_address("10.0.0.2"))
    assert full.params == {"key": "k", "acks": 0, "absent": absent, "value": b"v"}
    assert none_absent.params == {"key": "k", "absent": ()}


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("at=0 event=warp addr=10.0.0.1", "unknown event"),
        ("at=0 addr=10.0.0.1", "missing"),
        ("at=-1 event=up addr=10.0.0.1", "non-negative"),
        ("at=0 event=up addr=not-an-ip", "inline:1"),
        ("at=0 event=up addr=10.0.0.1 oops", "key=value"),
        ("at=0 event=up addr=10.0.0.1 at=2", "duplicate"),
        ("assert", "assert needs a kind"),
        ("assert warp addr=10.0.0.1", "unknown assert kind"),
        ("assert connected at=abc", "at must be a non-negative integer"),
        ("assert member at=-5 addr=10.0.0.1", "at must be a non-negative integer"),
        ("assert router", "router needs addr="),
        ("assert isolated addr=10.0.0.300", "inline:1"),
        ("assert committed acks=2", "committed needs key="),
        ("config horizon=abc", "horizon must be a non-negative integer"),
        ("config beacon_period=0", "beacon_period must be a positive integer"),
        ("config warp_factor=9", "unknown config key 'warp_factor'"),
        ("config horizon=-1", "horizon must be a non-negative integer"),
        ("config min_clients=-1", "min_clients must be a non-negative integer"),
        ("config beacon_timeout_factor=0", "unknown config key 'beacon_timeout_factor'"),
        ("config min_uptime=0.5", "unknown config key"),
        ("config min_capacity=1", "unknown config key"),
        ("at=0 event=send addr=10.0.0.1 value=v", "send needs key="),
        ("at=0 event=send addr=10.0.0.1 key=k timeout=0", "timeout must be a positive integer"),
        ("at=0 event=download addr=10.0.0.1 uptime=1.5", r"uptime must be a number in \[0, 1\]"),
        ("at=0 event=download addr=10.0.0.1 capacity=fast", "capacity must be a positive number"),
        ("at=0 event=send addr=10.0.0.1 key=k scope=galaxy", "scope must be local, global"),
        ("at=10 event=send addr=10.0.0.1 key=k timout=5", "unknown send parameter 'timout'"),
        ("at=0 event=download addr=10.0.0.1 uptme=0.5", "unknown download parameter 'uptme'"),
        ("at=0 event=down addr=10.0.0.1 key=k", "unknown down parameter 'key'"),
        ("assert connected frm=10.0.0.2 to=10.0.0.1", "unknown connected parameter 'frm'"),
        ("assert introduced from=10.0.0.300", "from must be a dotted-quad address"),
        ("assert delivered to=nobody", "to must be a dotted-quad address"),
        ("assert router addr=10.0.0.1 from=10.0.0.2", "unknown router parameter 'from'"),
        ("assert isolated addr=10.0.0.1 key=k", "unknown isolated parameter 'key'"),
        ("assert committed key=k addr=10.0.0.1", "unknown committed parameter 'addr'"),
        ("assert committed key=k acks=two", "acks must be a non-negative integer"),
        ("assert committed key=k acks=-1", "acks must be a non-negative integer"),
        ("assert committed key=k absent=10.0.0.1;10.0.0.2", "absent must be - or a comma-separated"),
        ("assert committed key=k absent=10.0.0.1,", "absent must be - or a comma-separated"),
        ("at=0 event=download addr=10.0.0.1 capacity=inf", "capacity must be a positive number"),
        ("at=0 event=download addr=10.0.0.1 metric=inf", "metric must be a non-negative number"),
    ],
)
def test_parse_errors(line, fragment):
    with pytest.raises(ScenarioParseError, match=fragment):
        parse_scenario(line, name="inline")


def test_parse_errors_carry_line_numbers():
    text = "config horizon=100\n\nat=0 event=download addr=10.0.0.1\nat=1 event=warp addr=10.0.0.2\n"
    with pytest.raises(ScenarioParseError, match="inline:4"):
        parse_scenario(text, name="inline")


# -- bundled scenarios -----------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["startup.scenario", "router-failover.scenario", "commit-timeout.scenario"]
)
def test_bundled_scenarios_pass(name):
    report = run_scenario(parse_scenario(bundled(name), name=name))
    failed = [c.render() for c in report.checks if not c.passed]
    assert report.passed, failed


def test_reports_are_reproducible():
    script = parse_scenario(bundled("startup.scenario"), name="startup.scenario")
    a = report_text(run_scenario(script, seed=42))
    b = report_text(run_scenario(script, seed=42))
    assert a == b
    c = report_text(run_scenario(script, seed=43))
    assert a != c  # hop draws differ, so recorded handshake times differ


# -- check kinds -------------------------------------------------------------------

NEEDED = {"addr": "10.0.0.1", "key": "k"}  # a value for each parameter a check kind needs


@pytest.mark.parametrize("kind", scenario._CHECK_KINDS)
def test_every_check_kind_reaches_a_verdict(kind):
    typed = scenario._CHECK_KINDS[kind][1]
    pairs = " ".join(f"{k}={NEEDED[k]}" for k, param in typed.items() if param.needed)
    script = parse_scenario(f"at=0 event=download addr=10.0.0.1\nassert {kind} {pairs}\n", name="one")
    verdict = report_text(run_scenario(script)).splitlines()[-2]
    assert re.fullmatch(rf"L2 {re.escape(kind)} {re.escape(pairs)}: (PASS|FAIL)( \(.+\))?", verdict), verdict


def test_every_action_a_check_matches_is_recorded_by_a_shipped_script():
    bundled_dir = resources.files("peermesh").joinpath("scenarios")
    shipped = [p for p in bundled_dir.iterdir() if p.name.endswith(".scenario")]
    shipped += sorted((Path(__file__).parent / "golden").glob("*.scenario"))
    recorded = {
        action.kind
        for p in shipped
        for action in run_scenario(parse_scenario(p.read_text(), name=p.name), trace=False).actions
    }
    matched = {action for action, _typed in scenario._CHECK_KINDS.values() if action is not None}
    assert matched and matched <= recorded, matched - recorded


# -- world behavior ----------------------------------------------------------------


RECOVERY = """
# A newcomer finds everyone dead, registers with the directory, and is
# folded into the neighborhood by the router's next directory refresh.
config min_clients=2

at=0  event=download addr=10.3.0.1
at=5  event=download addr=10.3.0.9
at=10 event=down addr=10.3.0.1
at=15 event=down addr=10.3.0.9
at=20 event=download addr=10.3.0.5
at=50 event=up addr=10.3.0.1
at=60 event=up addr=10.3.0.9

assert isolated at=40 addr=10.3.0.5
assert connect-failed from=10.3.0.5 to=10.3.0.1
assert connect-failed from=10.3.0.5 to=10.3.0.9
assert queued from=10.3.0.5 to=10.3.0.1
assert delivered from=10.3.0.5 to=10.3.0.1
assert delivered from=10.3.0.5 to=10.3.0.9
assert member addr=10.3.0.5
assert router addr=10.3.0.1
"""


def test_directory_fallback_and_refresh_pickup():
    report = run_scenario(parse_scenario(RECOVERY, name="recovery"))
    failed = [c.render() for c in report.checks if not c.passed]
    assert report.passed, failed
    mapped = [a for a in report.actions if a.kind == "mapped"]
    assert [a.get("addr") for a in mapped] == ["10.3.0.5"]


# 10.4.0.1 is elected at 1, so its refresh ticks fall on 11, 21, 31, ... It is
# already up at 15, so that `up` changes nothing. 10.4.0.4 goes down at 16, so
# 10.4.0.3, whose nearest registrant it is, is a stray inside the router's span
# from 17: the tick at 21 maps it, not one at 25, as a restart at 15 would.
UP_WHILE_UP = """
config min_clients=2 excerpt_cap=1 refresh_period=10 horizon=60
at=0 event=download addr=10.4.0.1 uptime=0.99 capacity=512000
at=1 event=download addr=10.4.0.4 uptime=0.98 capacity=256000
at=15 event=up addr=10.4.0.1
at=16 event=down addr=10.4.0.4
at=17 event=download addr=10.4.0.3 uptime=0.97 capacity=256000
assert router addr=10.4.0.1
assert member addr=10.4.0.3
"""


def test_an_up_for_a_live_router_does_not_restart_it():
    report = run_scenario(parse_scenario(UP_WHILE_UP, name="up-while-up"))
    assert report.passed
    refreshes = [line[1:7].strip() for line in report.trace if line.endswith("type=router-refresh")]
    assert refreshes == ["21"]
    mapped = [a.render() for a in report.actions if a.kind == "mapped"]
    assert mapped == ["[    21] mapped addr=10.4.0.3 neighborhood=0"]
    elected = [a.render() for a in report.actions if a.kind == "elected"]
    assert elected == ["[     1] elected addr=10.4.0.1 neighborhood=0"]


# 10.4.0.1 is elected at 1 and goes down at 21, so its last beacon went out
# at 11 and it fails over at 31. The second down changes nothing: timed as a
# first one, it would fail the router over again at 41, though 10.4.0.2 alone
# is too few to elect a successor, so the neighborhood's incarnation stays.
DOWN_TWICE = """
config min_clients=2 beacon_period=10 horizon=100
at=0 event=download addr=10.4.0.1 uptime=0.99 capacity=512000
at=1 event=download addr=10.4.0.2 uptime=0.98 capacity=256000
at=21 event=down addr=10.4.0.1
at=25 event=down addr=10.4.0.1
assert no-router addr=10.4.0.2
"""


def test_a_down_for_a_down_router_times_no_second_failover():
    report = run_scenario(parse_scenario(DOWN_TWICE, name="down-twice"))
    assert report.passed, report_text(report)
    expired = [a.render() for a in report.actions if a.kind == "beacon-expired"]
    assert expired == ["[    31] beacon-expired addr=10.4.0.1 neighborhood=0"]
    assert [line for line in report.trace if line.endswith("type=failover")] == [
        "[    31] timer neighborhood=0 type=failover"
    ]


# Downloads alone, one every 7 units: one neighborhood whose rounds each take
# in the joins made while the last one ran.
STEADY = "".join(f"at={7 * i} event=download addr=10.6.{i // 50}.{i % 50 + 1}\n" for i in range(90))


@pytest.mark.parametrize("seed", [5, 7919])
def test_a_round_takes_the_barrier_latency_of_its_stream(seed):
    report = run_scenario(parse_scenario(STEADY, name="steady"), seed=seed, trace=False)
    assert not report.run.truncated  # no news after the last round: the queue drains
    rounds = [a for a in report.actions if a.kind == "round"]
    assert len({a.get("members") for a in rounds}) > 3  # rounds of many sizes
    for k, action in enumerate(rounds):
        assert action.get("neighborhood") == "0"
        n = int(action.get("members"))
        size = round(math.sqrt(n / 3)) + 1  # a one-level round's closed-form optimum
        chain_hops = [min(size, n - i) - 1 for i in range(0, n, size)]
        stream = RandomStream(seed, f"round/0/{k}")
        assert int(action.get("latency")) == barrier_latency(chain_hops, [stream.hop_delay() for _ in range(2 * n - 2)])


# Scripts in which a router's tick maps a stray in the unit where a round starts
# or ends, each with that unit. Both are world events, so either may run first.
ROUND_TIES = {
    # 10.9.0.2's join is news, so a round starts at 1, and the tick at 1 maps
    # 10.9.0.3, a stray in the router's span since 0. The round counts only
    # members mapped before its unit, so 10.9.0.3 waits for the next round.
    "mapped-at-round-start": (
        """
config min_clients=0 excerpt_cap=1 refresh_period=1
at=0 event=download addr=10.9.0.1 uptime=1.0
at=0 event=download addr=10.9.0.4
at=0 event=down addr=10.9.0.4
at=0 event=download addr=10.9.0.3
at=0 event=download addr=10.9.0.2
""",
        1,
    ),
    # 10.9.0.4's join queues a round start at 1, and the tick at 1 maps
    # 10.9.0.3 and splits the neighborhood: a start after the split reads the
    # map the neighborhood last had, so the round runs either way.
    "split-at-round-start": (
        """
config min_clients=0 excerpt_cap=1 refresh_period=1 critical_mass=3
at=0 event=download addr=10.9.0.1 uptime=1.0
at=0 event=download addr=10.9.0.4
at=0 event=download addr=10.9.0.2
at=0 event=down addr=10.9.0.2
at=0 event=download addr=10.9.0.3
""",
        1,
    ),
    # 10.9.0.4's join at 2 queues a round start at 3, which finds only
    # 10.9.0.1 live, while the tick at 3 maps 10.9.0.3 and splits the
    # neighborhood. The start reads the change stamped at 2, not the stray
    # mapped at 3, so it queues no further start in either order.
    "split-at-an-empty-round-start": (
        """
config min_clients=0 excerpt_cap=2 refresh_period=3 critical_mass=3
at=0 event=download addr=10.9.0.1 uptime=1.0
at=0 event=download addr=10.9.0.2
at=0 event=down addr=10.9.0.2
at=2 event=download addr=10.9.0.4
at=2 event=down addr=10.9.0.4
at=2 event=download addr=10.9.0.3
""",
        3,
    ),
    # The round from 1 ends at 12 at the default seed, when the tick maps
    # 10.9.0.4 and splits the neighborhood: the round counts either way.
    "split-at-round-end": (
        """
config min_clients=0 excerpt_cap=1 refresh_period=1 critical_mass=3
at=0 event=download addr=10.9.0.1 uptime=1.0
at=0 event=download addr=10.9.0.8
at=0 event=download addr=10.9.0.5
at=0 event=down addr=10.9.0.5
at=12 event=download addr=10.9.0.4
""",
        12,
    ),
}


@pytest.mark.parametrize("name", ROUND_TIES)
def test_a_round_that_ties_with_a_map_has_one_outcome_in_every_order(name):
    text, unit = ROUND_TIES[name]
    script = parse_scenario(text, name=name)
    want = report_text(run_scenario(script))
    stamp, kind = f"[{unit:>6}]", "round-end" if name.endswith("round-end") else "round-start"
    orders = set()
    for order_seed in range(20):
        got = run_shuffled(script, order_seed)
        at_unit = [line for line in got.trace if line.startswith(stamp) and "type=" in line]  # world events
        assert any(line.endswith("type=router-refresh") for line in at_unit)
        assert any(line.endswith(f"type={kind}") for line in at_unit)  # the tie the case is named for
        orders.add(tuple(line.endswith("router-refresh") for line in at_unit))
        assert_same_outcome(report_text(got), want)
    assert len(orders) == 2  # the tick ran before the round's event in some orders, after it in others


def test_a_stray_mapped_in_the_unit_of_a_round_start_waits_for_the_next_round():
    report = run_scenario(parse_scenario(ROUND_TIES["mapped-at-round-start"][0], name="mapped"))
    mapped, first, second = [a for a in report.actions if a.kind in ("mapped", "round")]
    assert mapped.render() == "[     1] mapped addr=10.9.0.3 neighborhood=0"
    assert first.at - int(first.get("latency")) == 1  # the round started in the unit of the map
    assert [first.get("members"), second.get("members")] == ["2", "3"]


# The round that starts at 2 ends 3 or more units later, but its neighborhood
# splits at 3.
SPLIT_MID_ROUND = """
at=0 event=download addr=10.9.0.1
at=1 event=download addr=10.9.0.2
at=2 event=download addr=10.9.0.3
at=2 event=download addr=10.9.0.4
at=3 event=subdivide addr=10.9.0.1 critical_mass=2
"""


def test_a_round_whose_neighborhood_split_while_it_ran_is_void():
    report = run_scenario(parse_scenario(SPLIT_MID_ROUND, name="split-mid-round"))
    assert "[     2] timer neighborhood=0 type=round-start" in report.trace
    (end,) = [line for line in report.trace if line.endswith("neighborhood=0 type=round-end")]
    assert int(end[1:7]) > 3  # the round ran on past the split
    rounds = [a for a in report.actions if a.kind == "round"]
    assert sorted((a.get("neighborhood"), a.get("members")) for a in rounds) == [("1", "2"), ("2", "2")]


def recorded_worlds(monkeypatch) -> list:
    """The worlds that run_scenario builds from now on, as it builds them."""
    worlds, build = [], scenario.World
    monkeypatch.setattr(scenario, "World", lambda *args: worlds.append(build(*args)) or worlds[-1])
    return worlds


# Three joins, then rounds until the last one holds all three members.
THREE_JOIN = """
at=0 event=download addr=10.9.1.1
at=1 event=download addr=10.9.1.2
at=2 event=download addr=10.9.1.3
"""


@pytest.mark.parametrize("seed", [1, 7, 7919])
def test_a_return_after_a_round_keeps_the_other_members_lists(monkeypatch, seed):
    # A round's end hands its members one merged list. Then 10.9.1.3 goes down,
    # 10.9.1.4 joins and queues an introduction to it, and 10.9.1.3 comes back and
    # is delivered that introduction; the horizon falls before the next round can
    # end. Only 10.9.1.3's list may take 10.9.1.4's entry.
    rounds = [a for a in run_scenario(parse_scenario(THREE_JOIN), seed=seed, trace=False).actions if a.kind == "round"]
    last = rounds[-1]
    assert last.get("members") == "3"
    t = last.at
    text = THREE_JOIN + (
        f"config horizon={t + 3}\n"
        f"at={t + 1} event=down addr=10.9.1.3\n"
        f"at={t + 2} event=download addr=10.9.1.4\n"
        f"at={t + 3} event=up addr=10.9.1.3\n"
    )
    worlds = recorded_worlds(monkeypatch)
    report = run_scenario(parse_scenario(text, name="return-after-round"), seed=seed, trace=False)
    assert [a.render() for a in report.actions if a.kind == "delivered"] == [
        f"[{t + 3:>6}] delivered from=10.9.1.4 to=10.9.1.3"
    ]
    assert [a.at for a in report.actions if a.kind == "round"][-1] == t  # no later round ended
    (world,) = worlds
    a1, a2, a3, a4 = (parse_address(f"10.9.1.{k}") for k in range(1, 5))
    owners = {addr: [e.owner for e in world.lists[addr].entries()] for addr in (a1, a2, a3)}
    assert owners == {a1: [a1, a2, a3], a2: [a1, a2, a3], a3: [a1, a2, a3, a4]}


SPLIT = """
config critical_mass=4

at=0  event=download addr=10.4.0.1
at=2  event=download addr=10.4.0.2
at=4  event=download addr=10.4.0.3
at=6  event=download addr=10.4.0.4
at=8  event=download addr=10.4.0.5
at=10 event=download addr=10.4.0.6

assert member addr=10.4.0.1
assert member addr=10.4.0.6
assert no-router addr=10.4.0.1
assert no-router addr=10.4.0.6
assert router addr=10.9.9.9
assert no-router addr=10.9.9.9
"""


def test_membership_splits_past_critical_mass():
    report = run_scenario(parse_scenario(SPLIT, name="split"))
    # 10.9.9.9 never downloaded, so it neither is nor lacks a router
    verdicts = [(c.passed, c.detail) for c in report.checks]
    assert verdicts == [(True, "")] * 4 + [(False, "not an instance")] * 2
    splits = [a for a in report.actions if a.kind == "subdivided"]
    # the fifth join pushes the count past critical mass: one split, two halves
    assert len(splits) == 2
    assert {a.get("members") for a in splits} == {"3", "2"}


def test_scripted_subdivide_event():
    text = SPLIT.replace("config critical_mass=4", "") + "at=20 event=subdivide addr=10.4.0.1 critical_mass=3\n"
    report = run_scenario(parse_scenario(text, name="manual-split"))
    assert any(a.kind == "subdivided" for a in report.actions)


def test_a_subdivide_at_critical_mass_records_no_split():
    text = SPLIT.replace("config critical_mass=4", "") + "at=20 event=subdivide addr=10.4.0.1 critical_mass=6\n"
    report = run_scenario(parse_scenario(text, name="no-split"))
    assert [a.render() for a in report.actions if a.kind in ("no-split", "subdivided")] == [
        "[    20] no-split neighborhood=0 members=6"
    ]


# A router elected on a join maps a stray, and the stray pushes the
# neighborhood past critical mass. The membership follow-up used to act on the
# map it read before the election and split neighborhood 0 a second time.
ELECTION_MAPS_A_STRAY = """
config min_clients=3 critical_mass=6 beacon_period=10 refresh_period=30 commit_timeout=50
at=7 event=download addr=10.0.0.46
at=17 event=down addr=10.0.0.46
at=28 event=download addr=10.0.3.58
at=39 event=download addr=10.0.2.8
at=48 event=download addr=10.0.1.30
at=54 event=down addr=10.0.3.58
at=57 event=download addr=10.0.0.26
at=58 event=down addr=10.0.2.8
at=65 event=download addr=10.0.1.199
at=65 event=down addr=10.0.1.199
at=65 event=down addr=10.0.1.30
at=80 event=download addr=10.0.2.178
at=84 event=download addr=10.0.3.152
"""


def test_a_stray_mapped_at_election_splits_the_neighborhood_once(monkeypatch):
    worlds = recorded_worlds(monkeypatch)
    report = run_scenario(parse_scenario(ELECTION_MAPS_A_STRAY, name="election-maps-a-stray"))
    rendered = [f"{a.kind} {a.body}" for a in report.actions]
    mapped = rendered.index("mapped addr=10.0.0.46 neighborhood=0")
    after = [r for r in rendered[mapped + 1 :] if r.startswith("subdivided")]
    assert [r.split()[1] for r in after] == ["source=0", "source=0"]
    (world,) = worlds
    assert all(nid in world.neighborhoods for nid in world.nid_of.values())


# 10.9.0.10's join stretches neighborhood 0's span over 10.9.0.8, a stray, and
# splits it. Only the half whose span holds the stray sees it, and maps it at
# once, as its new router starts.
SPLIT_OVER_A_STRAY = """
config min_clients=0 critical_mass=3 excerpt_cap=2 refresh_period=10
at=0 event=download addr=10.9.0.8
at=0 event=down addr=10.9.0.8
at=1 event=download addr=10.9.0.1 uptime=1.0
at=2 event=download addr=10.9.0.2
at=3 event=download addr=10.9.0.3
at=4 event=download addr=10.9.0.10
"""


def test_a_join_that_splits_queues_no_refresh_for_the_neighborhood_it_ends():
    report = run_scenario(parse_scenario(SPLIT_OVER_A_STRAY, name="split-over-a-stray"))
    assert [a.render() for a in report.actions if a.kind in ("subdivided", "mapped")] == [
        "[     4] subdivided source=0 neighborhood=1 members=2",
        "[     4] subdivided source=0 neighborhood=2 members=2",
        "[     4] mapped addr=10.9.0.8 neighborhood=2",
    ]
    assert not [line for line in report.trace if line.endswith("type=router-refresh")]


COMMIT_VALUES = """
at=0 event=download addr=10.5.0.1
at=10 event=download addr=10.5.0.2
at=20 event=send addr=10.5.0.1 key=colour value=red
at=30 event=send addr=10.5.0.2 key=size value=big
assert committed key=colour value=red
assert committed key=colour value=blue
assert committed key=colour value=red acks=2 absent=-
assert committed key=colour value=big
assert committed key=size value=big
assert committed key=colour acks=02
"""


def test_committed_check_matches_the_committed_value():
    report = run_scenario(parse_scenario(COMMIT_VALUES, name="commit-values"))
    assert [c.passed for c in report.checks] == [True, False, True, False, True, True]
    assert report.checks[-1].render() == "L11 committed acks=02 key=colour: PASS"
    # the value is checked, not printed: the committed action carries none
    assert all(a.get("value") is None for a in report.actions if a.kind == "committed")


COMMIT_ABSENTEES = """
at=0 event=download addr=10.2.0.1
at=2 event=download addr=10.2.0.2
at=4 event=download addr=10.2.0.3
at=6 event=download addr=10.2.0.4
at=8 event=download addr=10.2.0.5
at=100 event=send addr=10.2.0.1 key=channel value=lobby timeout=60
at=100 event=down addr=10.2.0.3
at=100 event=down addr=10.2.0.4
assert committed key=channel absent=10.2.0.3,10.2.0.4
assert committed key=channel absent=10.2.0.4,10.2.0.3
assert committed key=channel absent=10.2.0.4
assert committed key=channel absent=-
"""


def test_committed_check_compares_absent_as_a_set():
    report = run_scenario(parse_scenario(COMMIT_ABSENTEES, name="commit-absentees"))
    assert [c.passed for c in report.checks] == [True, True, False, False]
    verdicts = [c.render() for c in report.checks[:2]]
    assert verdicts == [
        "L10 committed absent=10.2.0.3,10.2.0.4 key=channel: PASS",
        "L11 committed absent=10.2.0.4,10.2.0.3 key=channel: PASS",
    ]


def test_a_send_to_a_200_member_group_schedules_at_most_two_engine_events():
    # Its receipts are computed at the send: one timer at the last ack, if that
    # is before the deadline, and one at the deadline, however large the group.
    downloads = "".join(f"at={i} event=download addr=10.9.{i // 100}.{i % 100 + 1}\n" for i in range(200))
    script = parse_scenario(downloads + "at=500 event=send addr=10.9.0.1 key=k\n", name="big-send")
    *joins, send = script.events
    engine = Engine(5)
    world = World(engine, script.config)
    for line in joins:
        schedule_line(engine, line)
    engine.run(world.handle, horizon=499)
    engine.now = 500
    with mock.patch.object(engine, "schedule", wraps=engine.schedule) as schedule:
        world.handle(engine, SimEvent(500, "send", send))
    assert len(world.commits[0].group) == 200
    assert schedule.call_count <= 2
    engine.run(world.handle)
    assert world.commits[0].resolution.full


# Checks against one action, from=10.0.0.12 to=10.0.0.21: the first two match
# it, the rest miss it by a trailing digit or by which address is which.
NEAR_MISSES = """
assert {check} from=10.0.0.12 to=10.0.0.21
assert {check} to=10.0.0.21
assert {check} from=10.0.0.1 to=10.0.0.21
assert {check} from=10.0.0.12 to=10.0.0.2
assert {check} from=10.0.0.1
assert {check} from=10.0.0.21 to=10.0.0.12
"""


@pytest.mark.parametrize("check,kind", [("connected", "connect"), ("queued", "queued")])
def test_an_action_check_matches_whole_fields_only(check, kind):
    world = World(Engine(1), WorldConfig())
    tail = " deadline=90" if kind == "queued" else ""
    world._act(5, kind, f"from=10.0.0.12 to=10.0.0.21{tail}")
    checks = parse_scenario(NEAR_MISSES.format(check=check)).checks
    assert [world._evaluate(c).passed for c in checks] == [True, True, False, False, False, False]


def test_an_introduced_check_matches_whole_addresses_only():
    # The near misses, against the lists: 10.0.0.21 holds 10.0.0.12's
    # membership entry, and every other instance holds only its own.
    world = World(Engine(1), WorldConfig())
    for text in ("10.0.0.1", "10.0.0.2", "10.0.0.12", "10.0.0.21"):
        world.lists[parse_address(text)] = scenario._membership(parse_address(text))
    world.lists[parse_address("10.0.0.21")].absorb(scenario._membership(parse_address("10.0.0.12")))
    checks = parse_scenario(NEAR_MISSES.format(check="introduced")).checks
    assert [world._evaluate(c).passed for c in checks] == [True, True, False, False, False, False]


def _live_actions() -> list:
    return [o for o in gc.get_objects() if type(o) is scenario.Action]


def test_no_action_holds_a_gc_tracked_object():
    before = _live_actions()  # other tests' parameters, held alive here so no id is reused
    report = run_scenario(parse_scenario(CHURN, name="churn"), seed=5)
    gc.collect()
    # The report holds its actions as lines: no Action outlives its reader.
    assert {id(o) for o in _live_actions()} == {id(o) for o in before}
    assert len(report.actions) > 20
    assert not [x for a in report.actions for x in a if gc.is_tracked(x)]


@pytest.mark.parametrize(
    "action",
    [
        scenario.Action(1234567, "introduced", "from=10.0.0.1 to=10.0.0.2"),
        scenario.Action(3, "proposed", "key=]a]b] by=10.0.0.1 group=2"),
    ],
    ids=["seven-digit-time", "bracket-in-key"],
)
def test_an_action_parses_back_from_its_line(action):
    assert scenario.Action.parse(action.render()) == action


# A send at a seven-digit time whose key holds "]", the character that ends a line's time.
BRACKETS = """\
at=1234560 event=download addr=10.5.0.1
at=1234562 event=download addr=10.5.0.2
at=1234567 event=send addr=10.5.0.1 key=]a]b] value=v
"""


def test_a_replay_reads_back_the_actions_it_recorded():
    report = run_scenario(parse_scenario(BRACKETS, name="brackets"), trace=False)
    assert [a for a in report.actions if a.kind == "proposed"] == [
        scenario.Action(1234567, "proposed", "key=]a]b] by=10.5.0.1 group=2")
    ]
    assert [a.get("key") for a in report.actions if a.kind == "committed"] == ["]a]b]"]
    assert [a.render() for a in report.actions] == report.actions.lines
    assert report.actions[-1] == list(report.actions)[-1]


def test_a_slice_of_the_action_log_is_the_log_of_those_lines():
    report = run_scenario(parse_scenario(BRACKETS, name="brackets"), trace=False)
    head = report.actions[0:2]
    assert isinstance(head, scenario.ActionLog)
    assert head.lines == report.actions.lines[:2]
    assert list(head) == list(report.actions)[:2]
    assert report.actions[::-1][0] == report.actions[-1]


def test_send_from_unknown_instance_is_a_scenario_error():
    text = "at=0 event=send addr=10.9.0.1 key=k value=v\n"
    with pytest.raises(ScenarioError):
        run_scenario(parse_scenario(text, name="bad-send"))


def test_double_download_is_a_scenario_error():
    text = "at=0 event=download addr=10.9.0.1\nat=5 event=download addr=10.9.0.1\n"
    with pytest.raises(ScenarioError):
        run_scenario(parse_scenario(text, name="twice"))


# Instances download a unit or two apart with churn. Their joins and returns
# are news to the neighborhood until 15, so at seed 5 the round that takes
# them in is due to start at 52, past the horizon at 40.
CROWD = """
config min_clients=2 beacon_period=5 intro_timeout=20 commit_timeout=30 horizon=40
at=0 event=download addr=10.0.0.1
at=1 event=download addr=10.0.0.2
at=2 event=download addr=10.0.0.3 uptime=0.95
at=3 event=download addr=10.0.0.5
at=4 event=down addr=10.0.0.2
at=5 event=download addr=10.0.0.8
at=6 event=download addr=10.0.0.13
at=7 event=send addr=10.0.0.1 key=k value=v
at=8 event=download addr=10.0.0.21
at=9 event=up addr=10.0.0.2
at=10 event=download addr=10.0.0.34
at=11 event=down addr=10.0.0.1
at=12 event=download addr=10.0.0.55
at=13 event=download addr=10.0.0.89
at=14 event=up addr=10.0.0.1
at=15 event=download addr=10.0.0.144
at=16 event=send addr=10.0.0.13 key=j timeout=10
at=17 event=send addr=10.0.0.8 key=i timeout=12
at=18 event=send addr=10.0.0.21 key=h timeout=8
assert member at=14 addr=10.0.0.55
"""


def test_horizon_truncates_the_trace():
    report = run_scenario(parse_scenario(CROWD, name="crowd"), seed=5)
    assert report.run.truncated  # a round start is still due past the configured horizon
    rendered = report_text(report)
    assert "truncated" in rendered


def test_a_check_timed_past_the_horizon_fails(tmp_path, capsys):
    # The run stops at the horizon, so the check is never evaluated: it fails
    # rather than vanish from a report that would then pass.
    p = tmp_path / "late.scenario"
    p.write_text(
        "config horizon=10\n"
        "at=0 event=download addr=10.0.0.1\n"
        "assert member at=50 addr=10.0.0.9\n"
        "assert isolated at=10 addr=10.0.0.1\n"
    )
    assert cli.main(["scenario", "run", str(p), "--quiet"]) == 1
    out = capsys.readouterr().out
    assert "L3 member at=50 addr=10.0.0.9: FAIL (after the horizon 10)" in out
    assert "L4 isolated at=10 addr=10.0.0.1: PASS" in out
    assert out.endswith("-- result: FAIL (1/2 checks) --\n")


# 10.0.0.2's handshake starts at its download at 10, and its connect line is
# stamped at its end, one hop delay later: at 11 to 20.
EARLY_CHECK = """
at=0 event=download addr=10.0.0.1
at=10 event=download addr=10.0.0.2
assert connected at=10 from=10.0.0.2 to=10.0.0.1
assert connected at=20 from=10.0.0.2 to=10.0.0.1
assert connected from=10.0.0.2 to=10.0.0.1
"""


def test_a_timed_action_check_reads_only_the_lines_stamped_by_its_time():
    report = run_scenario(parse_scenario(EARLY_CHECK, name="early"), trace=False)
    (connect,) = [a for a in report.actions if a.kind == "connect"]
    assert 10 < connect.at <= 20
    assert [c.passed for c in report.checks] == [False, True, True]
    edge = "\n".join(EARLY_CHECK.splitlines()[:3] + [f"assert connected at={connect.at - k} to=10.0.0.1" for k in (0, 1)])
    assert [c.passed for c in run_scenario(parse_scenario(edge, name="edge"), trace=False).checks] == [True, False]


def test_load_scenario_from_path(tmp_path):
    p = tmp_path / "tiny.scenario"
    p.write_text("at=0 event=download addr=10.0.0.1\nassert isolated addr=10.0.0.1\n")
    report = run_scenario(load_scenario(p))
    assert report.script.name == "tiny.scenario"
    assert report.passed


def test_render_report_sections():
    p = parse_scenario(
        "at=0 event=download addr=10.0.0.1\nassert isolated addr=10.0.0.1\n", name="tiny"
    )
    out = report_text(run_scenario(p))
    assert out.splitlines()[0] == "scenario tiny"
    assert "-- actions:" in out and "-- checks:" in out
    assert out.rstrip().endswith("(1/1 checks) --")
    quiet = report_text(run_scenario(p, trace=False))
    assert "-- trace" not in quiet
    assert quiet == out[: out.index("-- trace")] + out[out.index("-- actions") :]


CHURN = """
config min_clients=2 beacon_period=5 refresh_period=15 intro_timeout=20 commit_timeout=30
at=0 event=download addr=10.0.0.1
at=0 event=download addr=10.0.0.2
at=3 event=download addr=10.0.0.9 uptime=0.95
at=6 event=down addr=10.0.0.2
at=8 event=download addr=10.0.0.5
at=12 event=send addr=10.0.0.1 key=k value=v
at=20 event=up addr=10.0.0.2
at=25 event=down addr=10.0.0.1
at=40 event=subdivide addr=10.0.0.9 critical_mass=2
assert member at=30 addr=10.0.0.5
"""


def test_trace_header_counts_the_trace_lines():
    report = run_scenario(parse_scenario(CROWD, name="crowd"), seed=5)
    lines = report_text(report).splitlines()
    header = lines.index(f"-- trace: {len(report.run)} events, truncated --")
    assert lines[header + 1 : lines.index(f"-- actions: {len(report.actions)} --")] == list(report.trace)
    assert len(report.trace) == len(report.run) > 30


def test_a_run_keeps_no_event_after_dispatching_it(monkeypatch):
    # When an event is dispatched, the one before it is held only by this
    # test: the engine, the world and the trace keep nothing of it.
    held = []
    counts = []
    dispatch = scenario.World.handle

    def watch(world, engine, ev):
        if held:
            last = held.pop()
            counts.append(sys.getrefcount(last))
            del last
        held.append(ev)
        dispatch(world, engine, ev)

    monkeypatch.setattr(scenario.World, "handle", watch)
    report = run_scenario(parse_scenario(CHURN, name="churn"), seed=5)
    last = held.pop()
    counts.append(sys.getrefcount(last))
    assert len(counts) == len(report.run)
    assert set(counts) == {2}  # `last` and getrefcount's own argument


A, B = parse_address("10.0.0.1"), parse_address("10.0.3.152")


def test_an_event_of_unknown_kind_is_a_scenario_error():
    # A world event is told by its payload's type, so a message whose payload
    # is a dict, as introductions once were, is no event the world knows.
    old_intro = {"type": "introduction", "from": A, "to": B}
    for kind, payload in (("bogus", {"type": "introduction"}), (KIND_MESSAGE, old_intro)):
        engine = Engine(1)
        world = World(engine, WorldConfig())
        engine.schedule(3, kind, payload=payload)
        with pytest.raises(ScenarioError, match=f"unknown event kind '{kind}'"):
            engine.run(world.handle)


HOOD = scenario.Neighborhood(NeighborhoodMap())
WORLD_PAYLOADS = [  # (kind, typed payload, the dict it replaced or, for a later type, would render as)
    (KIND_TIMER, scenario.RoundStart(2, HOOD), {"type": "round-start", "neighborhood": 2}),
    (KIND_MESSAGE, scenario.RoundEnd(2, HOOD, (A, B), 40), {"type": "round-end", "neighborhood": 2}),
    (KIND_TIMER, scenario.CommitDue(3, ((B, 104, 110),)), {"type": "commit-due", "commit": 3}),
    (KIND_TIMER, scenario.IntroExpiry(), {"type": "intro-expiry"}),
    (KIND_TIMER, scenario.RouterRefresh(2, 1), {"type": "router-refresh", "neighborhood": 2}),
    (KIND_TIMER, scenario.Failover(2, 1), {"type": "failover", "neighborhood": 2}),
]


def test_every_world_payload_type_has_a_row():
    handled = {key for key in World._ON if isinstance(key, type) and key is not scenario.ScriptCheck}
    assert handled == {type(payload) for _, payload, _ in WORLD_PAYLOADS}


@pytest.mark.parametrize(
    "kind,payload,old", WORLD_PAYLOADS, ids=[type(p).__name__ for _, p, _ in WORLD_PAYLOADS]
)
def test_a_world_payload_renders_as_the_dict_it_replaced(kind, payload, old):
    # World events once carried dicts, rendered as sorted key=value pairs.
    body = " ".join(f"{k}={old[k]}" for k in sorted(old))
    assert payload.trace() == body
    if B in old.values():
        assert "=10.0.3.152" in body


def test_a_finished_world_is_freed_by_reference_counting():
    # No handler table or payload refers back to the world, so with the cyclic
    # collector off it dies with its last reference.
    script = parse_scenario(CROWD, name="crowd")
    gc.disable()
    try:
        engine = Engine(5)
        world = World(engine, script.config)
        for line in script.events:
            schedule_line(engine, line)
        # By 600 every round, commit and expiry has run: more than 30 events.
        run = engine.run(world.handle, horizon=600)
        assert len(run) > 30 and not run.truncated
        assert len(world.actions) > 20
        freed = weakref.ref(world)
        del engine, world
        assert freed() is None
    finally:
        gc.enable()


# -- the offline view ------------------------------------------------------------

# 10.1.0.5 outranks the router 10.1.0.1, which is elected at 2 before it joins.
# It is down when each proposal of k1 lands (a hop takes 1-10 units) and back
# at 21, before the deadline at 40, so k1 lists it absent and it stays offline
# to its neighborhood: k2's group leaves it out, and when the router fails
# over, the three members left online are not enough to route. Its down and up
# at 100 and 101 bring it back: it is elected, and k3's group holds everyone.
ABSENT_THEN_BACK = """
config min_clients=3 beacon_period=5 commit_timeout=30
at=0 event=download addr=10.1.0.1 uptime=0.95
at=1 event=download addr=10.1.0.2 uptime=0.5
at=2 event=download addr=10.1.0.3 uptime=0.5
at=3 event=download addr=10.1.0.4 uptime=0.5
at=4 event=download addr=10.1.0.5 uptime=1.0
at=10 event=send addr=10.1.0.1 key=k1
at=10 event=down addr=10.1.0.5
at=21 event=up addr=10.1.0.5
at=50 event=send addr=10.1.0.2 key=k2
at=60 event=down addr=10.1.0.1
at=100 event=down addr=10.1.0.5
at=101 event=up addr=10.1.0.5
at=105 event=up addr=10.1.0.1
at=110 event=send addr=10.1.0.2 key=k3
assert committed key=k1 acks=4 absent=10.1.0.5
assert committed key=k2 acks=4 absent=-
assert no-router at=99 addr=10.1.0.2
assert router at=102 addr=10.1.0.5
assert committed key=k3 acks=5 absent=-
"""

# 10.2.0.4 is down when k1's proposal lands and back at 21. The split at 15
# moves it out of the proposer's neighborhood before k1 resolves at 40, so k1
# lists it absent but its own neighborhood still sees it online: k2's group
# holds both members of the upper half.
SPLIT_AFTER_SEND = """
at=0 event=download addr=10.2.0.1
at=1 event=download addr=10.2.0.2
at=2 event=download addr=10.2.0.3
at=3 event=download addr=10.2.0.4
at=10 event=send addr=10.2.0.1 key=k1 timeout=30
at=10 event=down addr=10.2.0.4
at=15 event=subdivide addr=10.2.0.1 critical_mass=2
at=21 event=up addr=10.2.0.4
at=50 event=send addr=10.2.0.3 key=k2
assert committed key=k1 acks=3 absent=10.2.0.4
assert committed key=k2 acks=2 absent=-
"""


def proposed_groups(report):
    return [(a.get("key"), a.get("group")) for a in report.actions if a.kind == "proposed"]


@pytest.mark.parametrize("seed", [1, 7, 7919])
def test_an_absentee_is_offline_to_its_neighborhood_until_its_next_flips(seed):
    report = run_scenario(parse_scenario(ABSENT_THEN_BACK, name="absent-then-back"), seed=seed, trace=False)
    assert report.passed, [c.render() for c in report.checks]
    assert proposed_groups(report) == [("k1", "5"), ("k2", "4"), ("k3", "5")]
    assert [a.get("addr") for a in report.actions if a.kind == "elected"] == ["10.1.0.1", "10.1.0.5"]


@pytest.mark.parametrize("seed", [1, 7, 7919])
def test_an_absentee_split_away_stays_online_to_its_own_neighborhood(seed):
    report = run_scenario(parse_scenario(SPLIT_AFTER_SEND, name="split-after-send"), seed=seed, trace=False)
    assert report.passed, [c.render() for c in report.checks]
    assert proposed_groups(report) == [("k1", "4"), ("k2", "2")]
