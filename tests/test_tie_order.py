"""No world outcome depends on the order in which same-time world events run.

Two messages due at one instant have no inherent order, so each script here
runs on a ShuffledEngine under drawn order seeds: its script lines and timed
checks still run first at a tie, in file order, and the world events among
themselves run in a random order. Every run must give the plain run's check
verdicts and the same multiset of action lines.

Where the tie rule gives it, the trace is order-free too: the scripts in
TRACE_STABLE must also give the plain run's multiset of trace lines. A commit
draws every proposal and ack delay when it is sent and runs no message as an
event, so same-time proposals swap no delays and no ack races its deadline.
"""

import importlib.util
import sys
from functools import cache
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from outcomes import assert_same_outcome, report_text, run_shuffled

from peermesh.scenario import load_scenario, parse_scenario, run_scenario
from peermesh.simcore import DEFAULT_SEED, RandomStream

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
BUNDLED = ROOT / "src" / "peermesh" / "scenarios"

# The proposal lands at 106 and the ack at 112, the commit's deadline.
DEADLINE_TIE = """\
at=0 event=download addr=10.2.0.1
at=2 event=download addr=10.2.0.2
at=100 event=send addr=10.2.0.1 key=k timeout=12
assert committed key=k acks=1 absent=10.2.0.2
"""

# 10.4.0.1 is elected at 1, so its beacons are due at 11, 21, ... It goes
# down at 51, the unit a beacon is due: the line runs first, so that beacon
# never goes out, the last beacon stays at 41, and the failover runs at 61,
# two periods later. The checks at 61 run before the failover.
BEACON_TIE = """\
config min_clients=2 beacon_period=10 horizon=100
at=0 event=download addr=10.4.0.1 uptime=0.99 capacity=512000
at=1 event=download addr=10.4.0.2 uptime=0.98 capacity=256000
at=2 event=download addr=10.4.0.3 uptime=0.97 capacity=256000
at=51 event=down addr=10.4.0.1
assert router at=61 addr=10.4.0.1
assert router at=62 addr=10.4.0.2
"""


@cache
def _gen():
    """bench/gen.py, which builds the world-flat and world-split workloads' scripts."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # dataclasses look their module up
    spec.loader.exec_module(gen)
    return gen


SCRIPTS = {
    **{p.stem: p for p in sorted(BUNDLED.glob("*.scenario")) + sorted(GOLDEN.glob("*.scenario"))},
    "deadline-tie": DEADLINE_TIE,
    "beacon-tie": BEACON_TIE,
    "flat-100": (733, 100, None),
    "split-200": (733, 200, 16),
}


@cache
def script(name: str):
    source = SCRIPTS[name]
    if isinstance(source, Path):
        return load_scenario(source)
    text = source if isinstance(source, str) else _gen().world_script(*source).text
    return parse_scenario(text, name=name)


@cache
def plain(name: str, trace: bool = False) -> str:
    return report_text(run_scenario(script(name), trace=trace))


TRACE_STABLE = list(SCRIPTS)


@pytest.mark.parametrize("name", SCRIPTS)
@settings(max_examples=8)
@given(order_seed=st.integers(0, 2**32 - 1))
def test_no_outcome_depends_on_the_order_of_same_time_world_events(name, order_seed):
    report = run_shuffled(script(name), order_seed, trace=False)
    assert_same_outcome(report_text(report), plain(name))


@pytest.mark.parametrize("name", TRACE_STABLE)
@settings(max_examples=8)
@given(order_seed=st.integers(0, 2**32 - 1))
def test_no_trace_line_depends_on_the_order_of_same_time_world_events(name, order_seed):
    # router-failover once ran a second refresh chain in about half of the
    # orders: its old router's refresh, due at the unit of the election, kept
    # going when it ran after the election.
    report = run_shuffled(script(name), order_seed)
    assert_same_outcome(report_text(report), plain(name, trace=True))


def test_some_order_seed_moves_a_trace_line_within_its_unit():
    # Without a reordered tie the tests above show nothing.
    want = run_scenario(script("routers-and-splits")).trace
    moved = [
        got
        for got in (run_shuffled(script("routers-and-splits"), order_seed).trace for order_seed in range(20))
        if got != want
    ]
    assert moved
    assert all([line[:8] for line in got] == [line[:8] for line in want] for got in moved)


@settings(max_examples=20)
@given(order_seed=st.integers(0, 2**32 - 1))
def test_an_ack_at_the_commit_deadline_does_not_count(order_seed):
    # The send draws the proposal's delay, then the ack's, on commit/0.
    send = script("deadline-tie").events[-1]
    there, back = RandomStream(DEFAULT_SEED, "commit/0").next_delays(2)
    deadline = send.at + send.params["timeout"]
    assert send.at + there + back == deadline
    report = run_shuffled(script("deadline-tie"), order_seed)
    assert [line for line in report.trace if "commit=0" in line] == [f"[{deadline:>6}] timer commit=0 type=commit-due"]
    assert report.passed, report_text(report)


# Two of 10.2.0.1's proposals to 10.2.0.2-5 can land at one unit. Acks that
# drew their delays as the proposals ran swapped them by tie order, and so which
# member missed a short deadline.
SAME_TIME_PROPOSALS = """\
at=0 event=download addr=10.2.0.1
at=1 event=download addr=10.2.0.2
at=2 event=download addr=10.2.0.3
at=3 event=download addr=10.2.0.4
at=4 event=download addr=10.2.0.5
at=100 event=send addr=10.2.0.1 key=k timeout={timeout}
"""


PROPOSAL_SEEDS = [7, 8, 32]
PROPOSAL_TIMEOUTS = [5, 7, 15]


def proposals(timeout: int):
    return parse_scenario(SAME_TIME_PROPOSALS.format(timeout=timeout), name="proposals")


@pytest.mark.parametrize("seed", PROPOSAL_SEEDS)
@pytest.mark.parametrize("timeout", PROPOSAL_TIMEOUTS)
def test_same_time_proposals_commit_alike_in_every_order(seed, timeout):
    script = proposals(timeout)
    committed = {
        action.render()
        for order_seed in range(20)
        for action in run_shuffled(script, order_seed, seed=seed, trace=False).actions
        if action.kind == "committed"
    }
    assert len(committed) == 1, committed


def test_some_same_time_proposal_case_lands_two_proposals_at_one_unit():
    # Without such a case the test above shows nothing. A send draws one
    # proposal delay per member, then one ack delay per member, in member
    # order. The case must also put the deadline between the two acks, so that
    # swapping their delays would change which member misses it.
    def tied(seed, timeout):
        *downloads, send = proposals(timeout).events
        k = len(downloads) - 1  # every instance but the proposer
        delays = RandomStream(seed, "commit/0").next_delays(2 * k)
        receipts = [(send.at + there, send.at + there + back) for there, back in zip(delays, delays[k:])]
        deadline = send.at + timeout
        return any(p == q and (a < deadline) != (b < deadline) for (p, a), (q, b) in combinations(receipts, 2))

    assert any(tied(seed, timeout) for seed in PROPOSAL_SEEDS for timeout in PROPOSAL_TIMEOUTS)


@settings(max_examples=20)
@given(order_seed=st.integers(0, 2**32 - 1))
def test_a_down_line_voids_the_beacon_due_at_its_unit(order_seed):
    report = run_shuffled(script("beacon-tie"), order_seed)
    at_51 = [line for line in report.trace if line.startswith("[    51]")]
    assert at_51[0] == "[    51] node-down target=10.4.0.1"
    expired = [a.render() for a in report.actions if a.kind == "beacon-expired"]
    assert expired == ["[    61] beacon-expired addr=10.4.0.1 neighborhood=0"]
    assert report.passed, report_text(report)

