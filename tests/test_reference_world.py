"""The world agrees with the reference world on every script it is given.

reference_world.run_reference replays a script by the docstring's rules, unit
by unit. run_scenario must give the same check verdicts and the same multiset
of action lines, or stop on the same scenario error: on every golden and
bundled script, on named edge cases, and on drawn scripts of up to eight
instances with churn, sends and subdivisions under a drawn config.
"""

import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from outcomes import verdicts_and_actions
from reference_world import run_reference
from test_scenario import ABSENT_THEN_BACK, SPLIT_AFTER_SEND
from test_world_properties import RECEIPT_EDGES

from peermesh.scenario import ScenarioError, load_scenario, parse_scenario, run_scenario

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "tests" / "golden").glob("*.scenario")) + sorted(
    (ROOT / "src" / "peermesh" / "scenarios").glob("*.scenario")
)


def outcome(run, script, seed):
    """What run gives for script: its verdicts and sorted action lines, or the scenario error that stopped it."""
    try:
        verdicts, lines = run(script, seed)
    except ScenarioError as exc:
        return str(exc)
    return verdicts, sorted(lines)


def world(script, seed):
    return verdicts_and_actions(run_scenario(script, seed=seed, trace=False))


def assert_agree(script, seed):
    assert outcome(world, script, seed) == outcome(run_reference, script, seed)


@pytest.mark.parametrize("seed", [7919, 7])
@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_the_world_agrees_with_the_reference_on_every_shipped_script(path, seed):
    assert_agree(load_scenario(path), seed)


# 10.6.0.27 takes over from 10.6.0.20 at 47, and 10.6.0.22 is a stray in its
# span from 72, mapped by its refresh tick at 73.
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


# 10.12.0.8 is a stray from 3, its one probe target down; router 10.12.0.1's
# tick at 6 maps it, metric and all. 10.12.0.2 joins at 10 and queues an
# introduction to the down 10.12.0.9, timed from the median of all four
# members' metrics, 20: one without the stray's 60 would read 0.
MAPPED_METRIC = """
config min_clients=0 excerpt_cap=1 beacon_period=10 refresh_period=5
at=0 event=download addr=10.12.0.1 uptime=1.0 metric=0
at=1 event=download addr=10.12.0.9 uptime=0.5 metric=40
at=2 event=down addr=10.12.0.9
at=3 event=download addr=10.12.0.8 uptime=0.5 metric=60
at=10 event=download addr=10.12.0.2 uptime=0.5 metric=0
assert member at=7 addr=10.12.0.8
"""


@st.composite
def churn_scripts(draw):
    """Three to eight instances download on a narrow, uneven address range,
    each with a drawn uptime and metric; the first has the top uptime, so it
    routes whenever it is online. After each download come up to three steps
    0-12 units apart, each on an instance so far: a down, an up, a flap of the
    first instance (down, then up 0-12 units later), a send with a timeout of
    1-30, so that downs and ups land on its proposals and acks, or a
    subdivision. A send from an instance the script has taken down is left
    out; one from an unmapped instance, or a subdivision through one, is a
    scenario error. The config draws every world parameter, and the horizon
    falls 60 units past the last line, at 300 at most. Each instance gets a
    drawn check, and each send a committed check."""
    addrs = [f"10.11.0.{k}" for k in draw(st.lists(st.integers(1, 40), min_size=3, max_size=8, unique=True))]
    config = (
        f"config min_clients={draw(st.integers(0, 3))} excerpt_cap={draw(st.sampled_from([1, 1, 2, 3]))}"
        f" beacon_period={draw(st.integers(1, 12))} refresh_period={draw(st.integers(1, 16))}"
        + draw(st.sampled_from(["", " critical_mass=2", " critical_mass=3", " critical_mass=5"]))
        + draw(st.sampled_from(["", "", " intro_timeout=0", " intro_timeout=20"]))
    )
    flaps, churn = ["down", "up", "flap"], ["down", "up", "flap", "send", "send", "subdivide"]
    lines, checks, at, sends = [], [], 0, 0
    back = {}  # an instance the script took down -> when it is up again
    for i, addr in enumerate(addrs):
        at += draw(st.integers(0, 8))
        uptime = "1.0" if i == 0 else draw(st.sampled_from(["0.5", "0.95"]))
        lines.append(f"at={at} event=download addr={addr} uptime={uptime} metric={draw(st.integers(0, 60))}")
        step = st.tuples(st.integers(0, 12), st.sampled_from(churn if i else flaps), st.integers(0, 7))
        for gap, kind, k in draw(st.lists(step, max_size=3)):
            at += gap
            target = addrs[0] if kind in ("send", "subdivide") and k % 2 == 0 else addrs[k % (i + 1)]
            if kind == "send":
                if at >= back.get(target, 0):
                    sends += 1
                    lines.append(f"at={at} event=send addr={target} key=k{sends} timeout={draw(st.integers(1, 30))}")
            elif kind == "subdivide":
                lines.append(f"at={at} event=subdivide addr={target} critical_mass={draw(st.integers(1, 3))}")
            elif kind == "flap":  # the later downloads and steps may fall while it is down
                back[addrs[0]] = at + draw(st.integers(0, 24))
                lines += [f"at={at} event=down addr={addrs[0]}", f"at={back[addrs[0]]} event=up addr={addrs[0]}"]
            else:
                back[target] = math.inf if kind == "down" else at
                lines.append(f"at={at} event={kind} addr={target}")
        check = draw(st.sampled_from(["member", "isolated", "router", "no-router", "introduced", "connected"]))
        when = draw(st.sampled_from(["", f" at={at}"]))
        if check in ("introduced", "connected"):
            checks.append(f"assert {check}{when} from={addr} to={addrs[draw(st.integers(0, i))]}")
        else:
            checks.append(f"assert {check}{when} addr={addr}")
    checks += [f"assert committed key=k{k}" for k in range(1, sends + 1)]
    return "\n".join([f"{config} horizon={min(at + 60, 300)}", *lines, *checks])


@settings(max_examples=300)
@given(text=churn_scripts(), seed=st.integers(0, 7))
@example(text=RECEIPT_EDGES, seed=7919)
@example(text=WITHIN_UNIT, seed=7)
@example(text=FLAP_AND_TICK, seed=7919)
@example(text=ABSENT_THEN_BACK, seed=7)
@example(text=SPLIT_AFTER_SEND, seed=7)
@example(text=MAPPED_METRIC, seed=7919)
def test_the_world_agrees_with_the_reference_under_churn(text, seed):
    assert_agree(parse_scenario(text, name="churn"), seed)
