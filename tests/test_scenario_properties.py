"""Property tests for the scenario parser: any line built from the grammar's
tokens either parses or raises ScenarioParseError naming its file and line,
a line that parses holds each value as its parameter table casts it and
echoes its tokens as written, and a script that parses runs or stops on a
ScenarioError, never on another exception."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from peermesh import scenario
from peermesh.scenario import (
    CheckResult,
    ScenarioError,
    ScenarioParseError,
    ScenarioScript,
    parse_scenario,
    run_scenario,
    schedule_line,
)
from peermesh.simcore import Engine

# Value pools mix good and bad values, so that lines both parse and fail.
AT = ["at=0", "at=5", "at=40", "at=-1", "at=abc"]
ADDR = ["addr=10.0.0.1", "addr=10.0.0.2", "addr=10.0.0.3", "addr=10.0.0.300"]
KEYS = [
    "from", "to", "key", "value", "scope", "timeout", "acks", "absent", "domain", "uptime",
    "capacity", "metric", "critical_mass", "excerpt_cap", "min_clients", "min_uptime",
    "beacon_period", "intro_timeout", "commit_timeout", "horizon", "warp",
]
VALUES = [
    "0", "1", "3", "60", "-1", "abc", "0.5", "1.5", "nan", "10.0.0.1", "10.0.0.2", "k", "global",
    "group:g",
]
pairs = st.builds("{}={}".format, st.sampled_from(KEYS), st.sampled_from(VALUES))
noise = st.sampled_from(["=", "at=", "=1", "oops", "addr=10.0.0.1", "event=up"])
extras = st.lists(st.one_of(pairs, pairs, noise), max_size=3)


def _line(*parts) -> str:
    return " ".join(p for part in parts for p in ([part] if isinstance(part, str) else part))


event_lines = st.builds(
    _line,
    st.sampled_from(AT + [""]),
    st.sampled_from([f"event={k}" for k in scenario._EVENT_PARAMS] + ["event=warp", ""]),
    st.sampled_from(ADDR + [""]),
    extras,
)
config_lines = st.builds(_line, st.just("config"), extras)
assert_lines = st.builds(
    _line,
    st.just("assert"),
    st.sampled_from([*scenario._CHECK_KINDS, "warp"]),
    st.sampled_from(AT + [""]),
    st.sampled_from(ADDR + [""]),
    extras,
)
scripts = st.lists(
    st.one_of(event_lines, event_lines, config_lines, assert_lines, st.just("assert")), max_size=8
)


def _parse(lines: list[str]) -> ScenarioScript | None:
    try:
        return parse_scenario("\n".join(lines), name="prop")
    except ScenarioParseError as exc:
        line = re.match(r"prop:(\d+): ", str(exc))
        assert line and 1 <= int(line.group(1)) <= len(lines), str(exc)
        return None


@settings(max_examples=300)
@given(scripts)
def test_parser_returns_a_script_or_a_located_parse_error(lines):
    script = _parse(lines)
    if script is None:
        return
    for ev in script.events:
        line = int(ev.where.removeprefix("prop:"))
        written = dict(tok.split("=", 1) for tok in lines[line - 1].split())
        del written["at"], written["event"], written["addr"]
        echo = _assert_cast_and_echo(ev, scenario._EVENT_PARAMS[ev.kind], written)
        sim = schedule_line(Engine(), ev)
        assert sim.at == ev.at and sim.payload is ev
        assert ev.trace() == f"target={ev.addr} {echo}".rstrip()
    for chk in script.checks:
        written = dict(tok.split("=", 1) for tok in lines[chk.line - 1].split()[2:])
        written.pop("at", None)
        when = "" if chk.at is None else f" at={chk.at}"
        echo = _assert_cast_and_echo(chk, scenario._CHECK_KINDS[chk.kind][1], written)
        assert CheckResult(chk, True, "").render() == f"L{chk.line} {chk.kind}{when} {echo}: PASS"


def _assert_cast_and_echo(record, typed, written: dict[str, str]) -> str:
    """Assert that record holds typed's cast of each written value and echoes
    the written pairs sorted by key; return that echo."""
    assert record.params == {k: typed[k][0](v) for k, v in written.items()}
    echo = " ".join(f"{k}={v}" for k, v in sorted(written.items()))
    assert record.echo == echo
    return echo


# Well-formed scripts: four downloads, then churn, commits and splits among
# those instances, so that most runs meet joins, failover and commit timeouts.
INSTANCES = ["addr=10.0.0.1", "addr=10.0.0.2", "addr=10.0.0.3", "addr=10.0.0.9"]


def _options(choices: list[str], max_size: int):
    """Up to max_size of choices, each key at most once."""
    return st.lists(
        st.sampled_from(choices), max_size=max_size, unique_by=lambda pair: pair.split("=")[0]
    )


download_params = _options(["uptime=0.5", "uptime=0.95", "capacity=200000", "metric=3"], 2)
later_params = {
    "up": st.just([]),
    "down": st.just([]),
    "send": _options(["timeout=1", "timeout=30", "scope=global"], 1).map(lambda ps: ["key=k", *ps]),
    "subdivide": _options(["critical_mass=1", "critical_mass=2"], 1),
}
later_events = st.sampled_from(sorted(later_params)).flatmap(
    lambda kind: st.builds(
        _line,
        st.integers(5, 60).map("at={}".format),
        st.just(f"event={kind}"),
        st.sampled_from(INSTANCES),
        later_params[kind],
    )
)
good_config = _options(
    ["min_clients=1", "min_clients=2", "critical_mass=2", "critical_mass=3", "beacon_period=5",
     "intro_timeout=20", "horizon=200"],
    3,
).map(lambda ps: _line("config", ps))
good_scripts = st.builds(
    lambda config, first, later: [config, *first, *later],
    good_config,
    st.tuples(
        *(
            download_params.map(lambda ps, i=i, a=a: _line(f"at={i}", "event=download", a, ps))
            for i, a in enumerate(INSTANCES)
        )
    ),
    st.lists(later_events, max_size=8),
)


@settings(max_examples=300)
@given(good_scripts)
def test_parsed_scripts_run_or_stop_on_a_scenario_error(lines):
    script = _parse(lines)
    if script is None:
        return
    try:
        run_scenario(script)
    except ScenarioError:
        pass

