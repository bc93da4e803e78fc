"""Scenario and timing output matches the files under tests/golden byte for byte.

Each bundled scenario prints exactly what tests/golden/<name>.out holds, and
each tests/golden/<name>.scenario prints exactly what the .out beside it
holds; a new golden needs only those two files. With --quiet, each prints
its .out without the trace block. `timing tables --trials 200 --seed 7919`
prints tests/golden/timing-tables.out, which pins the Monte Carlo draws.
Acceptance 09 checks that a rerun matches within one version; these files
pin the output across versions. After a deliberate change to the output,
regenerate them with `peermesh scenario run <name or file> >
tests/golden/<name>.out` (or the timing command above) and say so in
CHANGES.md.
"""

from pathlib import Path

import pytest

from peermesh import cli, scenario

GOLDEN = Path(__file__).parent / "golden"
BUNDLED_DIR = Path(__file__).resolve().parent.parent / "src" / "peermesh" / "scenarios"


BUNDLED = ["startup", "router-failover", "commit-timeout"]
SCRIPTS = sorted(GOLDEN.glob("*.scenario"))


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenario_output_matches_golden(capsys, name):
    assert cli.main(["scenario", "run", name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_golden_script_output_matches(capsys, script):
    assert cli.main(["scenario", "run", str(script)]) == 0
    assert capsys.readouterr().out.encode() == script.with_suffix(".out").read_bytes()


def _without_trace(text: str) -> str:
    head, _, rest = text.partition("-- trace: ")
    return head + rest[rest.index("-- actions: "):]


@pytest.mark.parametrize(
    "target,golden",
    [(name, GOLDEN / f"{name}.out") for name in BUNDLED]
    + [(str(p), p.with_suffix(".out")) for p in SCRIPTS],
    ids=BUNDLED + [p.stem for p in SCRIPTS],
)
def test_quiet_output_is_the_golden_without_its_trace(capsys, target, golden):
    assert cli.main(["scenario", "run", target, "--quiet"]) == 0
    assert capsys.readouterr().out == _without_trace(golden.read_text())


@pytest.mark.parametrize(
    "path,golden",
    [(BUNDLED_DIR / f"{name}.scenario", GOLDEN / f"{name}.out") for name in BUNDLED]
    + [(p, p.with_suffix(".out")) for p in SCRIPTS],
    ids=BUNDLED + [p.stem for p in SCRIPTS],
)
def test_each_action_renders_as_its_line_in_the_report(path, golden):
    report = scenario.run_scenario(scenario.load_scenario(path), trace=False)
    text = golden.read_text()
    section = text[text.index("-- actions: ") : text.index("-- checks: ")].splitlines()[1:]
    assert [a.render() for a in report.actions] == section


def test_a_bundled_name_is_not_shadowed_by_a_local_path(capsys, monkeypatch, tmp_path):
    (tmp_path / "startup").mkdir()
    monkeypatch.chdir(tmp_path)
    assert cli.main(["scenario", "run", "startup", "--quiet"]) == 0
    assert capsys.readouterr().out == _without_trace((GOLDEN / "startup.out").read_text())


def test_quiet_run_renders_no_trace_line(capsys, monkeypatch):
    def refuse(record):
        raise AssertionError(f"trace line rendered under --quiet: {record}")

    # Every engine event's record renders its trace body through its trace().
    for record_type in {scenario.ScriptEvent, *(k for k in scenario.World._ON if isinstance(k, type))}:
        monkeypatch.setattr(record_type, "trace", refuse)
    script = GOLDEN / "routers-and-splits.scenario"
    assert cli.main(["scenario", "run", str(script), "--quiet"]) == 0
    assert capsys.readouterr().out == _without_trace(script.with_suffix(".out").read_text())


def test_timing_tables_output_matches_golden(capsys):
    assert cli.main(["timing", "tables", "--trials", "200", "--seed", "7919"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "timing-tables.out").read_bytes()
