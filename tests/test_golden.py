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

The benchmark's two worlds are too large for a golden file, so BENCH_WORLDS
pins the SHA-256 of the script bench/gen.py generates for each at seed 701
and of its report, traced and --quiet: a failure says whether the input or
the output moved. After a deliberate change, replace the digests that the
failure prints and say so in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest
from test_tie_order import _gen

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


# bench/gen.py's worlds at seed 701: name -> (script, traced report, --quiet report) SHA-256.
BENCH_WORLDS = {
    "world-flat": (
        "fe03ff878a849d12f4e20fc67f09a7a7819bd30de8a62e284ebf51ea4ce1974e",
        "a28f604660d41b7ab1e8ef8a2c9e7ec3f8675c92ac10b36adc85250601a00a60",
        "450afbaa82c022ed6aa1054a522d1c7a65fd249fab854a0d08e2dc86ade3a8c0",
    ),
    "world-split": (
        "285397277fb02b5e4aa002c4beaf7f8f38da5b69f50d05bb8545de6d05eb5bff",
        "8bfee80843c3393eaba400eff2197b62d6c0fa4f0d7b9e7c937961a28dbda3d0",
        "267c5ed7aa29b730bcb21caefec86334f4124f88657c3cbc1fdd44c9db5b9ea8",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", BENCH_WORLDS)
def test_a_bench_world_replays_to_its_pinned_reports(capsys, tmp_path, name):
    script_digest, traced_digest, quiet_digest = BENCH_WORLDS[name]
    gen = _gen()
    text = gen.world_script(701, **{"world-flat": gen.WORLD_FLAT, "world-split": gen.WORLD_SPLIT}[name]).text
    assert _sha256(text) == script_digest, f"bench/gen.py now generates another {name} script"
    path = tmp_path / f"{name}.scenario"  # the name the bench gives it, which the report's first line shows
    path.write_text(text)
    for flags, want in (([], traced_digest), (["--quiet"], quiet_digest)):
        assert cli.main(["scenario", "run", str(path), "--seed", "701", *flags]) == 0
        got = _sha256(capsys.readouterr().out)
        assert got == want, f"{name} {' '.join(flags) or 'traced'} report moved: its digest is now {got}"
