"""Scenario output matches the files under tests/golden byte for byte.

Each bundled scenario prints exactly what tests/golden/<name>.out holds, and
each tests/golden/<name>.scenario prints exactly what the .out beside it
holds; a new golden needs only those two files. Acceptance 09 checks that a
rerun matches within one version; these files pin the output across
versions. After a deliberate change to the output, regenerate them with
`peermesh scenario run <name or file> > tests/golden/<name>.out` and say so
in CHANGES.md.
"""

from pathlib import Path

import pytest

from peermesh import cli

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["startup", "router-failover", "commit-timeout"])
def test_bundled_scenario_output_matches_golden(capsys, name):
    assert cli.main(["scenario", "run", name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("script", sorted(GOLDEN.glob("*.scenario")), ids=lambda p: p.stem)
def test_golden_script_output_matches(capsys, script):
    assert cli.main(["scenario", "run", str(script)]) == 0
    assert capsys.readouterr().out.encode() == script.with_suffix(".out").read_bytes()
