"""The bundled scenarios print exactly what tests/golden/<name>.out holds.

Acceptance 09 checks that a rerun matches within one version; these files pin
the output across versions. After a deliberate change to the output,
regenerate them with `peermesh scenario run <name> > tests/golden/<name>.out`
and say so in CHANGES.md.
"""

from pathlib import Path

import pytest

from peermesh import cli

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["startup", "router-failover", "commit-timeout"])
def test_bundled_scenario_output_matches_golden(capsys, name):
    assert cli.main(["scenario", "run", name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.out").read_bytes()
