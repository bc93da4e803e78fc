"""Every public module-level name in the package has a caller outside tests.

A public function, class or constant of src/peermesh/*.py must be named in
src/ or bench/ by some top-level statement other than the one that defines
it. The package's __init__.py is not read, so a re-export there never counts
as a use: callers import each name from its module. What the command line
and the sync round import is checked in a fresh interpreter.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "peermesh"


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _named(stmt: ast.stmt) -> set[str]:
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_every_public_name_has_a_caller_outside_tests():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    files = modules + sorted((ROOT / "bench").glob("*.py"))
    statements = [(path, stmt) for path in files for stmt in ast.parse(path.read_text()).body]
    uses = [(path, stmt.lineno, _named(stmt)) for path, stmt in statements]
    public = [
        (path, stmt.lineno, name)
        for path, stmt in statements
        if path.parent == PACKAGE
        for name in _defined(stmt)
        if not name.startswith("_")
    ]
    unused = [
        f"{path.stem}.{name}"
        for path, line, name in public
        if not any(name in named for p, n, named in uses if (p, n) != (path, line))
    ]
    assert unused == []


def test_sync_and_topology_import_nothing_else():
    # The sync round needs neither numpy nor the simulator's other modules;
    # a fresh interpreter shows what importing the two really loads.
    code = (
        "import json, sys; import peermesh.sync, peermesh.topology; "
        "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] in ('numpy', 'peermesh'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT / "src", check=True
    )
    assert json.loads(done.stdout) == ["peermesh", "peermesh.sync", "peermesh.topology"]


def test_scenario_run_and_mm1_load_no_numpy():
    # Only timing's Monte Carlo needs numpy; a world replay draws its own hop
    # delays, and queue sizing is arithmetic.
    code = (
        "import contextlib, io, json, sys; from peermesh import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['scenario', 'run', 'startup']), cli.main(['mm1', '--g', '2', '--l', '8000', '--b', '16000'])]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy')]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT / "src", check=True
    )
    assert json.loads(done.stdout) == [[0, 0], []]


def test_cli_and_timing_import_no_numpy():
    # timing loads numpy, and builds its table of digit sums, at the first
    # draw: importing it, as the command line does, loads none.
    code = (
        "import json, sys; import peermesh.cli, peermesh.timing; "
        "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT / "src", check=True
    )
    assert json.loads(done.stdout) == []
