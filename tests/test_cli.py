import argparse
import io
import os
import subprocess
import sys

import pytest

from peermesh import cli, queueing, timing
from peermesh.scenario import ScenarioError, ScenarioParseError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- timing -----------------------------------------------------------------


def test_sweep_csv_shape(capsys):
    code, out, err = run_cli(capsys, "timing", "sweep", "--total", "256", "--trials", "30")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "rows,columns,t_c,t_cl,t_c_prime,T_u"
    assert len(lines) == 1 + len(timing.default_factor_pairs(256))
    first = lines[1].split(",")
    assert first[0] == "64" and first[1] == "4"
    float(first[5])  # numeric payload


def test_sweep_pretty_and_plot_data(capsys):
    code, out, _ = run_cli(
        capsys, "timing", "sweep", "--total", "256", "--trials", "20", "--format", "pretty"
    )
    assert code == 0
    assert out.splitlines()[0].split() == ["shape", "t_c", "t_cl", "t_c_prime", "T_u"]
    code, out, _ = run_cli(
        capsys, "timing", "sweep", "--total", "256", "--trials", "20", "--format", "plot-data"
    )
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert [r[0] for r in rows] == ["64", "32", "16", "8", "4"]


def test_tables_writes_files(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "timing", "tables", "--trials", "10", "--out", str(tmp_path)
    )
    assert code == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["table_1024.csv", "table_2048.csv", "table_256.csv", "table_512.csv"]
    for p in tmp_path.iterdir():
        assert p.read_text().splitlines()[0] == "rows,columns,t_c,t_cl,t_c_prime,T_u"
    assert len(out.strip().splitlines()) == 4  # one path per file


def test_tables_stdout_blocks(capsys):
    code, out, _ = run_cli(capsys, "timing", "tables", "--trials", "10")
    assert code == 0
    for total in (256, 512, 1024, 2048):
        assert f"# total={total}" in out


def test_optimum_formats(capsys):
    code, out, _ = run_cli(
        capsys, "timing", "optimum", "--total", "512", "--trials", "25", "--format", "plot-data"
    )
    assert code == 0
    total, ms = out.split()
    assert total == "512"
    assert float(ms) > 0
    code, out, _ = run_cli(
        capsys, "timing", "optimum", "--total", "512", "--trials", "25", "--format", "csv"
    )
    fields = out.strip().split(",")
    assert fields[0] == "512" and len(fields) == 5
    assert 0.0 < float(fields[3]) < 1.0  # rows/columns ratio


def test_curve_csv_header(capsys):
    code, out, _ = run_cli(capsys, "timing", "figure9", "--trials", "15")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "total_hops,T_u_ms"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [256, 512, 1024, 2048]


# -- mm1 ----------------------------------------------------------------------


def test_mm1_worked_example(capsys):
    code, out, err = run_cli(capsys, "mm1", "--g", "2", "--l", "8000", "--b", "16000")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "arrival_rate_per_s 0.500000",
        "service_time_s 0.500000",
        "departure_rate_per_s 2.000000",
        "utilization 0.250000",
        "wait_time_s 0.166667",
        "residence_time_s 0.666667",
        "mean_in_system 0.333333",
        "mean_in_queue 0.083333",
    ]


def test_mm1_state_probabilities(capsys):
    code, out, _ = run_cli(
        capsys, "mm1", "--g", "2", "--l", "8000", "--b", "16000", "--p-max", "2"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-3:] == ["p_0 0.750000000", "p_1 0.187500000", "p_2 0.046875000"]


def test_mm1_unstable_exit_code(capsys):
    code, out, err = run_cli(capsys, "mm1", "--g", "0.5", "--l", "8000", "--b", "8000")
    assert code == 2 and out == ""
    assert err.startswith("unstable:")


def test_mm1_underdetermined_inputs(capsys):
    code, _, err = run_cli(capsys, "mm1", "--g", "2")
    assert code == 2
    assert err.startswith("error:")


def test_broadcast_load(capsys):
    code, out, _ = run_cli(
        capsys, "mm1", "--broadcast", "--clients", "256", "--bytes", "64"
    )
    assert code == 0
    assert out == "broadcast_bps 130560.000000\n"


def test_broadcast_missing_flags(capsys):
    code, _, err = run_cli(capsys, "mm1", "--broadcast", "--clients", "256")
    assert code == 2
    assert "--bytes" in err


# -- scenario ---------------------------------------------------------------


def test_scenario_list_names(capsys):
    code, out, _ = run_cli(capsys, "scenario", "list")
    assert code == 0
    assert out.splitlines() == ["commit-timeout", "router-failover", "startup"]


def test_scenario_run_bundled_by_name(capsys):
    code, out, _ = run_cli(capsys, "scenario", "run", "startup", "--quiet")
    assert code == 0
    assert "-- result: PASS" in out


def test_scenario_run_missing_file(capsys):
    code, _, err = run_cli(capsys, "scenario", "run", "no-such-thing")
    assert code == 2
    assert "no such scenario" in err


def test_scenario_run_reports_failures(capsys, tmp_path):
    p = tmp_path / "fail.scenario"
    p.write_text("at=0 event=download addr=10.0.0.1\nassert member addr=10.0.0.1\n")
    code, out, _ = run_cli(capsys, "scenario", "run", str(p), "--quiet")
    assert code == 1
    assert "FAIL" in out


def test_scenario_run_parse_error(capsys, tmp_path):
    p = tmp_path / "bad.scenario"
    p.write_text("at=0 event=download addr=10.0.0.1\nat=1 event=warp addr=10.0.0.2\n")
    code, _, err = run_cli(capsys, "scenario", "run", str(p))
    assert code == 2
    assert "bad.scenario:2" in err


def test_scenario_run_rejects_a_file_that_is_not_utf8(capsys, tmp_path):
    p = tmp_path / "bad.scenario"
    p.write_bytes(b"at=0 event=download addr=10.0.0.1 domain=\xff\xfe\n")
    code, out, err = run_cli(capsys, "scenario", "run", str(p))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "bad.scenario" in err and "UTF-8" in err


@pytest.mark.parametrize(
    "script,argv",
    [
        ("at=0 event=down addr=10.0.0.9\n", ()),
        ("at=0 event=up addr=10.0.0.9\n", ()),
        ("at=0 event=download addr=10.0.0.1\nat=1 event=send addr=10.0.0.1\n", ()),
        ("at=0 event=download addr=10.0.0.1\nat=1 event=send addr=10.0.0.1 key=k timeout=0\n", ()),
        ("at=0 event=download addr=10.0.0.1\nassert connected at=abc\n", ()),
        ("config horizon=abc\n", ()),
        ("assert router\n", ()),
        (None, ("timing", "sweep", "--total", "100")),
        (None, ("timing", "sweep", "--total", "256", "--trials", "0")),
        (None, ("timing", "optimum", "--total", "100")),
        (None, ("timing", "tables", "--trials", "1", "--out", "taken")),
        (None, ("mm1", "--broadcast", "--clients", "-5", "--bytes", "64")),
        (None, ("mm1", "--g", "2", "--l", "8000", "--b", "16000", "--p-max", "-3")),
        ("at=0 event=download addr=10.0.0.1\nat=3 event=download addr=10.0.0.1\n", ()),
        ("at=0 event=download addr=10.0.0.1\nconfig horizon=-1\n", ()),
        ("at=0 event=download addr=10.0.0.1\nconfig min_clients=-1\n", ()),
        ("at=0 event=download addr=10.0.0.1\nat=10 event=send addr=10.0.0.1 key=k timout=5\n", ()),
        ("at=0 event=download addr=10.0.0.1\nassert connected frm=10.0.0.2 to=10.0.0.1\n", ()),
        ("at=0 event=download addr=10.0.0.1\nassert connected from=10.0.0.300\n", ()),
        ("at=0 event=download addr=10.0.0.1\nassert committed key=k acks=two\n", ()),
        ("at=0 event=download addr=10.0.0.1\nassert committed key=k absent=10.0.0.1;x\n", ()),
        # past the caps, rejected before any draw is allocated
        (None, ("timing", "sweep", "--total", "1099511627776", "--trials", "1")),
        (None, ("timing", "sweep", "--total", "256", "--trials", "100000000")),
        # non-finite numbers, or a service time that comes out as 0
        ("at=0 event=download addr=10.0.0.1 metric=inf\n", ()),
        (None, ("mm1", "--g", "1", "--l", "8000", "--b", "inf")),
        (None, ("mm1", "--g", "1", "--l", "1e-320", "--b", "1e10")),
        (None, ("mm1", "--g", "nan", "--s", "0.1")),
        (None, ("mm1", "--broadcast", "--clients", "5", "--bytes", "64", "--interval", "nan")),
        (None, ("mm1", "--broadcast", "--clients", "1" + "0" * 400, "--bytes", "64")),
        # --out names .csv files, so it takes no other format
        (None, ("timing", "tables", "--trials", "1", "--out", "tables", "--format", "pretty")),
        (None, ("scenario", "run", ".")),  # a directory: load_scenario's OSError
        (None, ("mm1", "--broadcast", "--clients", "256")),
        # argparse's own rejections
        (None, ("timing", "sweep", "--total", "256", "--seed", "abc")),
        (None, ("timing", "tables", "--trials", "abc")),
        (None, ("timing", "sweep")),
        (None, ("scenario",)),
    ],
)
def test_rejected_input_exits_2_with_one_line(capsys, tmp_path, monkeypatch, script, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").touch()
    if script is not None:
        (tmp_path / "bad.scenario").write_text(script)
        argv = ("scenario", "run", "bad.scenario")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    if script is not None:
        # the rejected line, by the parser or by the world, names itself
        assert f"bad.scenario:{len(script.splitlines())}:" in err
    assert not (tmp_path / "tables").exists()  # rejected before --out made a directory


# Scripts that parse but that the world rejects as they run, by the one line
# each prints after "scenario error: ".
WORLD_REJECTIONS = {
    "twice.scenario:2: 10.9.0.1 downloaded twice": (
        "at=0 event=download addr=10.9.0.1\nat=5 event=download addr=10.9.0.1\n"
    ),
    "up.scenario:2: up for unknown instance 10.9.0.2": (
        "at=0 event=download addr=10.9.0.1\nat=5 event=up addr=10.9.0.2\n"
    ),
    "down.scenario:1: down for unknown instance 10.9.0.2": "at=0 event=down addr=10.9.0.2\n",
    "offline.scenario:4: send from unavailable instance 10.9.0.1": (
        "at=0 event=download addr=10.9.0.1\nat=1 event=download addr=10.9.0.2\n"
        "at=5 event=down addr=10.9.0.1\nat=10 event=send addr=10.9.0.1 key=k\n"
    ),
    "unmapped.scenario:2: send from unmapped instance 10.9.0.1": (
        "at=0 event=download addr=10.9.0.1\nat=5 event=send addr=10.9.0.1 key=k\n"
    ),
    "subunmapped.scenario:2: subdivide via unmapped instance 10.9.0.1": (
        "at=0 event=download addr=10.9.0.1\nat=5 event=subdivide addr=10.9.0.1\n"
    ),
    "subcm.scenario:3: subdivide needs critical_mass (param or config)": (
        "at=0 event=download addr=10.9.0.1\nat=1 event=download addr=10.9.0.2\n"
        "at=5 event=subdivide addr=10.9.0.1\n"
    ),
}


@pytest.mark.parametrize("message", WORLD_REJECTIONS)
def test_a_line_the_world_rejects_names_its_file_and_line(capsys, tmp_path, monkeypatch, message):
    name = message.split(":")[0]
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(WORLD_REJECTIONS[message])
    assert run_cli(capsys, "scenario", "run", name) == (2, "", f"scenario error: {message}\n")


@pytest.mark.parametrize(
    "exc,prefix",
    [
        (queueing.UnstableSystemError("utilization 2 >= 1"), "unstable"),
        (ScenarioParseError("bad.scenario:3: unknown event 'warp'"), "parse error"),
        (ScenarioError("bad.scenario:1: down for unknown instance 10.0.0.9"), "scenario error"),
        (IsADirectoryError(21, "Is a directory"), "error"),
        (ValueError("total_hops must be a power of two"), "error"),
    ],
)
def test_main_turns_each_rejection_into_one_prefixed_line(capsys, monkeypatch, exc, prefix):
    def reject(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_mm1", reject)
    assert run_cli(capsys, "mm1") == (2, "", f"{prefix}: {exc}\n")


def test_a_handler_raising_broken_pipe_exits_141(capsys, monkeypatch, tmp_path):
    def reject(args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "_cmd_mm1", reject)
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd, fail_on="never"))
        assert cli.main(["mm1"]) == 141
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(7919 + 2**64)])
@pytest.mark.parametrize(
    "argv", [("timing", "sweep", "--total", "256", "--trials", "5"), ("scenario", "run", "startup")]
)
def test_a_seed_outside_64_bits_is_a_usage_error(capsys, argv, seed):
    # derive_seed would reject it too, but a world draws its first stream mid-run
    code, out, err = run_cli(capsys, *argv, "--seed", seed)
    assert code == 2
    assert out == ""
    assert err == f"usage error: argument --seed: invalid seed value: '{seed}'\n"


def test_every_leaf_subcommand_has_a_handler():
    def leaves(parser, path):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield path, parser
        for action in subs:
            for name, child in action.choices.items():
                yield from leaves(child, (*path, name))

    found = dict(leaves(cli.build_parser(), ()))
    assert ("timing", "tables") in found and ("scenario", "list") in found
    for path, parser in found.items():
        assert callable(parser.get_default("run")), path


# -- determinism --------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["timing", "sweep", "--total", "256", "--trials", "40"],
        ["timing", "sweep", "--total", "512", "--trials", "25", "--mode", "equation_literal"],
        ["timing", "optimum", "--total", "512", "--trials", "25"],
        ["timing", "figure9", "--trials", "15"],
        ["timing", "tables", "--trials", "10"],
        ["mm1", "--g", "2", "--l", "8000", "--b", "16000", "--p-max", "5"],
        ["scenario", "run", "startup"],
        ["scenario", "run", "commit-timeout", "--seed", "7"],
    ],
)
def test_reruns_are_byte_identical(capsys, argv):
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_seed_changes_randomized_output(capsys):
    _, out_a, _ = run_cli(capsys, "timing", "sweep", "--total", "256", "--trials", "30")
    _, out_b, _ = run_cli(
        capsys, "timing", "sweep", "--total", "256", "--trials", "30", "--seed", "9"
    )
    assert out_a != out_b


# -- closed stdout ------------------------------------------------------------


class ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: writing (or, with fail_on="flush",
    only flushing) raises BrokenPipeError. fileno() is a file the test owns."""

    def __init__(self, fd: int, fail_on: str):
        self.fd = fd
        self.fail_on = fail_on

    def write(self, text):
        if self.fail_on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        if self.fail_on == "flush":
            raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("fail_on", ["write", "flush"])
@pytest.mark.parametrize(
    "argv",
    [
        ["timing", "sweep", "--total", "256", "--trials", "2"],
        ["timing", "tables", "--trials", "2"],
        ["mm1", "--g", "2", "--l", "8000", "--b", "16000"],
        ["scenario", "run", "startup"],
        ["scenario", "list"],
    ],
)
def test_closed_stdout_exits_141_quietly_and_points_stdout_at_devnull(
    capsys, monkeypatch, tmp_path, argv, fail_on
):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd, fail_on))
        assert cli.main(argv) == 141
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


def write_many(tmp_path):
    """A script whose report is about four 64 KiB blocks: each of its 1 200
    sends puts its line and one or two commit timers in the trace, and a
    proposed and a committed action in the log."""
    script = tmp_path / "many.scenario"
    script.write_text(
        "".join(f"at={i} event=download addr=10.0.0.{i + 1} domain=alpha\n" for i in range(40))
        + "".join(f"at={100 + 10 * i} event=send addr=10.0.0.1 key=k{i}\n" for i in range(1200))
    )
    return script


def test_unbuffered_report_to_a_reader_that_closes_early_exits_141(tmp_path):
    # Unbuffered, stdout is a raw file: once the reader goes, the report's
    # write returns short instead of raising, so the rest must be written.
    script = write_many(tmp_path)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONUNBUFFERED": "1", "PYTHONPATH": src}
    with subprocess.Popen(
        [sys.executable, "-m", "peermesh.cli", "scenario", "run", str(script)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.read(10) == b"scenario m"  # the report is far larger than a pipe holds
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""


class CountingRaw(io.RawIOBase):
    """A raw stdout that takes every write in full and keeps the size of each."""

    def __init__(self):
        self.sizes = []
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, data):
        self.sizes.append(len(data))
        self.data += data
        return len(data)


def test_an_unbuffered_report_is_written_in_blocks_not_lines(monkeypatch, tmp_path):
    # Unbuffered, each write to a raw stdout is a syscall of its own.
    script = write_many(tmp_path)
    raw = CountingRaw()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="ascii", write_through=True))
    assert cli.main(["scenario", "run", str(script)]) == 0
    text = raw.data.decode("ascii")
    block = 1 << 16  # about 64 KiB at a time
    assert len(text) > 3 * block
    assert len(raw.sizes) <= len(text) // block + 3
    assert max(raw.sizes) <= block + max(len(line) + 1 for line in text.splitlines())
