"""Exit-code contract of the ``nda`` command line, driven through cli.main(argv)."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nda import cli, series
from nda.arith import Arithmetic


@pytest.fixture(autouse=True)
def _default_format(monkeypatch):
    monkeypatch.delenv("NDA_FORMAT", raising=False)


@pytest.mark.parametrize("argv", [
    ["laws", "projective:id@int:0:10", "-R", "-1"],
    ["laws", "projective:id@int:0:10", "-R", "50"],
    ["laws", "projective:id@int:0:100000", "--check", "assoc-add", "-R", "100000"],
    ["series", "sum", "projective:id@int:0:10", "const:1", "-n", "0"],
    ["series", "practical", "powfact:1000", "-K", "10"],
], ids=["laws-R-negative", "laws-R-beyond-carrier", "laws-oversize-scan", "series-sum-n-0", "series-practical-K-10"])
def test_out_of_range_arguments_are_usage_errors(argv, monkeypatch, capsys):
    def no_table(*args):
        raise AssertionError("an op table was built for a refused scan")

    monkeypatch.setattr(Arithmetic, "index_table", no_table)  # a refused op table is never allocated
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_overlong_fold_refused_before_any_term(monkeypatch, capsys):
    def no_term(*args):
        raise AssertionError("a term was folded for a refused sum")

    monkeypatch.setattr(series.SequenceSpec, "term", no_term)
    assert cli.main(["series", "sum", "projective:id@int:0:10", "const:1", "-n", "100000000"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("spec", ["id@grid:0:1:nan", "id@grid:0:inf:1", "id@grid:0:1:1e-300"],
                         ids=["grid-nan-step", "grid-inf-max", "grid-too-many-points"])
def test_unusable_carriers_are_rejected_before_bind(spec, monkeypatch, capsys):
    def no_bind(*args):
        raise AssertionError("f was bound on a rejected carrier")

    monkeypatch.setattr("nda.funcparam.validate", no_bind)
    assert cli.main(["validate", spec]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("validation error: ")
    assert "Traceback" not in captured.err


def test_scan_past_the_table_bound_runs_on_distinct_operands(capsys):
    # assoc-mul's outer mul needs mul(100, 100) = 10000, a table of 10^8 cells;
    # the scan of 101^3 cells gathers from tables over its distinct operands
    assert cli.main(["--format", "json", "laws", "projective:pow:1.5@int:0:10000", "--check", "all"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["law"], r["status"], r["witness"], r["violations"]) for r in records] == [
        ("commutativity-add", "holds", None, 0),
        ("commutativity-mul", "holds", None, 0),
        ("assoc-add", "fails", [2, 3, 3], 268186),
        ("assoc-mul", "fails", [5, 10, 7], 24894),
        ("distributivity", "fails", [2, 1, 1], 904270),
        ("neutral-zero", "holds", None, 0),
        ("neutral-one", "holds", None, 0),
        ("archimedean", "fails", [1, 2], None),
        ("theorem-archimedean-mll", "holds", [1, 1], None),
    ]


def test_repl_laws_prints_the_records_of_the_laws_command(monkeypatch, capsys):
    spec = "projective:pow:1.5@int:0:1000"
    assert cli.main(["--format", "json", "laws", spec, "--check", "assoc-add", "-R", "12"]) == 0
    direct = capsys.readouterr().out
    records = [json.loads(line) for line in direct.splitlines()]
    assert [(r["law"], r["witness"], r["violations"]) for r in records] == [("assoc-add", [2, 3, 3], 364)]

    monkeypatch.setattr("sys.stdin", io.StringIO(":format json\n:laws assoc-add 12\n"))
    assert cli.main(["repl", spec]) == 0
    assert capsys.readouterr().out == direct


def test_closed_stdout_exits_quietly():
    # 1,000 help texts (some 300 KB) overflow the pipe buffer, so the child is
    # still writing when the reader closes after the first line; the 6 KB of
    # input fits in the stdin pipe, so writing it cannot block
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.Popen([sys.executable, "-m", "nda", "repl", "projective:id@int:0:10"],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=env)
    child.stdin.write(b":help\n" * 1000)
    child.stdin.close()
    assert child.stdout.readline() == b"directives:\n"
    child.stdout.close()
    try:
        err = child.stderr.read()
        assert child.wait(timeout=60) == 0
    finally:
        child.kill()
        child.stderr.close()
    assert err == b""  # no Traceback, no "Exception ignored" from the flush at exit
