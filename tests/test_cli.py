"""Exit-code contract of the ``nda`` command line, driven through cli.main(argv)."""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nda import cli, laws, series
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
    index_table = Arithmetic.index_table

    def no_table(self, op, rows, cols):  # the one-cell corner that sizes a scan's tables is all it may compute
        assert np.broadcast(rows, cols).size == 1, "an op table was built for a refused scan"
        return index_table(self, op, rows, cols)

    monkeypatch.setattr(Arithmetic, "index_table", no_table)  # a refused op table is never allocated
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


# (argv, stdin, exit code, stderr): one row per exit code each subcommand can produce; stderr is
# the line's label, or "" where nothing is written there.  laws, series practical, validate and
# repl raise no evaluation error outside a REPL line, which prints it to stdout and reads on.
_CONTRACT = [
    (["eval", "projective:id@int:0:10", "2+2"], "", 0, ""),
    (["eval", "projective:id", "2+2"], "", 1, "usage error"),
    (["eval", "projective:pow:0@int:0:10", "2+2"], "", 2, "validation error"),
    (["eval", "projective:exp2m1@int:0:2000", "2+2"], "", 0, ""),
    (["eval", "dual:id@int:0:10", "7+7"], "", 3, "evaluation error"),
    (["laws", "projective:id@int:0:10", "-R", "5"], "", 0, ""),
    (["laws", "projective:id@int:0:10", "--check", "nope"], "", 1, "usage error"),
    (["laws", "projective:id@grid:0:1:0.3"], "", 2, "validation error"),
    (["laws", "projective:pow:1e308@int:0:10", "--check", "all"], "", 2, "validation error"),  # refused unevaluated
    (["series", "sum", "projective:id@int:0:10", "const:1", "-n", "3"], "", 0, ""),
    (["series", "sum", "projective:id@int:0:10", "harmonic"], "", 1, "usage error"),
    (["series", "sum", "projective:pow:0@int:0:10", "const:1"], "", 2, "validation error"),
    (["series", "sum", "projective:id@int:0:10", "const:0.5"], "", 3, "evaluation error"),
    (["series", "practical", "powfact:1000"], "", 0, ""),
    (["series", "practical", "list:1,2"], "", 1, "usage error"),
    (["series", "practical", "powfact:nan"], "", 1, "usage error"),
    (["series", "practical", "powfact:inf"], "", 1, "usage error"),
    (["series", "practical", "powfact:2", "-K", "4", "--window", "2", "--tol", "-1"], "", 1, "usage error"),
    (["series", "practical", "factpow:3", "-K", "4", "--window", "2", "--tol", "nan"], "", 1, "usage error"),
    (["validate", "id@int:0:10"], "", 0, ""),
    (["validate", "id@int:0"], "", 1, "usage error"),
    (["validate", "pow:0@int:0:10"], "", 2, "validation error"),
    (["validate", "pow:nan@int:0:10"], "", 2, "validation error"),
    (["validate", "exp2m1@int:0:1100"], "", 0, ""),  # f values past 2^1024
    (["validate", "atanh:0.5@grid:0:1:0.1"], "", 2, ""),  # f rejected by its report, on stdout
    (["validate", "pow:1e308@int:0:10"], "", 2, ""),  # f(10) would have some 10^308 bits
    (["repl", "projective:id@int:0:10"], "2+2\n7 +\n:bogus\n", 0, ""),
    (["repl", "affine:id@int:0:10"], "", 1, "usage error"),
    (["repl", "projective:id@int:0:-5"], "", 2, "validation error"),
    (["series"], "", 1, "usage error"),
]


def _case_ids(cases) -> list[str]:
    """Command, exit code and label of each case; a later case with the same three adds its spec."""
    ids = []
    for argv, _, code, label in cases:
        words = 2 if argv[0] == "series" else 1  # the command, and a series' subcommand
        case = "-".join(argv[:words]) + f"-{code}-{label or 'quiet'}"
        ids.append(case if case not in ids else f"{case}-{argv[words]}")
    return ids


@pytest.mark.parametrize("argv, stdin, code, label", _CONTRACT, ids=_case_ids(_CONTRACT))
def test_exit_code_contract_case_by_case(argv, stdin, code, label, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    if label:
        assert err.startswith(f"{label}: ") and err.count("\n") == 1
    else:
        assert err == ""


def test_overlong_fold_refused_before_any_term(monkeypatch, capsys):
    def no_term(*args):
        raise AssertionError("a term was folded for a refused sum")

    monkeypatch.setattr(series.SequenceSpec, "term", no_term)
    assert cli.main(["series", "sum", "projective:id@int:0:10", "const:1", "-n", "100000000"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_overlong_practical_window_refused_before_any_term(monkeypatch, capsys):
    def no_term(*args):
        raise AssertionError("a log term was computed for a refused window")

    monkeypatch.setattr(series.SequenceSpec, "log_term", no_term)
    window = str(series.MAX_TERMS + 1)
    assert cli.main(["series", "practical", "powfact:2", "-K", window, "--window", window]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_overlong_literal_is_a_parse_error(capsys):
    # 5,000 digits pass Python's limit on int() of a string
    assert cli.main(["eval", "projective:id@int:0:10", "1 + " + "1" * 5000]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("evaluation error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("spec", ["projective:pow:1.5@int:0:1000", "dual:pow:2@int:0:1000"])
def test_audit_archimedean_rows_are_the_standalone_reports(spec, monkeypatch, capsys):
    upper = 30
    a = Arithmetic.from_spec(spec)
    expected = [cli._law_record(laws.check_archimedean(a, upper)),
                cli._law_record(laws.verify_archimedean_theorem(a, upper))]
    calls = []
    scan = laws.check_archimedean
    monkeypatch.setattr(laws, "check_archimedean", lambda *args: calls.append(args) or scan(*args))
    assert cli.main(["--format", "json", "laws", spec, "--check", "all", "-R", str(upper)]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(calls) == 1  # by the archimedean row only: the theorem reads the sums of 1 itself
    assert records[-2:] == json.loads(json.dumps(expected))


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
    # the scans of 101^3 cells compute it directly, one leading index a chunk
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


class _FullStdout(io.StringIO):
    """A stdout on a full disk: every write fails, as on /dev/full.  Its fileno is a file of the test's own, which
    main points at devnull."""

    def __init__(self, fd):
        super().__init__()
        self._fd = fd

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def fileno(self):
        return self._fd


@pytest.mark.parametrize("argv, stdin", [
    (["demo"], ""),
    (["repl", "projective:id@int:0:10"], ":help\n2+2\n:laws all 5\n"),
], ids=["demo", "repl"])
def test_full_stdout_is_an_output_error(argv, stdin, tmp_path, monkeypatch, capsys):
    with open(tmp_path / "stdout", "w") as target:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        monkeypatch.setattr("sys.stdout", _FullStdout(target.fileno()))
        assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"output error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("term", ["1e400", "nan"])
def test_non_finite_terms_are_evaluation_errors(term, capsys):
    assert cli.main(["series", "sum", "projective:id@int:0:10", f"list:{term}", "-n", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"evaluation error: {float(term)} outside carrier [0, 10]\n"


@pytest.mark.parametrize("argv", [
    ["series", "practical", "const:0"],  # no finite log-step: NaN statistics
    ["series", "practical", "list:0,1,0", "-K", "3", "--window", "2"],
])
def test_json_output_is_strict_json(argv, capsys):
    def no_constant(name):
        raise AssertionError(f"{name} is not JSON")

    assert cli.main(["--format", "json"] + argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(isinstance(json.loads(line, parse_constant=no_constant), dict) for line in lines)


def test_non_finite_statistics_stay_nan_in_table_and_csv(capsys):
    assert cli.main(["--format", "csv", "series", "practical", "const:0"]) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith(",nan,nan,nan")
    assert cli.main(["series", "practical", "const:0"]) == 0
    assert "log-step in [nan, nan]" in capsys.readouterr().out


def test_undecodable_table_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "t.tbl"
    path.write_bytes(bytes(range(128, 256)))
    assert cli.main(["validate", f"table:{path}@int:0:10"]) == 2
    assert capsys.readouterr().err.startswith(f"validation error: cannot read table file '{path}'")


def test_nan_in_a_table_is_refused_at_its_line(tmp_path, capsys):
    # a NaN carrier value once passed loading and broke the lookup: "no entry for carrier point 1"
    path = tmp_path / "t.tbl"
    path.write_text("0 0\nnan 1\n2 4\n")
    assert cli.main(["validate", f"table:{path}@int:0:2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("validation error: line 2: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_repl_names_a_bad_range_bound_and_reads_on(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(":laws assoc-add x\n2+2\n"))
    assert cli.main(["repl", "projective:pow:1.5@int:0:1000"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "usage error: bad range bound 'x' in :laws (want an integer R)\n3\n"
    assert captured.err == ""


def test_every_csv_line_ends_in_crlf(monkeypatch, capsys):
    spec = "projective:pow:1.5@int:0:1000"
    assert cli.main(["--format", "csv", "eval", spec, "2+2"]) == 0
    assert capsys.readouterr().out == "result\r\n3\r\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(":format csv\n2+2 == 4\n:laws assoc-add,theorem 12\n"))
    assert cli.main(["repl", spec]) == 0
    out = capsys.readouterr().out
    assert out.startswith("result\r\nfalse\r\nlaw,status,") and out.count("\n") == 5
    assert out.count("\r\n") == out.count("\n")


def test_repl_csv_session_is_one_crlf_stream(monkeypatch, capsys):
    # a header row only where its columns change, and every other line in CRLF too: the help, an
    # arithmetic switch and an error line
    lines = ":format csv\n2+2\n3+3\n:arith dual:pow:2@int:0:100\n:help\n:bogus\n4+4\n:laws assoc-add 5\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    assert cli.main(["repl", "projective:pow:1.5@int:0:1000"]) == 0
    out = capsys.readouterr().out
    help_text = cli._REPL_HELP.replace("\n", "\r\n")
    assert out == ("result\r\n3\r\n4\r\narithmetic set to dual:pow:2@int:0:100\r\n" + help_text + "\r\n"
                   "usage error: bad directive ':bogus'; :help lists them\r\n6\r\n"
                   "law,status,witness,range,pairs_checked,violations\r\n"
                   'assoc-add,fails,"(1, 1, 2)",0..5,216,36\r\n')
    assert out.splitlines().count("result") == 1 and out.count("\r\n") == out.count("\n")
    # a new format starts a new table: back to csv, the header is written again
    lines = ":format csv\n2+2\n:format csv\n2+2\n:format json\n:format csv\n2+2\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    assert cli.main(["repl", "projective:pow:1.5@int:0:1000"]) == 0
    assert capsys.readouterr().out == "result\r\n3\r\n3\r\nresult\r\n3\r\n"


_DEMO_OUTPUT = """\
headline equalities, each computed on the spot
  2 + 2 = 3   under projective:pow:1.5@int:0:1000
  2 + 2 = 2   under projective:pow:2@int:0:1000
  2 * 2 = 3   under projective:quad@int:0:1000
  2 * 2 = 3   under projective:exp2m1@int:0:100
  5 + 5 = 5   under projective:exp2m1@int:0:100

heap: one more grain does not change a heap
  arithmetic projective:exp2m1@int:0:100
  a heap of 10 grains gains a grain:
  10 (+) 1 = 10
  the heap is unchanged

payphone: a pile of pennies and a phone that wants a nickel
  arithmetic projective:exp2m1@int:0:100
  adding a penny to a penny to a penny, 1000 times over:
  1 (+) 1 (+) ... (+) 1 [1000 terms] = 1
  a 5 is never reached

bogo: buy one, get one free
  arithmetic projective:exp2m1@int:0:100
  one gallon costs $5; the second one is free:
  5 (+) 5 = 5

cans: tariff pricing breaks a + a = 2a
  posted prices: 1 can $1.05, 2 cans $2.00
  1.05 + 1.05 = 2.10, but two cans cost 2.00
  so a + a != 2a in this price list

lightspeed: velocities never add past c (speeds as fractions of c)
  arithmetic projective:atanh:1@grid:0:1:0.001
  0.500 (+) 0.500 = 0.800
  closed-form velocity addition (u+v)/(1+uv) agrees: 0.800
  1.000 (+) 0.600 = 1.000
"""


def test_demo_output_is_golden(capsys):
    assert cli.main(["demo"]) == 0
    assert capsys.readouterr().out == _DEMO_OUTPUT


# "<format> <spec>" -> the lines, ends included, of nda --format <format> laws <spec> --check all -R 12:
# an Archimedean fail with its fixed point, a "fixed_point": null beside "archimedean": true,
# and not-applicable rows with float witnesses.  They pin the detail keys of each row and their order.
_LAWS_GOLDEN = json.loads((Path(__file__).parent / "laws_golden.json").read_text())


@pytest.mark.parametrize("key", sorted(_LAWS_GOLDEN))
def test_laws_output_is_golden(key, capsys):
    fmt, spec = key.split()
    assert cli.main(["--format", fmt, "laws", spec, "--check", "all", "-R", "12"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("".join(_LAWS_GOLDEN[key]), "")


def test_repl_prints_through_the_commands(monkeypatch, capsys):
    spec = "projective:pow:1.5@int:0:1000"
    outputs, errors = [], []
    for argv in (["--format", "csv", "eval", spec, "2+2"], ["eval", spec, "1.5+1"],
                 ["eval", "projective:nope@int:0:10", "1"], ["validate", "id@int:1:10"]):
        cli.main(argv)
        captured = capsys.readouterr()
        outputs.append(captured.out)
        errors.append(captured.err)
    lines = ":format csv\n2+2\n:format table\n1.5+1\n:arith projective:nope@int:0:10\n:arith projective:id@int:1:10\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    assert cli.main(["repl", spec]) == 0
    # the csv header of nda eval, then the stderr lines of the failed commands, on stdout
    assert capsys.readouterr().out == "".join(outputs + errors[1:])


# ----------------------------------------------------------------------
# the exit-code contract over argv built from valid and invalid pieces
# ----------------------------------------------------------------------

_KINDS = ["projective", "dual", "affine"]
_FS = ["id", "pow:1.5", "pow:2", "exp2m1", "quad", "atanh:1", "table:{good}",
       "pow:0", "pow:nan", "cubic", "table:{binary}", "table:{falling}", "table:{missing}"]
_CARRIERS = ["int:0:10", "int:0:100", "grid:0:1:0.01", "grid:0:1:0.1",
             "int:1:10", "int:0:0", "grid:0:1:nan", "grid:0:inf:1", "int:0:x", "grid:0:1:0.3", "int:0:-5", "grid:0:1"]
_NUMBERS = ["0", "1", "2", "5", "10", "0.5", "1.5", "0.1", "9" * 400, "1" * 400 + ".5"]
_SEQUENCES = ["const:1", "const:0", "const:-1", "const:nan", "const:1e400", "list:1,2,3", "list:1e400",
              "list:nan", "list:inf", "list:", "list:0.5,0.25", "powfact:2", "factpow:3", "powfact:0",
              "powfact:1e308", "powfact:x", "harmonic"]
_LAW_LISTS = ["all", "dist,arch,theorem", "assoc-add", "commutativity-mul", "nope", "neutral-one,theorem"]


def _mostly(valid, invalid):
    """valid three times in four, so that the pieces after it are reached"""
    return st.integers(0, 3).flatmap(lambda i: valid if i else invalid)


_specs = _mostly(
    st.builds("{}:{}@{}".format, st.sampled_from(_KINDS[:2]), st.sampled_from(_FS[:7]),
              st.sampled_from(_CARRIERS[:4])).filter(lambda spec: "atanh" not in spec or "grid" in spec),
    st.sampled_from(["nonsense", "projective:id", "@", ""])
    | st.builds("{}:{}@{}".format, st.sampled_from(_KINDS), st.sampled_from(_FS), st.sampled_from(_CARRIERS)))
_uppers = _mostly(st.integers(0, 10).map(str), st.integers(-3, 30).map(str) | st.sampled_from(["x", "1e3"]))
_exprs = st.recursive(
    st.sampled_from(_NUMBERS),
    lambda sub: st.builds("{}{}{}".format, sub, st.sampled_from(["+", "-", "*", " + "]), sub) | sub.map("({})".format),
    max_leaves=6)
_texts = (st.builds("{}{}{}".format, _exprs, st.sampled_from(["==", "!=", "<", "<<", "<<<"]), _exprs) | _exprs
          | st.sampled_from(["", "@", "1 +", "(1", "1)", "٣", "1 == 1 == 1", "+".join(["1"] * 1500),
                             "(" * 400 + "1" + ")" * 400]))
_bad_ints = st.sampled_from(["0", "-1", "x", "1e9"])
_terms = _mostly(st.integers(1, 60).map(str), _bad_ints)
_commands = st.one_of(
    st.tuples(st.just("eval"), _specs, _texts).map(list),
    st.tuples(st.just("laws"), _specs, st.just("--check"), st.sampled_from(_LAW_LISTS), st.just("-R"), _uppers).map(list),
    st.builds(lambda kind, f, c: ["validate", f"{kind}{f}@{c}"],
              st.sampled_from(["", "projective:", "dual:"]), st.sampled_from(_FS), st.sampled_from(_CARRIERS)),
    st.tuples(st.just("series"), st.just("sum"), _specs, st.sampled_from(_SEQUENCES), st.just("-n"), _terms).map(list),
    st.tuples(st.just("series"), st.just("practical"), st.sampled_from(_SEQUENCES),
              st.just("-K"), _mostly(st.integers(50, 60).map(str), _bad_ints),
              st.just("--window"), _mostly(st.integers(2, 50).map(str), _bad_ints),
              st.just("--tol"), st.sampled_from(["1e-12", "0", "nan", "-1", "x"])).map(list),
    st.lists(st.sampled_from(["demo", "heap", "cans", "nope", "series", "--format", "xml", "-R"]), max_size=3),
)
_repl_lines = st.lists(
    _texts | st.builds("{} {}".format, st.sampled_from([":arith", ":format", ":laws"]),
                       _specs | st.sampled_from(["table", "json", "csv", "xml"]) | st.sampled_from(_LAW_LISTS))
    | st.builds(":laws {} {}".format, st.sampled_from(_LAW_LISTS), _uppers)
    | st.sampled_from([":help", ":q", ":bogus", ":laws", ":", ":arith"]),
    max_size=6)


def test_float_zero_beside_exact_ints_is_neutral(tmp_path, capsys):
    # f(2) = 2^53 + 1 rounds to 2^53 in a float sum: with f(0) kept as 0.0, 2 + 0 printed 1
    path = tmp_path / "mixed.tbl"
    path.write_text("0 0.0\n1 1\n2 9007199254740993\n3 1152921504606846976\n")
    spec = f"projective:table:{path}@int:0:3"
    assert cli.main(["eval", spec, "2 + 0"]) == 0
    assert capsys.readouterr().out == "2\n"
    assert cli.main(["--format", "json", "laws", spec, "--check", "neutral-zero", "-R", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "holds"
    a = Arithmetic.from_spec(spec)
    assert [a.add_index(i, 0) for i in range(4)] == [a.add_index(0, i) for i in range(4)] == [0, 1, 2, 3]


@pytest.mark.parametrize("rows, index", [
    (["0 0", "1 1", "2 2.5", f"3 {2 ** 1100}"], 3),
    (["0 0", "1 1", f"2 {2 ** 1024 - 2 ** 970}", "3 inf"], 2),  # the least int that float() refuses, then +inf
], ids=["float-below", "inf-above"])
@pytest.mark.parametrize("command", [
    ["validate", "table:{path}@int:0:3"],
    ["eval", "projective:table:{path}@int:0:3", "3 + 2"],
    ["laws", "dual:table:{path}@int:0:3"],
    ["series", "sum", "projective:table:{path}@int:0:3", "const:2", "-n", "3"],
], ids=["validate", "eval", "laws", "series-sum"])
def test_int_past_the_float_range_beside_a_float_is_refused(rows, index, command, tmp_path, capsys):
    # their sum raised OverflowError: eval and laws ended in a traceback, and validate passed the table
    path = tmp_path / "overflow.tbl"
    path.write_text("\n".join(rows) + "\n")
    assert cli.main([arg.format(path=path) for arg in command]) == 2
    captured = capsys.readouterr()
    assert f"fail at index {index}: f({index}) is an int past the float range beside float values" in \
        (captured.out if command[0] == "validate" else captured.err)
    assert "Traceback" not in captured.out + captured.err


def test_int_past_the_float_range_binds_beside_a_float_zero(tmp_path):
    # bind stores f(0) = 0.0 as the int 0, so no float is left beside 2^1100
    path = tmp_path / "zero.tbl"
    path.write_text(f"0 0.0\n1 1\n2 {2 ** 1100}\n")
    a = Arithmetic.from_spec(f"projective:table:{path}@int:0:2")
    assert a.add_index(2, 1) == 2 and a.add_index(2, 2) == 2


@pytest.fixture(scope="module")
def table_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("tables")
    (root / "good.tbl").write_text("".join(f"{x} {x * x}\n" for x in range(101)))
    (root / "binary.tbl").write_bytes(bytes(range(128, 256)))
    (root / "falling.tbl").write_text("0 0\n1 2\n2 1\n")
    return {name: str(root / f"{name}.tbl") for name in ("good", "binary", "falling", "missing")}


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(fmt=st.sampled_from([[], ["--format", "table"], ["--format", "json"], ["--format", "csv"]]),
       command=_commands | st.tuples(st.just("repl"), _specs).map(list) | st.just(["repl"]), lines=_repl_lines,
       env_format=st.sampled_from([None, "json", " CSV ", "xml"]))
def test_every_input_exits_with_a_contract_code(table_files, fmt, command, lines, env_format):
    argv = fmt + [arg.format(**table_files) for arg in command]
    stdin = io.StringIO("".join(line.format(**table_files) + "\n" for line in lines))
    env = {} if env_format is None else {"NDA_FORMAT": env_format}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", stdin), mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
