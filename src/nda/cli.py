"""The ``nda`` command line tool.

Subcommands: eval, laws, series, demo, repl, validate.  Every result is a
record, printed by one emitter: a human table by default; ``--format json``
emits one JSON record per line with stable field names, ``--format csv`` a
header row plus data rows, every CSV record written by the csv module with
CRLF line ends.  The NDA_FORMAT environment variable changes the default;
flags win.

Exit codes are a contract: 0 success, 1 usage (also an argument out of
range, such as a law scan refused for its size, see the laws module),
2 the functional parameter or carrier was rejected (also a carrier of more
than carrier.MAX_SIZE points), 3 an evaluation failed (off-carrier value,
carrier exhausted, multiplication unavailable, bad expression).  One table,
_ERRORS, maps each error class to its code and label.  Output that cannot
be written ends the run: a closed stdout (a reader that went away) exits 0,
any other OSError (a full disk) prints one ``output error:`` line to stderr
and exits 1, with no traceback either way.  The REPL evaluates and audits
through the printers of ``nda eval`` and ``nda laws`` and prints the CLI's
error line for a failed line, then reads the next one.  Under csv a REPL
session is one CRLF stream: a header row is written only where its columns
differ from the last one the session wrote since its format was set, and
every other line ends in CRLF too.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from . import exprlang, funcparam, laws, series
from .arith import DUAL, PROJECTIVE, Arithmetic
from .carrier import Carrier
from .errors import NdaError, SpecError, ValidationError

FORMATS = ("table", "json", "csv")

_LAW_ALIASES = {"dist": "distributivity", "theorem": "theorem-archimedean-mll", "arch": "archimedean"}

_LAW_COLUMNS = ("law", "status", "witness", "range", "pairs_checked", "violations")


# The exit-code contract: an error takes the code and label of the first row
# whose class it is an instance of.  An OSError writing stdout is main's (see the module docstring).
_ERRORS = (
    (SpecError, 1, "usage error"),
    (ValidationError, 2, "validation error"),
    (NdaError, 3, "evaluation error"),
    (ValueError, 1, "usage error"),
)
_CAUGHT = tuple(cls for cls, _, _ in _ERRORS)


def _error_line(exc: Exception) -> tuple[int, str]:
    code, label = next((code, label) for cls, code, label in _ERRORS if isinstance(exc, cls))
    return code, f"{label}: {exc}"


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        raise SpecError(message)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "handler", None):
            parser.print_usage(sys.stderr)
            return 1
        status = args.handler(args)
        sys.stdout.flush()  # a closed or full stdout must fail here, not in the flush at exit
        return status
    except OSError as exc:
        # the reader went away (nda demo | head -1) or the disk is full (nda demo > /dev/full): send what is
        # left to devnull, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return 0
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    except _CAUGHT as exc:
        code, line = _error_line(exc)
        print(line, file=sys.stderr)
        return code


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nda", description="explore arithmetics where 2 + 2 need not be 4")
    parser.add_argument("--format", choices=FORMATS, default=None,
                        help="output format (default: table, or $NDA_FORMAT)")
    sub = parser.add_subparsers(dest="command")

    p_eval = sub.add_parser("eval", help="evaluate an expression under an arithmetic")
    p_eval.add_argument("arith", help="arithmetic spec, e.g. projective:pow:1.5@int:0:1000")
    p_eval.add_argument("expression", help="expression, e.g. '(2+3)+3 == 2+(3+3)'")
    p_eval.set_defaults(handler=_cmd_eval)

    p_laws = sub.add_parser("laws", help="audit classical laws over a range")
    p_laws.add_argument("arith")
    p_laws.add_argument("--check", default="all",
                        help="comma-separated law names, 'all', aliases dist/arch/theorem")
    p_laws.add_argument("-R", type=int, default=None, dest="upper",
                        help="highest carrier index scanned (default min(100, top))")
    p_laws.set_defaults(handler=_cmd_laws)

    p_series = sub.add_parser("series", help="series experiments")
    series_sub = p_series.add_subparsers(dest="series_command")
    p_prac = series_sub.add_parser("practical", help="budget-relative convergence verdict")
    p_prac.add_argument("sequence", help="sequence spec, e.g. powfact:1000")
    p_prac.add_argument("-K", type=int, default=100, dest="budget", help="term budget")
    p_prac.add_argument("--window", type=int, default=50)
    p_prac.add_argument("--tol", type=float, default=1e-12)
    p_prac.set_defaults(handler=_cmd_series_practical)
    p_sum = series_sub.add_parser("sum", help="partial sums inside an arithmetic")
    p_sum.add_argument("arith")
    p_sum.add_argument("sequence")
    p_sum.add_argument("-n", type=int, default=50, dest="terms", help="number of terms")
    p_sum.set_defaults(handler=_cmd_series_sum)
    p_series.set_defaults(handler=_cmd_series_usage)

    p_demo = sub.add_parser("demo", help="narrated scenario reproductions")
    p_demo.add_argument("name", nargs="?", default="all",
                        choices=sorted(DEMOS) + ["all"], help="demo name (default: all)")
    p_demo.set_defaults(handler=_cmd_demo)

    p_repl = sub.add_parser("repl", help="interactive loop")
    p_repl.add_argument("arith", nargs="?", default=None, help="initial arithmetic spec")
    p_repl.set_defaults(handler=_cmd_repl)

    p_val = sub.add_parser("validate", help="check a functional parameter against a carrier")
    p_val.add_argument("spec", help="<f-spec>@<carrier-spec> (a leading kind: is accepted)")
    p_val.set_defaults(handler=_cmd_validate)
    return parser


def _format_of(args) -> str:
    if args.format:
        return args.format
    env = os.environ.get("NDA_FORMAT", "").strip().lower()
    return env if env in FORMATS else "table"


# ----------------------------------------------------------------------
# record emission
# ----------------------------------------------------------------------

def _fmt_cell(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (tuple, list)):
        return "(" + ", ".join(map(_fmt_cell, v)) + ")"
    return str(v)


def _json_value(v):
    """v with each non-finite float as None, since JSON (RFC 8259) has no NaN or Infinity."""
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return [_json_value(x) for x in v] if isinstance(v, (tuple, list)) else v


def _emit_records(records: list[dict], columns: tuple[str, ...], fmt: str, written: tuple = ()) -> tuple:
    """Emit records under columns, a csv header row only where it differs from written; returns columns."""
    if fmt == "json":
        for record in records:
            print(json.dumps({key: _json_value(v) for key, v in record.items()}))
    elif fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        if columns != written:
            writer.writerow(columns)
        for record in records:
            writer.writerow(_fmt_cell(record.get(col)) for col in columns)
        sys.stdout.write(buffer.getvalue())
    else:
        widths = [max(len(col), *(len(_fmt_cell(r.get(col))) for r in records)) for col in columns]
        print("  ".join(col.ljust(w) for col, w in zip(columns, widths)).rstrip())
        for record in records:
            print("  ".join(_fmt_cell(record.get(col)).ljust(w) for col, w in zip(columns, widths)).rstrip())
    return columns


def _emit_record(record: dict, fmt: str, *lines: str, written: tuple = ()) -> tuple:
    """One record in json or csv (see _emit_records); the human lines instead in table format.  Returns its columns."""
    if fmt != "table":
        return _emit_records([record], tuple(record), fmt, written)
    print("\n".join(lines))
    return tuple(record)


def _emit_result(arith: Arithmetic, text: str, fmt: str, written: tuple = ()) -> tuple:
    """Evaluate an expression and emit its result record, for nda eval and the REPL; returns its columns."""
    value = exprlang.evaluate(exprlang.parse_text(text), arith)
    return _emit_record({"result": value}, fmt, _fmt_cell(value), written=written)


# ----------------------------------------------------------------------
# eval / validate
# ----------------------------------------------------------------------

def _cmd_eval(args) -> int:
    _emit_result(Arithmetic.from_spec(args.arith), args.expression, _format_of(args))
    return 0


def _split_validate_spec(spec: str) -> tuple[str, str]:
    head, sep, carrier_spec = spec.partition("@")
    if not sep:
        raise SpecError(f"bad spec {spec!r} (want <f-spec>@<carrier-spec>)")
    first = head.split(":", 1)[0]
    if first in (PROJECTIVE, DUAL):
        head = head.split(":", 1)[1] if ":" in head else ""
    return head, carrier_spec


def _cmd_validate(args) -> int:
    f_spec, carrier_spec = _split_validate_spec(args.spec)
    carrier = Carrier.from_spec(carrier_spec)
    f = funcparam.from_spec(f_spec)
    report = funcparam.validate(f, carrier)
    record = {
        "f": f.name, "carrier": carrier.spec,
        "status": "pass" if report.ok else "fail",
        "multiplicative": report.multiplicative,
        "points_checked": report.points_checked,
        "failure_index": report.failure_index,
        "reason": report.reason,
    }
    _emit_record(record, _format_of(args), f"{f.name} on {carrier.spec}: {report.message()}")
    return 0 if report.ok else 2


# ----------------------------------------------------------------------
# laws
# ----------------------------------------------------------------------

def _parse_law_list(text: str) -> list[str]:
    if text.strip() == "all":
        return list(laws.LAW_NAMES)
    names = [_LAW_ALIASES.get(raw.strip(), raw.strip()) for raw in text.split(",")]
    if unknown := [name for name in names if name not in laws.LAW_NAMES]:
        raise SpecError(f"unknown law {unknown[0]!r}; choose from {', '.join(laws.LAW_NAMES)} or 'all'")
    return names


def _law_record(report: laws.LawReport) -> dict:
    """A row of nda laws: the _LAW_COLUMNS filled from a report, then its details."""
    cells = (report.law, report.status, report.witness, f"0..{report.upper}", report.pairs_checked, report.violations)
    return dict(zip(_LAW_COLUMNS, cells), **dict(report.details))


def _law_records(arith: Arithmetic, check_text: str, upper: int | None) -> list[dict]:
    if upper is None:
        upper = min(100, arith.carrier.size - 1)
    return [_law_record(report) for report in laws.check_laws(arith, _parse_law_list(check_text), upper)]


def _cmd_laws(args) -> int:
    _emit_records(_law_records(Arithmetic.from_spec(args.arith), args.check, args.upper), _LAW_COLUMNS,
                  _format_of(args))
    return 0


# ----------------------------------------------------------------------
# series
# ----------------------------------------------------------------------

def _cmd_series_usage(args) -> int:
    raise SpecError("choose 'series practical' or 'series sum'")


def _cmd_series_practical(args) -> int:
    seq = series.from_spec(args.sequence)
    verdict = series.practical_convergence(seq, args.budget, args.window, args.tol)
    ev = verdict.evidence
    record = {
        "sequence": seq.name, "verdict": verdict.verdict, "budget": verdict.budget,
        "window": ev.window, "tol": ev.tol,
        "min_step": ev.min_step, "max_step": ev.max_step, "mean_step": ev.mean_step,
    }
    _emit_record(record, _format_of(args), f"{seq.name}: {verdict.verdict} at budget K={verdict.budget}",
                 f"  trailing window {ev.window}, log-step in [{ev.min_step:.6g}, {ev.max_step:.6g}]")
    return 0


def _cmd_series_sum(args) -> int:
    arith = Arithmetic.from_spec(args.arith)
    seq = series.from_spec(args.sequence)
    sums, stationary_at = series.arith_partial_sums(arith, seq, args.terms)
    record = {
        "arithmetic": arith.spec, "sequence": seq.name, "terms": args.terms,
        "final_sum": sums[-1], "stationary_at": stationary_at,
    }
    shown = ", ".join(map(_fmt_cell, sums[:10])) + (", ..." if len(sums) > 10 else "")
    final = _fmt_cell(sums[-1])
    _emit_record(record, _format_of(args), f"partial sums of {seq.name} in {arith.spec}:", f"  sums: {shown}",
                 f"  still moving after {args.terms} terms; final sum {final}" if stationary_at is None
                 else f"  stationary at k={stationary_at}, sum {final}")
    return 0


# ----------------------------------------------------------------------
# demos: every printed equality is computed through the library, except
# the cans tariff, which is a hard-coded price list
# ----------------------------------------------------------------------

def _demo_heap() -> list[str]:
    arith = Arithmetic.from_spec("projective:exp2m1@int:0:100")
    grains = 10
    result = arith.add(grains, 1)
    return [
        "heap: one more grain does not change a heap",
        f"  arithmetic {arith.spec}",
        f"  a heap of {grains} grains gains a grain:",
        f"  {grains} (+) 1 = {result}",
        f"  the heap {'is unchanged' if result == grains else 'changed!'}",
    ]


def _demo_payphone() -> list[str]:
    arith = Arithmetic.from_spec("projective:exp2m1@int:0:100")
    sums, _ = series.arith_partial_sums(arith, series.from_spec("const:1"), 1000)
    total = sums[-1]
    reached = any(s >= 5 for s in sums[:49])
    return [
        "payphone: a pile of pennies and a phone that wants a nickel",
        f"  arithmetic {arith.spec}",
        "  adding a penny to a penny to a penny, 1000 times over:",
        f"  1 (+) 1 (+) ... (+) 1 [1000 terms] = {total}",
        f"  a 5 is {'never' if not reached and total < 5 else 'eventually'} reached",
    ]


def _demo_bogo() -> list[str]:
    arith = Arithmetic.from_spec("projective:exp2m1@int:0:100")
    price = 5
    result = arith.add(price, price)
    return [
        "bogo: buy one, get one free",
        f"  arithmetic {arith.spec}",
        f"  one gallon costs ${price}; the second one is free:",
        f"  {price} (+) {price} = {result}",
    ]


def _demo_cans() -> list[str]:
    tariff = {1: 1.05, 2: 2.00}
    doubled = tariff[1] + tariff[1]
    return [
        "cans: tariff pricing breaks a + a = 2a",
        f"  posted prices: 1 can ${tariff[1]:.2f}, 2 cans ${tariff[2]:.2f}",
        f"  {tariff[1]:.2f} + {tariff[1]:.2f} = {doubled:.2f}, but two cans cost {tariff[2]:.2f}",
        f"  so a + a {'!=' if doubled != tariff[2] else '=='} 2a in this price list",
    ]


def _demo_lightspeed() -> list[str]:
    arith = Arithmetic.from_spec("projective:atanh:1@grid:0:1:0.001")
    half = arith.add(0.5, 0.5)
    u, v = 0.5, 0.5
    oracle = (u + v) / (1 + u * v)
    top = arith.add(1.0, 0.6)
    return [
        "lightspeed: velocities never add past c (speeds as fractions of c)",
        f"  arithmetic {arith.spec}",
        f"  0.500 (+) 0.500 = {half:.3f}",
        f"  closed-form velocity addition (u+v)/(1+uv) agrees: {oracle:.3f}",
        f"  1.000 (+) 0.600 = {top:.3f}",
    ]


def _demo_headlines() -> list[str]:
    lines = ["headline equalities, each computed on the spot"]
    for spec, expr in (
        ("projective:pow:1.5@int:0:1000", "2 + 2"),
        ("projective:pow:2@int:0:1000", "2 + 2"),
        ("projective:quad@int:0:1000", "2 * 2"),
        ("projective:exp2m1@int:0:100", "2 * 2"),
        ("projective:exp2m1@int:0:100", "5 + 5"),
    ):
        arith = Arithmetic.from_spec(spec)
        value = exprlang.evaluate(exprlang.parse_text(expr), arith)
        lines.append(f"  {expr} = {value}   under {spec}")
    return lines


DEMOS = {
    "heap": _demo_heap,
    "payphone": _demo_payphone,
    "bogo": _demo_bogo,
    "cans": _demo_cans,
    "lightspeed": _demo_lightspeed,
}


def _cmd_demo(args) -> int:
    if args.name == "all":
        blocks = [_demo_headlines()] + [demo() for demo in DEMOS.values()]
        print("\n\n".join("\n".join(block) for block in blocks))
    else:
        print("\n".join(DEMOS[args.name]()))
    return 0


# ----------------------------------------------------------------------
# repl
# ----------------------------------------------------------------------

_REPL_HELP = """directives:
  :arith <spec>      switch arithmetic, e.g. :arith projective:pow:2@int:0:100
  :laws <list> <R>   audit laws in the current arithmetic
  :format <fmt>      table | json | csv
  :help              this text
  :quit              leave
anything else is parsed as an expression and evaluated"""


def _range_bound(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SpecError(f"bad range bound {text!r} in :laws (want an integer R)") from None


def _say(text: str, fmt: str) -> None:
    """Print a REPL line that is no record, each of its lines ending in CRLF under csv, as the records do."""
    end = "\r\n" if fmt == "csv" else "\n"
    sys.stdout.write(text.replace("\n", end) + end)


def _cmd_repl(args) -> int:
    current = Arithmetic.from_spec(args.arith) if args.arith else None
    fmt, header = _format_of(args), ()  # header: the columns of the last csv header row written
    interactive = sys.stdin.isatty()
    if interactive:
        _say("nda repl; :help for directives", fmt)
    while True:
        try:
            line = input("nda> " if interactive else "").strip()
        except EOFError:
            return 0
        fields = line.split()
        directive = fields[0] if line.startswith(":") else ""
        try:
            if directive in (":quit", ":q"):
                return 0
            elif directive == ":help":
                _say(_REPL_HELP, fmt)
            elif directive == ":arith" and len(fields) == 2:
                current = Arithmetic.from_spec(fields[1])
                _say(f"arithmetic set to {current.spec}", fmt)
            elif directive == ":format" and len(fields) == 2 and fields[1] in FORMATS:
                fmt, header = fields[1], header if fields[1] == fmt else ()
            elif directive and not (directive == ":laws" and len(fields) in (2, 3)):
                raise SpecError(f"bad directive {line!r}; :help lists them")
            elif line and current is None:
                raise SpecError("no arithmetic selected; use :arith <spec>")
            elif directive:
                upper = _range_bound(fields[2]) if len(fields) == 3 else None
                header = _emit_records(_law_records(current, fields[1], upper), _LAW_COLUMNS, fmt, header)
            elif line:
                header = _emit_result(current, line, fmt, header)
        except _CAUGHT as exc:
            _say(_error_line(exc)[1], fmt)


if __name__ == "__main__":
    raise SystemExit(main())
