"""Record the expected law reports of the audit workloads.

    python3 bench/record_expected.py

Runs ``nda --format json laws <spec> --check all -R <R>`` for every audited
arithmetic at the full and the smoke R, and writes (status, witness,
violations) per law to ``bench/expected_audits.json``.  Before writing, the
reports at small R are checked against nested loops over the
``tests/reference.py`` oracle; a mismatch stops the recording.  Re-record
only when a change is meant to alter law reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import reference  # noqa: E402
from inputs import AUDIT_SPECS, FULL, SMOKE  # noqa: E402

from nda import cli  # noqa: E402

EXPECTED = HERE / "expected_audits.json"
SPOT_CHECK_UPPERS = (SMOKE.upper, 24)

_TRIPLE_LAWS = {
    "assoc-add": lambda add, mul, a, b, c: add(add(a, b), c) == add(a, add(b, c)),
    "assoc-mul": lambda add, mul, a, b, c: mul(mul(a, b), c) == mul(a, mul(b, c)),
    "distributivity": lambda add, mul, a, b, c: mul(a, add(b, c)) == add(mul(a, b), mul(a, c)),
}


def audit(spec: str, upper: int) -> list[dict]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = cli.main(["--format", "json", "laws", spec, "--check", "all", "-R", str(upper)])
    if rc != 0:
        raise SystemExit(f"nda laws {spec} -R {upper} exited with {rc}")
    return [{key: record[key] for key in ("law", "status", "witness", "violations")}
            for record in map(json.loads, buffer.getvalue().splitlines())]


def reference_audit(spec: str, upper: int) -> list[dict]:
    """The same nine records from nested loops over the oracle (saturating, as the scans are)."""
    head, _, carrier = spec.partition("@")
    kind, _, f = head.partition(":")
    fvals = reference.f_values(f, int(carrier.split(":")[2]) + 1)
    top = len(fvals) - 1

    def add(i, j):
        return reference.ref_add(fvals, kind, i, j)

    def mul(i, j):
        return reference.ref_mul(fvals, kind, i, j)

    span = range(upper + 1)
    checks = {
        "commutativity-add": [(a, b) for a in span for b in span if add(a, b) != add(b, a)],
        "commutativity-mul": [(a, b) for a in span for b in span if mul(a, b) != mul(b, a)],
        "neutral-zero": [(a,) for a in span if add(a, 0) != a or add(0, a) != a],
        "neutral-one": [(a,) for a in span if mul(a, 1) != a or mul(1, a) != a],
    }
    for law, holds in _TRIPLE_LAWS.items():
        checks[law] = [(a, b, c) for a in span for b in span for c in span
                       if not holds(add, mul, a, b, c)]
    records = []
    for law in ("commutativity-add", "commutativity-mul", "assoc-add", "assoc-mul",
                "distributivity", "neutral-zero", "neutral-one"):
        witness = reference.smallest_witness(checks[law])
        records.append({"law": law, "status": "fails" if witness else "holds",
                        "witness": list(witness) if witness else None,
                        "violations": len(checks[law])})

    arch_witness = None
    for m in range(1, upper + 1):
        s = m
        while add(s, m) != s:
            s = add(s, m)
        if s != top and s + 1 <= upper:
            arch_witness = [m, s + 1]
            break
    records.append({"law": "archimedean", "status": "fails" if arch_witness else "holds",
                    "witness": arch_witness, "violations": None})

    absorbed = reference.smallest_witness([(b, a) for b in span for a in span[1:] if add(b, a) == b])
    consistent = (arch_witness is None) == (absorbed is None)
    records.append({"law": "theorem-archimedean-mll", "status": "holds" if consistent else "fails",
                    "witness": [absorbed[1], absorbed[0]] if absorbed else None, "violations": None})
    return records


def main() -> int:
    expected = {}
    for specs in AUDIT_SPECS.values():
        for spec in specs:
            for upper in SPOT_CHECK_UPPERS:
                got, want = audit(spec, upper), reference_audit(spec, upper)
                if got != want:
                    raise SystemExit(f"{spec} -R {upper} disagrees with the oracle:\n{got}\n{want}")
                print(f"{spec} -R {upper}: matches the oracle")
            expected[spec] = {str(upper): audit(spec, upper) for upper in (SMOKE.upper, FULL.upper)}
    EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {EXPECTED.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
