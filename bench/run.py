"""Benchmark of the nda package: law audits and an interactive session.

    python3 bench/run.py [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from a checkout that holds ``src/nda`` and ``tests/reference.py``.
With ``--workload`` it measures one workload for about S seconds and prints,
as its last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).  Without ``--workload`` it runs every workload untraced
and traced and ends with one JSON object over all of them.  Each run also
writes ``bench/out/<workload>-seed<N>-trace<T>.json`` with the machine
context, every iteration's figures and the span summary.  ``--smoke`` shrinks
the inputs (R=12, few expressions) so that a run takes seconds.

Workloads (BENCHMARK.json says why each one is there):

* ``audit-float``: ``nda --format json laws projective:pow:1.5@int:0:1000
  --check all -R 300`` through ``cli.main``; float f.
* ``audit-exact``: the same audit of ``dual:pow:2`` and ``projective:exp2m1``
  on ``int:0:1000``; exact integer f, one of them past 2^1000.
* ``session``: binds an mpmath-backed artanh grid of 50,001 points and a
  seeded 2,000-point table f, evaluates seeded expressions over five
  arithmetics, then folds long sequences with ``series.arith_partial_sums``.

The audit workloads also evaluate seeded probe expressions on the audited
arithmetics after ``run_s`` has closed, so that every workload reports
expression latency while ``run_s`` there covers the audits alone.  Every
child evaluates each expression once, in a fresh interpreter.

The shared host runs a process at a speed that wanders by up to 1.8x for
minutes at a time, as much as a real regression would.  So each child
times a fixed pure-Python gauge loop that uses no ``nda`` code around
set-up, throughout the body and between blocks of expressions (see
``child.py``).  Every end-to-end time is given in seconds of a host whose
gauge reads ``GAUGE_S``: the measured time times ``GAUGE_S`` over the gauge
measured with it.  ``setup_s`` and ``run_s`` are medians of that over the
untraced children.  An expression's latency is the median over the
children of its first evaluation, scaled by the gauges around its block;
``expr_p50_us`` and ``expr_p99_us`` are percentiles of that over the
expressions.  ``peak_rss_mb`` is the median
over the untraced children.  The results file keeps the unscaled times.
Per-layer times are not scaled, and include the body's gauge samples that
fall inside their spans (a few percent of the body).

Each iteration is a fresh interpreter (``child.py``), one at a time in a
closed loop, single-threaded, BLAS pinned to one thread and address space
capped at ``MEMORY_LIMIT``.  A child that dies (out of memory, timeout,
crash) fails all of its operations and the run goes on.  Every result is
checked outside the timed region: law reports against
``expected_audits.json``, expressions and folds against ``oracle.py``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(ROOT / "tests")]

from inputs import FULL, SMOKE, WORKLOADS, build  # noqa: E402

MEMORY_LIMIT = 2 * 2**30  # bytes of address space per child; a healthy audit peaks near 0.62 GiB
DEADLINE_S = 170.0  # a run must end within 180 s, children included
MIN_ITERATIONS = 3  # set-up and run time are medians over at least this many children
GAUGE_S = 0.0003  # reference gauge reading that scaled times are given at; it fixes the scale only
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
              "expr_p50_us": "us", "expr_p99_us": "us"}
LAWS = ("commutativity-add", "commutativity-mul", "assoc-add", "assoc-mul", "distributivity",
        "neutral-zero", "neutral-one", "archimedean", "theorem-archimedean-mll")
PER_LAYER = {
    "import.nda_s": "s",
    "funcparam.bind_s": "s", "funcparam.points": "count", "funcparam.bind_us_per_point": "us",
    **{f"laws.{law}_s": "s" for law in LAWS},
    "laws.assoc-add_peak_mb": "MB", "laws.assoc-mul_peak_mb": "MB", "laws.distributivity_peak_mb": "MB",
    "laws.cells": "count", "laws.violations": "count", "laws.cells_per_s": "1/s",
    "cli.self_s": "s",
    "exprlang.parse_us": "us", "exprlang.evaluate_us": "us", "exprlang.ops": "count",
    "arith.add_us": "us", "arith.mul_us": "us",
    "series.partial_sums_s": "s", "series.terms": "count",
    "trace.overhead_s": "s",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    return parser.parse_args(argv)


def context() -> dict:
    """Where the figures come from; only results with the same context compare."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    info = {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
    for path in sorted((SRC / "nda").glob("*.py")):
        info[f"src_lines.{path.stem}"] = len(path.read_text().splitlines())
    return info


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _child(args: list[str], timeout: float) -> tuple[dict | None, str]:
    """Run child.py in a fresh interpreter; (report, "") or (None, why it failed)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(CHILD_ENV)
    try:
        done = subprocess.run([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT, env=env,
                              preexec_fn=_limit_memory, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"child killed after {timeout:.0f} s"
    if done.returncode != 0:
        tail = " | ".join(done.stderr.strip().splitlines()[-3:])
        return None, f"child exited with {done.returncode}: {tail}"
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError) as exc:
        return None, f"child printed no result: {exc}"


class Gate:
    """Expected results of one workload's inputs, computed before anything is timed."""

    def __init__(self, inputs):
        # imported late: main() must first report a checkout without tests/reference.py
        from oracle import ref_arith
        specs = {spec for spec, _ in inputs.exprs} | {spec for spec, _ in inputs.folds}
        oracles = {spec: ref_arith(spec, inputs.table) for spec in specs}
        self.exprs = [oracles[spec].evaluate(tree) for (spec, _), tree in zip(inputs.exprs, inputs.trees)]
        self.folds = [oracles[spec].fold(indices)
                      for (spec, _), indices in zip(inputs.folds, inputs.fold_indices)]
        recorded = json.loads((HERE / "expected_audits.json").read_text())
        self.audits = [recorded[job["spec"]][str(job["upper"])] for job in inputs.audits]
        self.operations = sum(map(len, self.audits)) + len(self.exprs) + len(self.folds)

    def failures(self, report: dict) -> list[str]:
        """One message per operation whose result is wrong."""
        from oracle import audit_mismatches, same_result
        problems = []
        for job, expected in zip(report["audits"], self.audits):
            if job["rc"] != 0:
                problems += [f"nda laws exited with {job['rc']}"] * len(expected)
            else:
                problems += audit_mismatches(job["records"], expected)
        for i, (got, want) in enumerate(zip(report["exprs"], self.exprs)):
            if not same_result(got, want):
                problems.append(f"expression {i}: got {got}, expected {want}")
        for i, (got, want) in enumerate(zip(report["folds"], self.folds)):
            if got != want:
                problems.append(f"fold {i}: got {got[:2]}, expected {want[:2]}")
        return problems


def _percentile(ordered: list, q: float):
    """Nearest-rank percentile of a sorted list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_workload(workload: str, seed: int, seconds: int, trace: int, smoke: bool) -> dict:
    started = time.monotonic()
    preset = SMOKE if smoke else FULL
    tag = f"{workload}-seed{seed}" + ("-smoke" if smoke else "")
    OUT.mkdir(exist_ok=True)
    table_path = OUT / f"table-seed{seed}-{preset.table_points}.txt"
    inputs = build(workload, seed, preset, os.path.relpath(table_path, ROOT))
    if inputs.table:
        table_path.write_text("".join(f"{x} {y}\n" for x, y in inputs.table))
    inputs_path = OUT / f"{tag}-inputs.json"
    inputs_path.write_text(json.dumps(inputs.to_child()))
    gate = Gate(inputs)

    measuring = time.monotonic()

    children, failures = [], []
    attempted = failed = 0
    need = {0: 1, 1: 1} if trace else {0: MIN_ITERATIONS}  # minimum children per mode
    longest = 0.0
    while True:
        elapsed = time.monotonic() - started
        enough = (all(sum(c["mode"] == m for c in children) >= n for m, n in need.items())
                  and len(children) % len(need) == 0)
        if enough and time.monotonic() - measuring + longest > seconds:
            break
        if children and DEADLINE_S - elapsed < 2 * longest:
            break
        mode = len(children) % len(need)  # traced runs alternate untraced and traced children
        t0 = time.monotonic()
        report, why = _child([str(inputs_path), str(SRC), str(mode)], DEADLINE_S - elapsed)
        wall = time.monotonic() - t0
        longest = max(longest, wall)
        attempted += gate.operations
        problems = gate.failures(report) if report else [why] * gate.operations
        failed += len(problems)
        failures.extend(problems[:max(0, 20 - len(failures))])
        children.append({"mode": mode, "wall_s": wall, "failed": len(problems), "report": report})

    metrics, samples, spans = _aggregate(children, trace)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds, "smoke": smoke,
        "context": context(), "failed_frac": failed / attempted, "failures": failures,
        "samples": samples,
        "iterations": [{k: (c["report"] or {}).get(k) for k in ("setup_s", "run_s", "peak_rss_mb",
                                                                 "setup_gauge_s", "run_gauge_s")}
                       | {"mode": c["mode"], "wall_s": c["wall_s"], "failed": c["failed"]}
                       for c in children],
        "metrics": metrics, "spans": spans,
    }
    (OUT / f"{tag}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def _scaled(report: dict) -> dict:
    """A child's end-to-end times at the reference gauge reading."""
    return {
        "setup_s": report["setup_s"] * GAUGE_S / report["setup_gauge_s"],
        "run_s": report["run_s"] * GAUGE_S / report["run_gauge_s"],
        "expr_ns": [ns * GAUGE_S / gauge
                    for ns, gauge in zip(report["expr_ns"], report["expr_gauge_s"])],
    }


def _aggregate(children: list[dict], trace: int) -> tuple[dict, dict, dict | None]:
    plain = [c["report"] for c in children if c["report"] and c["mode"] == 0]
    traced = [c["report"] for c in children if c["report"] and c["mode"] == 1]
    scaled = [_scaled(r) for r in plain]
    latencies = sorted(map(statistics.median, zip(*(r["expr_ns"] for r in scaled))))
    samples = {"untraced_iterations": len(plain), "traced_iterations": len(traced),
               "expressions": len(latencies), "evaluations_per_expression": len(plain)}
    if not plain or not latencies or (trace and not traced):
        return {}, samples, None
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in scaled),
        "run_s": statistics.median(r["run_s"] for r in scaled),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "expr_p50_us": _percentile(latencies, 0.50) / 1000,
        "expr_p99_us": _percentile(latencies, 0.99) / 1000,
    }
    units, spans = END_TO_END, None
    if trace:
        run_s = values["run_s"]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = statistics.median(_scaled(r)["run_s"] for r in traced) - run_s
        units, spans = PER_LAYER, traced[0]["spans"]
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}, samples, spans


def _print(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload:12s} {name:34s} {metric['value']:16.6f} {metric['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"{workload:12s} {'failed_frac':34s} {frac:16.6f} ({result['failed']}/{result['attempted']})")


def main(argv=None) -> int:
    args = _parse_args(argv)
    missing = [p for p in (SRC / "nda" / "__init__.py", ROOT / "tests" / "reference.py") if not p.is_file()]
    if missing:
        print(f"not a checkout of nda: missing {', '.join(str(p.relative_to(ROOT)) for p in missing)}",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload:
        result = run_workload(args.workload, args.seed, seconds, args.trace, args.smoke)
        _print(args.workload, result)
        print(json.dumps(result))
        return 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(workload, args.seed, seconds, trace, args.smoke)
            _print(workload, result)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
