"""One benchmark iteration, in a fresh interpreter.

    python3 child.py <inputs.json> <src dir> <trace 0|1>

Set-up is ``import nda`` plus binding every arithmetic the inputs name.
The body then runs, in this order and in one thread: the ``nda laws``
audits through ``cli.main``, the expressions through
``exprlang.parse_text`` and ``exprlang.evaluate`` (each one timed, once),
and the folds through ``series.arith_partial_sums``.  Probe expressions
(``probes`` in the inputs) are evaluated the same way after ``run_s`` has
closed, so that they do not count in it.  One JSON object goes to stdout;
the parent checks the results and aggregates the timings.

The shared host runs this process at a speed that wanders by up to 1.8x
over seconds to minutes.  So each child also times a gauge: a fixed
dict-and-int loop in pure Python that uses no ``nda`` code, whose time says
how fast the host is running the interpreter right then.  It runs before
and after set-up, between blocks of ``EXPR_BLOCK`` expressions, and,
from a timer signal, every ``SAMPLE_INTERVAL_S`` seconds of the body.  Time
spent in gauges is taken out of ``run_s`` and of each expression's time.
The parent divides each time by its gauges.  (A NumPy gauge was tried and
tracked the host worse, on the NumPy-heavy audits too.)

With trace 1, wrappers defined here record a span around every call into
the modules' public functions; the package itself is not changed.  After
the body, the three 3-ary laws are run once more under tracemalloc to
measure their peak allocation, outside every timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

MEMORY_LAWS = ("assoc-add", "assoc-mul", "distributivity")
EXPR_BLOCK = 100  # expressions timed between two Python gauges
SAMPLE_INTERVAL_S = 0.02  # timer period of the body's gauge samples
GAUGE_LOOPS = 2000  # one gauge pass takes about 0.3 ms
LAW_NAMES = ("commutativity-add", "commutativity-mul", "assoc-add", "assoc-mul",
             "distributivity", "neutral-zero", "neutral-one",
             "archimedean", "theorem-archimedean-mll")


def sums_digest(sums: list) -> str:
    """Digest of a fold's partial sums; the oracle hashes the identical JSON."""
    return hashlib.sha256(json.dumps(sums).encode()).hexdigest()


class Tracer:
    """Spans in memory: [name, parent index, start, end, count], written out at the end."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list = []

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, -1, start, end, 0])

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name(args) if callable(name) else name, stack[-1] if stack else -1, 0.0, 0.0, 0]
            spans.append(span)
            stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result
        return traced

    def patch(self, owner, attr: str, name, count=None) -> None:
        raw = owner.__dict__[attr]
        self._restore.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self._wrap(raw.__func__, name, count)))
        else:
            setattr(owner, attr, self._wrap(raw, name, count))

    def unpatch(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def install(self) -> None:
        from nda import arith, cli, exprlang, laws, series

        def binary_nodes(node) -> int:
            if isinstance(node, (exprlang.Binary, exprlang.Relation)):
                own = isinstance(node, exprlang.Binary)
                return own + binary_nodes(node.left) + binary_nodes(node.right)
            return 0

        self.patch(cli, "main", "cli.main")
        self.patch(arith.Arithmetic, "from_spec", "arith.from_spec")
        self.patch(arith, "bind", "funcparam.bind", lambda args, _: args[1].size)
        self.patch(laws, "check_law", lambda args: f"laws.{args[1]}")
        self.patch(laws, "check_archimedean", "laws.archimedean")
        self.patch(laws, "verify_archimedean_theorem", "laws.theorem-archimedean-mll")
        self.patch(exprlang, "parse_text", "exprlang.parse_text", lambda _, node: binary_nodes(node))
        self.patch(exprlang, "evaluate", "exprlang.evaluate")
        self.patch(arith.Arithmetic, "add", "arith.add")
        self.patch(arith.Arithmetic, "mul", "arith.mul")
        self.patch(series, "arith_partial_sums", "series.partial_sums", lambda args, _: args[2])

    def summary(self) -> dict:
        """Per span name: [calls, total seconds, self seconds, summed count]."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = {}
        for (name, parent, start, end, count), inner in zip(self.spans, child_time):
            row = out.setdefault(name, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
            row[3] += count
        return out

    def layers(self, law_records: list[dict]) -> dict:
        """The per-layer metrics of one traced iteration (peak memory is added later)."""
        summary = self.summary()

        def row(name: str) -> list:
            return summary.get(name, [0, 0.0, 0.0, 0])

        def mean_us(name: str) -> float:
            calls, secs = row(name)[:2]
            return secs / calls * 1e6 if calls else 0.0

        # a law span nested in another law span (archimedean inside the theorem) is not a law run
        law_s = dict.fromkeys(LAW_NAMES, 0.0)
        for name, parent, start, end, _ in self.spans:
            law = name[5:] if name.startswith("laws.") else None
            if law in law_s and not (parent >= 0 and self.spans[parent][0].startswith("laws.")):
                law_s[law] += end - start
        bind_s, points = row("funcparam.bind")[1], row("funcparam.bind")[3]
        parses, parsed_ops = row("exprlang.parse_text")[0], row("exprlang.parse_text")[3]
        cells = sum(r["pairs_checked"] for r in law_records)
        law_time = sum(law_s.values())
        return {
            "import.nda_s": row("import.nda")[1],
            "funcparam.bind_s": bind_s,
            "funcparam.points": points,
            "funcparam.bind_us_per_point": bind_s / points * 1e6 if points else 0.0,
            **{f"laws.{law}_s": secs for law, secs in law_s.items()},
            "laws.cells": cells,
            "laws.violations": sum(r["violations"] or 0 for r in law_records),
            "laws.cells_per_s": cells / law_time if law_time else 0.0,
            "cli.self_s": row("cli.main")[2],
            "exprlang.parse_us": mean_us("exprlang.parse_text"),
            "exprlang.evaluate_us": mean_us("exprlang.evaluate"),
            "exprlang.ops": parsed_ops / parses if parses else 0.0,
            "arith.add_us": mean_us("arith.add"),
            "arith.mul_us": mean_us("arith.mul"),
            "series.partial_sums_s": row("series.partial_sums")[1],
            "series.terms": row("series.partial_sums")[3],
        }


def _import_nda(src: str) -> None:
    sys.path.insert(0, src)
    import nda
    if Path(nda.__file__).resolve().parent != (Path(src) / "nda").resolve():
        raise SystemExit(f"imported nda from {nda.__file__}, not from {src}")


def _gauge_pass() -> float:
    """Seconds of one pass of the gauge loop."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(GAUGE_LOOPS):
        k = i * 2654435761 % 1000003
        table[k] = table.get(k, 0) + i
    return time.perf_counter() - t0


def python_gauge() -> float:
    """Best of three gauge passes; pure Python, so nothing is imported."""
    return min(_gauge_pass() for _ in range(3))


class Gauges:
    """Gauge samples taken while the body runs, and the time they took.

    Inside the ``with`` block a SIGALRM timer runs one gauge pass every
    ``SAMPLE_INTERVAL_S``; the handler runs between bytecodes, so a long
    NumPy call delays a sample but is never cut.  ``spent`` sums the seconds
    of every sample and block gauge, to be taken out of timings.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _sample(self, *_) -> None:
        if self._busy:
            return
        t0 = time.perf_counter()
        self.samples.append(_gauge_pass())
        self.spent += time.perf_counter() - t0

    def block(self) -> float:
        """The Python gauge of one expression block; no sample interrupts it."""
        self._busy = True
        try:
            t0 = time.perf_counter()
            gauge = python_gauge()
            self.spent += time.perf_counter() - t0
        finally:
            self._busy = False
        return gauge

    def __enter__(self) -> Gauges:
        self._sample()
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()


def _evaluate_all(exprs: list, ariths: dict, gauges: Gauges) -> tuple[list[int], list, list[float]]:
    """Parse and evaluate each (spec, text) once.

    Returns nanoseconds per expression (gauge samples taken out), results,
    and for each expression the mean of the gauges before and after its block.
    """
    from nda import exprlang
    from nda.errors import NdaError
    clock = time.perf_counter_ns
    expr_ns, results, block_gauges = [], [], []
    before = gauges.block()
    for first in range(0, len(exprs), EXPR_BLOCK):
        block = exprs[first:first + EXPR_BLOCK]
        for spec, text in block:
            arith = ariths[spec]
            spent = gauges.spent
            t0 = clock()
            try:
                result = ["v", exprlang.evaluate(exprlang.parse_text(text), arith)]
            except NdaError as exc:
                result = ["e", type(exc).__name__]
            except Exception as exc:  # a wrong error class is a failed expression, not a dead run
                result = ["x", f"{type(exc).__name__}: {exc}"]
            expr_ns.append(clock() - t0 - round((gauges.spent - spent) * 1e9))
            results.append(result)
        after = gauges.block()
        block_gauges += [(before + after) / 2] * len(block)
        before = after
    return expr_ns, results, block_gauges


def main(argv: list[str]) -> int:
    inputs = json.loads(Path(argv[0]).read_text())
    tracer = Tracer() if argv[2] == "1" else None

    before_setup = python_gauge()
    start = time.perf_counter()
    _import_nda(argv[1])
    imported = time.perf_counter()
    from nda import cli, series
    from nda.arith import Arithmetic
    if tracer:
        tracer.record("import.nda", start, imported)
        tracer.install()
    ariths = {spec: Arithmetic.from_spec(spec) for spec in inputs["binds"]}
    setup_s = time.perf_counter() - start
    after_setup = python_gauge()

    with Gauges() as gauges:
        body = time.perf_counter()
        outputs = []
        for job in inputs["audits"]:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                rc = cli.main(job["argv"])
            outputs.append((rc, buffer.getvalue()))
        expr_ns, results, expr_gauges = _evaluate_all(inputs["exprs"], ariths, gauges)
        fold_sums = []
        for spec, values in inputs["folds"]:
            seq = series.SequenceSpec(series.LIST, values=tuple(values))
            fold_sums.append(series.arith_partial_sums(ariths[spec], seq, len(values)))
        run_s = time.perf_counter() - body - gauges.spent
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe_ns, probe_results, probe_gauges = _evaluate_all(inputs["probes"], ariths, gauges)

    audits = [{"rc": rc, "records": [json.loads(line) for line in text.splitlines()]}
              for rc, text in outputs]
    layers = None
    if tracer:
        tracer.unpatch()
        layers = tracer.layers([r for job in audits for r in job["records"]])
        layers.update(_law_peaks(inputs["audits"], ariths))
    report = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "setup_gauge_s": (before_setup + after_setup) / 2,
        "run_gauge_s": sum(gauges.samples) / len(gauges.samples),
        "run_gauge_samples": len(gauges.samples),
        "expr_ns": expr_ns + probe_ns,
        "expr_gauge_s": expr_gauges + probe_gauges,
        "exprs": results + probe_results,
        "audits": audits,
        "folds": [[sums[-1], stationary_at, sums_digest(sums)] for sums, stationary_at in fold_sums],
        "layers": layers,
        "spans": tracer.summary() if tracer else None,
    }
    print(json.dumps(report))
    return 0


def _law_peaks(audits: list[dict], ariths: dict) -> dict:
    """Largest tracemalloc peak of each 3-ary law over the audited arithmetics, in MB."""
    import tracemalloc

    from nda import laws
    peaks = dict.fromkeys(MEMORY_LAWS, 0.0)
    for job in audits:
        for law in MEMORY_LAWS:
            tracemalloc.start()
            try:
                laws.check_law(ariths[job["spec"]], law, job["upper"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            peaks[law] = max(peaks[law], peak / 2**20)
    return {f"laws.{law}_peak_mb": mb for law, mb in peaks.items()}


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
