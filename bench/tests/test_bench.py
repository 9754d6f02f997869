"""Self-tests of the benchmark, on its smoke preset (R=12, few expressions).

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, PER_LAYER  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--smoke", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _checkout(tmp_path: Path, with_program: bool = True) -> Path:
    """A copy of what the benchmark needs: BENCHMARK.json and bench/, plus src/ and the oracle."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_program:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
        (tmp_path / "tests").mkdir()
        shutil.copy(ROOT / "tests" / "reference.py", tmp_path / "tests")
    return tmp_path


def test_metric_lists_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == ["audit-float", "audit-exact", "session"]


def test_smoke_emits_every_metric_with_its_unit():
    done = _run(ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in SPEC["workloads"]:
        for name, unit in {**END_TO_END, **PER_LAYER}.items():
            metric = result["metrics"][f"{workload['name']}.{name}"]
            assert metric["unit"] == unit
            assert isinstance(metric["value"], (int, float))
    for name in ("setup_s", "run_s", "peak_rss_mb", "expr_p50_us", "expr_p99_us"):
        assert all(result["metrics"][f"{w['name']}.{name}"]["value"] > 0 for w in SPEC["workloads"])
    record = json.loads((BENCH / "out" / "session-seed0-smoke-trace1.json").read_text())
    assert record["failed_frac"] == 0
    assert record["context"]["src_lines.laws"] > 0 and record["context"]["nproc"] >= 1
    assert record["spans"]["exprlang.parse_text"][0] > 0
    assert all(it["run_gauge_s"] > 0 and it["setup_gauge_s"] > 0 for it in record["iterations"])


def test_scaling_cancels_a_uniformly_slower_host():
    from run import _scaled
    report = {"setup_s": 0.1, "run_s": 2.0, "setup_gauge_s": 0.0012, "run_gauge_s": 0.0011,
              "expr_ns": [20_000, 50_000], "expr_gauge_s": [0.0010, 0.0013]}
    slow = {k: [x * 1.7 for x in v] if isinstance(v, list) else v * 1.7 for k, v in report.items()}
    for name, value in _scaled(report).items():
        assert _scaled(slow)[name] == pytest.approx(value)


def test_audit_probes_are_timed_outside_run_s():
    from inputs import SMOKE, build
    audit = build("audit-float", 0, SMOKE, "unused").to_child()
    assert audit["probes"] and not audit["exprs"]
    session = build("session", 0, SMOKE, "table.txt").to_child()
    assert session["exprs"] and not session["probes"]


def test_corrupted_expectation_makes_failed_frac_positive(tmp_path):
    checkout = _checkout(tmp_path)
    expected_path = checkout / "bench" / "expected_audits.json"
    expected = json.loads(expected_path.read_text())
    records = expected["projective:pow:1.5@int:0:1000"]["12"]
    assoc = next(r for r in records if r["law"] == "assoc-add")
    assoc["violations"] += 1
    expected_path.write_text(json.dumps(expected))

    done = _run(checkout, "--workload", "audit-float", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    record = json.loads((checkout / "bench" / "out" / "audit-float-seed0-smoke-trace0.json").read_text())
    assert record["failed_frac"] > 0
    assert any("assoc-add: violations" in message for message in record["failures"])


def test_memory_guard_fails_the_run_not_the_machine(monkeypatch, tmp_path):
    import run
    # import fits in 256 MiB of address space; the R=300 audit needs about 620 MiB
    monkeypatch.setattr(run, "MEMORY_LIMIT", 256 * 2**20)
    monkeypatch.setattr(run, "OUT", tmp_path)
    result = run.run_workload("audit-float", 0, 1, 0, smoke=False)
    assert not result["correct"] and result["failed"] == result["attempted"] > 0
    record = json.loads((tmp_path / "audit-float-seed0-trace0.json").read_text())
    assert any("MemoryError" in message for message in record["failures"])


@pytest.mark.parametrize("workload", [None, "session"])
def test_refuses_to_run_without_the_program(tmp_path, workload):
    checkout = _checkout(tmp_path, with_program=False)
    done = _run(checkout, *(["--workload", workload] if workload else []))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
