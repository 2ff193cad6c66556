"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest bench/selftest.py

The smoke runs take a few minutes: each workload runs once untraced and
once traced, with --seconds 1 (one pass, or the three passes of a traced
run).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import Tracer  # noqa: E402
from workloads import stage_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=600)


def run_workload(tmp_path, workload, trace, reference=None):
    args = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
            "--out-dir", str(tmp_path)]
    if reference is not None:
        args += ["--reference", str(reference)]
    proc = bench(ROOT, *args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_unit(tmp_path, workload, trace):
    lines, result = run_workload(tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1]), m["name"]
    record = json.loads((tmp_path / f"{workload}_seed3_trace{trace}.json").read_text())
    for key in ("nproc", "python", "numpy", "sympy", "commit", "workers",
                "LATTICEDEX_THREADS", "blas_pin"):
        assert key in record["env"]
    if not trace:
        assert result["metrics"]["peak_rss_mb"]["value"] > 0
        assert all(v["value"] > 0 for k, v in result["metrics"].items() if k.endswith("_s"))


def test_stage_times_take_each_operation_at_its_fastest():
    samples = [
        {"design/a/build": 2.0, "design/a/hash": 1.0, "sweep-large/x": 5.0, "sweep-small/y": 1.0},
        {"design/a/build": 3.0, "design/a/hash": 0.5, "sweep-large/x": 4.0, "sweep-small/y": 2.0},
        {"design/a/build": 1.5, "design/a/hash": 0.7},
    ]
    got = stage_times(samples)
    assert got["design_s"] == pytest.approx(1.5 + 0.5)
    assert got["sweep_large_s"] == pytest.approx(4.0)
    assert got["sweep_s"] == pytest.approx(4.0 + 1.0)
    assert got["total_s"] == pytest.approx(1.5 + 0.5 + 4.0 + 1.0)
    assert "module_s" not in got


def test_corrupted_reference_counts_failures(tmp_path):
    ref = json.loads((BENCH / "reference.json").read_text())
    ref["hashes"]["example1"] = "0" * 64
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(ref))
    lines, result = run_workload(tmp_path, "sweep", 0, reference=bad)
    assert not result["correct"] and result["failed"] > 0
    frac = next(line for line in lines if line.split()[:1] == ["failed_ops_frac"])
    assert float(frac.split()[1]) > 0


def test_refuses_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_and_nesting():
    tr = Tracer("t")
    with tr.span("root"):
        with tr.span("child"):
            time.sleep(0.01)
        with tr.span("child"):
            with tr.span("leaf"):
                time.sleep(0.01)
    assert tr.nesting_violations() == 0
    table = tr.table()
    assert table["child"]["calls"] == 2
    total = sum(row["self_s"] for row in table.values())
    assert total == pytest.approx(table["root"]["total_s"], abs=1e-9)
    assert all(row["self_s"] >= 0 for row in table.values())
    assert table["root"]["self_s"] < table["child"]["total_s"]


def test_wrap_restores_attribute():
    class Owner:
        def f(self, x):
            return x + 1

    tr = Tracer("t")
    orig = Owner.__dict__["f"]
    tr.wrap(Owner, "f", "owner.f", lambda t, out, args: t.count("seen", out))
    assert Owner().f(1) == 2
    tr.uninstall()
    assert Owner.__dict__["f"] is orig
    assert tr.counts["seen"] == 2 and tr.table()["owner.f"]["calls"] == 1
