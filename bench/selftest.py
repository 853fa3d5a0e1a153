"""Self-tests of the benchmark, run on tiny passes:

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the repository's own test suite;
they take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli-groups", "cli-transforms", "api-session")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(*extra, cwd=ROOT, workload="cli-groups", trace=0):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    report = json.loads(lines[-2])["report"]
    return result, report


def failures(report):
    return [(op["name"], op["error"], [c for c in op["checks"]
                                       if not c["ok"]])
            for op in report["ops"] if not op["ok"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_emits_every_metric(workload, trace):
    result, report = result_of(run_bench("--size", "tiny",
                                         workload=workload, trace=trace))
    assert result["correct"], failures(report)
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        # an op's span self times add up to its traced wall time
        assert report["trace"]["self_time_residual_s"] <= 1e-3
    else:
        for m in wanted:
            assert result["metrics"][m["name"]]["value"] > 0.0, m["name"]


@pytest.mark.parametrize("workload", ["cli-groups", "api-session"])
def test_bad_op_is_counted_not_fatal(workload):
    clean, _ = result_of(run_bench("--size", "tiny", workload=workload))
    result, report = result_of(run_bench("--size", "tiny", "--inject",
                                         "bad-op", workload=workload))
    assert result["attempted"] == clean["attempted"] + 1
    assert result["failed"] == 1
    assert not result["correct"]
    bad = report["ops"][-1]
    assert not bad["ok"] and bad["name"] in ("bad-subcommand", "bad-call")
    if workload == "cli-groups":
        assert {"check": "exit code 0", "ok": False,
                "detail": "exit 2"} in bad["checks"]
    else:
        assert "ValueError" in bad["error"]
    assert bad["wall_s"] >= 0.0


def test_gate_miss_is_counted():
    result, report = result_of(run_bench("--size", "tiny", "--inject",
                                         "gate-miss",
                                         workload="cli-transforms"))
    assert not result["correct"]
    missed = [name for name, _, bad in failures(report) if bad]
    # every op with a recorded reference misses; qe's brute force too
    assert set(missed) == {"forward-disc", "heat-1", "spectral-action",
                           "count", "expfit", "qe"}
    assert result["failed"] == len(missed)


def test_fails_without_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(cwd=str(tmp_path))
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        assert '"correct"' not in line
