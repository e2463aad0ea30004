"""Smoke test of the standing benchmark (not in tier-1 ``testpaths``).

``python3 -m pytest benchmarks/standing/test_standing.py`` runs every
workload once untraced and once traced at ``--smoke`` scale and checks
the output contract: every name in ``BENCHMARK.json`` is printed and
reported, finite, with its unit; nothing unnamed is reported; each
bill adds up to its ``Client.call`` median within 10%; ``view_read``
causes no faults.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

_cache = {}


def run(workload: str, trace: int):
    """``(stdout lines, result)`` of one smoke run, cached."""
    key = (workload, trace)
    if key not in _cache:
        done = subprocess.run(
            [
                sys.executable, os.path.join(HERE, "run.py"),
                "--workload", workload, "--seed", "7",
                "--trace", str(trace), "--smoke",
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        lines = done.stdout.strip().split("\n")
        _cache[key] = (lines, json.loads(lines[-1]))
    return _cache[key]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_reports_exactly_the_declared_metrics(workload, trace):
    lines, result = run(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    printed = {line.split()[0]: line.split() for line in lines[:-1] if line}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(reported["value"]), metric["name"]
        # printed by name, with its unit and a sample count
        words = printed[metric["name"]]
        assert words[2] == metric["unit"] and words[3].startswith("n=")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_never_zero(workload):
    _lines, result = run(workload, 0)
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bill_adds_up(workload):
    _lines, result = run(workload, 1)
    metrics = result["metrics"]
    for kind in ("point", "scan", "vattr", "write", "firstq"):
        layers = sum(
            metrics[f"bill.{kind}.{layer}_ms"]["value"]
            for layer in
            ("wire", "session", "plan", "view", "engine", "storage")
            if (kind, layer) != ("write", "plan")  # writes are not planned
        )
        call = metrics[f"bill.{kind}.call_ms"]["value"]
        assert abs(layers - call) <= 0.10 * call, (kind, layers, call)


def test_view_read_leaves_storage_idle():
    _lines, result = run("view_read", 1)
    metrics = result["metrics"]
    assert metrics["storage.table_faults_per_stmt"]["value"] == 0
    assert metrics["storage.buffer_evictions"]["value"] == 0
    assert metrics["query.plan_cache_hit_ratio"]["value"] >= 0.95


def test_session_ddl_bypasses_the_plan_cache():
    _lines, result = run("session_ddl", 1)
    assert result["metrics"]["query.plan_cache_hit_ratio"]["value"] <= 0.05


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files the command must fail without printing a result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    target = tmp_path / "benchmarks" / "standing"
    shutil.copytree(
        HERE, target, ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [
            sys.executable, str(target / "run.py"), "--workload",
            "view_read", "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
