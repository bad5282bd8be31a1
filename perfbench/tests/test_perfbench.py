"""Tests of the serving benchmark itself (smoke geometry, a few seconds each).

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as cli  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from repro.serving.service import PredictionService  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = 1.0


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_end_to_end_metrics(workload):
    result = workloads.run(workload, seed=3, seconds=SECONDS, smoke=True)
    metrics, attempted, failed = workloads.end_to_end([workloads.summarize(result)])
    expected = _units("end_to_end")
    if workload == "profile-writes":
        expected["write_p50_ms"] = "ms"
    assert {k: u for k, (_, u) in metrics.items()} == expected
    assert attempted > 0
    mismatches = int(result["mismatch"].sum())
    assert failed == mismatches
    if workload != "profile-writes":
        assert mismatches == 0
    # profile-writes can serve stale answers at this commit: given
    # matrices are identified by (shape, n_ratings, sum), so two write
    # sequences with equal sums share cached state (ROADMAP open item 1).
    # The run counts each one as failed and exits non-zero.
    for name, (value, _) in metrics.items():
        assert value > 0, name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_per_layer_metrics(workload):
    tracer = Tracer().install()
    try:
        result = workloads.run(workload, seed=4, seconds=SECONDS, smoke=True, tracer=tracer)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    metrics = cli.per_layer(result, tracer.spans(), tracer.span_cost())
    assert {k: u for k, (_, u) in metrics.items()} == _units("per_layer")
    if workload == "warm-pairs":
        assert metrics["batcher.dispatches"][0] > 0
        assert metrics["model.state.hit_ratio"][0] == 1.0
    if workload == "cold-slates":
        assert metrics["model.state.cold"][0] > 0
        for name in ("icluster.affinity_ms.mean", "icluster.candidates_ms.mean",
                     "selection.topk_ms.mean", "fusion.prepare_ms.mean"):
            assert metrics[name][0] > 0, name
    if workload == "profile-writes":
        assert metrics["data.with_ratings_ms.p50"][0] > 0
        assert 0 < metrics["service.cache.hit_ratio"][0] < 1


def test_perturbed_served_value_is_caught_and_counted():
    """A wrapper that nudges one served prediction must fail the check."""
    tracer = Tracer()

    def perturb_first(original):
        state = {"done": False}

        def serve(self, *args, **kwargs):
            res = original(self, *args, **kwargs)
            if not state["done"] and res.predictions.size:
                res.predictions[0] += 1e-6
                state["done"] = True
            return res

        return serve

    tracer.patch(PredictionService, "predict_many", perturb_first)
    try:
        result = workloads.run("cold-slates", seed=5, seconds=0.5, smoke=True)
    finally:
        tracer.uninstall()
    _, attempted, failed = workloads.end_to_end([workloads.summarize(result)])
    assert int(result["mismatch"].sum()) == 1
    assert failed == 1 and attempted > 1


def test_missing_trace_target_is_reported_not_raised():
    tracer = Tracer().install((
        ("x", "repro.serving.pool_removed:KernelPool", "checkout", "pool.checkout"),
        ("x", "repro.core.model:CFSF", "borrowed_kernel_removed", "model.borrow"),
    ))
    tracer.uninstall()
    assert len(tracer.absent) == 2


def test_wrappers_pass_any_signature_and_restore():
    class Kernel:
        def prepare_user(self, *args, **kwargs):
            return np.zeros(len(args) + len(kwargs))

    original = Kernel.__dict__["prepare_user"]
    tracer = Tracer()
    assert tracer.wrap(Kernel, "prepare_user", "fusion.prepare")
    tracer.enabled = True
    assert Kernel().prepare_user(1, 2, profile=3).size == 3
    tracer.uninstall()
    assert Kernel.__dict__["prepare_user"] is original
    [span] = tracer.spans()
    assert span.name == "fusion.prepare" and span.size == 3 and span.parent is None


def test_cli_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm-pairs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
