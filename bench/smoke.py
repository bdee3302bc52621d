"""Smoke test of the benchmark at tiny sizes; it runs in seconds.

    python3 -m pytest -q bench/smoke.py

It is not named test_*.py, so the repository's own test run does not
collect it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402
from scsparc import harness  # noqa: E402
from scsparc.design import DftDesign  # noqa: E402


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace, capsys):
    original = harness.run_trial
    assert bench.run_one(name, seed=5, seconds=0.0, trace=trace, tiny=True) == 0
    out = capsys.readouterr().out
    res = json.loads(out.strip().splitlines()[-1])
    assert harness.run_trial is original  # probes restored
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    units = bench.PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
    assert set(res["metrics"]) == set(units)
    for key, unit in units.items():
        metric = res["metrics"][key]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], (int, float)), key
    if not trace:
        assert all(res["metrics"][k]["value"] > 0 for k in units)
    printed = {line.split()[0]: line.split()[-1] for line in out.splitlines()[:-1] if line}
    for key, unit in {**bench.END_TO_END_UNITS, **bench.EXTRA_UNITS}.items():
        assert printed[key] == unit


class FlippedAdjoint(DftDesign):
    """A faulty operator: its adjoint does not conjugate the phases."""

    def apply_scaled_adjoint(self, S, z):
        saved = self._blocks
        self._blocks = {k: (rows, perm, ph.conj()) for k, (rows, perm, ph) in saved.items()}
        try:
            return super().apply_scaled_adjoint(S, z)
        finally:
            self._blocks = saved


def test_faulty_operator_counts_in_fail_frac(monkeypatch):
    monkeypatch.setattr(harness, "build_dft_design", FlippedAdjoint)
    run = bench.Run("offline_sweep", seed=5, trace=False, tiny=True)
    run.measure(0.0)
    # every SPARC trial fails; the SE runs of the sweep do not use the operator
    assert len(run.sers) >= 1 and run.failed == len(run.sers) < run.attempted
    assert run.end_to_end()["fail_frac"] == run.failed / run.attempted
    assert all("adjoint" in f or "diverged" in f for f in run.failures)


def test_adjoint_gap_separates_correct_and_flipped():
    spec = bench.workload_spec("offline_sweep", tiny=True)
    cfg = harness.ExperimentConfig.from_mapping(spec["sparc"])
    params, W = cfg.code_params(cfg.snr_db[0], cfg.rate_bits[0])
    rng = np.random.default_rng(0)
    assert bench.adjoint_gap(DftDesign(params, W, 1), rng) < bench.CHECK_TOL["adjoint"]
    assert bench.adjoint_gap(FlippedAdjoint(params, W, 1), rng) > 1e-3
