"""Self-test of the benchmark: its output check, percentiles and traced metrics.

Run from the root of a pdls checkout:

    python3 -m pytest benchmarks/test_selftest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from run import REFERENCES, Pass, end_to_end, latency_summary, mismatched  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUN_LAYER_METRICS = {"process.sys_cpu_s", "process.minor_faults", "trace.overhead_frac"}


def _references():
    with np.load(REFERENCES) as refs:
        return {k: refs[k] for k in refs.files}


@pytest.mark.parametrize("key", sorted(_references()))
def test_perturbed_output_counts_as_failed(key):
    per_value = WORKLOADS[key.split("/")[0]].per_value
    for expected in _references()[key]:
        assert not mismatched(expected.copy(), expected, per_value)
        assert mismatched(expected * (1 + 1e-9), expected, per_value)


def test_missing_or_non_finite_output_counts_as_failed():
    expected = np.array([0.5, 2.0])
    assert mismatched(None, expected, per_value=True)
    assert mismatched(np.array([0.5, np.nan]), expected, per_value=False)
    assert mismatched(np.array([0.5]), expected, per_value=False)


def test_percentiles_carry_their_sample_count():
    summary = latency_summary([float(v) for v in range(1, 101)])
    assert summary == {"p50": pytest.approx(50.5), "p90": pytest.approx(90.1), "n": 100}
    assert latency_summary([7.0]) == {"p50": 7.0, "p90": 7.0, "n": 1}


def test_end_to_end_rows_name_every_metric_with_unit_and_samples():
    timed = Pass()
    timed.samples_ms = timed.samples_ms_ref = [10.0, 20.0, 30.0]
    timed.busy_s = timed.busy_s_ref = 0.06
    timed.restores, timed.cpu_s = 3, 0.05
    rows = {name: (unit, note) for name, _, unit, note in end_to_end(timed, 1.5)}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {name: unit for name, (unit, _) in rows.items()}
    assert rows["restore_p50_ms"][1] == rows["restore_p90_ms"][1] == "n=3"


def _traced_toy_unit(tmp_path):
    workload = WORKLOADS["toy2d-sweep"]
    with Tracer() as tracer:
        state = workload.prepare(tmp_path, 0)
        workload.unit(state, 0)
    return tracer


def test_traced_unit_emits_every_per_layer_metric(tmp_path):
    tracer = _traced_toy_unit(tmp_path)
    assert tracer.absent == []
    names = set(layer_metrics(tracer)) | RUN_LAYER_METRICS
    assert names == {m["name"] for m in SPEC["per_layer"]}


def test_hook_on_a_removed_function_is_reported_absent(tmp_path, monkeypatch):
    import pdls.pipeline

    monkeypatch.delattr(pdls.pipeline, "marginal_velocity")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert "pdls.pipeline.marginal_velocity" in tracer.absent
    metrics = layer_metrics(tracer)
    assert not any(name.startswith("flowfield.") for name in metrics)
    assert "integrate.self_s" in metrics
