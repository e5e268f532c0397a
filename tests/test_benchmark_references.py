"""The benchmark's reference restores must still match their stored outputs.

benchmarks/run.py reruns a small case of each workload against
benchmarks/references.npz at a relative tolerance of 1e-12 and counts a
mismatch, a raise or a missing ``pdls.<name>`` as a failed restore. This
test loads that file by path, unchanged, with benchmarks/ first on
sys.path for its sibling modules, and runs the same check for every
workload BENCHMARK.json declares, so an output that moves or a name the
workloads need that the package stops exporting fails here first.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def bench_run():
    saved_path = list(sys.path)
    siblings = {"speed", "tracing", "workloads"}
    sys.path.insert(0, str(BENCHMARKS))
    try:
        spec = importlib.util.spec_from_file_location("pdls_bench_run", BENCHMARKS / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
    yield module
    for name in siblings:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", WORKLOADS)
def test_reference_restores_match(bench_run, tmp_path, name):
    attempted, failed = bench_run.check_references(name, tmp_path)
    assert attempted > 0
    assert failed == 0, f"{failed} of {attempted} reference restores of {name} failed"
