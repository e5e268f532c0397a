"""The benchmark's trace hooks must name attributes that exist in pdls.

benchmarks/tracing.py replaces public functions by module and attribute
name and reports a missing one as absent instead of failing, so a rename
in pdls would silently drop per-layer metrics. This test loads that file
by path, unchanged, and resolves every hook target.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("pdls_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_hook_resolves():
    hooks = load_tracing()._hooks()
    assert hooks
    missing = []
    for module, attr, *_ in hooks:
        try:
            functools.reduce(getattr, attr.split("."), importlib.import_module(module))
        except AttributeError:
            missing.append(f"{module}.{attr}")
    assert not missing, missing
