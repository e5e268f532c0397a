"""The benchmark's trace hooks must name attributes that exist in pdls, and a
restore must call them.

benchmarks/tracing.py replaces public functions by module and attribute
name and reports a missing one as absent instead of failing, so a rename
in pdls would silently drop per-layer metrics. These tests load that file
by path, unchanged, resolve every hook target, and count the calls a
restore makes through the pipeline's hooked names.
"""

import functools
import importlib
import importlib.util
import threading
from collections import Counter
from pathlib import Path

from pdls import cli, pipeline
from pdls.datasets import shapes32_dataset, shapes32_mixture
from pdls.flowfield import Condition
from pdls.pipeline import PdlsConfig, restore

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("pdls_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_hook_resolves():
    hooks = load_tracing()._hooks()
    assert {("pdls", "apply"), ("pdls.degrade", "apply")} <= {(m, a) for m, a, *_ in hooks}
    missing = []
    for module, attr, *_ in hooks:
        try:
            functools.reduce(getattr, attr.split("."), importlib.import_module(module))
        except AttributeError:
            missing.append(f"{module}.{attr}")
    assert not missing, missing


def test_a_restore_reaches_every_pipeline_hook(monkeypatch):
    # The per-layer metrics count calls of these names, so a drift that
    # stopped calling one through pdls.pipeline would leave its layer at 0.
    # The calls are counted on a second restore of the same config, so a
    # cache kept across restores that skips a hooked name fails here on
    # every run, whatever ran before.
    names = [attr for module, attr, *_ in load_tracing()._hooks() if module == "pdls.pipeline"]
    assert {"marginal_velocity", "eta", "lqr_control", "blend_drift", "integrate",
            "invert_path", "steered_generate"} <= set(names)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    image, label = shapes32_dataset(n_per_class=1)[0]
    mixture, config = shapes32_mixture(), PdlsConfig(n_steps=6)
    restore(image.flatten(), mixture, Condition.of(label), config, 0)
    for name in names:
        monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
    restore(image.flatten(), mixture, Condition.of(label), config, 0)
    assert calls["marginal_velocity"] == 2 * config.n_steps
    assert all(calls[name] >= 1 for name in names), calls


def test_an_image_restore_makes_every_hooked_call_on_the_calling_thread(monkeypatch, tmp_path):
    # The tracer keeps one span stack per process, so a hooked name called
    # from the thread that makes an image restore's files would corrupt it.
    threads = Counter()

    def on_thread(name, fn):
        def wrapper(*args, **kwargs):
            threads[name, threading.current_thread() is threading.main_thread()] += 1
            return fn(*args, **kwargs)
        return wrapper

    deg = tmp_path / "deg"
    assert cli.main(["degrade", "--out", str(deg), "--op", "gblur:size=7,sigma=1.5", "--demo",
                     "--n-per-class", "1"]) == 0
    for module, attr, *_ in load_tracing()._hooks():
        *parents, name = attr.split(".")
        owner = functools.reduce(getattr, parents, importlib.import_module(module))
        monkeypatch.setattr(owner, name, on_thread(f"{module}.{attr}", getattr(owner, name)))
    assert cli.main(["restore", "--out", str(tmp_path / "out"), "--manifest",
                     str(deg / "manifest.json"), "--n-per-class", "1", "--steps", "2"]) == 0
    assert threads["pdls.fileio.write_pgm", True] == 3
    assert all(main for _, main in threads), threads
