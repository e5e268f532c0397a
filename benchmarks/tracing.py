"""In-memory span tracing of pdls's public functions, and the per-layer metrics.

Each hook replaces a public function where its callers look it up (for
example ``pdls.pipeline.marginal_velocity``, the name the pipeline's drifts
call), so the package itself is unchanged. A call records one span
``(name, start, end, parent)``; a layer's self time is its spans' duration
minus the time covered by their direct child spans. A hook whose target no
longer exists is reported as absent, and the metrics that need it are left
out instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter

# Computed, not measured: the arithmetic of the direct (n, K, d) form of the
# field as written at the time this benchmark was defined. responsibilities:
# x - t*mu (n K d) and the squared-distance einsum (2 n K d); endpoint mean:
# x - t*mu, the coefficient product and the mean add (3 n K d) and the
# responsibility einsum (2 n K d); plus t*mu twice (2 K d) and
# (m - x) / (1 - t) (2 n d).
FLOPS_PER_NKD = 7
FLOPS_PER_KD = 2
FLOPS_PER_ND = 2
# Compulsory float64 traffic of one call: read the K means and the n points,
# write n velocities.
BYTES_PER_FLOAT = 8


def _field_span_name(args, kwargs):
    cond = args[3] if len(args) > 3 else kwargs.get("cond")
    null = cond is None or getattr(cond, "is_null", False)
    return "flowfield.marginal_velocity.null" if null else "flowfield.marginal_velocity.prompt"


class _FieldCounter:
    """Counts points, K*d work and computed flops of marginal_velocity calls."""

    def __init__(self):
        self._k = {}

    def __call__(self, counts, args, kwargs, result):
        x, mixture = args[0], args[2]
        cond = args[3] if len(args) > 3 else kwargs.get("cond")
        labels = getattr(cond, "labels", None)
        key = (id(mixture), labels)
        k = self._k.get(key)
        if k is None:
            k = (mixture.n_components if labels is None
                 else sum(1 for lb in mixture.labels if lb in labels))
            self._k[key] = k
        shape = getattr(x, "shape", None) or (len(x),)
        n = shape[0] if len(shape) == 2 else 1
        d = shape[-1]
        counts["flowfield.points"] += n
        counts["flowfield.component_dims"] += n * k * d
        counts["flowfield.flops"] += FLOPS_PER_NKD * n * k * d + FLOPS_PER_KD * k * d \
            + FLOPS_PER_ND * n * d
        counts["flowfield.bytes"] += BYTES_PER_FLOAT * (k * d + 2 * n * d)


def _count_steps(counts, args, kwargs, result):
    counts["integrate.steps"] += result.states.shape[0] - 1


def _count_file_bytes(counts, args, kwargs, result):
    counts["fileio.bytes_written"] += os.path.getsize(args[0])


def _hooks():
    """(module, attribute path, span name or name function, counter) per hook."""
    field = _FieldCounter()
    return [
        ("pdls.cli", "main", "cli", None),
        ("pdls.cli", "restore", "pipeline.restore", None),
        ("pdls.cli", "trajectory_to_csv", "integrate.trajectory_to_csv", None),
        ("pdls", "restore", "pipeline.restore", None),
        ("pdls.pipeline", "invert_path", "pipeline.invert_path", None),
        ("pdls.pipeline", "steered_generate", "pipeline.steered_generate", None),
        ("pdls.pipeline", "marginal_velocity", _field_span_name, field),
        ("pdls.flowfield", "Condition.select", "flowfield.select", None),
        ("pdls.pipeline", "integrate", "integrate.integrate", _count_steps),
        ("pdls.pipeline", "make_grid", "integrate.make_grid", None),
        ("pdls.pipeline", "eta", "control.eta", None),
        ("pdls.pipeline", "lqr_control", "control.lqr_control", None),
        ("pdls.pipeline", "blend_drift", "control.blend_drift", None),
        ("pdls.metrics", "report", "metrics.report", None),
        ("pdls.fileio", "read_pgm", "fileio.read_pgm", None),
        ("pdls.fileio", "write_pgm", "fileio.write_pgm", _count_file_bytes),
        ("pdls.degrade", "apply", "degrade.apply", None),
        ("pdls", "apply", "degrade.apply", None),
        ("pdls.datasets", "shapes32_dataset", "datasets.shapes32_dataset", None),
        ("pdls.datasets", "exemplar_mixture", "datasets.exemplar_mixture", None),
        ("pdls.datasets", "shapes32_mixture", "datasets.shapes32_mixture", None),
        ("pdls.datasets", "toy2d_mixture", "datasets.toy2d_mixture", None),
        ("pdls", "shapes32_dataset", "datasets.shapes32_dataset", None),
        ("pdls", "exemplar_mixture", "datasets.exemplar_mixture", None),
    ]


class Tracer:
    """Installs the hooks, keeps spans and counts in memory, and removes the hooks."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.counter_errors: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list = []

    def wrap(self, name, fn, counter=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        errors = self.counter_errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent)
            if counter is not None:
                try:
                    counter(counts, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    errors[label] += 1
            return result

        return traced

    def install(self) -> None:
        for module_name, path, name, counter in _hooks():
            target = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            if not callable(original):
                self.absent.append(target)
                continue
            setattr(owner, attr, self.wrap(name, original, counter))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def times(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        incl: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += end - start - child[i]
        return calls, incl, self_s


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, as (value, unit).

    A metric is left out when a hook it needs is absent, so a refactor that
    removes a function shows up as missing metrics.
    """
    calls, incl, self_s = tracer.times()
    absent = set(tracer.absent)
    out: dict[str, tuple[float, str]] = {}

    def have(*targets):
        return not any(t in absent for t in targets)

    def total(table, *names):
        return sum(table[n] for n in names)

    field = ("flowfield.marginal_velocity.null", "flowfield.marginal_velocity.prompt")
    if have("pdls.pipeline.marginal_velocity"):
        n_eval = total(calls, *field)
        out["flowfield.marginal_velocity.calls"] = (n_eval, "count")
        out["flowfield.marginal_velocity.self_s"] = (total(self_s, *field), "s")
        out["flowfield.marginal_velocity.null.self_s"] = (self_s[field[0]], "s")
        out["flowfield.marginal_velocity.prompt.self_s"] = (self_s[field[1]], "s")
        if not tracer.counter_errors.get(field[0]) and not tracer.counter_errors.get(field[1]):
            c = tracer.counts
            out["flowfield.points"] = (c["flowfield.points"], "count")
            out["flowfield.component_dims"] = (c["flowfield.component_dims"], "count")
            if c["flowfield.component_dims"]:
                out["flowfield.ns_per_component_dim"] = (
                    1e9 * total(incl, *field) / c["flowfield.component_dims"], "ns")
            out["flowfield.flops_computed"] = (c["flowfield.flops"], "flop")
            if c["flowfield.bytes"]:
                out["flowfield.flops_per_byte"] = (
                    c["flowfield.flops"] / c["flowfield.bytes"], "flop/B")
        if have("pdls.flowfield.Condition.select"):
            out["flowfield.select.self_s"] = (self_s["flowfield.select"], "s")
            if n_eval:
                out["flowfield.select_per_eval"] = (calls["flowfield.select"] / n_eval, "count")
        if have("pdls.cli.restore", "pdls.restore") and incl["pipeline.restore"]:
            out["pipeline.field_share"] = (
                total(incl, *field) / incl["pipeline.restore"], "fraction")

    if have("pdls.pipeline.integrate", "pdls.pipeline.make_grid"):
        steps = tracer.counts["integrate.steps"]
        integ = self_s["integrate.integrate"] + self_s["integrate.make_grid"]
        if not tracer.counter_errors.get("integrate.integrate"):
            out["integrate.steps"] = (steps, "count")
            if steps:
                out["integrate.us_per_step"] = (1e6 * integ / steps, "us")
        out["integrate.self_s"] = (integ, "s")

    control = ("control.eta", "control.lqr_control", "control.blend_drift")
    if have("pdls.pipeline.eta", "pdls.pipeline.lqr_control", "pdls.pipeline.blend_drift"):
        out["control.calls"] = (total(calls, *control), "count")
        out["control.self_s"] = (total(self_s, *control), "s")

    if have("pdls.pipeline.invert_path"):
        out["pipeline.invert_path.s"] = (incl["pipeline.invert_path"], "s")
    if have("pdls.pipeline.steered_generate"):
        out["pipeline.steered_generate.s"] = (incl["pipeline.steered_generate"], "s")
    if have("pdls.cli.restore", "pdls.restore"):
        out["pipeline.restore.self_s"] = (self_s["pipeline.restore"], "s")

    single = {
        "metrics.report.self_s": ("pdls.metrics.report", "metrics.report"),
        "fileio.read_pgm.self_s": ("pdls.fileio.read_pgm", "fileio.read_pgm"),
        "fileio.write_pgm.self_s": ("pdls.fileio.write_pgm", "fileio.write_pgm"),
        "integrate.trajectory_to_csv.self_s": ("pdls.cli.trajectory_to_csv",
                                               "integrate.trajectory_to_csv"),
        "cli.self_s": ("pdls.cli.main", "cli"),
        "degrade.apply.self_s": ("pdls.degrade.apply", "degrade.apply"),
    }
    for metric, (target, span) in single.items():
        if have(target):
            out[metric] = (self_s[span], "s")
    if have("pdls.fileio.write_pgm") and not tracer.counter_errors.get("fileio.write_pgm"):
        out["fileio.bytes_written"] = (tracer.counts["fileio.bytes_written"], "B")
    datasets = [n for n in self_s if n.startswith("datasets.")]
    if have("pdls.datasets.shapes32_dataset", "pdls.datasets.exemplar_mixture"):
        out["datasets.self_s"] = (total(self_s, *datasets), "s")
    return out
