"""pdls benchmark: one workload per process, end-to-end or traced per layer.

Run from the root of a pdls checkout:

    python3 benchmarks/run.py --workload shapes32-single --seed 0 --seconds 20 --trace 0

It imports pdls from ``./src``, sets the workload up, runs its closed loop
for ``--seconds`` seconds, checks every output, checks the stored reference
outputs, and prints each metric by name with its unit and sample count. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` a fixed list of units runs once
untraced and once traced, and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from speed import SpeedSampler
from tracing import Tracer, layer_metrics
from workloads import REFERENCE_SEEDS, WORKLOADS, reference_case

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.npz"
RTOL = 1e-12  # ROADMAP's output tolerance, relative to the reference
SETUP_REPEATS = 3
WORK_DIR = ".bench_work"


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) of values, by statistics.quantiles' inclusive method."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_summary(samples_ms) -> dict:
    """Median and 90th percentile with the sample count they rest on."""
    return {"p50": percentile(samples_ms, 50), "p90": percentile(samples_ms, 90),
            "n": len(samples_ms)}


def mismatched(actual, expected, per_value: bool) -> bool:
    """True unless actual matches expected within RTOL.

    per_value compares each value against its own magnitude (a row of
    distinct metrics); otherwise the whole vector is compared against its
    largest magnitude (an image, whose near-zero pixels carry no scale).
    """
    if actual is None or expected is None:
        return True
    a, e = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    if a.shape != e.shape:
        return True
    scale = np.abs(e) if per_value else np.max(np.abs(e))
    return not bool(np.all(np.abs(a - e) <= RTOL * scale))


def machine_facts() -> dict:
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k)
                for k in ("name", "version", "openblas configuration")}
    except TypeError:  # numpy before 1.26 has no mode argument
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
    }


def import_seconds(root: Path) -> tuple[float, float]:
    """Seconds ``import pdls`` takes in a fresh interpreter: measured, at reference speed."""
    done = subprocess.run([sys.executable, str(HERE / "import_probe.py")], cwd=root,
                          check=True, capture_output=True, text=True, timeout=120)
    raw, ref = done.stdout.split()[-2:]
    return float(raw), float(ref)


class Pass:
    """Outcome of running units of one workload: timings, failures, process usage.

    ``*_ref`` times are at the reference core speed (see speed.py); the
    others are as measured.
    """

    def __init__(self):
        self.samples_ms_ref: list[float] = []
        self.samples_ms: list[float] = []
        self.busy_s = 0.0
        self.busy_s_ref = 0.0
        self.restores = 0
        self.failed = 0
        self.cpu_s = 0.0
        self.sys_cpu_s = 0.0
        self.minor_faults = 0
        self.kernel_s = 0.0

    @property
    def speed_factor(self) -> float:
        return self.busy_s_ref / self.busy_s


def run_units(workload, state, seconds: float | None = None, units: int | None = None) -> Pass:
    """Run units back to back, for ``seconds`` of busy time or a fixed count.

    Each unit's output is checked as soon as it returns, outside its timed
    interval, and then dropped, so no output is kept across units.
    """
    result = Pass()
    spans = []
    size = workload.size(state)
    before = resource.getrusage(resource.RUSAGE_SELF)
    with SpeedSampler() as sampler:
        i = 0
        while (result.busy_s < seconds) if units is None else (i < units):
            start = time.perf_counter()
            try:
                output = workload.unit(state, i)
            except Exception:
                output = None
                traceback.print_exc(file=sys.stderr)
            end = time.perf_counter()
            result.busy_s += end - start
            values = [None] * size if output is None else workload.check(state, output)
            spans.append((start, end, sum(v is None for v in values)))
            i += 1
    after = resource.getrusage(resource.RUSAGE_SELF)
    result.cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    result.sys_cpu_s = after.ru_stime - before.ru_stime
    result.minor_faults = after.ru_minflt - before.ru_minflt
    result.kernel_s = sampler.median_kernel_s()
    for start, end, bad in spans:
        duration_ref = (end - start) * sampler.factor(start, end)
        result.busy_s_ref += duration_ref
        result.restores += size
        result.failed += bad
        if not bad:
            result.samples_ms.append(1000.0 * (end - start) / size)
            result.samples_ms_ref.append(1000.0 * duration_ref / size)
    return result


def reference_outputs(name: str, seed: int, work: Path) -> list:
    """Per restore of the reference case at ``seed``: its output values or None."""
    workload, units = reference_case(name)
    state = workload.prepare(work / f"reference-{seed}", seed)
    values = []
    for i in range(units):
        try:
            values += workload.check(state, workload.unit(state, i))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            values += [None] * workload.size(state)
    return values


def check_references(name: str, work: Path) -> tuple[int, int]:
    """(attempted, failed) restores of the reference cases of both reference seeds."""
    workload, _ = reference_case(name)
    stored = {}
    if REFERENCES.is_file():
        with np.load(REFERENCES) as refs:
            stored = {k: refs[k] for k in refs.files}
    attempted = failed = 0
    for seed in REFERENCE_SEEDS:
        expected = stored.get(f"{name}/seed{seed}")
        for j, values in enumerate(reference_outputs(name, seed, work)):
            attempted += 1
            want = expected[j] if expected is not None and j < len(expected) else None
            failed += mismatched(values, want, workload.per_value)
    return attempted, failed


def setup(workload, root: Path, work: Path, seed: int):
    """Set the workload up SETUP_REPEATS times.

    Returns the state and the median set-up seconds at reference speed and
    as measured. Set-up is a fresh interpreter's ``import pdls`` plus the
    workload's input preparation.
    """
    ref, raw = [], []
    state = None
    for r in range(SETUP_REPEATS):
        import_raw, import_ref = import_seconds(root)
        with SpeedSampler() as sampler:
            start = time.perf_counter()
            state = workload.prepare(work / f"setup-{r}", seed)
            end = time.perf_counter()
        raw.append(import_raw + end - start)
        ref.append(import_ref + (end - start) * sampler.factor(start, end))
    return state, statistics.median(ref), statistics.median(raw)


def end_to_end(timed: Pass, setup_s: float, ref: bool = True) -> list:
    """(name, value, unit, sample note) of each end-to-end metric.

    Restore times are at the reference core speed unless ref is False.
    """
    done = timed.restores - timed.failed
    busy, scale, unit = ((timed.busy_s_ref, timed.speed_factor, "ref_") if ref
                         else (timed.busy_s, 1.0, ""))
    samples = timed.samples_ms_ref if ref else timed.samples_ms
    rows = [("setup_s", setup_s, "s", f"median of {SETUP_REPEATS}")]
    if done:
        rows.append(("restores_per_s", done / busy, f"1/{unit}s", f"{done} restores"))
        rows.append(("cpu_s_per_restore", timed.cpu_s * scale / done, f"{unit}s",
                     f"{done} restores"))
    if samples:
        lat = latency_summary(samples)
        rows.append(("restore_p50_ms", lat["p50"], f"{unit}ms", f"n={lat['n']}"))
        rows.append(("restore_p90_ms", lat["p90"], f"{unit}ms", f"n={lat['n']}"))
    rows.append(("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                 "MB", "n=1"))
    return rows


def print_raw(timed: Pass, setup_raw_s: float, prefix: str) -> None:
    """The measured times behind the reference-speed ones, and the speed factor."""
    for name, value, unit, note in end_to_end(timed, setup_raw_s, ref=False)[:-1]:
        print(f"{prefix + name:<40} {value:14.6g} {unit:<8} ({note})")
    print(f"{prefix + 'speed_factor':<40} {timed.speed_factor:14.6g} {'':<8} "
          f"(median kernel {1e6 * timed.kernel_s:.1f} us)")


def run(workload, args, root: Path, work: Path) -> int:
    state, setup_s, setup_raw_s = setup(workload, root, work, args.seed)
    # The reference cases run the workload's own code paths, so checking
    # them first also finishes lazy initialisation before anything is timed.
    ref_attempted, ref_failed = check_references(workload.name, work)
    if not args.trace:
        timed = run_units(workload, state, seconds=args.seconds)
        print_raw(timed, setup_raw_s, "raw ")
        emitted = end_to_end(timed, setup_s)
        passes = [timed]
        absent = []
    else:
        # Same fixed units untraced, then traced: counts repeat exactly, and
        # the time ratio of the two passes is the tracing overhead.
        timed = run_units(workload, state, units=workload.trace_units)
        tracer = Tracer()
        with tracer:
            traced_state = workload.prepare(work / "traced", args.seed)
            traced = run_units(workload, traced_state, units=workload.trace_units)
        for name, value, unit, note in end_to_end(timed, setup_s):
            print(f"{'untraced ' + name:<40} {value:14.6g} {unit:<8} ({note})")
        print_raw(timed, setup_raw_s, "untraced raw ")
        layers = layer_metrics(tracer)
        layers["process.sys_cpu_s"] = (timed.sys_cpu_s, "s")
        layers["process.minor_faults"] = (timed.minor_faults, "count")
        layers["trace.overhead_frac"] = (traced.busy_s_ref / timed.busy_s_ref - 1.0, "fraction")
        emitted = [(n, v, u, f"{workload.trace_units} units") for n, (v, u) in layers.items()]
        passes = [timed, traced]
        absent = tracer.absent

    attempted = sum(p.restores for p in passes) + ref_attempted
    failed = sum(p.failed for p in passes) + ref_failed
    for name, value, unit, note in emitted:
        print(f"{name:<40} {value:14.6g} {unit:<8} ({note})")
    print(f"{'failed_frac':<40} {failed / attempted:14.6g} {'fraction':<8} "
          f"({failed} of {attempted} restores, {ref_attempted} of them reference checks)")
    if args.trace:
        print("absent hooks: " + (", ".join(absent) if absent else "none"))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in emitted},
    }))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    package = root / "src" / "pdls"
    if not (package / "__init__.py").is_file():
        print("error: no pdls source at ./src/pdls; run from the root of a pdls checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import pdls

    if Path(pdls.__file__).resolve().parent != package.resolve():
        print(f"error: imported pdls from {pdls.__file__}, not ./src", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(f"# pdls benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine: " + json.dumps(machine_facts(), sort_keys=True))
    work = root / WORK_DIR / f"{workload.name}-{os.getpid()}"
    try:
        return run(workload, args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:  # another run's directory is still there
            pass


if __name__ == "__main__":
    sys.exit(main())
