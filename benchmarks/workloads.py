"""The three benchmark workloads, each a closed loop with one caller.

A workload turns the benchmark seed into its inputs (``prepare``), then runs
numbered units of work (``unit``): one CLI invocation or one
``pdls.restore()`` call of ``size`` restores. ``check`` inspects a unit's
output outside its timed interval and returns one array of output values
per restore, or ``None`` for a restore that failed. Unit ``i`` at seed ``s`` is
the same work on every run, which is what the stored references rely on.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

# Restore seeds of unit i at benchmark seed s start at s * SEED_STRIDE + i * size.
SEED_STRIDE = 100_000


def _cli(*argv) -> int:
    """Run ``pdls`` in this process, as a shell invocation would, without its prints."""
    import pdls.cli

    with contextlib.redirect_stdout(io.StringIO()):
        return pdls.cli.main([str(a) for a in argv])


def _finite(text) -> float | None:
    try:
        value = float(text)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def _metrics_rows(out: Path, columns, expected: int, files=()) -> list:
    """Per row of ``metrics.csv``: its finite columns, or None; missing rows are None."""
    results = []
    if (out / "metrics.csv").is_file() and all((out / f).is_file() for f in files):
        with open(out / "metrics.csv", newline="") as fh:
            for row in list(csv.DictReader(fh))[:expected]:
                values = [_finite(row.get(c)) for c in columns]
                recon = row.get("recon_path")
                if any(v is None for v in values) or (recon and not (out / recon).is_file()):
                    results.append(None)
                else:
                    results.append(np.array(values))
    return results + [None] * (expected - len(results))


class ShapesManifest:
    """``pdls restore`` over the 90-image shapes32 gblur manifest, label prompts."""

    name = "shapes32-manifest"
    op = "gblur:size=7,sigma=1.5"
    columns = ("mse", "psnr_db", "ssim")
    per_value = True
    trace_units = 1

    def __init__(self, n_per_class: int = 30):
        self.n_per_class = n_per_class

    def prepare(self, work: Path, seed: int) -> dict:
        out = work / "degraded"
        code = _cli("degrade", "--out", out, "--op", self.op, "--demo", "--seed", seed,
                    "--n-per-class", self.n_per_class)
        if code != 0:
            raise RuntimeError(f"pdls degrade exited {code}")
        manifest = out / "manifest.json"
        n = len(json.loads(manifest.read_text())["records"])
        return {"work": work, "seed": seed, "manifest": manifest, "records": n}

    def size(self, state: dict) -> int:
        return state["records"]

    def unit(self, state: dict, i: int):
        first = state["seed"] * SEED_STRIDE + i
        out = state["work"] / f"restore-{i}"
        code = _cli("restore", "--out", out, "--manifest", state["manifest"],
                    "--seeds", f"{first}:{first + 1}", "--prompt", "auto")
        return code, out

    def check(self, state: dict, output) -> list:
        code, out = output
        if code != 0:
            return [None] * state["records"]
        return _metrics_rows(out, self.columns, state["records"])


class ToySweep:
    """``pdls restore --task toy2d`` over consecutive seed ranges."""

    name = "toy2d-sweep"
    width = 10
    columns = ("mse", "psnr_db")
    files = ("structural_path.csv", "semantic_path.csv", "steered_path.csv",
             "diagnostics.csv")
    per_value = True
    trace_units = 30

    def prepare(self, work: Path, seed: int) -> dict:
        work.mkdir(parents=True, exist_ok=True)
        return {"work": work, "seed": seed}

    def size(self, state: dict) -> int:
        return self.width

    def unit(self, state: dict, i: int):
        first = state["seed"] * SEED_STRIDE + i * self.width
        out = state["work"] / f"restore-{i}"
        code = _cli("restore", "--task", "toy2d", "--out", out,
                    "--seeds", f"{first}:{first + self.width}")
        return code, out

    def check(self, state: dict, output) -> list:
        code, out = output
        if code != 0:
            return [None] * self.width
        return _metrics_rows(out, self.columns, self.width, self.files)


class ShapesSingle:
    """One ``pdls.restore()`` call at a time on seeded shapes32 observations."""

    name = "shapes32-single"
    ops = ("gblur:size=7,sigma=1.5", "mblur:size=7,intensity=0.5,angle=45",
           "sr:factor=8", "inpaint:coverage=0.15")
    pool_size = 61  # coprime to null_every, so each observation meets both prompt kinds
    null_every = 4
    bandwidth = 1e-4  # that of the CLI's builtin restore mixture
    sigma_y = 0.01
    per_value = False
    trace_units = 48

    def prepare(self, work: Path, seed: int) -> dict:
        import pdls
        from pdls import degrade

        dataset = pdls.shapes32_dataset()
        mixture = pdls.exemplar_mixture(dataset, self.bandwidth)
        rng = np.random.default_rng(seed)
        pool = []
        for _ in range(self.pool_size):
            image, label = dataset[int(rng.integers(len(dataset)))]
            desc = self.ops[int(rng.integers(len(self.ops)))]
            if desc.startswith("inpaint"):
                desc += f",seed={int(rng.integers(1 << 16))}"
            op = degrade.parse_descriptor(desc, image_shape=image.pixels.shape)
            noise = pdls.NoiseModel(self.sigma_y, seed=int(rng.integers(1 << 31)))
            observed = pdls.apply(op, image, noise)
            if isinstance(op, pdls.Downsample):
                x = degrade.block_replicate(observed.pixels, op.factor).ravel()
            else:
                x = observed.flatten()
            pool.append((x, label))
        return {"seed": seed, "mixture": mixture, "pool": pool, "config": pdls.PdlsConfig()}

    def size(self, state: dict) -> int:
        return 1

    def unit(self, state: dict, i: int):
        import pdls

        x, label = state["pool"][i % self.pool_size]
        if i % self.null_every == self.null_every - 1:
            prompt = pdls.Condition.null()
        else:
            prompt = pdls.Condition.of(label)
        result = pdls.restore(x, state["mixture"], prompt, state["config"],
                              seed=state["seed"] * SEED_STRIDE + i)
        return result.restored

    def check(self, state: dict, output) -> list:
        x = np.asarray(output, dtype=float)
        ok = x.shape == state["pool"][0][0].shape and bool(np.all(np.isfinite(x)))
        return [x if ok else None]


WORKLOADS = {w.name: w for w in (ShapesManifest(), ShapesSingle(), ToySweep())}

# References are stored for the default seed and one held-out seed, and every
# run checks both on a small case of its workload: unit 0 of the CLI
# workloads (over a 6-image manifest for shapes32-manifest) and the first
# four calls of shapes32-single, which cover both prompt kinds.
REFERENCE_SEEDS = (0, 1)


def reference_case(name: str):
    """(workload, number of units) whose outputs the references store."""
    if name == ShapesManifest.name:
        return ShapesManifest(n_per_class=2), 1
    if name == ShapesSingle.name:
        return WORKLOADS[name], ShapesSingle.null_every
    return WORKLOADS[name], 1
