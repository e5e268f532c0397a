"""Write tests/data/truth.npz: restores recomputed in extended precision.

The float64 direct form of the field (make_manifest_oracle.direct_velocity)
makes rounding errors of its own, so it cannot say which of two float64
forms is closer to the exact answer. This script recomputes whole restores
in np.longdouble, from the same float64 inputs: the observations, the noise
draws, the mixture, the grid nodes and the clamped time 1 - EPS_T. Every
drift is the direct (n, K, d) form, in the full space, under the default
PdlsConfig. The cases are

- manifest rows 4, 15 and 45 with their label prompts and row 46 with a null
  prompt, from tests/test_pipeline.py's manifest_batch();
- toy2d seeds 0-3 as `pdls restore --task toy2d` makes them (sigma_y 0.01,
  the sample's own label as prompt).

For each case the file keeps restored (d,) and the structural, semantic and
generated trajectories (n_steps + 1, d), rounded to float64, stacked over
the cases as manifest_* and toy_* arrays. It refuses to run where
np.longdouble is not wider than float64. Run from the root of a pdls
checkout; it takes about 2 s on a 2-core machine:

    PYTHONPATH=src python3 tests/data/make_truth.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(TESTS))

from test_pipeline import manifest_batch  # noqa: E402

from pdls.datasets import toy2d_mixture  # noqa: E402
from pdls.flowfield import EPS_T, Condition, sample_mixture  # noqa: E402
from pdls.integrate import make_grid  # noqa: E402
from pdls.pipeline import PdlsConfig, draw_noise  # noqa: E402

OUT = TESTS / "data" / "truth.npz"
MANIFEST_ROWS = (4, 15, 45, 46)  # 46 with a null prompt
TOY_SEEDS = (0, 1, 2, 3)
TOY_SIGMA_Y = 0.01
LD = np.longdouble
PI = np.arccos(LD(-1.0))
KINDS = ("restored", "structural", "semantic", "generated")


def velocity(x, t, mixture, cond):
    """The marginal velocity at one point x (d,), time t (float64, clamped as the
    field clamps it), in longdouble by the direct form over cond's components."""
    idx = cond.select(mixture)
    mu, var = mixture.means[idx].astype(LD), mixture.variances[idx].astype(LD)
    logw = np.log(mixture.weights[idx].astype(LD))
    t = LD(min(t, 1.0 - EPS_T))
    s2 = (1 - t) ** 2 + t * t * var
    diff = x[None, :] - t * mu
    sq = np.einsum("kd,kd->k", diff, diff)
    logp = logw - LD(0.5) * mixture.dim * np.log(2 * PI * s2) - sq / (2 * s2)
    r = np.exp(logp - logp.max())
    r /= r.sum()
    mean = r @ (mu + (t * var / s2)[:, None] * diff)
    return (mean - x) / (1 - t)


def euler(x0, nodes, drift):
    """(len(nodes), d) Euler states from x0 along the float64 nodes, in longdouble."""
    states = [x0]
    ts = nodes.astype(LD)
    for k in range(len(nodes) - 1):
        x = states[-1]
        states.append(x + (ts[k + 1] - ts[k]) * drift(x, nodes[k], k))
    return np.stack(states)


def restore_truth(observed, mixture, prompt, seed, config=PdlsConfig()):
    """restore() of one row under config, in longdouble: its four arrays in KINDS order."""
    y = observed.astype(LD)
    z0 = draw_noise(len(observed), seed).astype(LD)
    gamma = LD(config.gamma)
    inv = make_grid(config.n_steps, 1.0, 0.0).nodes

    def invert(cond):
        def drift(x, t, k):
            base = velocity(x, t, mixture, cond)
            return base + gamma * ((x - z0) / LD(t) - base)
        return euler(y, inv, drift)

    structural = invert(Condition.null())
    semantic = structural if prompt.is_null else invert(prompt)
    targets = (structural[::-1] + semantic[::-1]) / 2
    gen = make_grid(config.n_steps, 0.0, 1.0).nodes
    base_cond = prompt if config.base_condition == "prompt" else Condition.null()
    assert config.schedule_kind == "cosine" and config.init_mode == "structural"

    def steer(x, t, k):
        weight = LD(config.eta_max) / 2 * (1 + np.cos(PI * LD(t)))
        base = velocity(x, t, mixture, base_cond)
        control = (targets[k + 1] - x) / (1 - LD(t))
        return base + weight * (control - base)

    generated = euler(structural[-1], gen, steer)
    return generated[-1], structural, semantic, generated


def toy_cases():
    """(observations, mixture, prompts, seeds) of `pdls restore --task toy2d` at TOY_SEEDS."""
    mixture = toy2d_mixture()
    obs, prompts = [], []
    for seed in TOY_SEEDS:
        rng = np.random.default_rng(seed)
        clean, labels = sample_mixture(mixture, 1, rng)
        obs.append(clean[0] + TOY_SIGMA_Y * rng.standard_normal(clean[0].shape))
        prompts.append(Condition.of(labels[0]))
    return np.stack(obs), mixture, prompts, list(TOY_SEEDS)


def manifest_cases():
    """(observations, mixture, prompts, seeds) of the MANIFEST_ROWS of manifest_batch()."""
    obs, mixture, labels, seeds = manifest_batch()
    rows = list(MANIFEST_ROWS)
    prompts = [Condition.of(labels[i]) for i in rows[:-1]] + [Condition.null()]
    return obs[rows], mixture, prompts, [seeds[i] for i in rows]


def main() -> int:
    if np.finfo(LD).eps > 1e-18:
        print(f"np.longdouble has eps {np.finfo(LD).eps:.3g} here, no wider than float64; "
              "refusing to write a truth", file=sys.stderr)
        return 1
    arrays = {}
    for name, (obs, mixture, prompts, seeds) in (("manifest", manifest_cases()),
                                                 ("toy", toy_cases())):
        rows = [restore_truth(*case) for case in zip(obs, [mixture] * len(obs), prompts, seeds)]
        for kind, values in zip(KINDS, zip(*rows)):
            arrays[f"{name}_{kind}"] = np.stack(values).astype(np.float64)
        print(f"{name}: {len(rows)} rows")
    np.savez_compressed(OUT, **arrays)
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
