"""Dual-path inversion and steered regeneration.

A restore runs three integrations on one shared grid:

1. structural inversion (null condition) from the observed sample down to
   its noise-end latent, with the drift blended toward a fixed Gaussian
   draw z0 at strength gamma;
2. semantic inversion, identical except the velocity field is conditioned
   on the prompt's label subset (same z0, so conditioning is the only
   divergence source);
3. steered generation back up from a noise-end latent, where at every step
   the marginal drift is blended with the steering control toward the
   averaged target (the midpoint of the two stored inversion states at the
   node the step lands on) at schedule strength eta(t).

The inversion grid is the exact reversal of the generation grid, so the
reverse pass looks up stored nodes by index and never interpolates in time.

restore() takes one observation or a batch of them (one prompt and one
seed per row) and runs the whole batch as two integrations: one stacked
inversion holding every structural row plus a semantic row for each
non-null prompt, then one generation of all rows. The field evaluates each
step as one batch with one condition per row. Every result's trajectories
are views into the stacked states, so a batch keeps no copy of its paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .control import SCHEDULE_KINDS, SteeringSchedule, blend_drift, eta, lqr_control
from .flowfield import (
    Condition,
    GaussianMixture,
    endpoint_conditional_velocity,
    marginal_velocity,
)
from .integrate import Trajectory, integrate, make_grid

INIT_MODES = ("structural", "semantic", "mixed")
BASE_CONDITIONS = ("prompt", "null")


@dataclass(frozen=True)
class PdlsConfig:
    gamma: float = 0.5
    eta_max: float = 0.5
    n_steps: int = 28
    init_mode: str = "structural"
    base_condition: str = "prompt"
    schedule_kind: str = "cosine"

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not 0.0 <= self.eta_max <= 1.0:
            raise ValueError("eta_max must lie in [0, 1]")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"init_mode must be one of {INIT_MODES}")
        if self.base_condition not in BASE_CONDITIONS:
            raise ValueError(f"base_condition must be one of {BASE_CONDITIONS}")
        if self.schedule_kind not in SCHEDULE_KINDS:
            raise ValueError(f"schedule_kind must be one of {SCHEDULE_KINDS}")


@dataclass(frozen=True)
class DualPaths:
    """The two stored inversion trajectories sharing one grid."""

    structural: Trajectory
    semantic: Trajectory
    condition: Condition

    def __post_init__(self):
        if not np.array_equal(self.structural.grid.nodes, self.semantic.grid.nodes):
            raise ValueError("dual paths must share the same grid")


@dataclass(frozen=True)
class NoiseEndLatent:
    """Terminal (t ~ 0) state of an inversion trajectory; the reverse init."""

    x: np.ndarray

    @classmethod
    def from_trajectory(cls, traj: Trajectory) -> "NoiseEndLatent":
        if traj.grid.t_end > traj.grid.t_start:
            raise ValueError("noise end requires a descending trajectory")
        return cls(traj.terminal)


def draw_noise(dim: int, seed: int) -> np.ndarray:
    """The z0 draw shared by both inversion paths."""
    return np.random.default_rng(seed).standard_normal(dim)


def _one_or_per_row(conds):
    """A batch's conditions: the shared Condition, or the tuple of one per row."""
    return conds[0] if all(c == conds[0] for c in conds) else tuple(conds)


def invert_path(observed, mixture: GaussianMixture, cond, gamma: float,
                n_steps: int, noise_seed) -> Trajectory:
    """Controlled inversion from the observed sample at t=1 down to t=0.

    Drift = blend of the marginal velocity (under cond) with the straight
    line toward z0 at the noise end, weight gamma. At gamma=1 Euler tracks
    the line exactly and the terminal state equals z0. observed is one
    point (d,) with one cond and one noise_seed, or a batch (n, d) with one
    Condition or one per row and one noise seed per row.
    """
    observed = np.asarray(observed, dtype=float)
    if observed.ndim == 1:
        z0 = draw_noise(observed.size, noise_seed)
    else:
        z0 = np.stack([draw_noise(observed.shape[1], s) for s in noise_seed])
    grid = make_grid(n_steps, 1.0, 0.0)

    def drift(x, t, k):
        guided = endpoint_conditional_velocity(x, t, z0, 0)
        if gamma == 1.0:
            return guided
        base = marginal_velocity(x, t, mixture, cond)
        return blend_drift(base, guided, gamma)

    return integrate(observed, grid, drift)


def _invert_rows(observed, mixture: GaussianMixture, prompts, config: PdlsConfig,
                 seeds) -> list[DualPaths]:
    """Both inversions of every row of a batch (n, d), run as one stacked batch.

    Rows 0..n-1 are the structural (null) paths; one semantic row follows
    for each non-null prompt. A null-prompt row's semantic path is its
    structural path. Each DualPaths holds views into the stacked states.
    """
    n = len(observed)
    semantic = [i for i, p in enumerate(prompts) if not p.is_null]
    stacked = np.concatenate([observed, observed[semantic]]) if semantic else observed
    conds = [Condition.null()] * n + [prompts[i] for i in semantic]
    noise = list(seeds) + [seeds[i] for i in semantic]
    inv = invert_path(stacked, mixture, _one_or_per_row(conds), config.gamma,
                      config.n_steps, noise)
    semantic_row = dict(zip(semantic, range(n, n + len(semantic))))
    rows = []
    for i in range(n):
        structural = Trajectory(inv.grid, inv.states[:, i])
        j = semantic_row.get(i)
        semantic_path = structural if j is None else Trajectory(inv.grid, inv.states[:, j])
        rows.append(DualPaths(structural, semantic_path, prompts[i]))
    return rows


def dual_invert(observed, mixture: GaussianMixture, prompt: Condition,
                config: PdlsConfig, noise_seed: int) -> DualPaths:
    """Run the structural (null) and semantic (prompt) inversions with shared z0."""
    if prompt.is_null:
        raise ValueError("dual inversion requires a non-null prompt")
    observed = np.asarray(observed, dtype=float)
    return _invert_rows(observed[None, :], mixture, [prompt], config, [noise_seed])[0]


def averaged_target(paths, step_index: int) -> np.ndarray:
    """Midpoint of the two stored inversion states at one grid node.

    paths is one DualPaths, giving (d,), or a sequence of them, giving (n, d).
    """
    rows = [paths] if isinstance(paths, DualPaths) else paths
    n = rows[0].structural.grid.n_steps
    if not 0 <= step_index <= n:
        raise IndexError("step index out of range")
    s = np.stack([p.structural.states[step_index] for p in rows])
    m = np.stack([p.semantic.states[step_index] for p in rows])
    target = 0.5 * (s + m)
    return target[0] if isinstance(paths, DualPaths) else target


def initial_latent(paths: DualPaths, init_mode: str) -> np.ndarray:
    s = NoiseEndLatent.from_trajectory(paths.structural).x
    m = NoiseEndLatent.from_trajectory(paths.semantic).x
    if init_mode == "structural":
        return s
    if init_mode == "semantic":
        return m
    if init_mode == "mixed":
        return 0.5 * (s + m)
    raise ValueError(f"unknown init mode {init_mode!r}")


def steered_generate(paths, mixture: GaussianMixture, config: PdlsConfig) -> Trajectory:
    """Ascending generation from the init latent, steered toward the averaged target.

    paths is one DualPaths, giving a Trajectory of (d,) states, or a
    sequence of them sharing one grid, generated as one batch and giving
    (n_steps + 1, n, d) states.
    """
    single = isinstance(paths, DualPaths)
    rows = [paths] if single else list(paths)
    inv_nodes = rows[0].structural.grid.nodes
    if any(not np.array_equal(p.structural.grid.nodes, inv_nodes) for p in rows[1:]):
        raise ValueError("batched paths must share one grid")
    n = inv_nodes.size - 1
    gen_grid = make_grid(n, 0.0, 1.0)
    # The generation grid must be the exact reversal of the inversion grid.
    if not np.allclose(inv_nodes[::-1], gen_grid.nodes, rtol=0, atol=1e-12):
        raise ValueError("paths were not produced on the reversal of the generation grid")

    base_cond = _one_or_per_row([p.condition if config.base_condition == "prompt"
                                 else Condition.null() for p in rows])
    schedule = SteeringSchedule(config.eta_max, config.schedule_kind)
    x_init = np.stack([initial_latent(p, config.init_mode) for p in rows])

    def drift(x, t, k):
        # Steer toward the stored node this step lands on: targeting the
        # same-time node would chase a point the paths have already left,
        # leaving an exact one-step lag in the retraced trajectory.
        j = n - k - 1
        assert abs(inv_nodes[j] - gen_grid.nodes[k + 1]) < 1e-12, \
            "reverse lookup missed a stored node"
        weight = float(eta(schedule, t))
        if weight == 0.0:
            return marginal_velocity(x, t, mixture, base_cond)
        control = lqr_control(x, averaged_target(rows, j), t)
        if weight == 1.0:
            return control
        base = marginal_velocity(x, t, mixture, base_cond)
        return blend_drift(base, control, weight)

    generated = integrate(x_init, gen_grid, drift)
    return Trajectory(gen_grid, generated.states[:, 0]) if single else generated


@dataclass(frozen=True)
class RestoreResult:
    restored: np.ndarray
    paths: DualPaths
    generated: Trajectory
    # diagnostics rows: (step, t, eta, dist_to_target)
    diagnostics: tuple = field(default_factory=tuple)
    structural_latent_norm: float = 0.0
    semantic_latent_norm: float = 0.0


def restore(observed, mixture: GaussianMixture, prompt, config: PdlsConfig, seed):
    """Full pipeline: dual inversion, then steered generation, plus diagnostics.

    observed is one point (d,) with one prompt and one seed, giving one
    RestoreResult, or a batch (n, d) with one prompt and one seed per row,
    giving a list of n. The whole batch runs as one stacked inversion and
    one generation. A null prompt collapses to single-path restoration
    (both stored paths are the structural one).
    """
    observed = np.asarray(observed, dtype=float)
    single = observed.ndim == 1
    prompts, seeds = ([prompt], [seed]) if single else (list(prompt), list(seed))
    batch = np.atleast_2d(observed)
    if len(prompts) != len(batch) or len(seeds) != len(batch):
        raise ValueError("a batch needs one prompt and one seed per row")

    paths = _invert_rows(batch, mixture, prompts, config, seeds)
    generated = steered_generate(paths, mixture, config)

    schedule = SteeringSchedule(config.eta_max, config.schedule_kind)
    n = config.n_steps
    nodes = generated.grid.nodes
    etas = [float(eta(schedule, float(t))) for t in nodes]
    dists = np.stack([np.linalg.norm(generated.states[k] - averaged_target(paths, n - k), axis=1)
                      for k in range(n + 1)])
    results = []
    for i, row in enumerate(paths):
        traj = Trajectory(generated.grid, generated.states[:, i])
        results.append(RestoreResult(
            restored=traj.terminal,
            paths=row,
            generated=traj,
            diagnostics=tuple(zip(range(n + 1), nodes.tolist(), etas, dists[:, i].tolist())),
            structural_latent_norm=float(np.linalg.norm(row.structural.terminal)),
            semantic_latent_norm=float(np.linalg.norm(row.semantic.terminal)),
        ))
    return results[0] if single else results
