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


def invert_path(observed, mixture: GaussianMixture, cond: Condition, gamma: float,
                n_steps: int, noise_seed: int) -> Trajectory:
    """Controlled inversion from the observed sample at t=1 down to t=0.

    Drift = blend of the marginal velocity (under cond) with the straight
    line toward z0 at the noise end, weight gamma. At gamma=1 Euler tracks
    the line exactly and the terminal state equals z0.
    """
    observed = np.asarray(observed, dtype=float)
    z0 = draw_noise(observed.size, noise_seed)
    grid = make_grid(n_steps, 1.0, 0.0)

    def drift(x, t, k):
        guided = endpoint_conditional_velocity(x, t, z0, 0)
        if gamma == 1.0:
            return guided
        base = marginal_velocity(x, t, mixture, cond)
        return blend_drift(base, guided, gamma)

    return integrate(observed, grid, drift)


def dual_invert(observed, mixture: GaussianMixture, prompt: Condition,
                config: PdlsConfig, noise_seed: int) -> DualPaths:
    """Run the structural (null) and semantic (prompt) inversions with shared z0."""
    if prompt.is_null:
        raise ValueError("dual inversion requires a non-null prompt")
    structural = invert_path(observed, mixture, Condition.null(), config.gamma,
                             config.n_steps, noise_seed)
    semantic = invert_path(observed, mixture, prompt, config.gamma,
                           config.n_steps, noise_seed)
    return DualPaths(structural, semantic, prompt)


def averaged_target(paths: DualPaths, step_index: int) -> np.ndarray:
    """Midpoint of the two stored inversion states at one grid node."""
    n = paths.structural.grid.n_steps
    if not 0 <= step_index <= n:
        raise IndexError("step index out of range")
    return 0.5 * (paths.structural.states[step_index] + paths.semantic.states[step_index])


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


def steered_generate(paths: DualPaths, mixture: GaussianMixture,
                     config: PdlsConfig) -> Trajectory:
    """Ascending generation from the init latent, steered toward the averaged target."""
    n = paths.structural.grid.n_steps
    gen_grid = make_grid(n, 0.0, 1.0)
    inv_nodes = paths.structural.grid.nodes
    # The generation grid must be the exact reversal of the inversion grid.
    if not np.allclose(inv_nodes[::-1], gen_grid.nodes, rtol=0, atol=1e-12):
        raise ValueError("paths were not produced on the reversal of the generation grid")

    base_cond = paths.condition if config.base_condition == "prompt" else Condition.null()
    schedule = SteeringSchedule(config.eta_max, config.schedule_kind)
    x_init = initial_latent(paths, config.init_mode)

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
        control = lqr_control(x, averaged_target(paths, j), t)
        if weight == 1.0:
            return control
        base = marginal_velocity(x, t, mixture, base_cond)
        return blend_drift(base, control, weight)

    return integrate(x_init, gen_grid, drift)


@dataclass(frozen=True)
class RestoreResult:
    restored: np.ndarray
    paths: DualPaths
    generated: Trajectory
    # diagnostics rows: (step, t, eta, dist_to_target)
    diagnostics: tuple = field(default_factory=tuple)
    structural_latent_norm: float = 0.0
    semantic_latent_norm: float = 0.0


def restore(observed, mixture: GaussianMixture, prompt: Condition,
            config: PdlsConfig, seed: int) -> RestoreResult:
    """Full pipeline: dual inversion, then steered generation, plus diagnostics.

    A null prompt collapses to single-path restoration (both stored paths
    are the structural one).
    """
    observed = np.asarray(observed, dtype=float)
    if prompt.is_null:
        structural = invert_path(observed, mixture, Condition.null(), config.gamma,
                                 config.n_steps, seed)
        paths = DualPaths(structural, structural, prompt)
    else:
        paths = dual_invert(observed, mixture, prompt, config, seed)

    generated = steered_generate(paths, mixture, config)

    schedule = SteeringSchedule(config.eta_max, config.schedule_kind)
    n = config.n_steps
    diag = []
    for k, t in enumerate(generated.grid.nodes):
        ybar = averaged_target(paths, n - k)
        diag.append((k, float(t), float(eta(schedule, float(t))),
                     float(np.linalg.norm(generated.states[k] - ybar))))

    return RestoreResult(
        restored=generated.terminal,
        paths=paths,
        generated=generated,
        diagnostics=tuple(diag),
        structural_latent_norm=float(np.linalg.norm(paths.structural.terminal)),
        semantic_latent_norm=float(np.linalg.norm(paths.semantic.terminal)),
    )
