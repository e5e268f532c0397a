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
step as one batch with one condition per row; an integration resolves its
rows' conditions to log-weight rows once, not at every step. Each step's
averaged targets are one gather from the stacked inversion states.

Every drift of a restore is affine in x, with terms only in the mixture
means, the row's observation y_i and its noise draw z0_i, so row i stays in
span{mu_1..mu_K, y_i, z0_i}. Where K + 2 < d (shapes32: 92 < 1024),
restore() integrates in orthonormal coordinates of that span: a basis Q0 of
the means from one QR kept on the mixture, plus y_i and z0_i orthogonalised
against it twice. The unchanged field runs on the (n, K + 2) coordinates
under a mixture of the means' coordinates, so a step costs O(n K (K + 2)),
not O(n K d). restored is lifted to the full space at once, each row's
trajectories on first access. Where K + 2 >= d (toy2d) a restore runs in
the full space. Reduced and full-space restores agree within 1e-12
relative; the reduced ones are the closer to the direct (n, K, d) form.
"""

from __future__ import annotations

import functools
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


def _resolve_conditions(mixture: GaussianMixture, conds):
    """A batch's conditions, resolved once for a whole integration.

    Gives the Condition every row shares, or the (n, K) log-weight rows of
    one condition per row, which the field takes in place of the sequence.
    """
    if isinstance(conds, (Condition, np.ndarray)):
        return conds
    conds = list(conds)
    if all(c == conds[0] for c in conds):
        return conds[0]
    return np.stack([mixture.log_weights(c) for c in conds])


def invert_path(observed, mixture: GaussianMixture, cond, gamma: float,
                n_steps: int, noise_seed, *, _z0=None) -> Trajectory:
    """Controlled inversion from the observed sample at t=1 down to t=0.

    Drift = blend of the marginal velocity (under cond) with the straight
    line toward z0 at the noise end, weight gamma. At gamma=1 Euler tracks
    the line exactly and the terminal state equals z0. observed is one
    point (d,) with one cond and one noise_seed, or a batch (n, d) with one
    Condition or one per row and one noise seed per row. restore() passes
    the draws it made of noise_seed as _z0, in observed's coordinates.
    """
    observed = np.asarray(observed, dtype=float)
    if _z0 is not None:
        z0 = _z0
    elif observed.ndim == 1:
        z0 = draw_noise(observed.size, noise_seed)
    else:
        z0 = np.stack([draw_noise(observed.shape[1], s) for s in noise_seed])
    grid = make_grid(n_steps, 1.0, 0.0)
    cond = _resolve_conditions(mixture, cond)

    def drift(x, t, k):
        guided = endpoint_conditional_velocity(x, t, z0, 0)
        if gamma == 1.0:
            return guided
        base = marginal_velocity(x, t, mixture, cond)
        return blend_drift(base, guided, gamma)

    return integrate(observed, grid, drift)


def _mix_latents(s, m, init_mode: str):
    """The initial latent of init_mode from structural and semantic noise ends."""
    if init_mode == "structural":
        return s
    if init_mode == "semantic":
        return m
    if init_mode == "mixed":
        return 0.5 * (s + m)
    raise ValueError(f"unknown init mode {init_mode!r}")


@dataclass(frozen=True)
class _PathStack:
    """The dual paths of a batch of n rows, stacked along one grid.

    inversion holds the structural paths in rows 0..n-1 of its states
    (n_steps + 1, rows, dim); pair[i] is row i's semantic row (i itself
    when both paths are one), and prompts[i] its prompt.
    """

    inversion: Trajectory
    pair: np.ndarray
    prompts: tuple

    @classmethod
    def of(cls, rows) -> "_PathStack":
        """Stack copies of the paths of DualPaths that share one grid."""
        grid = rows[0].structural.grid
        if any(not np.array_equal(p.structural.grid.nodes, grid.nodes) for p in rows[1:]):
            raise ValueError("batched paths must share one grid")
        states = np.concatenate([np.stack([p.structural.states for p in rows], axis=1),
                                 np.stack([p.semantic.states for p in rows], axis=1)], axis=1)
        return cls(Trajectory(grid, states), np.arange(len(rows), 2 * len(rows)),
                   tuple(p.condition for p in rows))

    @functools.cached_property
    def rows(self) -> tuple:
        """The DualPaths of every row, in order, as views of the stacked states."""
        rows = []
        for i, (j, prompt) in enumerate(zip(self.pair, self.prompts)):
            structural = self.inversion._row(i)
            semantic = structural if j == i else self.inversion._row(j)
            rows.append(DualPaths(structural, semantic, prompt))
        return tuple(rows)

    def target(self, step_index: int) -> np.ndarray:
        """(n, dim) averaged targets at one node; averaged_target of every row."""
        s = self.inversion.states[step_index]
        return 0.5 * (s[:len(self.pair)] + s[self.pair])


def _invert_rows(observed, mixture: GaussianMixture, prompts, config: PdlsConfig,
                 seeds, z0=None) -> _PathStack:
    """Both inversions of every row of a batch (n, dim), run as one stacked batch.

    Rows 0..n-1 are the structural (null) paths; one semantic row follows
    for each non-null prompt. A null-prompt row's semantic path is its
    structural path. z0, when given, holds the rows' draws of their seeds.
    """
    n = len(observed)
    semantic = [i for i, p in enumerate(prompts) if not p.is_null]
    source = np.concatenate([np.arange(n), semantic]).astype(int)
    conds = [Condition.null()] * n + [prompts[i] for i in semantic]
    inv = invert_path(observed[source], mixture, conds, config.gamma, config.n_steps,
                      [seeds[i] for i in source], _z0=None if z0 is None else z0[source])
    pair = np.arange(n)
    pair[semantic] = np.arange(n, n + len(semantic))
    return _PathStack(inv, pair, tuple(prompts))


def dual_invert(observed, mixture: GaussianMixture, prompt: Condition,
                config: PdlsConfig, noise_seed: int) -> DualPaths:
    """Run the structural (null) and semantic (prompt) inversions with shared z0."""
    if prompt.is_null:
        raise ValueError("dual inversion requires a non-null prompt")
    observed = np.asarray(observed, dtype=float)
    return _invert_rows(observed[None, :], mixture, [prompt], config, [noise_seed]).rows[0]


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
    return _mix_latents(s, m, init_mode)


def steered_generate(paths, mixture: GaussianMixture, config: PdlsConfig) -> Trajectory:
    """Ascending generation from the init latent, steered toward the averaged target.

    paths is one DualPaths, giving a Trajectory of (d,) states, or a
    sequence of them sharing one grid, generated as one batch and giving
    (n_steps + 1, n, d) states.
    """
    single = isinstance(paths, DualPaths)
    if isinstance(paths, _PathStack):
        stack = paths
    else:
        stack = _PathStack.of([paths] if single else list(paths))
    inv_nodes = stack.inversion.grid.nodes
    n = inv_nodes.size - 1
    gen_grid = make_grid(n, 0.0, 1.0)
    # The generation grid must be the exact reversal of the inversion grid.
    if not np.allclose(inv_nodes[::-1], gen_grid.nodes, rtol=0, atol=1e-12):
        raise ValueError("paths were not produced on the reversal of the generation grid")

    base_cond = _resolve_conditions(mixture, [p if config.base_condition == "prompt"
                                              else Condition.null() for p in stack.prompts])
    schedule = SteeringSchedule(config.eta_max, config.schedule_kind)
    end = stack.inversion.terminal  # initial_latent of every row
    x_init = _mix_latents(end[:len(stack.pair)], end[stack.pair], config.init_mode)

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
        control = lqr_control(x, stack.target(j), t)
        if weight == 1.0:
            return control
        base = marginal_velocity(x, t, mixture, base_cond)
        return blend_drift(base, control, weight)

    generated = integrate(x_init, gen_grid, drift)
    return generated._row(0) if single else generated


def _directions(v, q0, u=None) -> np.ndarray:
    """(n, d) unit directions of the rows of v orthogonal to q0's columns (and u[i]).

    Classical Gram-Schmidt, run twice. Where the second pass shrinks a
    row's residual below half of the first's, the row already lies in the
    span (Kahan-Parlett, "twice is enough") and its direction is 0: the
    residual is rounding noise, and normalised it would not be orthogonal
    to the span.
    """
    def residual(r):
        r = r - (r @ q0) @ q0.T
        if u is not None:
            r = r - np.einsum("nd,nd->n", r, u)[:, None] * u
        return r

    first = residual(v)
    second = residual(first)
    norm = np.linalg.norm(second, axis=1)
    keep = norm > 0.5 * np.linalg.norm(first, axis=1)
    return np.where(keep[:, None], second / np.where(keep, norm, 1.0)[:, None], 0.0)


@dataclass(frozen=True)
class _Frame:
    """Orthonormal coordinates of a batch's rows: the span of the means, y_i and z0_i.

    Row i's basis is q0 (d, K), an orthonormal basis of the means, and
    dirs[i] (2, d), its own directions (0 where y_i or z0_i already lies
    in the span before it). mixture is the mixture in these coordinates.
    """

    q0: np.ndarray
    dirs: np.ndarray
    mixture: GaussianMixture

    @classmethod
    def of(cls, mixture: GaussianMixture, observed, z0) -> "_Frame | None":
        """The frame of rows observed (n, d) with draws z0, or None where K + 2 >= d."""
        if mixture.n_components + 2 >= mixture.dim:
            return None
        if mixture._reduced is None:
            q0 = np.linalg.qr(mixture.means.T)[0]
            means = np.hstack([mixture.means @ q0, np.zeros((mixture.n_components, 2))])
            reduced = GaussianMixture(mixture.weights, means, mixture.variances,
                                      mixture.labels)
            reduced._ambient_dim = mixture.dim  # its log-normaliser keeps the full d
            mixture._reduced = (q0, reduced)
        q0, reduced = mixture._reduced
        y = _directions(observed, q0)
        return cls(q0, np.stack([y, _directions(z0, q0, y)], axis=1), reduced)

    def coords(self, x) -> np.ndarray:
        """(n, K + 2) coordinates of the rows x (n, d), row i in row i's basis."""
        return np.concatenate([x @ self.q0, np.einsum("nd,njd->nj", x, self.dirs)], axis=1)

    def lift(self, c, i=slice(None)) -> np.ndarray:
        """Full-space points of coordinates c (m, K + 2): row j in row j's basis, or in row i's."""
        k = self.q0.shape[1]
        return c[:, :k] @ self.q0.T + (c[:, None, k:] @ self.dirs[i])[:, 0]


@dataclass(frozen=True)
class RestoreResult:
    """One restored row. paths and generated hold (n_steps + 1, d) states; a
    restore in reduced coordinates lifts them on first access and keeps them."""

    restored: np.ndarray
    # diagnostics rows: (step, t, eta, dist_to_target)
    diagnostics: tuple
    structural_latent_norm: float
    semantic_latent_norm: float
    _stack: _PathStack = field(repr=False, compare=False)
    _generated: Trajectory = field(repr=False, compare=False)
    _frame: _Frame | None = field(repr=False, compare=False)
    _row: int = field(repr=False, compare=False)

    def _lifted(self, traj: Trajectory) -> Trajectory:
        if self._frame is None:
            return traj
        return Trajectory(traj.grid, self._frame.lift(traj.states, self._row))

    @functools.cached_property
    def paths(self) -> DualPaths:
        row = self._stack.rows[self._row]
        structural = self._lifted(row.structural)
        semantic = structural if row.semantic is row.structural else self._lifted(row.semantic)
        return DualPaths(structural, semantic, row.condition)

    @functools.cached_property
    def generated(self) -> Trajectory:
        return self._lifted(self._generated._row(self._row))


def restore(observed, mixture: GaussianMixture, prompt, config: PdlsConfig, seed):
    """Full pipeline: dual inversion, then steered generation, plus diagnostics.

    observed is one point (d,) with one prompt and one seed, giving one
    RestoreResult, or a batch (n, d) with one prompt and one seed per row,
    giving a list of n. The whole batch runs as one stacked inversion and
    one generation, in reduced coordinates where K + 2 < d (see the module
    docstring). A null prompt collapses to single-path restoration (both
    stored paths are the structural one).
    """
    observed = np.asarray(observed, dtype=float)
    single = observed.ndim == 1
    prompts, seeds = ([prompt], [seed]) if single else (list(prompt), list(seed))
    batch = np.atleast_2d(observed)
    if len(prompts) != len(batch) or len(seeds) != len(batch):
        raise ValueError("a batch needs one prompt and one seed per row")

    z0 = np.stack([draw_noise(batch.shape[1], s) for s in seeds])
    frame = _Frame.of(mixture, batch, z0)
    if frame is not None:
        batch, z0, mixture = frame.coords(batch), frame.coords(z0), frame.mixture
    paths = _invert_rows(batch, mixture, prompts, config, seeds, z0)
    generated = steered_generate(paths, mixture, config)

    schedule = SteeringSchedule(config.eta_max, config.schedule_kind)
    n = config.n_steps
    nodes = generated.grid.nodes
    etas = [float(eta(schedule, float(t))) for t in nodes]
    dists = np.stack([np.linalg.norm(generated.states[k] - paths.target(n - k), axis=1)
                      for k in range(n + 1)])
    latents = paths.inversion.terminal
    restored = generated.terminal if frame is None else frame.lift(generated.terminal)
    results = [RestoreResult(
        restored=restored[i],
        diagnostics=tuple(zip(range(n + 1), nodes.tolist(), etas, dists[:, i].tolist())),
        structural_latent_norm=float(np.linalg.norm(latents[i])),
        semantic_latent_norm=float(np.linalg.norm(latents[paths.pair[i]])),
        _stack=paths, _generated=generated, _frame=frame, _row=i,
    ) for i in range(len(prompts))]
    return results[0] if single else results
