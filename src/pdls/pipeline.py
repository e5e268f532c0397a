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

Both inversions of a batch are one DualPaths: dual_invert() runs them as
one stacked inversion holding every row's structural path plus a semantic
row for each non-null prompt (pair maps each row to its semantic row, a
null-prompt row to itself). steered_generate() generates every row of a
DualPaths as one batch, and each step's averaged targets are one gather
from the stacked inversion states. dual_invert() resolves the stacked
rows' conditions once, to the (rows, K) log-weight rows the DualPaths
keeps, and every field evaluation of both calls takes rows of these: one
batch per step, one condition per row. restore() takes one
observation or a batch of them (one prompt and one seed per row), draws
each row's z0 from its seed (the only draw of a restore), and runs the
whole batch through these two calls. All three take their parameters from
one PdlsConfig.

Every drift of a restore is affine in x, with terms only in the mixture
means, the row's observation y_i and its noise draw z0_i, so row i stays in
span{mu_1..mu_K, y_i, z0_i}. Where K + 2 < d (shapes32: 92 < 1024),
restore() integrates in orthonormal coordinates of that span: a basis Q0 of
the means from one QR kept on the mixture, plus y_i and z0_i orthogonalised
against it twice. The unchanged field runs on the (n, K + 2) coordinates
under a mixture of the means' coordinates, so a step costs O(n K (K + 2)),
not O(n K d). restored is lifted to the full space at once; a result's
structural, semantic and generated trajectories are built (and lifted) on
first access. Where K + 2 >= d (toy2d) a restore runs in the full space.

At the default 28 steps, reduced and full-space restores agree within
1e-12 relative on restored, the trajectories and the latent norms; the
reduced ones are the closer to the direct (n, K, d) form. The promise does
not cover the diagnostics' dist_to_target, a difference of nearly equal
states (worst measured row 2.2e-12 at gblur sigma 1.5, 1.3e-11 at 3.0), nor
few steps: the first inversion step scales the field's rounding by
dt / (1 - t) at t = 1 - EPS_T, and at 2 steps the agreement is about 2e-12.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .control import SCHEDULE_KINDS, blend_drift, eta, lqr_control
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


def draw_noise(dim: int, seed: int) -> np.ndarray:
    """The z0 draw of a seed, shared by both inversion paths of its row."""
    return np.random.default_rng(seed).standard_normal(dim)


def invert_path(observed, mixture: GaussianMixture, cond, config: PdlsConfig,
                z0) -> Trajectory:
    """Controlled inversion from the observed sample at t=1 down to t=0.

    Drift = blend of the marginal velocity (under cond) with the straight
    line toward the noise draw z0 at the noise end, weight config.gamma, in
    config.n_steps Euler steps. At gamma=1 Euler tracks the line exactly and
    the terminal state equals z0. observed is one point (d,) with one cond,
    or a batch (n, d) with one Condition or (n, K) log-weight rows (see
    flowfield); z0 is shaped like observed.
    """
    observed, z0 = np.asarray(observed, dtype=float), np.asarray(z0, dtype=float)
    if z0.shape != observed.shape:
        raise ValueError("z0 must have the shape of observed")
    grid = make_grid(config.n_steps, 1.0, 0.0)

    def drift(x, t, k):
        guided = endpoint_conditional_velocity(x, t, z0)
        if config.gamma == 1.0:
            return guided
        base = marginal_velocity(x, t, mixture, cond)
        return blend_drift(base, guided, config.gamma)

    return integrate(observed, grid, drift)


@dataclass(frozen=True)
class DualPaths:
    """The dual paths of a batch of n rows, stacked along one descending grid.

    inversion holds the structural paths in rows 0..n-1 of its states
    (n_steps + 1, rows, dim); pair[i] is row i's semantic row (i itself
    when both paths are one, as for a null prompt). log_weights (rows, K)
    holds each stored row's condition as mixture log-weights: the null
    condition's for rows 0..n-1, row i's prompt's for pair[i].
    """

    inversion: Trajectory
    pair: np.ndarray
    log_weights: np.ndarray

    def target(self, j) -> np.ndarray:
        """Averaged targets, each row's midpoint of its two stored states: (n, dim)
        at node index j, or (nodes, n, dim) at the nodes of a slice j."""
        s = self.inversion.states[j]
        return 0.5 * (s[..., :len(self.pair), :] + s[..., self.pair, :])

    def latents(self, init_mode: str) -> np.ndarray:
        """(n, dim) initial latents of init_mode from each row's two noise-end states."""
        end = self.inversion.terminal
        s, m = end[:len(self.pair)], end[self.pair]
        if init_mode == "structural":
            return s
        if init_mode == "semantic":
            return m
        if init_mode == "mixed":
            return 0.5 * (s + m)
        raise ValueError(f"unknown init mode {init_mode!r}")


def dual_invert(observed, mixture: GaussianMixture, prompts, config: PdlsConfig,
                z0) -> DualPaths:
    """Both inversions of every row of a batch (n, dim), run as one stacked batch.

    Rows 0..n-1 are the structural (null) paths; one semantic row follows
    for each non-null prompt, with the same noise draw: row i of z0 (n, dim).
    A null-prompt row's semantic path is its structural path.
    """
    observed, z0 = np.asarray(observed, dtype=float), np.asarray(z0, dtype=float)
    n = len(observed)
    if observed.ndim != 2 or len(prompts) != n:
        raise ValueError("dual_invert needs a batch (n, d) with one prompt per row")
    if z0.shape != observed.shape:
        raise ValueError("dual_invert needs one noise draw z0 (n, d) per row")
    semantic = [i for i, p in enumerate(prompts) if not p.is_null]
    source = np.concatenate([np.arange(n), semantic]).astype(int)
    log_weights = np.stack([mixture.log_weights(Condition.null())] * n
                           + [mixture.log_weights(prompts[i]) for i in semantic])
    inv = invert_path(observed[source], mixture, log_weights, config, z0[source])
    pair = np.arange(n)
    pair[semantic] = np.arange(n, n + len(semantic))
    return DualPaths(inv, pair, log_weights)


def steered_generate(paths: DualPaths, mixture: GaussianMixture,
                     config: PdlsConfig) -> Trajectory:
    """Ascending generation of every row from its init latent, steered toward its
    averaged target; one batch, giving (n_steps + 1, n, dim) states."""
    inv_nodes = paths.inversion.grid.nodes
    n = inv_nodes.size - 1
    gen_grid = make_grid(n, 0.0, 1.0)
    # The generation grid must be the exact reversal of the inversion grid.
    if not np.allclose(inv_nodes[::-1], gen_grid.nodes, rtol=0, atol=1e-12):
        raise ValueError("paths were not produced on the reversal of the generation grid")

    # A null-prompt row's pair is the row itself, so "prompt" gives it the null row.
    base_cond = paths.log_weights[paths.pair if config.base_condition == "prompt"
                                  else slice(len(paths.pair))]

    def drift(x, t, k):
        # Steer toward the stored node this step lands on: targeting the
        # same-time node would chase a point the paths have already left,
        # leaving an exact one-step lag in the retraced trajectory.
        j = n - k - 1
        weight = float(eta(config, t))
        if weight == 0.0:
            return marginal_velocity(x, t, mixture, base_cond)
        control = lqr_control(x, paths.target(j), t)
        if weight == 1.0:
            return control
        base = marginal_velocity(x, t, mixture, base_cond)
        return blend_drift(base, control, weight)

    return integrate(paths.latents(config.init_mode), gen_grid, drift)


def _directions(v, q0, u=None) -> np.ndarray:
    """(n, d) unit directions of the rows of v orthogonal to q0's columns (and u[i]).

    Classical Gram-Schmidt, run twice. Where the second pass shrinks a
    row's residual below half of the first's, the row already lies in the
    span (Kahan-Parlett, "twice is enough") and its direction is 0: the
    residual is rounding noise, and normalised it would not be orthogonal
    to the span. Each row of v is first scaled by a power of two to a
    largest magnitude in [0.5, 1): exact, and it leaves the direction's bits
    as they are, except for a tiny row, whose squares would underflow in
    the norms and leave its direction off unit length.
    """
    v = np.ldexp(v, -np.frexp(np.max(np.abs(v), axis=1))[1][:, None])

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
    """One restored row. structural, semantic and generated hold (n_steps + 1, d)
    states, built on first access (and lifted, for a restore in reduced
    coordinates) and kept."""

    restored: np.ndarray
    # diagnostics rows: (step, t, eta, dist_to_target)
    diagnostics: tuple
    structural_latent_norm: float
    semantic_latent_norm: float
    _paths: DualPaths = field(repr=False, compare=False)
    _generated: Trajectory = field(repr=False, compare=False)
    _frame: _Frame | None = field(repr=False, compare=False)
    _row: int = field(repr=False, compare=False)

    def _lifted(self, traj: Trajectory, j: int) -> Trajectory:
        """Row j of the batch trajectory traj, in the full space."""
        states = traj.states[:, j]
        if self._frame is not None:
            states = self._frame.lift(states, self._row)
        return Trajectory(traj.grid, states)

    @functools.cached_property
    def structural(self) -> Trajectory:
        return self._lifted(self._paths.inversion, self._row)

    @functools.cached_property
    def semantic(self) -> Trajectory:
        j = self._paths.pair[self._row]
        return self.structural if j == self._row else self._lifted(self._paths.inversion, j)

    @functools.cached_property
    def generated(self) -> Trajectory:
        return self._lifted(self._generated, self._row)


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
    paths = dual_invert(batch, mixture, prompts, config, z0)
    generated = steered_generate(paths, mixture, config)

    n = config.n_steps
    nodes = generated.grid.nodes
    etas = [float(eta(config, float(t))) for t in nodes]
    # Generation node k is inversion node n - k.
    dists = np.linalg.norm(generated.states - paths.target(slice(None, None, -1)), axis=2)
    latents = paths.inversion.terminal
    restored = generated.terminal if frame is None else frame.lift(generated.terminal)
    results = [RestoreResult(
        restored=restored[i],
        diagnostics=tuple(zip(range(n + 1), nodes.tolist(), etas, dists[:, i].tolist())),
        structural_latent_norm=float(np.linalg.norm(latents[i])),
        semantic_latent_norm=float(np.linalg.norm(latents[paths.pair[i]])),
        _paths=paths, _generated=generated, _frame=frame, _row=i,
    ) for i in range(len(prompts))]
    return results[0] if single else results
