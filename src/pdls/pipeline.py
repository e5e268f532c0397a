"""Dual-path inversion and steered regeneration.

A restore runs three integrations on one shared grid:

1. structural inversion (null condition) from the observation down to its
   noise-end latent, the drift blended toward a Gaussian draw z0 at gamma;
2. semantic inversion, the same under the prompt's label subset (same z0,
   so conditioning is the only divergence source);
3. steered generation back up from a noise-end latent, the marginal drift
   blended at eta(t) with the steering control toward the averaged target,
   the midpoint of the two stored states at the node the step lands on.

The inversion grid is the exact reversal of the generation grid, so stored
nodes are looked up by index, never interpolated in time. Both inversions
of a batch run as one stacked DualPaths and the generation as one batch,
under (rows, K) log-weight rows resolved once; z0 is drawn once per
distinct seed. A batch's rows equal single restores
(test_batch_rows_equal_single_restores, test_each_distinct_seed_is_drawn_once).
Paths, frames and results hold arrays and compare and hash by identity
(test_results_compare_and_hash_by_identity).

Every drift is affine in x with terms only in the means, the row's
observation y_i and its draw z0_i, so row i stays in span{mu_1..mu_K, y_i,
z0_i}. Where r + 2 < d, r the means' rank, restore() integrates in
orthonormal coordinates of that span (_Frame), at O(n K (r + 2)) a step
instead of O(n K d), within 1e-12 relative of the full-space composition
(test_restore_equals_the_full_space_composition). Elsewhere, and where
d <= 3, the frame is the identity and the composition exact
(test_toy2d_restores_in_the_full_space).

At the default step count, restored and the noise-end latents' norms agree
with the direct (n, K, d) form of the field within 1e-12 relative on a whole
shapes32 manifest (test_a_whole_manifest_is_within_1e12_of_the_direct_form),
the inversion trajectories within 2e-11
(test_manifest_trajectories_are_within_2e11_of_the_direct_form), as the
first inversion step scales the field's rounding by dt / (1 - t) at
t = 1 - EPS_T. Nothing promises the diagnostics' dist_to_target, a
difference of nearly equal states, nor few steps.
"""

from __future__ import annotations

import functools

import numpy as np

from .control import SCHEDULE_KINDS, blend_drift, eta, lqr_control
from .flowfield import EPS_T, Condition, GaussianMixture, marginal_velocity
from .integrate import DriftDivergedError, Trajectory, integrate, make_grid

INIT_MODES = ("structural", "semantic", "mixed")
BASE_CONDITIONS = ("prompt", "null")

# The largest observation and mean norm restore() integrates. For t <= 1 -
# EPS_T, s_k^2 >= EPS_T^2, so where ||x|| and the means' norms are at most
# _MAX_NORM, each of the field's folded exponent terms x.lin, ||x||^2 quad
# and t^2 ||mu_k||^2 / 2s_k^2 is at most _MAX_NORM^2 / EPS_T^2 = max / 4, and
# their sum does not overflow.
_MAX_NORM = EPS_T * np.sqrt(np.finfo(float).max / 4)


class PdlsConfig:
    """A restore's settings, checked at construction (test_records_raise_at_construction).
    A value: configs compare and hash by their settings, and equal only configs
    (test_value_records_compare_and_hash_by_value)."""

    def __init__(self, gamma: float = 0.5, eta_max: float = 0.5, n_steps: int = 28,
                 init_mode: str = "structural", base_condition: str = "prompt",
                 schedule_kind: str = "cosine"):
        self.gamma, self.eta_max, self.n_steps = gamma, eta_max, n_steps
        self.init_mode, self.base_condition = init_mode, base_condition
        self.schedule_kind = schedule_kind
        for name in ("gamma", "eta_max"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        # The inversion's last drift runs at t = 1 / n_steps, where its noise
        # line (x - z0) / t needs t at or above EPS_T.
        if not 1 <= self.n_steps <= round(1 / EPS_T):
            raise ValueError(f"n_steps must lie in [1, 1 / EPS_T = {round(1 / EPS_T)}]")
        for name, options in (("init_mode", INIT_MODES), ("base_condition", BASE_CONDITIONS),
                              ("schedule_kind", SCHEDULE_KINDS)):
            if getattr(self, name) not in options:
                raise ValueError(f"{name} must be one of {options}")

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is PdlsConfig else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        return f"PdlsConfig({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


def draw_noise(dim: int, seed: int) -> np.ndarray:
    """The z0 draw of a seed, shared by both inversion paths of its row."""
    return np.random.default_rng(seed).standard_normal(dim)


def invert_path(observed, mixture: GaussianMixture, log_weights, config: PdlsConfig,
                z0) -> Trajectory:
    """Controlled inversion of the observed rows (n, d) at t=1 down to t=0, each
    under its row of log_weights (n, K), mixture.log_weights of its condition:
    the marginal velocity blended at config.gamma with the noise line
    (x - z0) / t, the forward-time velocity of the straight line through (x, t)
    and (z0, 0), z0 (n, d), which gamma=1 lands on
    (test_full_strength_lands_on_the_noise_draw). Its drifts run at the grid's
    nodes above 0, the least 1 / n_steps, which PdlsConfig keeps at or above EPS_T."""
    observed, z0 = np.asarray(observed, dtype=float), np.asarray(z0, dtype=float)
    if z0.shape != observed.shape:
        raise ValueError("z0 must have the shape of observed")
    grid = make_grid(config.n_steps, 1.0, 0.0)
    mixture._add_nodes(grid.nodes[:-1])

    def drift(x, t, k):
        return blend_drift(marginal_velocity(x, t, mixture, log_weights), (x - z0) / t,
                           config.gamma)

    return integrate(observed, grid, drift)


class DualPaths:
    """The dual paths of a batch of n rows along one descending grid: the structural
    paths in rows 0..n-1 of inversion's states (n_steps + 1, rows, dim), row i's
    semantic one in row pair[i] (i itself for a null prompt), and each stored
    row's condition in log_weights (rows, K)."""

    def __init__(self, inversion: Trajectory, pair: np.ndarray, log_weights: np.ndarray):
        self.inversion, self.pair, self.log_weights = inversion, pair, log_weights

    def target(self, j) -> np.ndarray:
        """Averaged targets, each row's midpoint of its two stored states: (n, dim)
        at node index j, or (nodes, n, dim) at the nodes of a slice j."""
        s = self.inversion.states[j]
        return 0.5 * (s[..., :len(self.pair), :] + s[..., self.pair, :])

    def latents(self, init_mode: str) -> np.ndarray:
        """(n, dim) initial latents of init_mode from each row's two noise-end states,
        "mixed" their averaged target."""
        if init_mode == "mixed":
            return self.target(-1)
        end = self.inversion.terminal
        return {"structural": end[:len(self.pair)], "semantic": end[self.pair]}[init_mode]


def dual_invert(observed, mixture: GaussianMixture, prompts, config: PdlsConfig,
                z0) -> DualPaths:
    """Both inversions of every row of a batch (n, dim), each from its row of z0
    (n, dim), as one stacked DualPaths (test_null_prompt_row_is_its_own_semantic_row)."""
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
    if not np.abs(inv_nodes[::-1] - gen_grid.nodes).max() <= 1e-12:
        raise ValueError("paths were not produced on the reversal of the generation grid")
    mixture._add_nodes(gen_grid.nodes[:-1])

    # A null-prompt row's pair is the row itself, so "prompt" gives it the null row.
    base_cond = paths.log_weights[paths.pair if config.base_condition == "prompt"
                                  else slice(len(paths.pair))]

    # Generation node k is inversion node n - k. Step k steers toward the
    # stored node it lands on, row k + 1: the same-time node would leave a
    # one-step lag (test_full_strength_retraces_the_stored_line).
    targets = paths.target(slice(None, None, -1))
    weights = eta(config, gen_grid.nodes[:-1]).tolist()

    def drift(x, t, k):
        return blend_drift(marginal_velocity(x, t, mixture, base_cond),
                           lqr_control(x, targets[k + 1], t), weights[k])

    return integrate(paths.latents(config.init_mode), gen_grid, drift)


def _directions(v, q0, u=None) -> np.ndarray:
    """(n, d) unit directions of the rows of v orthogonal to q0's columns (and u[i]).

    Classical Gram-Schmidt, run twice. Where the second pass shrinks a row's
    residual below half of the first's, the row lies in the span (Kahan-Parlett,
    "twice is enough"): its direction is 0, not normalised rounding noise
    (test_observations_in_the_span_of_the_means). Each row is first scaled by a
    power of two to a largest magnitude in [0.5, 1), exactly, so that a tiny
    row's squares do not underflow in the norms."""
    v = np.ldexp(v, -np.frexp(np.maximum(v.max(axis=1), -v.min(axis=1)))[1][:, None])

    def residual(r):
        p = (r @ q0) @ q0.T
        r = np.subtract(r, p, out=p)
        if u is not None:
            p = np.einsum("nd,nd->n", r, u)[:, None] * u
            r = np.subtract(r, p, out=p)
        return r

    first = residual(v)
    second = residual(first)
    # np.linalg.norm(axis=1)'s arithmetic, without its wrapper.
    norm = np.sqrt(np.add.reduce(second * second, axis=1))
    keep = norm > 0.5 * np.sqrt(np.add.reduce(first * first, axis=1))
    second /= np.where(keep, norm, 1.0)[:, None]
    second[~keep] = 0.0
    return second


def _means_basis(means) -> np.ndarray:
    """(d, r) orthonormal basis of the means (K, d): their left singular vectors
    above numpy's matrix_rank tolerance s_0 max(K, d) eps, s_0 the largest.

    They come from eigh of the smaller Gram matrix, in descending order of
    s = sqrt(lambda): of M M^T (K, K) as M^T v / s, or where K > d, of M^T M
    (d, d) as its eigenvectors v, re-orthonormalised by one QR with the signs
    of diag(R). The eigenvalues are only good to about K d eps lambda_0, so the
    basis keeps those above twice that, and is used only where the means'
    residual off it is at most half the tolerance, which bounds every dropped
    singular value under it; elsewhere it comes from the SVD of M^T
    (test_the_basis_at_the_rank_edge)."""
    k, d = means.shape
    eps = np.finfo(float).eps
    wide = k > d
    lam, v = np.linalg.eigh(means.T @ means if wide else means @ means.T)
    lam, v = lam[::-1], v[:, ::-1]
    keep = lam > 2 * k * d * eps * lam[0]
    q, r = np.linalg.qr(v[:, keep] if wide else means.T @ (v[:, keep] / np.sqrt(lam[keep])))
    q *= np.where(np.diag(r) < 0, -1.0, 1.0)
    tol = np.sqrt(max(lam[0], 0.0)) * max(k, d) * eps
    residual = (means @ q) @ q.T
    if np.linalg.norm(np.subtract(means, residual, out=residual)) <= 0.5 * tol:
        return q
    u, s, _ = np.linalg.svd(means.T, full_matrices=False)
    return u[:, s > s[0] * max(k, d) * eps]


class _Frame:
    """Orthonormal coordinates of a batch's rows: the span of the means, y_i and z0_i.

    Row i's basis is q0 (d, r), an orthonormal basis of the means (r their
    rank), and dirs[i] (2, d), its own directions (0 where y_i or z0_i lies
    in the span before it); mixture is the mixture in these coordinates.
    Where r + 2 >= d, and where d <= 3, the frame is the identity: q0 and
    dirs are None, mixture is the caller's, and coordinates and lifts are the
    points plus 0.0, bitwise x @ I (test_the_identity_frame_is_its_products_bitwise).
    """

    def __init__(self, q0: np.ndarray | None, dirs: np.ndarray | None, mixture: GaussianMixture):
        self.q0, self.dirs, self.mixture = q0, dirs, mixture

    @classmethod
    def of(cls, mixture: GaussianMixture, observed, z0) -> "_Frame":
        """The frame of rows observed (n, d) with draws z0."""
        if mixture._reduced is None:
            q0 = _means_basis(mixture.means) if mixture.dim > 3 else None
            mixture._reduced = ()
            if q0 is not None and q0.shape[1] + 2 < mixture.dim:
                means = np.hstack([mixture.means @ q0, np.zeros((mixture.n_components, 2))])
                reduced = GaussianMixture(mixture.weights, means, mixture.variances,
                                          mixture.labels)
                reduced._ambient_dim = mixture.dim  # its log-normaliser keeps the full d
                reduced._log_weights = mixture._log_weights  # same labels and weights
                mixture._reduced = (q0, reduced)
        if not mixture._reduced:
            return cls(None, None, mixture)
        q0, reduced = mixture._reduced
        y = _directions(observed, q0)
        return cls(q0, np.stack([y, _directions(z0, q0, y)], axis=1), reduced)

    def coords(self, x) -> np.ndarray:
        """(n, r + 2) coordinates of the rows x (n, d), row i in row i's basis."""
        if self.q0 is None:
            return x + 0.0
        return np.concatenate([x @ self.q0, np.einsum("nd,njd->nj", x, self.dirs)], axis=1)

    def lift(self, c, i=slice(None)) -> np.ndarray:
        """Full-space points of coordinates c (m, r + 2): row j in row j's basis, or in row i's."""
        if self.q0 is None:
            return c + 0.0
        k = self.q0.shape[1]
        return c[:, :k] @ self.q0.T + (c[:, None, k:] @ self.dirs[i])[:, 0]


class RestoreResult:
    """One restored row. Its trajectories (lifted from the batch's frame) and
    diagnostics are built on first access and kept
    (test_trajectories_are_lifted_once_on_first_access). Results compare and
    hash by identity (test_results_compare_and_hash_by_identity)."""

    def __init__(self, restored: np.ndarray, _paths: DualPaths, _generated: Trajectory,
                 _frame: _Frame, _row: int, _config: PdlsConfig):
        self.restored, self._paths, self._generated = restored, _paths, _generated
        self._frame, self._row, self._config = _frame, _row, _config

    def _lifted(self, traj: Trajectory, j: int) -> Trajectory:
        """Row j of the batch trajectory traj, in the full space."""
        return Trajectory(traj.grid, self._frame.lift(traj.states[:, j], self._row))

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

    @functools.cached_property
    def diagnostics(self) -> tuple:
        """(step, t, eta, dist_to_target) at every generation node."""
        target = self._paths.target(slice(None, None, -1))[:, self._row]
        dists = np.linalg.norm(self._generated.states[:, self._row] - target, axis=1)
        nodes = self._generated.grid.nodes
        etas = eta(self._config, nodes).tolist()
        return tuple(zip(range(len(nodes)), nodes.tolist(), etas, dists.tolist()))


def restore(observed, mixture: GaussianMixture, prompt, config: PdlsConfig, seed):
    """Full pipeline: dual inversion, then steered generation.

    observed is one point (d,) with one prompt and one seed, giving one
    RestoreResult, or a batch (n, d) with one prompt and one seed per row,
    giving a list of n. Every input restores to finite output or raises
    ValueError (means past _MAX_NORM among them, before any draw) or
    DriftDivergedError, without a numpy warning (test_restore_is_total)."""
    observed = np.asarray(observed, dtype=float)
    single = observed.ndim == 1
    prompts, seeds = ([prompt], [seed]) if single else (list(prompt), list(seed))
    batch = np.atleast_2d(observed)
    if len(prompts) != len(batch) or len(seeds) != len(batch):
        raise ValueError("a batch needs one prompt and one seed per row")
    if batch.ndim != 2 or batch.shape[1] != mixture.dim:
        raise ValueError(f"observations of shape {observed.shape} do not match "
                         f"the mixture's dimension {mixture.dim}")
    if mixture.mean_sq.max() > _MAX_NORM**2:
        raise ValueError(f"mixture means of norm past _MAX_NORM = {_MAX_NORM:.4g} "
                         "would overflow the field's exponent")
    # Past _MAX_NORM an observation's exponent may overflow. Where ||x||^2
    # itself overflows every log-density is -inf and the first drift NaN, so
    # the whole range is reported as that divergence.
    big = np.max(np.abs(batch), initial=0.0)
    if not np.isfinite(big):
        raise ValueError("observations must be finite")
    if big * np.sqrt(batch.shape[1]) > _MAX_NORM:
        raise DriftDivergedError("drift diverged at step 0")

    noise = {s: draw_noise(batch.shape[1], s) for s in dict.fromkeys(seeds)}
    z0 = np.stack([noise[s] for s in seeds])
    frame = _Frame.of(mixture, batch, z0)
    paths = dual_invert(frame.coords(batch), frame.mixture, prompts, config, frame.coords(z0))
    generated = steered_generate(paths, frame.mixture, config)
    restored = frame.lift(generated.terminal)
    results = [RestoreResult(restored[i], paths, generated, frame, i, config)
               for i in range(len(prompts))]
    return results[0] if single else results
