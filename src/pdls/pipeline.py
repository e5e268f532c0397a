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

Each drift is control.blend_drift of the marginal field and a straight
line, which is exactly the field at weight 0 and the line at weight 1. The
inversion grid is the exact reversal of the generation grid, so the
reverse pass looks up stored nodes by index and never interpolates in time.

Both inversions of a batch are one DualPaths: dual_invert() runs them as
one stacked inversion holding every row's structural path plus a semantic
row for each non-null prompt (pair maps each row to its semantic row, a
null-prompt row to itself). steered_generate() generates every row of a
DualPaths as one batch, and gathers every node's averaged targets from
the stacked inversion states once, before it integrates. dual_invert()
resolves the stacked rows' conditions once, to the (rows, K) log-weight
rows the DualPaths keeps, and every field evaluation of both calls takes
rows of these: one batch per step, one condition per row. restore() takes
one observation or a batch of them (one prompt and one seed per row), draws
z0 once per distinct seed (the only draws of a restore) and gives each row
its seed's draw, and runs the whole batch through these two calls. All
three take their parameters from one PdlsConfig.

Every drift of a restore is affine in x, with terms only in the mixture
means, the row's observation y_i and its noise draw z0_i, so row i stays in
span{mu_1..mu_K, y_i, z0_i}. Where r + 2 < d, r the means' rank,
restore() integrates in orthonormal coordinates of that span: Q0, the left
singular vectors of the means above numpy's matrix_rank tolerance, built
on first use from the eigenvectors of the means' Gram matrix (or, where
the Gram spectrum cannot decide the rank, one SVD; see _means_basis)
and kept on the mixture, plus y_i and z0_i orthogonalised against it
twice. The unchanged field runs on (n, r + 2) coordinates under a mixture
of the means' coordinates, so a step costs O(n K (r + 2)), not O(n K d)
(shapes32: r + 2 = 6, d = 1024, whatever K). Where r + 2 >= d, and where
d <= 3 (toy2d), the frame is the identity: the coordinates are the points
themselves and the mixture is the caller's. Either way restored is lifted
to the full space at once; a result's structural, semantic and generated trajectories, its
diagnostics and its latent norms are built on first access.

At the default 28 steps, restored and the latent norms agree with the
direct (n, K, d) form of the field within 1e-12 relative (restored within
2.6e-13 on a whole shapes32 manifest at gblur sigma 1.5). On small
mixtures the trajectories agree as closely with the full-space
composition, but on that manifest the worst inversion trajectory (row 4)
is within 1.4e-11 of the direct form only (4.8e-12 at sigma 3.0): the
first inversion step scales the field's rounding by dt / (1 - t) at
t = 1 - EPS_T, so a basis that differs from another in its last bits moves
these trajectories by up to 1e-12. Neither form is the exact answer there:
against a restore recomputed in longdouble (tests/data/make_truth.py), row
4's inversion is 2.9e-11 off and the direct form's 1.5e-11, and row 15's
both 2.2e-11. The promise does not cover the diagnostics' dist_to_target,
a difference of nearly equal states (worst row 2.7e-11 of its largest
distance at gblur sigma 1.5, 6.7e-12 at 3.0), nor few steps: at 2 steps
the agreement on that manifest is about 1e-10.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .control import SCHEDULE_KINDS, blend_drift, eta, lqr_control
from .flowfield import (
    EPS_T,
    Condition,
    GaussianMixture,
    endpoint_conditional_velocity,
    marginal_velocity,
)
from .integrate import DriftDivergedError, Trajectory, integrate, make_grid

INIT_MODES = ("structural", "semantic", "mixed")
BASE_CONDITIONS = ("prompt", "null")

# The largest observation norm restore() integrates. For t <= 1 - EPS_T,
# s_k^2 >= EPS_T^2, so where ||x|| and the means' norms are at most
# _MAX_NORM, each of the field's folded exponent terms x.lin, ||x||^2 quad
# and t^2 ||mu_k||^2 / 2s_k^2 is at most _MAX_NORM^2 / EPS_T^2 = max / 4, and
# their sum does not overflow.
_MAX_NORM = EPS_T * np.sqrt(np.finfo(float).max / 4)


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
        # The inversion's last drift runs at t = 1 / n_steps, which the
        # conditional field needs at or above EPS_T.
        if not 1 <= self.n_steps <= round(1 / EPS_T):
            raise ValueError(f"n_steps must lie in [1, 1 / EPS_T = {round(1 / EPS_T)}]")
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
    config.n_steps Euler steps. At gamma=1 the drift is the line alone, so
    Euler tracks it exactly and the terminal state equals z0. observed is one
    point (d,) with one cond, or a batch (n, d) with one Condition or (n, K)
    log-weight rows (see flowfield); z0 is shaped like observed.
    """
    observed, z0 = np.asarray(observed, dtype=float), np.asarray(z0, dtype=float)
    if z0.shape != observed.shape:
        raise ValueError("z0 must have the shape of observed")
    grid = make_grid(config.n_steps, 1.0, 0.0)
    mixture._add_nodes(grid.nodes[:-1])

    def drift(x, t, k):
        return blend_drift(marginal_velocity(x, t, mixture, cond),
                           endpoint_conditional_velocity(x, t, z0), config.gamma)

    return integrate(observed, grid, drift)


@dataclass(frozen=True, eq=False)
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
    if not np.abs(inv_nodes[::-1] - gen_grid.nodes).max() <= 1e-12:
        raise ValueError("paths were not produced on the reversal of the generation grid")
    mixture._add_nodes(gen_grid.nodes[:-1])

    # A null-prompt row's pair is the row itself, so "prompt" gives it the null row.
    base_cond = paths.log_weights[paths.pair if config.base_condition == "prompt"
                                  else slice(len(paths.pair))]

    # Generation node k is inversion node n - k. Step k steers toward the
    # stored node it lands on, row k + 1: targeting the same-time node would
    # chase a point the paths have already left, leaving an exact one-step
    # lag in the retraced trajectory.
    targets = paths.target(slice(None, None, -1))
    weights = [float(eta(config, t)) for t in gen_grid.nodes[:-1].tolist()]

    def drift(x, t, k):
        return blend_drift(marginal_velocity(x, t, mixture, base_cond),
                           lqr_control(x, targets[k + 1], t), weights[k])

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
    norm = np.linalg.norm(second, axis=1)
    keep = norm > 0.5 * np.linalg.norm(first, axis=1)
    second /= np.where(keep, norm, 1.0)[:, None]
    second[~keep] = 0.0
    return second


def _means_basis(means) -> np.ndarray:
    """(d, r) orthonormal basis of the means (K, d): their left singular vectors
    above numpy's matrix_rank tolerance s_0 max(K, d) eps, s_0 the largest.

    They come from eigh of the smaller Gram matrix, in descending order of
    s = sqrt(lambda): of G = M M^T (K, K) as M^T v / s, or where K > d, of
    G = M^T M (d, d) as its eigenvectors v. One QR re-orthonormalises them
    (taking out of each column the rounding it shares with the larger ones)
    with the signs of diag(R). G's eigenvalues are only good to about
    K d eps lambda_0, so the Gram basis keeps the directions above twice
    that and cannot tell the singular values below it from 0. It is used
    only where the means' residual off it is at most half the tolerance,
    which bounds every dropped singular value under the tolerance; elsewhere
    (the means have singular values between the tolerance and about
    1e-5 s_0) the basis comes from the SVD of M^T, as matrix_rank cuts it.
    """
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


@dataclass(frozen=True, eq=False)
class _Frame:
    """Orthonormal coordinates of a batch's rows: the span of the means, y_i and z0_i.

    Row i's basis is q0 (d, r), an orthonormal basis of the means (r their
    rank), and dirs[i] (2, d), its own directions (0 where y_i or z0_i
    already lies in the span before it). mixture is the mixture in these
    coordinates. Where r + 2 >= d, and where d <= 3 (no basis is built), the
    frame is the identity: q0 = I (d, d), no directions, and the caller's
    mixture; the mixture keeps either decision. The identity's coordinates
    and lifts are the points plus 0.0, which is x @ I bitwise for finite x
    (both turn a -0.0 into +0.0), without the products.
    """

    q0: np.ndarray
    dirs: np.ndarray
    mixture: GaussianMixture
    identity: bool = False

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
                mixture._reduced = (q0, reduced)
        if not mixture._reduced:
            return cls(np.eye(mixture.dim), np.zeros((len(observed), 0, mixture.dim)), mixture,
                       identity=True)
        q0, reduced = mixture._reduced
        y = _directions(observed, q0)
        return cls(q0, np.stack([y, _directions(z0, q0, y)], axis=1), reduced)

    def coords(self, x) -> np.ndarray:
        """(n, r + 2) coordinates of the rows x (n, d), row i in row i's basis."""
        if self.identity:
            return x + 0.0
        return np.concatenate([x @ self.q0, np.einsum("nd,njd->nj", x, self.dirs)], axis=1)

    def lift(self, c, i=slice(None)) -> np.ndarray:
        """Full-space points of coordinates c (m, r + 2): row j in row j's basis, or in row i's."""
        if self.identity:
            return c + 0.0
        k = self.q0.shape[1]
        return c[:, :k] @ self.q0.T + (c[:, None, k:] @ self.dirs[i])[:, 0]


@dataclass(frozen=True, eq=False)
class RestoreResult:
    """One restored row. structural, semantic and generated hold (n_steps + 1, d)
    states, lifted from the batch's frame on first access and kept; the
    diagnostics and the latent norms are likewise built on first access.
    Results, like the paths, trajectories and frames they hold, compare and
    hash by identity."""

    restored: np.ndarray
    _paths: DualPaths = field(repr=False)
    _generated: Trajectory = field(repr=False)
    _frame: _Frame = field(repr=False)
    _row: int = field(repr=False)
    _config: PdlsConfig = field(repr=False)

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
        etas = [float(eta(self._config, float(t))) for t in nodes]
        return tuple(zip(range(len(nodes)), nodes.tolist(), etas, dists.tolist()))

    @functools.cached_property
    def structural_latent_norm(self) -> float:
        return float(np.linalg.norm(self._paths.inversion.terminal[self._row]))

    @functools.cached_property
    def semantic_latent_norm(self) -> float:
        return float(np.linalg.norm(self._paths.inversion.terminal[self._paths.pair[self._row]]))


def restore(observed, mixture: GaussianMixture, prompt, config: PdlsConfig, seed):
    """Full pipeline: dual inversion, then steered generation.

    observed is one point (d,) with one prompt and one seed, giving one
    RestoreResult, or a batch (n, d) with one prompt and one seed per row,
    giving a list of n. Each distinct seed is drawn once. The whole batch
    runs as one stacked inversion and one generation in the batch's frame
    (see the module docstring). A null prompt collapses to single-path
    restoration (both stored paths are the structural one).
    """
    observed = np.asarray(observed, dtype=float)
    single = observed.ndim == 1
    prompts, seeds = ([prompt], [seed]) if single else (list(prompt), list(seed))
    batch = np.atleast_2d(observed)
    if len(prompts) != len(batch) or len(seeds) != len(batch):
        raise ValueError("a batch needs one prompt and one seed per row")
    if batch.ndim != 2 or batch.shape[1] != mixture.dim:
        raise ValueError(f"observations of shape {observed.shape} do not match "
                         f"the mixture's dimension {mixture.dim}")
    # Past _MAX_NORM the field's exponent may overflow. Where ||x||^2 itself
    # overflows every log-density is -inf and the first drift NaN, so the
    # whole range is reported as that divergence.
    big = np.max(np.abs(batch), initial=0.0)
    if np.isfinite(big) and big * np.sqrt(batch.shape[1]) > _MAX_NORM:
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
