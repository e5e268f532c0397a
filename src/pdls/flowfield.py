"""Closed-form rectified-flow velocity fields for Gaussian-mixture targets.

The flow interpolates linearly between an isotropic Gaussian source at t=0
and a finite isotropic mixture at t=1:

    X_t = (1 - t) * X_0 + t * X_1,   X_0 ~ N(0, I),  X_1 ~ mixture

so the marginal at time t is itself a mixture,

    X_t ~ sum_k w_k N(t * mu_k, ((1-t)^2 + t^2 * sigma_k^2) * I),

and the exact marginal velocity is

    v(x, t) = (E[X_1 | X_t = x] - x) / (1 - t).

Exemplar datasets enter as zero-variance (Dirac) components, optionally
smoothed with a small shared bandwidth. All density arithmetic is done in
log space; component likelihoods near t=1 span hundreds of orders of
magnitude otherwise.

Every field function takes one point (d,) or a batch (n, d), under one
Condition shared by every row or under (n, K) log-weight rows, one per
point. A condition is a row of log-weights with -inf for the components it
excludes (GaussianMixture.log_weights), so the rows of one batch can carry
different conditions, and a caller that evaluates one batch many times
stacks its rows once. The mixture keeps one record per condition, built by
one Condition.select: the indices of the components it keeps, that (K,)
log-weight row and the cdf sample_mixture draws from.

What depends on t alone is folded into the constants of a node, built once
per time on the mixture and kept in a bounded cache keyed on t. With
s_k^2 = (1-t)^2 + t^2 sigma_k^2 and ||x - t mu_k||^2 expanded, the
log-density of component k is

    x.lin_k + ||x||^2 quad_k + const_k,   lin = mu^T 2t / 2s^2 (d, K),
    quad = -1 / 2s^2,   const = -0.5 d log(2 pi s^2) - t^2 ||mu||^2 / 2s^2,

one GEMM and three in-place adds, and the velocity is one GEMM r @ vmat,
vmat = [(1 - t c) / (1 - t) mu | c / (1 - t)] (K, d + 1), c_k =
t sigma_k^2 / s_k^2, and one (n, d) update, so a batch builds no (n, K, d)
temporaries; the endpoint mean is read back off it, x + (1 - t) v. An
integration hands its grid's times to the mixture before its first step,
which builds all their nodes in one vectorised pass over (T, K) arrays; a
node built alone comes from the same function, bitwise equal. Near t = 1
the folded terms are of order ||x||^2 / 2s^2 (about 1e6 on shapes32)
before they cancel, so they round differently from distances scaled
afterwards; a test holds every row of a restore to 3 times the float64
direct form's own error against tests/data/make_truth.py's longdouble
restores, or to 1e-12 where that is more. The fold scales x by up to
1 / EPS_T^2 before any term is summed, so pipeline.restore rejects
observations whose exponent would overflow.

Responsibilities are normalised by _logsumexp_rows, a replica of
scipy.special.logsumexp's arithmetic for real rows: scipy's own function
spends most of its time on array-API dispatch at the (1-180, K) sizes of a
restore, and the replica keeps its results bitwise. A plain max-shift
softmax would save a few numpy calls more, but it failed 2 of the 12
shapes32-manifest checks against benchmarks/references.npz (1e-12).
Where every row's maximum is finite and occurs once (all evaluations of a
shapes32 restore but its t = 0 one, where equally weighted components tie),
the replica's count of maxima is 1, and dividing by it and adding its log
(+0.0) change no bit: a single-maximum branch leaves them out, with the
errstate and the finiteness pass they need, and returns the general
branch's bits. The general branch also normalises the rows under its
errstate, so a point so far out that every component's log-density is -inf
gets NaN responsibilities, which integrate's finiteness check reports,
instead of a numpy warning.

Where every row of the (n, K) log-weight rows keeps exactly one component
k_i (a prompt of a label that holds one component, as each of toy2d's
two does), the posterior is a point mass, and the softmax only recomputes
it: the row's one finite entry is its maximum, so the single-maximum
branch's s is 0, its log-sum is that maximum and r is e_k exactly (the
general branch, taken when another row ties, gives the same), and
r @ vmat is row k of vmat. marginal_velocity then takes node.vmat[k]
through the same update and skips the log-densities, the softmax and the
GEMM. The test is made per row: a batch with a row of two components and
a row of none has n kept entries but no point mass, and takes the softmax,
which gives the empty row NaN. It is made only on mixtures with a label
of one component, which the mixture knows from construction, so a
shapes32 mixture (30 components per label) pays nothing for it. The
velocities are the softmax path's numbers; their bytes differ only in the
sign of a zero where a mean has a -0.0 coordinate, which vmat[k] keeps and
the GEMM's sum may turn into +0.0. In a batch of point masses, a row so
far out that its log-density overflows (||x||^2 past the float range,
which restore rejects before it integrates) gets its exact velocity
instead of NaN.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, NamedTuple

import numpy as np

# Terminal-time guard: every field function clamps t into [0, 1 - EPS_T], so
# the 1/(1-t) gain stays finite and a Dirac's s_k^2 stays positive.
# Integration grids keep their exact endpoint nodes; drifts are only
# evaluated at a step's start node.
EPS_T = 1e-3

# Bytes of field constants a mixture keeps (_node_at), each node
# K (2d + 3) floats. A 28-step restore evaluates about 56 nodes, 11 KB each in
# the reduced coordinates of a shapes32 restore (K = 90, d = 6) and 1.5 MB in
# its full space (d = 1024); past the budget the cache starts over with the
# times being added, one integration's grid, whatever their size.
_MAX_NODE_BYTES = 1 << 22


class TerminalTimeError(ValueError):
    """Raised when a field or gain is requested too close to a singular time."""


class GaussianMixture:
    """Isotropic Gaussian mixture with labeled components.

    Components with variance 0 are exemplars (Dirac masses); a small shared
    variance acts as a kernel bandwidth smoothing the exemplar field. The
    field reads caches built here (squared mean norms, one record per
    condition and constants per time), so it keeps read-only copies of its
    arrays, which a caller's later writes to the originals leave unchanged.
    """

    def __init__(self, weights, means, variances, labels):
        weights = np.array(weights, dtype=float)
        means = np.atleast_2d(np.array(means, dtype=float))
        variances = np.array(variances, dtype=float)
        for a in (weights, means, variances):
            a.flags.writeable = False
        labels = tuple(labels)
        n = len(labels)
        if weights.shape != (n,) or means.shape[0] != n or variances.shape != (n,):
            raise ValueError("component fields must have matching lengths")
        if n == 0:
            raise ValueError("mixture needs at least one component")
        if not np.all(np.isfinite(weights) & (weights > 0)):
            raise ValueError("weights must be finite and strictly positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if not np.all(np.isfinite(variances) & (variances >= 0)):
            raise ValueError("variances must be finite and non-negative")
        if not np.all(np.isfinite(means)):
            raise ValueError("means must be finite")
        self.weights = weights
        self.means = means
        self.variances = variances
        self.labels = labels
        self.mean_sq = np.einsum("kd,kd->k", means, means)
        self._log_w = np.log(weights)
        self._conditions: dict = {}
        self._nodes: dict = {}
        self._ambient_dim = means.shape[1]  # the log-normaliser's d; see pipeline._Frame
        # Only a label of one component makes a prompt a point mass (see marginal_velocity).
        self._one_component_label = 1 in Counter(labels).values()
        self._reduced = None  # pipeline's frame: (basis, reduced mixture), or () for identity

    @property
    def n_components(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def _condition(self, cond: "Condition") -> "_ConditionRecord":
        """What cond keeps of the mixture, built by one cond.select (cached)."""
        record = self._conditions.get(cond)
        if record is None:
            idx = cond.select(self)
            log_w = np.full(self.n_components, -np.inf)
            log_w[idx] = self._log_w[idx]
            w = self.weights[idx]
            cdf = (w / w.sum()).cumsum()
            cdf /= cdf[-1]
            record = _ConditionRecord(idx, log_w, cdf)
            for a in record:
                a.flags.writeable = False
            self._conditions[cond] = record
        return record

    def log_weights(self, cond: "Condition") -> np.ndarray:
        """(K,) log-weights under cond, -inf for the components it excludes (cached)."""
        return self._condition(cond).log_w

    def _add_nodes(self, times) -> None:
        """Build, in one pass, the constants of each of times that has none yet,
        clamped into [0, 1 - EPS_T] as the field clamps them. An integration
        hands in its grid's times before its first step. Past _MAX_NODE_BYTES
        the cache starts over with these times."""
        times = np.minimum(np.asarray(times, dtype=float), 1.0 - EPS_T)
        times = list(dict.fromkeys(times.tolist()))
        new = [t for t in times if t not in self._nodes]
        node_bytes = 8 * self.n_components * (2 * self.dim + 3)
        if (len(self._nodes) + len(new)) * node_bytes > _MAX_NODE_BYTES:
            self._nodes.clear()
            new = times
        if new:
            self._nodes.update(zip(new, _build_nodes(self, np.array(new))))


class _ConditionRecord(NamedTuple):
    """A condition's share of the mixture, read by the field and by sample_mixture."""

    idx: np.ndarray  # the indices of the components the condition keeps, ascending
    log_w: np.ndarray  # (K,) their log-weights, -inf for the others
    cdf: np.ndarray  # the cdf of their renormalised weights, as Generator.choice builds it


class _Node(NamedTuple):
    """What the field needs at one time t < 1, s_k^2 = (1-t)^2 + t^2 sigma_k^2 > 0 and
    c_k = t sigma_k^2 / s_k^2, with the time-only terms folded in (see the module docstring)."""

    lin: np.ndarray  # (d, K) mu^T 2t / 2s_k^2
    quad: np.ndarray  # (K,) -1 / 2s_k^2
    const: np.ndarray  # (K,) -0.5 d log(2 pi s_k^2) - t^2 ||mu_k||^2 / 2s_k^2, d ambient
    vmat: np.ndarray  # (K, d + 1) [(1 - t c_k) / (1 - t) mu_k | c_k / (1 - t)]


def _build_nodes(mixture: GaussianMixture, t: np.ndarray) -> list:
    """The _Nodes of the times t (T,), each a view of (T, K) and (T, K, d) arrays built at once."""
    t = t[:, None]
    var, means = mixture.variances, mixture.means
    s2 = (1.0 - t) ** 2 + t**2 * var
    two_s2 = 2.0 * s2
    log_norm = 0.5 * mixture._ambient_dim * np.log(2.0 * np.pi * s2)
    const = -log_norm - (t * t) * mixture.mean_sq / two_s2
    coef = t * var / s2
    lin = means.T * ((2.0 * t) / two_s2)[:, None, :]
    vmat = np.concatenate([((1.0 - t * coef) / (1.0 - t))[..., None] * means,
                           (coef / (1.0 - t))[..., None]], axis=2)
    return list(map(_Node, lin, -1.0 / two_s2, const, vmat))


@dataclass(frozen=True)
class Condition:
    """Semantic conditioning: all components (null) or a label subset (the prompt)."""

    labels: frozenset | None = None

    @classmethod
    def null(cls) -> "Condition":
        return cls(None)

    @classmethod
    def of(cls, *labels: Hashable) -> "Condition":
        return cls(frozenset(labels))

    @property
    def is_null(self) -> bool:
        return self.labels is None

    def select(self, mixture: GaussianMixture) -> np.ndarray:
        """Indices of the mixture components this condition keeps."""
        if self.labels is None:
            return np.arange(mixture.n_components)
        unknown = self.labels - set(mixture.labels)
        if unknown:
            raise ValueError(f"condition labels not in mixture: {sorted(map(str, unknown))}")
        idx = np.array([i for i, lb in enumerate(mixture.labels) if lb in self.labels])
        if idx.size == 0:
            raise ValueError("condition selects no components")
        return idx


def _check_points(x, mixture):
    """Accept a single point (d,) or a batch (n, d); return (batch, was_single)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    batch = x[None] if single else x
    if batch.ndim != 2 or batch.shape[1] != mixture.dim:
        raise ValueError(f"point dimension {x.shape} does not match mixture dim {mixture.dim}")
    return batch, single


def _log_weight_rows(mixture: GaussianMixture, cond, n: int) -> np.ndarray:
    """(n, K) log-weights: cond's own (n, K) rows, or one Condition's for every row."""
    if isinstance(cond, np.ndarray) and cond.shape == (n, mixture.n_components):
        return cond
    if isinstance(cond, Condition):
        return np.broadcast_to(mixture.log_weights(cond), (n, mixture.n_components))
    raise ValueError(f"cond must be a Condition or ({n}, {mixture.n_components}) "
                     f"log-weight rows, not {getattr(cond, 'shape', type(cond).__name__)}")


def _logsumexp_rows(a: np.ndarray, subtract: bool = False) -> np.ndarray:
    """log(sum(exp(a), axis=1)) as an (n, 1) column, bitwise as scipy 1.17 computes it,
    or with subtract, a minus that column (the rows normalised in log space).

    This is scipy.special.logsumexp(a, axis=1, keepdims=True) for real a:
    the row maxima are taken out of the sum and counted (m), the rest is
    summed shifted (s), and the result is log1p(s / m) + log(m) + max.
    Where that is not finite, the unshifted log(sum(exp(a))) is used. The
    reductions are the ufuncs np.max and np.sum call, without their dispatch.

    Where every row's maximum is finite and occurs once (m = 1), s / m is s
    and log(m) is +0.0 exactly, and log1p(s) >= +0.0 is finite, so the
    result is log1p(s) + max bitwise, with no floating-point error to
    silence and none to patch up: that branch runs no errstate and no
    finiteness pass. Ties and non-finite maxima (the t = 0 node of a field
    whose components all tie, an -inf row, +inf or NaN entries) take the
    general branch, which also does subtract's a minus the column under its
    errstate, so an -inf row's -inf - -inf gives NaN without a warning.
    """
    a_max = np.maximum.reduce(a, axis=1, keepdims=True)
    is_max = a == a_max
    if np.count_nonzero(is_max) == len(a) and np.isfinite(a_max).all():
        s = np.add.reduce(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=1, keepdims=True)
        out = np.log1p(s) + a_max
        return a - out if subtract else out
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.add.reduce(is_max, axis=1, keepdims=True, dtype=a.dtype)
        s = np.add.reduce(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=1, keepdims=True)
        s /= m
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            with np.errstate(over="ignore"):
                direct = np.log(np.add.reduce(np.exp(a), axis=1, keepdims=True))
            out = np.where(finite, out, direct)
        return a - out if subtract else out


def _log_densities(xb, node: _Node):
    """(n, K) log N(x; t mu_k, s_k^2 I) = x.lin + ||x||^2 quad + const, the expanded
    squared distance ||x||^2 - 2t x.mu + t^2 ||mu||^2 with node's terms folded in."""
    logp = xb @ node.lin
    logp += np.einsum("nd,nd->n", xb, xb)[:, None] * node.quad
    logp += node.const
    return logp


def _node_at(mixture: GaussianMixture, t):
    """The node of time t (cached on mixture) and that time, clamped into [0, 1 - EPS_T]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("time out of range")
    t = min(t, 1.0 - EPS_T)
    node = mixture._nodes.get(t)
    if node is None:
        mixture._add_nodes([t])
        node = mixture._nodes[t]
    return node, t


def _posterior(xb, node: _Node, logw):
    """Responsibilities (n, K) from logw (n, K) + log N(x; t mu_k, s_k^2 I) over all K
    components at node's t (excluded ones get exactly 0)."""
    logp = _log_densities(xb, node)
    logp += logw
    r = _logsumexp_rows(logp, subtract=True)
    return np.exp(r, out=r)


def _point_masses(logw):
    """(n,) the one component each row of logw (n, K) keeps, or None unless every row
    keeps exactly one, with a finite log-weight (see the module docstring)."""
    kept = logw != -np.inf
    if np.count_nonzero(kept) != len(logw):
        return None
    k = kept.argmax(axis=1)
    return k if np.isfinite(logw[np.arange(len(k)), k]).all() else None


def responsibilities(x, t, mixture: GaussianMixture, cond=Condition.null()):
    """Posterior probability of each component given X_t = x.

    Computed with log-sum-exp over log w_k + log N(x; t mu_k, s_k^2 I) where
    s_k^2 = (1-t)^2 + t^2 sigma_k^2. Accepts a single point or a batch. With
    one Condition the columns are the components it selects; with (n, K)
    log-weight rows they are all K components, 0 where a row's -inf
    excludes them. Times past 1 - EPS_T are clamped to it (see EPS_T).
    """
    xb, single = _check_points(x, mixture)
    node, _ = _node_at(mixture, t)
    r = _posterior(xb, node, _log_weight_rows(mixture, cond, len(xb)))
    if isinstance(cond, Condition):
        r = r[:, mixture._condition(cond).idx]
    return r[0] if single else r


def marginal_velocity(x, t, mixture: GaussianMixture, cond=Condition.null()):
    """Exact marginal velocity (E[X_1 | X_t = x] - x) / (1 - t).

    Per component, Gaussian conditioning gives E[X_1 | x, k] = mu_k + c_k (x - t mu_k),
    mixed by the responsibilities r. That is affine in x, so the velocity is
    too, and it is computed in that form with the 1/(1-t) folded into the
    node's vmat [(1 - t c) / (1 - t) mu | c / (1 - t)]: one GEMM r @ vmat =
    [a | b] and one (n, d) update a + (b - 1 / (1 - t)) x. Where every row keeps
    one component k_i, r is e_k and r @ vmat is vmat[k] (see the module docstring).
    Times past 1 - EPS_T are clamped to it (see EPS_T).
    Accepts a single point or a batch, under one Condition or (n, K) log-weight rows.
    """
    xb, single = _check_points(x, mixture)
    node, t = _node_at(mixture, t)
    logw = _log_weight_rows(mixture, cond, len(xb))
    k = _point_masses(logw) if mixture._one_component_label else None
    y = _posterior(xb, node, logw) @ node.vmat if k is None else node.vmat[k]
    out = y[:, :-1]
    out += (y[:, -1] - 1.0 / (1.0 - t))[:, None] * xb
    return out[0] if single else out


def endpoint_conditional_velocity(x, t, target):
    """Forward-time velocity (x - target) / t of the straight line through (x, t) and
    (target, 0), the noise end. It is singular at t = 0; the line toward the data
    end is control.lqr_control.
    """
    x = np.asarray(x, dtype=float)
    target = np.asarray(target, dtype=float)
    if x.shape != target.shape:
        raise ValueError("target dimension mismatch")
    if t < EPS_T - 1e-12:
        raise TerminalTimeError("conditional field singular")
    return (x - target) / t


def sample_mixture(mixture: GaussianMixture, n: int, rng: np.random.Generator,
                   cond: Condition = Condition.null()):
    """Draw n samples (and their labels) from the conditioned mixture.

    The components are drawn as rng.choice(K, size=n, p=w) draws them, w the
    renormalised weights of the K components cond keeps: bitwise, from the
    same rng.random(n), searched in the cdf that choice builds. The cdf is
    built once per mixture and condition instead of being rebuilt and its p
    checked at every call.
    """
    idx, _, cdf = mixture._condition(cond)
    chosen = idx[cdf.searchsorted(rng.random(n), side="right")]
    x = mixture.means[chosen] + np.sqrt(mixture.variances[chosen])[:, None] * rng.standard_normal(
        (n, mixture.dim)
    )
    labels = [mixture.labels[i] for i in chosen]
    return x, labels
