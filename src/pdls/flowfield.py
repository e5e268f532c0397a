"""Closed-form rectified-flow velocity fields for Gaussian-mixture targets.

The flow interpolates linearly between an isotropic Gaussian source at t=0
and a finite isotropic mixture at t=1, X_t = (1 - t) X_0 + t X_1, so the
marginal at time t is the mixture sum_k w_k N(t mu_k, s_k^2 I), s_k^2 =
(1-t)^2 + t^2 sigma_k^2, and the exact marginal velocity is

    v(x, t) = (E[X_1 | X_t = x] - x) / (1 - t).

Every field function takes one point (d,) or a batch (n, d), under one
Condition or (n, K) log-weight rows, one per point (-inf for the components
a condition excludes); either equals one call per row (TestFieldProperties).

What depends on t alone is folded into a node's constants (_Node), cached
on the mixture per time, so the log-densities are one GEMM and the velocity
one GEMM and one (n, d) update, with no (n, K, d) temporaries. That equals
the direct form within 1e-12 (test_gemm_form_matches_the_direct_oracle),
and a node is the same bits however it was built (TestNodeCache). Near
t = 1 the folded terms cancel only after they are summed, so they round
unlike distances scaled afterwards; a restore stays within 3 times the
direct form's error of a longdouble recomputation, or within 1e-12
(test_restores_are_as_close_to_the_truth_as_the_direct_form). The fold
scales x by up to 1 / EPS_T^2 before any term is summed (see
pipeline._MAX_NORM).

Densities stay in log space, as near t=1 they span hundreds of orders of
magnitude. _log_softmax_rows normalises them, bitwise a -
scipy.special.logsumexp(a) without scipy's array-API dispatch, which
dominates at a restore's sizes; a plain max-shift softmax moves bits past
benchmarks/references.npz's 1e-12. A point so far out that every
log-density is -inf gets NaN responsibilities, which integrate reports
without a numpy warning (test_a_huge_observation_diverges_cleanly).

Where every row keeps one component k_i (toy2d's prompts), its one finite
entry is its maximum, so the softmax gives e_k exactly and marginal_velocity
takes vmat[k] without it: the softmax path's velocities up to the sign of a
zero the GEMM may turn from -0.0 to +0.0, and exact where the softmax would
overflow to NaN (test_equal_to_the_softmax_path). Any other row sends its
batch through the softmax (test_a_row_of_two_and_a_row_of_none_take_the_full_path),
and a mixture without a one-component label never tests its rows
(test_a_mixture_without_a_one_component_label_never_tests_its_rows).
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, NamedTuple

import numpy as np

# Terminal-time guard: every field function clamps t into [0, 1 - EPS_T], so
# the 1/(1-t) gain stays finite and a Dirac's s_k^2 stays positive
# (test_clamped_at_terminal_time). Drifts are only evaluated at a step's
# start node, so grids keep their exact endpoints.
EPS_T = 1e-3

# Bytes of field constants a mixture keeps, K (2d + 3) floats per node. Past
# the budget the cache starts over with the times being added, one
# integration's grid, whatever their size (TestNodeCache).
_MAX_NODE_BYTES = 1 << 22


class TerminalTimeError(ValueError):
    """Raised when the steering gain is requested too close to its singular time t = 1."""


class GaussianMixture:
    """Isotropic Gaussian mixture with labeled components: variance 0 makes an
    exemplar (Dirac mass), a small shared variance a kernel bandwidth. The field
    reads caches built from the arrays, so the mixture keeps read-only copies
    (test_mixture_keeps_read_only_copies_of_its_arrays)."""

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
        # sample_mixture's cdf of the weights, bitwise the one Generator.choice builds.
        self._cdf = (weights / weights.sum()).cumsum()
        self._cdf /= self._cdf[-1]
        self._cdf.flags.writeable = False
        self._log_weights: dict = {}
        self._nodes: dict = {}
        self._ambient_dim = means.shape[1]  # the log-normaliser's d; see pipeline._Frame
        # Only a label of one component makes a prompt a point mass (see the module docstring).
        self._one_component_label = 1 in Counter(labels).values()
        self._reduced = None  # pipeline's frame: (basis, reduced mixture), or () for identity

    @property
    def n_components(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def log_weights(self, cond: "Condition") -> np.ndarray:
        """(K,) log-weights under cond, -inf for the components it excludes,
        built by one cond.select (cached, read-only)."""
        log_w = self._log_weights.get(cond)
        if log_w is None:
            idx = cond.select(self)
            log_w = np.full(self.n_components, -np.inf)
            log_w[idx] = self._log_w[idx]
            log_w.flags.writeable = False
            self._log_weights[cond] = log_w
        return log_w

    def _add_nodes(self, times) -> None:
        """Build, in one pass, the nodes of those times, clamped as the field
        clamps them, that have none yet (see _MAX_NODE_BYTES)."""
        times = np.minimum(np.asarray(times, dtype=float), 1.0 - EPS_T)
        times = list(dict.fromkeys(times.tolist()))
        new = [t for t in times if t not in self._nodes]
        node_bytes = 8 * self.n_components * (2 * self.dim + 3)
        if (len(self._nodes) + len(new)) * node_bytes > _MAX_NODE_BYTES:
            self._nodes.clear()
            new = times
        if new:
            self._nodes.update(zip(new, _build_nodes(self, np.array(new))))


class _Node(NamedTuple):
    """The field's constants at one time t < 1, c_k = t sigma_k^2 / s_k^2."""

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


class Condition(NamedTuple):
    """Semantic conditioning: all components (null) or a label subset (the prompt).
    A NamedTuple: conditions compare and hash by their labels, so equal ones share
    the mixture's cached log-weights (test_value_records_compare_and_hash_by_value)."""

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


def _log_softmax_rows(a: np.ndarray) -> np.ndarray:
    """The rows normalised in log space, bitwise a - scipy.special.logsumexp(a,
    axis=1, keepdims=True) for real a (TestLogsumexpReplica).

    As scipy does, the row maxima are counted (m) and the rest summed shifted
    (s): the log-sum is log1p(s / m) + log(m) + max. Where every row's maximum
    is finite and occurs once, s / m is s and log(m) +0.0, so log1p(s) + max
    has the same bits and nothing to silence; there each maximum's lane is
    zeroed after the exponential, the 0.0 that scipy's -inf lane gives. Ties
    and non-finite maxima take the general branch, under errstate: an all -inf
    row gives NaN without a warning. Where scipy falls back to
    log(sum(exp(a))), the maximum is +-inf or NaN, and a minus either log-sum
    is the same inf or NaN.
    """
    a_max = np.maximum.reduce(a, axis=1, keepdims=True)
    is_max = a == a_max
    if np.count_nonzero(is_max) == len(a) and np.count_nonzero(np.isfinite(a_max)) == len(a):
        e = np.exp(a - a_max)
        np.putmask(e, is_max, 0.0)
        return a - (np.log1p(np.add.reduce(e, axis=1, keepdims=True)) + a_max)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.add.reduce(is_max, axis=1, keepdims=True, dtype=a.dtype)
        s = np.add.reduce(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=1, keepdims=True)
        s /= m
        return a - (np.log1p(s) + np.log(m) + a_max)


def _log_densities(xb, node: _Node):
    """(n, K) log N(x; t mu_k, s_k^2 I) = x.lin + ||x||^2 quad + const."""
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
    """(n, K) responsibilities under log-weight rows logw, exactly 0 where logw is -inf."""
    logp = _log_densities(xb, node)
    logp += logw
    r = _log_softmax_rows(logp)
    return np.exp(r, out=r)


def _point_masses(logw):
    """(n,) the one component each row of logw (n, K) keeps, or None unless every row
    keeps exactly one, with a finite log-weight."""
    kept = logw != -np.inf
    if np.count_nonzero(kept) != len(logw):
        return None
    k = kept.argmax(axis=1)
    return k if np.isfinite(logw[np.arange(len(k)), k]).all() else None


def marginal_velocity(x, t, mixture: GaussianMixture, cond=Condition.null()):
    """Exact marginal velocity (E[X_1 | X_t = x] - x) / (1 - t), t clamped (see EPS_T).

    Per component, E[X_1 | x, k] = mu_k + c_k (x - t mu_k), mixed by the
    responsibilities r: affine in x, so with r @ vmat = [a | b] the velocity
    is a + (b - 1 / (1 - t)) x."""
    xb, single = _check_points(x, mixture)
    node, t = _node_at(mixture, t)
    logw = _log_weight_rows(mixture, cond, len(xb))
    k = _point_masses(logw) if mixture._one_component_label else None
    y = _posterior(xb, node, logw) @ node.vmat if k is None else node.vmat[k]
    out = y[:, :-1]
    out += (y[:, -1] - 1.0 / (1.0 - t))[:, None] * xb
    return out[0] if single else out


def sample_mixture(mixture: GaussianMixture, n: int, rng: np.random.Generator):
    """Draw n samples (and their labels) from the mixture: components bitwise as
    rng.choice(K, size=n, p=w) draws them, from the cdf choice builds
    (test_draws_are_generator_choices_bitwise)."""
    chosen = mixture._cdf.searchsorted(rng.random(n), side="right")
    x = mixture.means[chosen] + np.sqrt(mixture.variances[chosen])[:, None] * rng.standard_normal(
        (n, mixture.dim)
    )
    labels = [mixture.labels[i] for i in chosen]
    return x, labels
