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
stacks its rows once. Squared distances are expanded as
||x||^2 - 2t x.mu^T + t^2 ||mu||^2 and the endpoint mean (or, folded into
the same coefficients, the velocity) is mixed by a second matrix product,
so a batch costs two (n, d) x (d, K) GEMMs and builds no (n, K, d)
temporaries.

Responsibilities are normalised by _logsumexp_rows, a replica of
scipy.special.logsumexp's arithmetic for real rows: scipy's own function
spends most of its time on array-API dispatch at the (1-180, K) sizes of a
restore, and the replica keeps its results bitwise, so outputs do not move.

What depends on t alone (the log-normaliser 0.5 d log(2 pi s_k^2), 2 s_k^2,
t^2 ||mu_k||^2, the gains c_k and the velocity coefficients
(1 - t c_k) / (1 - t)) is built once per time on the mixture, by the same
expressions, and kept in a bounded cache keyed on t: an integration on a
fixed grid evaluates the field at the same few dozen times in every call,
and at the (n, K + 2) sizes of a reduced-coordinate restore an evaluation
costs numpy calls, not arithmetic (a 2-row shapes32 evaluation took
77-115 us with the constants built per call, 47-51 us cached, on one
OpenBLAS thread of a 2-vCPU machine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, NamedTuple

import numpy as np

# Terminal-time guard: every field function clamps t into [0, 1 - EPS_T], so
# the 1/(1-t) gain stays finite and a Dirac's s_k^2 stays positive.
# Integration grids keep their exact endpoint nodes; drifts are only
# evaluated at a step's start node.
EPS_T = 1e-3

# Times whose field constants a mixture keeps (GaussianMixture._node). A
# 28-step restore evaluates about 58; past the bound the cache starts over.
_MAX_NODES = 256


class TerminalTimeError(ValueError):
    """Raised when a field or gain is requested too close to a singular time."""


class GaussianMixture:
    """Isotropic Gaussian mixture with labeled components.

    Components with variance 0 are exemplars (Dirac masses); a small shared
    variance acts as a kernel bandwidth smoothing the exemplar field. The
    field reads caches built here (squared mean norms, log-weights per
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
        if np.any(weights <= 0):
            raise ValueError("weights must be strictly positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if np.any(variances < 0):
            raise ValueError("variances must be non-negative")
        if not np.all(np.isfinite(means)):
            raise ValueError("means must be finite")
        self.weights = weights
        self.means = means
        self.variances = variances
        self.labels = labels
        self.mean_sq = np.einsum("kd,kd->k", means, means)
        self._log_w = np.log(weights)
        self._log_w_rows: dict = {}
        self._nodes: dict = {}
        self._ambient_dim = means.shape[1]  # the log-normaliser's d; see pipeline._Frame
        self._reduced = None  # pipeline's reduced frame of the means, built on first use

    @property
    def n_components(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def label_set(self) -> frozenset:
        return frozenset(self.labels)

    def log_weights(self, cond: "Condition") -> np.ndarray:
        """(K,) log-weights under cond, -inf for the components it excludes (cached)."""
        row = self._log_w_rows.get(cond)
        if row is None:
            idx = cond.select(self)
            row = np.full(self.n_components, -np.inf)
            row[idx] = self._log_w[idx]
            row.flags.writeable = False
            self._log_w_rows[cond] = row
        return row

    def _node(self, t: float) -> "_Node":
        """The field's constants at time t over all components (cached, built on first use)."""
        node = self._nodes.get(t)
        if node is None:
            if len(self._nodes) >= _MAX_NODES:
                self._nodes.clear()
            node = self._nodes[t] = _Node.of(self, t)
        return node


class _Node(NamedTuple):
    """What the field needs at one time t < 1, s_k^2 = (1-t)^2 + t^2 sigma_k^2 > 0."""

    log_norm: np.ndarray  # 0.5 d log(2 pi s_k^2), d the ambient dimension
    two_s2: np.ndarray  # 2 s_k^2
    t2_mean_sq: np.ndarray  # t^2 ||mu_k||^2
    coef: np.ndarray  # c_k = t sigma_k^2 / s_k^2
    vel_coef: np.ndarray  # (1 - t c_k) / (1 - t)

    @classmethod
    def of(cls, mixture: GaussianMixture, t: float) -> "_Node":
        var = mixture.variances
        s2 = (1.0 - t) ** 2 + t**2 * var
        log_norm = 0.5 * mixture._ambient_dim * np.log(2.0 * np.pi * s2)
        coef = t * var / s2
        vel_coef = (1.0 - t * coef) / (1.0 - t)
        return cls(log_norm, 2.0 * s2, (t * t) * mixture.mean_sq, coef, vel_coef)


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
        unknown = self.labels - mixture.label_set()
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
    batch = np.atleast_2d(x)
    if batch.shape[1] != mixture.dim:
        raise ValueError(f"point dimension {x.shape} does not match mixture dim {mixture.dim}")
    return batch, single


def _log_weight_rows(mixture: GaussianMixture, cond, n: int) -> np.ndarray:
    """(n, K) log-weights: one Condition's for every row, or cond's own (n, K) rows."""
    if isinstance(cond, Condition):
        return np.broadcast_to(mixture.log_weights(cond), (n, mixture.n_components))
    if not (isinstance(cond, np.ndarray) and cond.shape == (n, mixture.n_components)):
        raise ValueError(f"cond must be a Condition or ({n}, {mixture.n_components}) "
                         f"log-weight rows, not {getattr(cond, 'shape', type(cond).__name__)}")
    return cond


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) as an (n, 1) column, bitwise as scipy 1.17 computes it.

    This is scipy.special.logsumexp(a, axis=1, keepdims=True) for real a:
    the row maxima are taken out of the sum and counted (m), the rest is
    summed shifted (s), and the result is log1p(s / m) + log(m) + max.
    Where that is not finite, the unshifted log(sum(exp(a))) is used. The
    reductions are the ufuncs np.max and np.sum call, without their dispatch.
    """
    a_max = np.maximum.reduce(a, axis=1, keepdims=True)
    is_max = a == a_max
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.add.reduce(is_max, axis=1, keepdims=True, dtype=a.dtype)
        s = np.add.reduce(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
    finite = np.isfinite(out)
    if not finite.all():
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            direct = np.log(np.add.reduce(np.exp(a), axis=1, keepdims=True))
        out = np.where(finite, out, direct)
    return out


def _sq_distances(xb, t, means, t2_mean_sq):
    """(n, K) squared distances ||x - t mu||^2 = ||x||^2 - 2t x.mu + t^2 ||mu||^2,
    given t2_mean_sq = t^2 ||mu||^2."""
    x_sq = np.einsum("nd,nd->n", xb, xb)
    return x_sq[:, None] - (2.0 * t) * (xb @ means.T) + t2_mean_sq


def _posterior(xb, t, mixture: GaussianMixture, cond):
    """Responsibilities (n, K) from log w_k + log N(x; t mu_k, s_k^2 I) over all K
    components (excluded ones get exactly 0), the node they used and its time:
    t clamped into [0, 1 - EPS_T]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("time out of range")
    t = min(t, 1.0 - EPS_T)
    node = mixture._node(t)
    logw = _log_weight_rows(mixture, cond, xb.shape[0])
    sq = _sq_distances(xb, t, mixture.means, node.t2_mean_sq)
    logp = logw - node.log_norm - sq / node.two_s2
    return np.exp(logp - _logsumexp_rows(logp)), node, t


def responsibilities(x, t, mixture: GaussianMixture, cond=Condition.null()):
    """Posterior probability of each component given X_t = x.

    Computed with log-sum-exp over log w_k + log N(x; t mu_k, s_k^2 I) where
    s_k^2 = (1-t)^2 + t^2 sigma_k^2. Accepts a single point or a batch. With
    one Condition the columns are the components it selects; with (n, K)
    log-weight rows they are all K components, 0 where a row's -inf
    excludes them. Times past 1 - EPS_T are clamped to it (see EPS_T).
    """
    xb, single = _check_points(x, mixture)
    r, _, _ = _posterior(xb, t, mixture, cond)
    if isinstance(cond, Condition):
        r = r[:, np.isfinite(mixture.log_weights(cond))]
    return r[0] if single else r


def posterior_endpoint_mean(x, t, mixture: GaussianMixture, cond=Condition.null()):
    """E[X_1 | X_t = x] under the (conditioned) mixture.

    Per component, Gaussian conditioning gives
        E[X_1 | x, k] = mu_k + c_k (x - t mu_k),   c_k = t sigma_k^2 / s_k^2,
    mixed by the responsibilities r, which is two GEMMs:
        (r * (1 - t c)) @ mu + (r @ c) x.
    Times past 1 - EPS_T are clamped to it (see EPS_T).
    Accepts a single point or a batch, under one Condition or (n, K) log-weight rows.
    """
    xb, single = _check_points(x, mixture)
    r, node, t = _posterior(xb, t, mixture, cond)
    out = (r * (1.0 - t * node.coef)) @ mixture.means + (r @ node.coef)[:, None] * xb
    return out[0] if single else out


def marginal_velocity(x, t, mixture: GaussianMixture, cond=Condition.null()):
    """Exact marginal velocity (posterior_endpoint_mean(x, t) - x) / (1 - t).

    The endpoint mean is affine in x, so the velocity is too, and it is
    computed in that form with the 1/(1-t) folded into the coefficients:
        (r * (1 - t c) / (1 - t)) @ mu + ((r @ c - 1) / (1 - t)) x,
    one GEMM and one (n, d) update.
    Times past 1 - EPS_T are clamped to it (see EPS_T).
    Accepts a single point or a batch, under one Condition or (n, K) log-weight rows.
    """
    xb, single = _check_points(x, mixture)
    r, node, t = _posterior(xb, t, mixture, cond)
    out = ((r * node.vel_coef) @ mixture.means
           + ((r @ node.coef - 1.0) / (1.0 - t))[:, None] * xb)
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
    """Draw n samples (and their labels) from the conditioned mixture."""
    idx = cond.select(mixture)
    w = mixture.weights[idx]
    w = w / w.sum()
    comp = rng.choice(idx.size, size=n, p=w)
    chosen = idx[comp]
    x = mixture.means[chosen] + np.sqrt(mixture.variances[chosen])[:, None] * rng.standard_normal(
        (n, mixture.dim)
    )
    labels = [mixture.labels[i] for i in chosen]
    return x, labels
