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
Condition or one condition per row. A condition is a row of log-weights
with -inf for the components it excludes (GaussianMixture.log_weights), so
the rows of one batch can carry different conditions. Squared distances
are expanded as ||x||^2 - 2t x.mu^T + t^2 ||mu||^2 and the endpoint mean
is mixed by a second matrix product, so a batch costs two (n, d) x (d, K)
GEMMs and builds no (n, K, d) temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np
from scipy.special import logsumexp

# Terminal-time clamp: marginal_velocity clamps t into [0, 1 - EPS_T] so the
# 1/(1-t) gain stays finite. Integration grids keep their exact endpoint
# nodes; drifts are only evaluated at a step's start node.
EPS_T = 1e-3


class TerminalTimeError(ValueError):
    """Raised when a field or gain is requested too close to a singular time."""


class GaussianMixture:
    """Isotropic Gaussian mixture with labeled components.

    Components with variance 0 are exemplars (Dirac masses); a small shared
    variance acts as a kernel bandwidth smoothing the exemplar field. The
    field reads a cache built here (squared mean norms, and log-weights per
    condition), so a mixture's arrays are not to be changed after creation.
    """

    def __init__(self, weights, means, variances, labels):
        weights = np.asarray(weights, dtype=float)
        means = np.atleast_2d(np.asarray(means, dtype=float))
        variances = np.asarray(variances, dtype=float)
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
    """(n, K) log-weights of one condition for every row, or of one condition per row."""
    if isinstance(cond, Condition):
        return np.broadcast_to(mixture.log_weights(cond), (n, mixture.n_components))
    rows = [mixture.log_weights(c) for c in cond]
    if len(rows) != n:
        raise ValueError(f"{len(rows)} conditions for a batch of {n} points")
    return np.stack(rows)


def _sq_distances(xb, t, means, mean_sq):
    """(n, K) squared distances ||x - t mu||^2 = ||x||^2 - 2t x.mu + t^2 ||mu||^2."""
    x_sq = np.einsum("nd,nd->n", xb, xb)
    return x_sq[:, None] - (2.0 * t) * (xb @ means.T) + (t * t) * mean_sq


def _gaussian_posterior(xb, t, means, mean_sq, variances, logw):
    """Responsibilities (n, K) from log w_k + log N(x; t mu_k, s_k^2 I), s_k^2 > 0."""
    s2 = (1.0 - t) ** 2 + t**2 * variances
    d = means.shape[1]
    sq = _sq_distances(xb, t, means, mean_sq)
    logp = logw - 0.5 * d * np.log(2.0 * np.pi * s2) - sq / (2.0 * s2)
    return np.exp(logp - logsumexp(logp, axis=1, keepdims=True))


def _terminal_posterior(xb, mixture: GaussianMixture, logw):
    """Responsibilities at t >= 1 of a mixture with Dirac components.

    Dirac components make the terminal posterior collapse onto exact means;
    a row whose condition keeps no Dirac is an ordinary Gaussian posterior.
    """
    out = np.zeros((xb.shape[0], mixture.n_components))
    for i, (pt, row) in enumerate(zip(xb, logw)):
        idx = np.flatnonzero(np.isfinite(row))
        mu, var = mixture.means[idx], mixture.variances[idx]
        if not np.any(var == 0):
            out[i, idx] = _gaussian_posterior(pt[None, :], 1.0, mu, mixture.mean_sq[idx],
                                              var, row[idx])[0]
            continue
        distinct = np.unique(np.hstack([mu, var[:, None]]), axis=0).shape[0] > 1
        hit = np.all(mu == pt, axis=1) & (var == 0)
        if np.any(hit):
            out[i, idx[np.argmax(hit)]] = 1.0
        elif idx.size > 1 and distinct:
            raise ValueError("degenerate posterior at terminal time")
        else:
            out[i, idx] = 1.0 / idx.size
    return out


def _posterior(xb, t, mixture: GaussianMixture, cond):
    """Responsibilities (n, K) over all K components; excluded ones get exactly 0."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("time out of range")
    logw = _log_weight_rows(mixture, cond, xb.shape[0])
    if t >= 1.0 and np.any(mixture.variances == 0):
        return _terminal_posterior(xb, mixture, logw)
    return _gaussian_posterior(xb, t, mixture.means, mixture.mean_sq, mixture.variances, logw)


def responsibilities(x, t, mixture: GaussianMixture, cond=Condition.null()):
    """Posterior probability of each component given X_t = x.

    Computed with log-sum-exp over log w_k + log N(x; t mu_k, s_k^2 I) where
    s_k^2 = (1-t)^2 + t^2 sigma_k^2. Accepts a single point or a batch. With
    one Condition the columns are the components it selects; with one
    condition per row they are all K components, 0 where a row's condition
    excludes them.
    """
    xb, single = _check_points(x, mixture)
    r = _posterior(xb, t, mixture, cond)
    if isinstance(cond, Condition):
        r = r[:, np.isfinite(mixture.log_weights(cond))]
    return r[0] if single else r


def posterior_endpoint_mean(x, t, mixture: GaussianMixture, cond=Condition.null()):
    """E[X_1 | X_t = x] under the (conditioned) mixture.

    Per component, Gaussian conditioning gives
        E[X_1 | x, k] = mu_k + c_k (x - t mu_k),   c_k = t sigma_k^2 / s_k^2,
    mixed by the responsibilities r, which is two GEMMs:
        (r * (1 - t c)) @ mu + (r @ c) x.
    Accepts a single point or a batch, under one Condition or one per row.
    """
    xb, single = _check_points(x, mixture)
    r = _posterior(xb, t, mixture, cond)
    var = mixture.variances
    s2 = (1.0 - t) ** 2 + t**2 * var
    s2 = np.where(s2 == 0, 1.0, s2)  # Dirac at t=1: coefficient is irrelevant (x = t mu)
    coef = t * var / s2
    out = (r * (1.0 - t * coef)) @ mixture.means + (r @ coef)[:, None] * xb
    return out[0] if single else out


def marginal_velocity(
    x,
    t,
    mixture: GaussianMixture,
    cond=Condition.null(),
    clamp: bool = True,
):
    """Exact marginal velocity (posterior_endpoint_mean(x, t) - x) / (1 - t).

    With clamp=True (the default, used by all integrators) t is clamped into
    [0, 1 - EPS_T]; with clamp=False times past the clamp raise.
    Accepts a single point or a batch, under one Condition or one per row.
    """
    x = np.asarray(x, dtype=float)
    if not 0.0 <= t <= 1.0:
        raise ValueError("time out of range")
    if t > 1.0 - EPS_T:
        if not clamp:
            raise TerminalTimeError("terminal-time singularity")
        t = 1.0 - EPS_T
    m = posterior_endpoint_mean(x, t, mixture, cond)
    return (m - x) / (1.0 - t)


def endpoint_conditional_velocity(x, t, target, target_time):
    """Forward-time velocity of the straight line through (x, t) and (target, target_time).

    target_time must be 0 (noise end) or 1 (data end). The field is singular
    at the target's own time.
    """
    x = np.asarray(x, dtype=float)
    target = np.asarray(target, dtype=float)
    if x.shape != target.shape:
        raise ValueError("target dimension mismatch")
    if target_time not in (0, 1, 0.0, 1.0):
        raise ValueError("target_time must be 0 or 1")
    if target_time == 1:
        denom = 1.0 - t
        direction = target - x
    else:
        denom = t
        direction = x - target
    if denom < EPS_T - 1e-12:
        raise TerminalTimeError("conditional field singular")
    return direction / denom


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
