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
    variance acts as a kernel bandwidth smoothing the exemplar field.
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

    @property
    def n_components(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def label_set(self) -> frozenset:
        return frozenset(self.labels)


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


def _posterior(xb, t, mixture: GaussianMixture, cond: Condition):
    """Responsibilities (n, k) of a batch, plus the means and variances they weight.

    Selects the condition's components once, so one field evaluation never
    selects or copies them twice.
    """
    idx = cond.select(mixture)
    mu = mixture.means[idx]
    var = mixture.variances[idx]
    w = mixture.weights[idx]

    if t >= 1.0 and np.any(var == 0):
        # Dirac components make the terminal posterior collapse onto exact means.
        distinct = np.unique(np.hstack([mu, var[:, None]]), axis=0).shape[0] > 1
        out = np.zeros((xb.shape[0], idx.size))
        for i, pt in enumerate(xb):
            hit = np.all(mu == pt, axis=1) & (var == 0)
            if np.any(hit):
                out[i, np.argmax(hit)] = 1.0
            elif idx.size > 1 and distinct:
                raise ValueError("degenerate posterior at terminal time")
            else:
                out[i, :] = 1.0 / idx.size
        return out, mu, var

    s2 = (1.0 - t) ** 2 + t**2 * var
    d = mixture.dim
    diff = xb[:, None, :] - t * mu[None, :, :]  # (n, k, d)
    sq = np.einsum("nkd,nkd->nk", diff, diff)
    logp = np.log(w) - 0.5 * d * np.log(2.0 * np.pi * s2) - sq / (2.0 * s2)
    logr = logp - logsumexp(logp, axis=1, keepdims=True)
    return np.exp(logr), mu, var


def responsibilities(x, t, mixture: GaussianMixture, cond: Condition = Condition.null()):
    """Posterior probability of each selected component given X_t = x.

    Computed with log-sum-exp over log w_k + log N(x; t mu_k, s_k^2 I) where
    s_k^2 = (1-t)^2 + t^2 sigma_k^2. Accepts a single point or a batch.
    """
    xb, single = _check_points(x, mixture)
    if not 0.0 <= t <= 1.0:
        raise ValueError("time out of range")
    r, _, _ = _posterior(xb, t, mixture, cond)
    return r[0] if single else r


def posterior_endpoint_mean(x, t, mixture: GaussianMixture, cond: Condition = Condition.null()):
    """E[X_1 | X_t = x] under the (conditioned) mixture.

    Per component, Gaussian conditioning gives
        E[X_1 | x, k] = mu_k + t sigma_k^2 / s_k^2 * (x - t mu_k),
    mixed by the responsibilities. Accepts a single point or a batch.
    """
    xb, single = _check_points(x, mixture)
    if not 0.0 <= t <= 1.0:
        raise ValueError("time out of range")
    r, mu, var = _posterior(xb, t, mixture, cond)
    s2 = (1.0 - t) ** 2 + t**2 * var
    s2 = np.where(s2 == 0, 1.0, s2)  # Dirac at t=1: coefficient is irrelevant (x = t mu)
    coef = t * var / s2
    endpoints = mu[None, :, :] + coef[None, :, None] * (xb[:, None, :] - t * mu[None, :, :])
    out = np.einsum("nk,nkd->nd", r, endpoints)
    return out[0] if single else out


def marginal_velocity(
    x,
    t,
    mixture: GaussianMixture,
    cond: Condition = Condition.null(),
    clamp: bool = True,
):
    """Exact marginal velocity (posterior_endpoint_mean(x, t) - x) / (1 - t).

    With clamp=True (the default, used by all integrators) t is clamped into
    [0, 1 - EPS_T]; with clamp=False times past the clamp raise.
    Accepts a single point or a batch.
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
