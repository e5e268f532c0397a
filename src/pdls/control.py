"""Steering law and guidance schedules.

The steering controller is the closed-form minimizer of a quadratic
control-effort + terminal-deviation objective along dZ_t = c dt:

    c(x, t) = (target - x) / (1 - t),

the velocity of the straight line reaching the target at t=1. One Euler
step with it contracts the distance to a fixed target by exactly
(1 - dt/(1-t)) (test_contraction_identity). Its strength is the cosine
decay eta(t) = eta_max/2 * (1 + cos(pi t)), zero at t=1, or eta_max held,
as a PdlsConfig sets them.
"""

from __future__ import annotations

import numpy as np

from .flowfield import EPS_T

SCHEDULE_KINDS = ("cosine", "constant")


def eta(config, t):
    """Guidance strength at time t in [0, 1] of a PdlsConfig's eta_max and schedule_kind.
    At an array of times it is an array, bitwise the scalar calls at each
    (test_the_array_form_is_the_scalar_calls_bitwise); any time outside
    [0, 1], or NaN, raises ValueError."""
    times = np.asarray(t, dtype=float)
    if np.count_nonzero((times >= 0.0) & (times <= 1.0)) != times.size:
        raise ValueError("time out of range")
    if config.schedule_kind == "constant":
        return config.eta_max if times.ndim == 0 else np.full(times.shape, config.eta_max)
    return 0.5 * config.eta_max * (1.0 + np.cos(np.pi * times))


def lqr_control(x, target, t):
    """Optimal steering control (target - x) / (1 - t)."""
    x = np.asarray(x, dtype=float)
    target = np.asarray(target, dtype=float)
    if x.shape != target.shape:
        raise ValueError("target dimension mismatch")
    if 1.0 - t < EPS_T - 1e-12:
        raise ValueError("terminal-time singularity")
    return (target - x) / (1.0 - t)


def blend_drift(base, guided, weight):
    """base + weight * (guided - base): a PdlsConfig's weight, in [0, 1], on
    two drifts of the state's shape. Weight 0 gives base and weight 1 guided,
    exactly and whatever the other drift holds."""
    if weight == 0.0:
        return base
    if weight == 1.0:
        return guided
    return base + weight * (guided - base)
