"""Steering law and guidance schedules.

The steering controller is the closed-form minimizer of a quadratic
control-effort + terminal-deviation objective along dZ_t = c dt:

    c(x, t) = (target - x) / (1 - t)

i.e. the velocity of the straight line reaching the target at t=1. One
Euler step with this control contracts the distance to a fixed target by
exactly (1 - dt/(1-t)). Its strength is modulated by a cosine decay
schedule eta(t) = eta_max/2 * (1 + cos(pi t)), strongest at t=0 and zero
at t=1, or held at eta_max. eta_max and the schedule kind are a
PdlsConfig's, which checks them.
"""

from __future__ import annotations

import numpy as np

from .flowfield import EPS_T, TerminalTimeError

SCHEDULE_KINDS = ("cosine", "constant")


def eta(config, t: float) -> float:
    """Guidance strength at time t in [0, 1] of a PdlsConfig's eta_max and schedule_kind."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("time out of range")
    if config.schedule_kind == "constant":
        return config.eta_max
    return 0.5 * config.eta_max * (1.0 + np.cos(np.pi * t))


def lqr_control(x, target, t):
    """Optimal steering control (target - x) / (1 - t)."""
    x = np.asarray(x, dtype=float)
    target = np.asarray(target, dtype=float)
    if x.shape != target.shape:
        raise ValueError("target dimension mismatch")
    if 1.0 - t < EPS_T - 1e-12:
        raise TerminalTimeError("terminal-time singularity")
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
