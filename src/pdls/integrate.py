"""Uniform time grids and explicit Euler integration in either direction.

The step is signed: x_{k+1} = x_k + dt * drift(x_k, t_k, k) with
dt = t_{k+1} - t_k, so one code path covers generation (t ascending) and
inversion (t descending). The drift gets the step index, so stored-path
lookups hit grid nodes exactly. The state is one point (d,) or a batch
(n, d), one drift call per step. A grid is its array of nodes, which make_grid,
integrate and Trajectory check; trajectories validate at construction and
compare and hash by identity (test_results_compare_and_hash_by_identity).
"""

from __future__ import annotations

import csv
import io
from typing import Callable

import numpy as np


class DriftDivergedError(RuntimeError):
    """Raised when the drift callback returns a non-finite vector."""


def _check_nodes(nodes) -> np.ndarray:
    """nodes as a float array of at least two finite, strictly monotone times."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2:
        raise ValueError("grid needs at least two nodes")
    if np.count_nonzero(np.isfinite(nodes)) != nodes.size:
        raise ValueError("grid nodes must be finite")
    later, earlier = nodes[1:], nodes[:-1]
    if later.size not in (np.count_nonzero(later > earlier), np.count_nonzero(later < earlier)):
        raise ValueError("grid nodes must be strictly monotone")
    return nodes


def make_grid(n_steps: int, t_start: float, t_end: float) -> np.ndarray:
    """The nodes of a uniform grid, n_steps+1 from t_start to t_end, endpoints exact,
    as the fields guard their own singularities (see flowfield.EPS_T)."""
    if isinstance(n_steps, bool) or not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ValueError(f"n_steps must be an int >= 1, not {n_steps!r}")
    for t in (t_start, t_end):
        if not 0.0 <= t <= 1.0:
            raise ValueError("time out of range")
    if t_start == t_end:
        raise ValueError("zero-length time interval")
    return _check_nodes(np.linspace(t_start, t_end, n_steps + 1))


class Trajectory:
    """A time grid's nodes (n_steps + 1,) plus the latent state at each node:
    states (n_steps + 1, d), or (n_steps + 1, n, d) for a batch."""

    def __init__(self, nodes, states):
        nodes = _check_nodes(nodes)
        states = np.asarray(states, dtype=float)
        if states.shape[0] != nodes.size:
            raise ValueError("one state per grid node required")
        if np.count_nonzero(np.isfinite(states)) != states.size:
            raise ValueError("trajectory states must be finite")
        self.nodes, self.states = nodes, states

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]


def integrate(x0, nodes, drift: Callable[[np.ndarray, float, int], np.ndarray]) -> Trajectory:
    """Explicit Euler along a grid's nodes; drift(x, t, k) is the forward-time
    velocity at node k, of x's shape. x is row k of the trajectory's states,
    written in place, so drift must not write to it. Non-finite x0 or nodes raise
    ValueError and a non-finite drift DriftDivergedError, without a numpy warning
    (test_integrate_is_total); a step whose sum passes the largest float overflows
    with numpy's warning (restore() keeps its states far below, see
    pipeline._MAX_NORM)."""
    x0 = np.asarray(x0, dtype=float)
    if np.count_nonzero(np.isfinite(x0)) != x0.size:
        raise ValueError("initial state must be finite")
    nodes = _check_nodes(nodes)
    states = np.empty(nodes.shape + x0.shape)
    states[0] = x0
    for k, (t, dt) in enumerate(zip(nodes[:-1].tolist(), np.diff(nodes).tolist())):
        x, x_next = states[k], states[k + 1]
        v = np.asarray(drift(x, t, k), dtype=float)
        if v.shape != x.shape or np.count_nonzero(np.isfinite(v)) != v.size:
            raise DriftDivergedError(f"drift diverged at step {k}")
        np.multiply(v, dt, out=x_next)
        x_next += x
    return Trajectory(nodes, states)


def trajectory_to_csv(traj: Trajectory) -> str:
    """One row per node: t, x_0, ..., x_{d-1}, each float as its repr."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t"] + [f"x_{i}" for i in range(traj.states.shape[-1])])
    writer.writerows(np.column_stack([traj.nodes, traj.states]).tolist())
    return buf.getvalue()


def trajectory_from_csv(text: str) -> Trajectory:
    """The trajectory of a CSV that trajectory_to_csv wrote; other text raises
    ValueError, without a numpy warning (test_reading_is_total)."""
    try:
        lines = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise ValueError(f"malformed trajectory CSV: {exc}") from exc
    if not lines or not lines[0] or lines[0][0] != "t":
        raise ValueError("malformed trajectory CSV header")
    rows = [list(map(float, r)) for r in lines[1:] if r]
    if not rows:
        raise ValueError("trajectory CSV has no rows")
    arr = np.asarray(rows)
    return Trajectory(arr[:, 0], arr[:, 1:])
