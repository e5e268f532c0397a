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
    """nodes as a float array of at least two strictly monotone times."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2:
        raise ValueError("grid needs at least two nodes")
    steps = np.diff(nodes)
    if steps.size not in (np.count_nonzero(steps > 0), np.count_nonzero(steps < 0)):
        raise ValueError("grid nodes must be strictly monotone")
    return nodes


def make_grid(n_steps: int, t_start: float, t_end: float) -> np.ndarray:
    """The nodes of a uniform grid, n_steps+1 from t_start to t_end, endpoints exact,
    as the fields guard their own singularities (see flowfield.EPS_T): bitwise
    np.linspace(t_start, t_end, n_steps + 1) (test_nodes_are_linspace_bitwise)."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    for t in (t_start, t_end):
        if not 0.0 <= t <= 1.0:
            raise ValueError("time out of range")
    if t_start == t_end:
        raise ValueError("zero-length time interval")
    # linspace's arithmetic. Where the step underflows to 0, linspace scales
    # by the interval instead, but no n_steps + 1 distinct nodes fit there,
    # so both grids fail the monotone check.
    nodes = np.arange(n_steps + 1.0)
    nodes *= (t_end - t_start) / n_steps
    nodes += t_start
    nodes[-1] = t_end
    return _check_nodes(nodes)


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
    written in place, so drift must not write to it."""
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
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if not header or header[0] != "t":
        raise ValueError("malformed trajectory CSV header")
    rows = [list(map(float, r)) for r in reader if r]
    if not rows:
        raise ValueError("trajectory CSV has no rows")
    arr = np.asarray(rows)
    return Trajectory(arr[:, 0], arr[:, 1:])
