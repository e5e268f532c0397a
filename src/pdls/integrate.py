"""Uniform time grids and explicit Euler integration in either direction.

The step is signed: x_{k+1} = x_k + dt * drift(x_k, t_k, k) with
dt = t_{k+1} - t_k, so one code path covers generation (t ascending) and
inversion (t descending). The drift gets the step index, so stored-path
lookups hit grid nodes exactly. The state is one point (d,) or a batch
(n, d), one drift call per step.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np


class DriftDivergedError(RuntimeError):
    """Raised when the drift callback returns a non-finite vector."""


@dataclass(frozen=True, eq=False)
class TimeGrid:
    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        steps = np.diff(nodes)
        if not (np.all(steps > 0) or np.all(steps < 0)):
            raise ValueError("grid nodes must be strictly monotone")
        object.__setattr__(self, "nodes", nodes)

    @property
    def n_steps(self) -> int:
        return self.nodes.size - 1


def make_grid(n_steps: int, t_start: float, t_end: float) -> TimeGrid:
    """Uniform grid of n_steps+1 nodes from t_start to t_end, endpoints exact, as
    the fields guard their own singularities (see flowfield.EPS_T)."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    for t in (t_start, t_end):
        if not 0.0 <= t <= 1.0:
            raise ValueError("time out of range")
    if t_start == t_end:
        raise ValueError("zero-length time interval")
    return TimeGrid(np.linspace(t_start, t_end, n_steps + 1))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A time grid plus the latent state at each node."""

    grid: TimeGrid
    states: np.ndarray  # (n_steps + 1, d), or (n_steps + 1, n, d) for a batch

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.shape[0] != self.grid.nodes.size:
            raise ValueError("one state per grid node required")
        if not np.all(np.isfinite(states)):
            raise ValueError("trajectory states must be finite")
        object.__setattr__(self, "states", states)

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]

    @property
    def dim(self) -> int:
        return self.states.shape[-1]


def integrate(x0, grid: TimeGrid,
              drift: Callable[[np.ndarray, float, int], np.ndarray]) -> Trajectory:
    """Explicit Euler along the grid; drift(x, t, k) is the forward-time velocity
    at node k, of x's shape. x is row k of the trajectory's states, written in
    place, so drift must not write to it."""
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial state must be finite")
    states = np.empty((grid.n_steps + 1,) + x0.shape)
    states[0] = x0
    nodes = grid.nodes
    for k, (t, dt) in enumerate(zip(nodes[:-1].tolist(), np.diff(nodes).tolist())):
        x = states[k]
        v = np.asarray(drift(x, t, k), dtype=float)
        if v.shape != x.shape or not np.isfinite(v).all():
            raise DriftDivergedError(f"drift diverged at step {k}")
        np.multiply(v, dt, out=states[k + 1])
        states[k + 1] += x
    return Trajectory(grid, states)


def trajectory_to_csv(traj: Trajectory) -> str:
    """One row per node: t, x_0, ..., x_{d-1}, each float as its repr."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t"] + [f"x_{i}" for i in range(traj.dim)])
    writer.writerows(np.column_stack([traj.grid.nodes, traj.states]).tolist())
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
    return Trajectory(TimeGrid(arr[:, 0]), arr[:, 1:])
