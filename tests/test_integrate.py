"""Grid construction and Euler integration tests."""

import numpy as np
import pytest

from pdls.flowfield import GaussianMixture, endpoint_conditional_velocity, marginal_velocity
from pdls.integrate import (
    DriftDivergedError,
    TimeGrid,
    Trajectory,
    integrate,
    make_grid,
    trajectory_from_csv,
    trajectory_to_csv,
)


class TestMakeGrid:
    def test_default_step_count(self):
        assert make_grid(28, 0.0, 1.0).nodes.size == 29

    def test_descending_grid(self):
        grid = make_grid(1, 1.0, 0.0)
        assert grid.nodes.size == 2
        assert grid.t_start > grid.t_end

    def test_unclamped_grid_keeps_exact_endpoints(self):
        grid = make_grid(4, 0.0, 1.0)
        assert grid.nodes[0] == 0.0
        assert grid.nodes[-1] == 1.0

    def test_zero_length_interval(self):
        with pytest.raises(ValueError, match="zero-length"):
            make_grid(3, 0.5, 0.5)

    def test_step_count_validation(self):
        with pytest.raises(ValueError, match="n_steps"):
            make_grid(0, 0.0, 1.0)

    def test_time_range_validation(self):
        with pytest.raises(ValueError, match="time out of range"):
            make_grid(2, 0.0, 1.5)

    def test_nodes_must_be_monotone(self):
        with pytest.raises(ValueError, match="monotone"):
            TimeGrid(np.array([0.0, 0.5, 0.4]))


class TestIntegrate:
    def test_zero_drift_is_constant(self):
        grid = make_grid(10, 0.0, 1.0)
        traj = integrate(np.array([1.0, -2.0]), grid, lambda x, t, k: np.zeros(2))
        assert np.allclose(traj.states, [1.0, -2.0])


    def test_batch_rows_follow_their_own_paths(self):
        grid = make_grid(6, 0.0, 1.0)
        targets = np.array([[2.0, -1.0], [0.5, 0.5], [-3.0, 1.0]])
        x0 = np.array([[0.3, 0.4], [0.0, 0.0], [1.0, -1.0]])

        def drift(x, t, k):
            return endpoint_conditional_velocity(x, t, targets, 1)

        batch = integrate(x0, grid, drift)
        assert batch.states.shape == (7, 3, 2)
        assert batch.dim == 2
        for i in range(3):
            one = integrate(x0[i], grid, lambda x, t, k: endpoint_conditional_velocity(
                x, t, targets[i], 1))
            assert np.array_equal(batch.states[:, i], one.states)
    def test_straight_line_field_arrives_exactly(self):
        target = np.array([2.0, -1.0])
        for n in (7, 28, 100):
            grid = make_grid(n, 0.0, 1.0)
            traj = integrate(
                np.array([0.3, 0.4]), grid,
                lambda x, t, k: endpoint_conditional_velocity(x, t, target, 1),
            )
            assert np.linalg.norm(traj.terminal - target) / np.linalg.norm(target) < 1e-9

    def test_first_order_convergence_on_analytic_case(self):
        # Standard-normal source and target: the marginal flow from x0 is
        # x(t) = x0 * sqrt((1-t)^2 + t^2).
        mix = GaussianMixture([1.0], [np.zeros(2)], [1.0], ["z"])
        x0 = np.array([1.0, 0.0])
        exact = x0 * np.sqrt(2.0) / 2.0  # value at t = 0.5

        def run(n):
            grid = make_grid(n, 0.0, 0.5)
            traj = integrate(x0, grid, lambda x, t, k: marginal_velocity(x, t, mix))
            return np.linalg.norm(traj.terminal - exact)

        ratio = run(100) / run(200)
        assert 1.6 <= ratio <= 2.4

    def test_descending_integration_reverses_ascending(self):
        mix = GaussianMixture([1.0], [[1.5, -0.5]], [1.0], ["g"])
        fwd = integrate(np.array([0.2, 0.1]), make_grid(200, 0.0, 1.0),
                        lambda x, t, k: marginal_velocity(x, t, mix))
        back = integrate(fwd.terminal, make_grid(200, 1.0, 0.0),
                         lambda x, t, k: marginal_velocity(x, t, mix))
        # Round trip through the same field is first-order accurate.
        assert np.linalg.norm(back.terminal - [0.2, 0.1]) < 0.05

    def test_determinism(self):
        mix = GaussianMixture([0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]], [0.1, 0.1], ["a", "b"])
        grid = make_grid(20, 0.0, 1.0)
        a = integrate(np.array([0.1, 0.2]), grid, lambda x, t, k: marginal_velocity(x, t, mix))
        b = integrate(np.array([0.1, 0.2]), grid, lambda x, t, k: marginal_velocity(x, t, mix))
        assert np.array_equal(a.states, b.states)

    def test_diverged_drift_reports_step(self):
        grid = make_grid(5, 0.0, 1.0)

        def bad(x, t, k):
            return np.full(2, np.nan) if k == 3 else np.zeros(2)

        with pytest.raises(DriftDivergedError, match="drift diverged at step 3"):
            integrate(np.zeros(2), grid, bad)

    def test_trajectory_shape_validation(self):
        grid = make_grid(3, 0.0, 1.0)
        with pytest.raises(ValueError, match="one state per grid node"):
            Trajectory(grid, np.zeros((3, 2)))


class TestTrajectoryCsv:
    def test_round_trip_is_exact(self):
        grid = make_grid(6, 0.0, 1.0)
        traj = integrate(np.array([0.5, -0.25]), grid,
                         lambda x, t, k: np.array([1.0, -1.0]) * t)
        back = trajectory_from_csv(trajectory_to_csv(traj))
        assert np.array_equal(back.grid.nodes, traj.grid.nodes)
        assert np.array_equal(back.states, traj.states)

    def test_header_columns(self):
        grid = make_grid(2, 0.0, 1.0)
        traj = integrate(np.zeros(3), grid, lambda x, t, k: np.zeros(3))
        header = trajectory_to_csv(traj).splitlines()[0]
        assert header == "t,x_0,x_1,x_2"

    def test_malformed_header_raises(self):
        with pytest.raises(ValueError, match="malformed trajectory"):
            trajectory_from_csv("time,x_0\n0.0,1.0\n")
