"""Grid construction and Euler integration tests."""

import csv
import io
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from pdls.control import lqr_control
from pdls.flowfield import Condition, GaussianMixture, marginal_velocity
from pdls.integrate import (
    DriftDivergedError,
    Trajectory,
    integrate,
    make_grid,
    trajectory_from_csv,
    trajectory_to_csv,
)


class TestMakeGrid:
    def test_default_step_count(self):
        assert make_grid(28, 0.0, 1.0).size == 29

    def test_descending_grid(self):
        nodes = make_grid(1, 1.0, 0.0)
        assert nodes.size == 2
        assert nodes[0] > nodes[-1]

    def test_unclamped_grid_keeps_exact_endpoints(self):
        nodes = make_grid(4, 0.0, 1.0)
        assert nodes[0] == 0.0
        assert nodes[-1] == 1.0

    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 1000), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @example(28, 0.0, 1.0)
    @example(28, 1.0, 0.0)
    @example(3, 0.0, 5e-324)  # the step underflows to 0
    @example(2, 1e-323, 0.0)
    def test_nodes_are_linspace_bitwise(self, n, t_start, t_end):
        assume(t_start != t_end)
        want = np.linspace(t_start, t_end, n + 1)
        steps = np.diff(want)
        if np.all(steps > 0) or np.all(steps < 0):
            assert make_grid(n, t_start, t_end).tobytes() == want.tobytes()
        else:
            with pytest.raises(ValueError, match="monotone"):
                make_grid(n, t_start, t_end)

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
        nodes = np.array([0.0, 0.5, 0.4])
        with pytest.raises(ValueError, match="monotone"):
            Trajectory(nodes, np.zeros((3, 2)))
        with pytest.raises(ValueError, match="monotone"):
            integrate(np.zeros(2), nodes, lambda x, t, k: np.zeros(2))

    def test_a_grid_of_one_node_is_rejected(self):
        with pytest.raises(ValueError, match="grid needs at least two nodes"):
            Trajectory([0.5], np.zeros((1, 2)))
        with pytest.raises(ValueError, match="grid needs at least two nodes"):
            integrate(np.zeros(2), [0.5], lambda x, t, k: np.zeros(2))


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
            return lqr_control(x, targets, t)

        batch = integrate(x0, grid, drift)
        assert batch.states.shape == (7, 3, 2)
        for i in range(3):
            one = integrate(x0[i], grid, lambda x, t, k: lqr_control(x, targets[i], t))
            assert np.array_equal(batch.states[:, i], one.states)
    def test_straight_line_field_arrives_exactly(self):
        target = np.array([2.0, -1.0])
        for n in (7, 28, 100):
            grid = make_grid(n, 0.0, 1.0)
            traj = integrate(
                np.array([0.3, 0.4]), grid,
                lambda x, t, k: lqr_control(x, target, t),
            )
            assert np.linalg.norm(traj.terminal - target) / np.linalg.norm(target) < 1e-9

    def test_first_order_convergence_on_analytic_case(self):
        # Standard-normal source and target: the marginal flow from x0 is
        # x(t) = x0 * sqrt((1-t)^2 + t^2).
        mix = GaussianMixture([1.0], [np.zeros(2)], [1.0], ["z"])
        null = mix.log_weights(Condition.null())[None]
        x0 = np.array([1.0, 0.0])
        exact = x0 * np.sqrt(2.0) / 2.0  # value at t = 0.5

        def run(n):
            grid = make_grid(n, 0.0, 0.5)
            traj = integrate(x0[None], grid, lambda x, t, k: marginal_velocity(x, t, mix, null))
            return np.linalg.norm(traj.terminal - exact)

        ratio = run(100) / run(200)
        assert 1.6 <= ratio <= 2.4

    def test_descending_integration_reverses_ascending(self):
        mix = GaussianMixture([1.0], [[1.5, -0.5]], [1.0], ["g"])
        null = mix.log_weights(Condition.null())[None]
        fwd = integrate(np.array([[0.2, 0.1]]), make_grid(200, 0.0, 1.0),
                        lambda x, t, k: marginal_velocity(x, t, mix, null))
        back = integrate(fwd.terminal, make_grid(200, 1.0, 0.0),
                         lambda x, t, k: marginal_velocity(x, t, mix, null))
        # Round trip through the same field is first-order accurate.
        assert np.linalg.norm(back.terminal - [0.2, 0.1]) < 0.05

    def test_a_drift_returning_its_input_steps_bitwise(self):
        # Each step is written into the states in place; a drift that returns
        # the state it was given must still step x + dt * v.
        grid = make_grid(5, 0.0, 1.0)
        x0 = np.random.default_rng(0).standard_normal((3, 4))
        want = [x0]
        for dt in np.diff(grid).tolist():
            want.append(want[-1] + dt * want[-1])
        traj = integrate(x0, grid, lambda x, t, k: x)
        assert np.array_equal(traj.states, np.stack(want))

    def test_determinism(self):
        mix = GaussianMixture([0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]], [0.1, 0.1], ["a", "b"])
        grid, null = make_grid(20, 0.0, 1.0), mix.log_weights(Condition.null())[None]
        a = integrate(np.array([[0.1, 0.2]]), grid,
                      lambda x, t, k: marginal_velocity(x, t, mix, null))
        b = integrate(np.array([[0.1, 0.2]]), grid,
                      lambda x, t, k: marginal_velocity(x, t, mix, null))
        assert np.array_equal(a.states, b.states)

    def test_diverged_drift_reports_step(self):
        grid = make_grid(5, 0.0, 1.0)

        def bad(x, t, k):
            return np.full(2, np.nan) if k == 3 else np.zeros(2)

        with pytest.raises(DriftDivergedError, match="drift diverged at step 3"):
            integrate(np.zeros(2), grid, bad)

    @pytest.mark.parametrize("bad", [[np.nan, 0.0], [np.inf, 0.0], [np.inf, -np.inf]])
    def test_a_non_finite_drift_reports_its_step(self, bad):
        def drift(x, t, k):
            return np.array(bad) if k == 2 else np.zeros(2)

        with pytest.raises(DriftDivergedError, match="drift diverged at step 2"):
            integrate(np.zeros(2), make_grid(4, 0.0, 1.0), drift)

    def test_a_finite_drift_summing_past_the_largest_float_steps(self):
        # Its entries sum past DBL_MAX; the finiteness test looks at each one.
        v = np.array([1e308, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(np.zeros(2), make_grid(4, 0.0, 1.0), lambda x, t, k: v)
        want = np.zeros(2)
        for _ in range(4):
            want = want + 0.25 * v
        assert np.array_equal(traj.terminal, want)

    def test_trajectory_shape_validation(self):
        grid = make_grid(3, 0.0, 1.0)
        with pytest.raises(ValueError, match="one state per grid node"):
            Trajectory(grid, np.zeros((3, 2)))

    def test_states_must_be_finite(self):
        with pytest.raises(ValueError, match="trajectory states must be finite"):
            Trajectory(make_grid(1, 0.0, 1.0), [[0.0, 0.0], [np.nan, 0.0]])

    def test_initial_state_must_be_finite(self):
        with pytest.raises(ValueError, match="initial state must be finite"):
            integrate(np.array([0.0, np.nan]), make_grid(2, 0.0, 1.0),
                      lambda x, t, k: np.zeros(2))


# Finite values up to 1e307 or non-finite ones. On a monotone grid in [0, 1]
# the steps' times sum to at most 1, so an Euler trajectory of such values
# stays below 2e307, inside the floats.
_STATE = st.one_of(st.floats(-1e307, 1e307), st.sampled_from([np.nan, np.inf, -np.inf]))


@st.composite
def integrations(draw):
    """x0 (d,) or (n, d), 0-5 nodes in [0, 1] or non-finite, in any order, and the
    drift's value at each node."""
    x0 = draw(arrays(float, array_shapes(min_dims=1, max_dims=2, max_side=3), elements=_STATE))
    times = st.one_of(st.floats(0.0, 1.0), st.sampled_from([np.nan, np.inf, -np.inf]))
    nodes = draw(arrays(float, st.integers(0, 5), elements=times))
    return x0, nodes, draw(arrays(float, (max(nodes.size, 1),) + x0.shape, elements=_STATE))


@settings(max_examples=300, deadline=None)
@given(integrations())
@example((np.zeros(2), np.array([0.0, np.inf]), np.zeros((2, 2))))
@example((np.full(2, 1e307), np.array([1.0, 0.0]), np.full((2, 2), 1e307)))
def test_integrate_is_total(case):
    # Finite states at every node, or a documented error; the suite turns any
    # numpy warning into a failure.
    x0, nodes, velocities = case
    try:
        traj = integrate(x0, nodes, lambda x, t, k: velocities[k])
    except (ValueError, DriftDivergedError):
        return
    assert traj.states.shape == nodes.shape + x0.shape
    assert np.isfinite(traj.nodes).all() and np.isfinite(traj.states).all()


def csv_module_rows(traj: Trajectory) -> str:
    """The trajectory CSV as a csv.writer row per node of repr'd floats, the oracle
    for trajectory_to_csv."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t"] + [f"x_{i}" for i in range(traj.states.shape[-1])])
    for t, row in zip(traj.nodes, traj.states):
        writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])
    return buf.getvalue()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def trajectories(draw):
    """A trajectory of 2-6 strictly increasing finite nodes and finite states,
    -0.0, subnormals and values near the largest float included."""
    n = draw(st.integers(2, 6))
    nodes = np.sort(draw(arrays(float, n, elements=_FINITE, unique=True)))
    d = draw(st.integers(1, 3))
    extremes = st.sampled_from([-0.0, 5e-324, -2.5e-310, 1.7e308, -1.7e308])
    states = draw(arrays(float, (n, d), elements=st.one_of(_FINITE, extremes)))
    return Trajectory(nodes, states)


@st.composite
def csv_texts(draw):
    """A trajectory CSV's header, or a mistaken one, over rows of numbers, words,
    quotes, line ends and empty fields."""
    token = st.one_of(st.floats().map(repr), st.integers().map(str), st.sampled_from(
        ["", "t", "x_0", "1e999", "-inf", "nan", " 2", '"', '"1"', "\r", "\x00", ",,"]))
    header = draw(st.sampled_from(["t,x_0,x_1", "t", "t,x_0", "time,x_0", ""]))
    rows = draw(st.lists(st.lists(token, max_size=4).map(",".join), max_size=6))
    return "\n".join([header] + rows)


class TestTrajectoryCsv:
    @settings(deadline=None)
    @given(trajectories())
    @example(Trajectory(np.array([-0.0, 5e-324, 1.7e308]),
                        np.array([[-0.0, 5e-324], [-1.7e308, 1.7e308], [2.5e-310, -1.0]])))
    def test_bytes_are_the_csv_modules_and_round_trip_bitwise(self, traj):
        text = trajectory_to_csv(traj)
        assert text == csv_module_rows(traj)
        back = trajectory_from_csv(text)
        assert back.nodes.tobytes() == traj.nodes.tobytes()
        assert back.states.tobytes() == traj.states.tobytes()

    def test_round_trip_is_exact(self):
        grid = make_grid(6, 0.0, 1.0)
        traj = integrate(np.array([0.5, -0.25]), grid,
                         lambda x, t, k: np.array([1.0, -1.0]) * t)
        back = trajectory_from_csv(trajectory_to_csv(traj))
        assert np.array_equal(back.nodes, traj.nodes)
        assert np.array_equal(back.states, traj.states)

    def test_header_columns(self):
        grid = make_grid(2, 0.0, 1.0)
        traj = integrate(np.zeros(3), grid, lambda x, t, k: np.zeros(3))
        header = trajectory_to_csv(traj).splitlines()[0]
        assert header == "t,x_0,x_1,x_2"

    def test_malformed_header_raises(self):
        with pytest.raises(ValueError, match="malformed trajectory"):
            trajectory_from_csv("time,x_0\n0.0,1.0\n")

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(csv_texts(), st.text()))
    @example("t,x_0,x_1\n0.0,1.5,0.2\ninf,0.5,0.1\n")
    def test_reading_is_total(self, text):
        # Finite nodes and states, or a ValueError naming what is wrong.
        try:
            traj = trajectory_from_csv(text)
        except ValueError:
            return
        assert np.isfinite(traj.nodes).all() and np.isfinite(traj.states).all()

    def test_truncated_file_raises(self):
        with pytest.raises(ValueError, match="malformed trajectory CSV header"):
            trajectory_from_csv("")
        with pytest.raises(ValueError, match="trajectory CSV has no rows"):
            trajectory_from_csv("t,x_0,x_1\n")
