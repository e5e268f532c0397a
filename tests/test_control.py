"""Steering-law and schedule tests, including the exact per-step
contraction identity."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pdls.control import SCHEDULE_KINDS, blend_drift, eta, lqr_control
from pdls.flowfield import EPS_T
from pdls.integrate import make_grid
from pdls.pipeline import PdlsConfig


class TestSchedule:
    def test_pinned_values(self):
        cfg = PdlsConfig(eta_max=0.5)
        assert eta(cfg, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert eta(cfg, 0.5) == pytest.approx(0.25, abs=1e-15)
        assert eta(cfg, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_endpoints_for_several_strengths(self):
        for eta_max in (0.1, 0.5, 1.0):
            cfg = PdlsConfig(eta_max=eta_max)
            assert abs(eta(cfg, 0.0) - eta_max) < 1e-12
            assert abs(eta(cfg, 0.5) - eta_max / 2) < 1e-12
            assert abs(eta(cfg, 1.0)) < 1e-12

    def test_half_turn_symmetry(self):
        cfg = PdlsConfig(eta_max=0.8)
        for t in np.linspace(0, 1, 21):
            assert eta(cfg, t) + eta(cfg, 1 - t) == pytest.approx(0.8, abs=1e-12)

    def test_monotone_decay(self):
        cfg = PdlsConfig(eta_max=1.0)
        vals = [eta(cfg, t) for t in np.linspace(0, 1, 50)]
        assert np.all(np.diff(vals) < 0)

    def test_constant_kind(self):
        cfg = PdlsConfig(eta_max=0.3, schedule_kind="constant")
        for t in (0.0, 0.4, 1.0):
            assert eta(cfg, t) == 0.3

    def test_time_out_of_range(self):
        with pytest.raises(ValueError, match="time out of range"):
            eta(PdlsConfig(eta_max=0.5), 1.2)

    def test_strength_validation(self):
        with pytest.raises(ValueError, match="eta_max"):
            PdlsConfig(eta_max=1.5)
        with pytest.raises(ValueError, match="schedule_kind"):
            PdlsConfig(eta_max=0.5, schedule_kind="linear")


class TestScheduleArrays:
    """eta at an array of times, as steered_generate and the diagnostics call it."""

    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_the_array_form_is_the_scalar_calls_bitwise(self, kind):
        # The 28-step generation nodes, both ends, and 10,001 evenly spaced
        # times: np.cos over an array rounds as it does one time at a time.
        cfg = PdlsConfig(eta_max=0.5, schedule_kind=kind)
        for times in (make_grid(28, 0.0, 1.0)[:-1], np.array([0.0, 1.0]),
                      np.linspace(0.0, 1.0, 10_001)):
            got = eta(cfg, times)
            want = np.array([eta(cfg, t) for t in times.tolist()])
            assert got.shape == times.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_scalar_calls_are_unchanged(self, kind):
        # A time gives eta_max itself under the constant kind, and under the
        # cosine kind the float64 of 0.5 eta_max (1 + cos(pi t)).
        cfg = PdlsConfig(eta_max=0.3, schedule_kind=kind)
        for t in (0.0, 1 / 3, 0.5, 1.0, 1, np.float64(0.7)):
            got = eta(cfg, t)
            if kind == "constant":
                assert got is cfg.eta_max
            else:
                assert type(got) is np.float64
                assert got == 0.5 * 0.3 * (1.0 + np.cos(np.pi * float(t)))

    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    @pytest.mark.parametrize("times", [[0.5, 1.2], [-0.1, 0.5], [0.5, np.nan], [np.nan]])
    def test_an_array_with_a_time_out_of_range_raises(self, kind, times):
        with pytest.raises(ValueError, match="time out of range"):
            eta(PdlsConfig(schedule_kind=kind), np.array(times))


class TestLqrControl:
    def test_pinned_values(self):
        assert np.allclose(lqr_control(np.zeros(2), np.array([1.0, 0.0]), 0.5), [2.0, 0.0])
        assert np.allclose(lqr_control(np.ones(2), np.ones(2), 0.7), [0.0, 0.0])
        assert np.allclose(lqr_control(np.array([1.0, 2.0]), np.zeros(2), 0.75), [-4.0, -8.0])

    def test_points_toward_target(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            t = rng.uniform(0, 0.9)
            c = lqr_control(x, y, t)
            assert float(np.dot(c, y - x)) >= 0.0

    def test_terminal_time_raises(self):
        with pytest.raises(ValueError, match="terminal-time singularity"):
            lqr_control(np.zeros(2), np.ones(2), 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            lqr_control(np.zeros(2), np.zeros(3), 0.5)

    def test_contraction_identity(self):
        # One pure-control Euler step contracts the distance to a fixed
        # target by exactly (1 - dt/(1-t)).
        rng = np.random.default_rng(11)
        for _ in range(1000):
            d = int(rng.integers(1, 6))
            x = rng.standard_normal(d) * 3
            y = rng.standard_normal(d) * 3
            t = rng.uniform(0, 0.95)
            dt = rng.uniform(0, 1 - t)
            x_next = x + dt * lqr_control(x, y, t)
            lhs = np.linalg.norm(x_next - y)
            rhs = (1 - dt / (1 - t)) * np.linalg.norm(x - y)
            assert abs(lhs - rhs) < 1e-12

    @settings(deadline=None)
    @given(st.data())
    def test_contraction_identity_on_batches(self, data):
        # The identity row by row for a batch (n, d), at any t up to
        # 1 - EPS_T, where the gain 1/(1-t) is largest, and any step that
        # does not pass t = 1.
        n, d = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5))
        x, y = (data.draw(arrays(float, (n, d), elements=st.floats(-3.0, 3.0)))
                for _ in range(2))
        t = data.draw(st.one_of(st.just(1.0 - EPS_T), st.floats(0.0, 1.0 - EPS_T)))
        dt = data.draw(st.floats(0.0, 1.0)) * (1.0 - t)
        x_next = x + dt * lqr_control(x, y, t)
        lhs = np.linalg.norm(x_next - y, axis=1)
        rhs = (1 - dt / (1 - t)) * np.linalg.norm(x - y, axis=1)
        assert np.all(np.abs(lhs - rhs) < 1e-12)


class TestBlend:
    def test_pinned_values(self):
        base = np.array([1.0, 0.0])
        guided = np.array([3.0, 0.0])
        assert np.allclose(blend_drift(base, guided, 0.0), base)
        assert np.allclose(blend_drift(base, guided, 1.0), guided)
        assert np.allclose(blend_drift(base, guided, 0.5), [2.0, 0.0])

    def test_affine_in_weight(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal(4)
        guided = rng.standard_normal(4)
        for w in (0.1, 0.37, 0.9):
            assert np.allclose(blend_drift(base, guided, w),
                               (1 - w) * base + w * guided, atol=1e-14)

    @settings(deadline=None)
    @given(st.data())
    def test_exact_endpoints(self, data):
        # Weight 0 gives base and weight 1 guided, bitwise (base + 1 * (guided
        # - base) need not round back to guided), and a NaN in the drift a
        # weight leaves out does not reach the result.
        shape = data.draw(st.sampled_from([(3,), (2, 3)]))
        base, guided = (data.draw(arrays(float, shape, elements=st.floats(-1e3, 1e3)))
                        for _ in range(2))
        nan = np.full(shape, np.nan)
        for weight in (0.0, 1.0, np.float64(0.0), np.float64(1.0)):
            want = guided if weight else base
            unused = (nan, guided) if weight else (base, nan)
            assert blend_drift(base, guided, weight).tobytes() == want.tobytes()
            assert blend_drift(*unused, weight).tobytes() == want.tobytes()
