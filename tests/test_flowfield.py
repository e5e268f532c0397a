"""Velocity-field unit tests: pinned values, a direct-density oracle,
property checks over random mixtures, and basic validation behavior."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from pdls.datasets import exemplar_mixture, shapes32_dataset
from pdls.degrade import GaussianBlur, NoiseModel, apply
from pdls import flowfield
from pdls.flowfield import (
    _MAX_NODE_BYTES,
    EPS_T,
    Condition,
    GaussianMixture,
    marginal_velocity,
    sample_mixture,
    _log_densities,
    _log_softmax_rows,
    _node_at,
    _posterior,
)
from pdls.integrate import make_grid
from pdls.pipeline import PdlsConfig, restore


def two_diracs():
    return GaussianMixture([0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0], ["a", "b"])


def standard_normal_target(dim=2):
    return GaussianMixture([1.0], [np.zeros(dim)], [1.0], ["z"])


def rows_of(mixture, cond, n):
    """(n, K) log-weight rows, each cond's: the field's form of one condition for n points."""
    return np.tile(mixture.log_weights(cond), (n, 1))


def posterior_endpoint_mean(x, t, mixture, logw):
    """E[X_1 | X_t = x] = x + (1 - t) v(x, t) of the rows x (n, d) under logw (n, K),
    with t clamped into [0, 1 - EPS_T] as the field clamps it."""
    v = marginal_velocity(x, t, mixture, logw)
    return x + (1.0 - min(t, 1.0 - EPS_T)) * v


def responsibilities(x, t, mixture, logw):
    """The field's responsibilities (n, K) of the rows x (n, d) under logw (n, K):
    _posterior at the node of t (clamped as the field clamps it), 0 in the
    columns a row's condition excludes."""
    return _posterior(x, node(mixture, t), logw)


def node(mixture, t):
    """The field's constants of mixture at time t (cached on it)."""
    return _node_at(mixture, t)[0]


def direct_field(x, t, mixture, cond=Condition.null()):
    """The direct (n, k, d) form of the field, the oracle for its GEMM form.

    Returns the squared distances ||x - t mu_k||^2 of the rows x (n, d), the
    responsibilities and the endpoint mean over cond's selected components, for t < 1.
    """
    idx = cond.select(mixture)
    mu, var, w = mixture.means[idx], mixture.variances[idx], mixture.weights[idx]
    s2 = (1.0 - t) ** 2 + t**2 * var
    diff = x[:, None, :] - t * mu[None, :, :]
    sq = np.einsum("nkd,nkd->nk", diff, diff)
    logp = np.log(w) - 0.5 * mixture.dim * np.log(2.0 * np.pi * s2) - sq / (2.0 * s2)
    r = np.exp(logp - logsumexp(logp, axis=1, keepdims=True))
    endpoints = mu[None, :, :] + (t * var / s2)[None, :, None] * diff
    return sq, r, np.einsum("nk,nkd->nd", r, endpoints)


class TestResponsibilities:
    def test_symmetric_point_splits_evenly(self):
        mix = two_diracs()
        r = responsibilities(np.zeros((1, 2)), 0.5, mix, rows_of(mix, Condition.null(), 1))
        assert np.allclose(r, [0.5, 0.5], atol=1e-15)

    def test_single_selected_component_gets_all_mass(self):
        mix = two_diracs()
        r = responsibilities(np.zeros((1, 2)), 0.5, mix, rows_of(mix, Condition.of("a"), 1))[0]
        assert r.shape == (2,)
        assert r[0] == pytest.approx(1.0, abs=1e-15) and r[1] == 0.0

    def test_matches_direct_density_oracle(self):
        # Straightforward unnormalized-density evaluation, no log-space tricks.
        mix = GaussianMixture(
            [0.2, 0.5, 0.3],
            [[0.0, 0.0], [1.0, 1.0], [-1.0, 0.5]],
            [0.01, 0.01, 0.01],
            ["u", "v", "w"],
        )
        x = np.array([0.3, 0.1])
        t = 0.7
        s2 = (1 - t) ** 2 + t**2 * mix.variances
        dens = mix.weights * (2 * np.pi * s2) ** -1.0 * np.exp(
            -np.sum((x - t * mix.means) ** 2, axis=1) / (2 * s2)
        )
        expected = dens / dens.sum()
        r = responsibilities(x[None], t, mix, rows_of(mix, Condition.null(), 1))[0]
        assert np.max(np.abs(r - expected) / expected) < 1e-10

    def test_rows_normalize_over_many_draws(self):
        rng = np.random.default_rng(3)
        mix = GaussianMixture(
            [0.25, 0.25, 0.5], [[2.0, 0.0], [-2.0, 0.0], [0.0, 2.0]],
            [0.05, 0.05, 0.05], ["a", "b", "c"],
        )
        x = rng.standard_normal((1000, 2)) * 2.0
        r = responsibilities(x, 0.6, mix, rows_of(mix, Condition.null(), len(x)))
        assert r.shape == (1000, 3)
        assert np.allclose(r.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(r >= 0)

    def test_conditioning_renormalizes_the_null_posterior(self):
        mix = GaussianMixture(
            [0.3, 0.3, 0.4], [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]],
            [0.02, 0.02, 0.02], ["a", "b", "a"],
        )
        x = np.array([0.4, -0.2])
        full = responsibilities(x[None], 0.5, mix, rows_of(mix, Condition.null(), 1))[0]
        cond = responsibilities(x[None], 0.5, mix, rows_of(mix, Condition.of("a"), 1))[0]
        sub = full[[0, 2]]
        assert cond[1] == 0.0
        assert np.allclose(cond[[0, 2]], sub / sub.sum(), atol=1e-12)

    def test_time_out_of_range(self):
        mix = two_diracs()
        with pytest.raises(ValueError, match="time out of range"):
            responsibilities(np.zeros((1, 2)), 1.5, mix, rows_of(mix, Condition.null(), 1))

    def test_dimension_mismatch(self):
        mix = two_diracs()
        with pytest.raises(ValueError, match="dimension"):
            marginal_velocity(np.zeros((1, 3)), 0.5, mix, rows_of(mix, Condition.null(), 1))


class TestPosteriorEndpointMean:
    def test_single_dirac_returns_its_mean(self):
        mix = GaussianMixture([1.0], [[2.0, 3.0]], [0.0], ["d"])
        null = rows_of(mix, Condition.null(), 1)
        for t in (0.0, 0.3, 0.9):
            m = posterior_endpoint_mean(np.array([[5.0, -1.0]]), t, mix, null)[0]
            assert np.allclose(m, [2.0, 3.0], atol=1e-12)

    def test_source_equals_target_fixed_point(self):
        # For a standard-normal target the conditioning coefficient at t=0.5
        # is 0.5/(0.25+0.25) = 1, so the posterior mean is x itself.
        mix = standard_normal_target()
        m = posterior_endpoint_mean(np.array([[1.0, 1.0]]), 0.5, mix,
                                    rows_of(mix, Condition.null(), 1))[0]
        assert np.allclose(m, [1.0, 1.0], atol=1e-12)

    def test_symmetric_diracs_average_to_origin(self):
        mix = two_diracs()
        null = rows_of(mix, Condition.null(), 1)
        m = posterior_endpoint_mean(np.zeros((1, 2)), 0.5, mix, null)[0]
        assert np.allclose(m, [0.0, 0.0], atol=1e-15)

    def test_batch_agrees_with_single_point(self):
        mix = GaussianMixture([0.6, 0.4], [[1.0, 2.0], [-1.0, 0.0]], [0.1, 0.3], ["a", "b"])
        pts = np.array([[0.2, 0.1], [1.5, -0.5], [0.0, 0.0]])
        null = rows_of(mix, Condition.null(), len(pts))
        batch = posterior_endpoint_mean(pts, 0.4, mix, null)
        for i, p in enumerate(pts):
            assert np.allclose(batch[i], posterior_endpoint_mean(p[None], 0.4, mix, null[:1])[0],
                               atol=1e-14)


class TestGemmPrecision:
    """The expansion ||x||^2 - 2t x.mu + t^2 ||mu||^2 cancels digits near t=1."""

    def _case(self):
        dataset = shapes32_dataset()
        mixture = exemplar_mixture(dataset, 1e-4)
        op = GaussianBlur(7, 1.5)
        rng = np.random.default_rng(0)
        picks = rng.integers(len(dataset), size=24)
        x = np.stack([apply(op, dataset[i][0], NoiseModel(0.01, seed)).flatten()
                      for seed, i in enumerate(picks)])
        return mixture, x, 1.0 - EPS_T

    def test_squared_distances_within_the_cancellation_bound(self):
        # The node folds 1 / 2s^2 into the expansion's terms, so the squared
        # distances' cancellation bound holds divided by 2s^2.
        mixture, x, t = self._case()
        got = _log_densities(x, node(mixture, t))
        sq, _, _ = direct_field(x, t, mixture)
        s2 = (1.0 - t) ** 2 + t**2 * mixture.variances
        expected = -0.5 * mixture.dim * np.log(2.0 * np.pi * s2) - sq / (2.0 * s2)
        eps = np.finfo(float).eps
        bound = 4.0 * np.sqrt(mixture.dim) * eps * (
            np.sum(x * x, axis=1)[:, None] + t**2 * mixture.mean_sq[None, :]) / (2.0 * s2)
        assert np.all(np.abs(got - expected) <= bound)

    def test_collapsed_rows_agree_on_the_endpoint_mean(self):
        mixture, x, t = self._case()
        for cond in (Condition.null(), Condition.of("disk")):
            _, r, expected = direct_field(x, t, mixture, cond)
            collapsed = r.max(axis=1) >= 1.0 - 1e-12
            assert collapsed.sum() >= len(x) // 2
            got = posterior_endpoint_mean(x, t, mixture, rows_of(mixture, cond, len(x)))
            err = np.abs(got - expected)[collapsed]
            assert np.all(err <= 1e-12 * np.abs(expected[collapsed]).max())


class TestMarginalVelocity:
    def test_single_dirac_is_straight_line_flow(self):
        mix = GaussianMixture([1.0], [[2.0, 3.0]], [0.0], ["d"])
        x = np.array([0.5, -0.5])
        for t in (0.0, 0.25, 0.8):
            v = marginal_velocity(x[None], t, mix, rows_of(mix, Condition.null(), 1))[0]
            assert np.allclose(v, (np.array([2.0, 3.0]) - x) / (1 - t), atol=1e-12)

    def test_standard_normal_target_vanishes_at_half_time(self):
        mix = standard_normal_target()
        v = marginal_velocity(np.array([[1.3, -0.7]]), 0.5, mix, rows_of(mix, Condition.null(), 1))
        assert np.allclose(v, 0.0, atol=1e-12)

    def test_standard_normal_target_at_time_zero(self):
        mix = standard_normal_target()
        v = marginal_velocity(np.array([[1.0, 0.0]]), 0.0, mix, rows_of(mix, Condition.null(), 1))
        assert np.allclose(v, [-1.0, 0.0], atol=1e-12)

    def test_clamped_at_terminal_time(self):
        # Every field function evaluates a time past 1 - EPS_T at 1 - EPS_T, on
        # Diracs alone and on one Dirac ("a") and two Gaussians ("b") under
        # per-row conditions, and warns of nothing on the way.
        mixed = GaussianMixture([0.2, 0.4, 0.4], [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                                [0.0, 0.5, 0.5], ["a", "b", "b"])
        rows = np.stack([mixed.log_weights(c)
                         for c in (Condition.of("b"), Condition.of("a"), Condition.null())])
        two = two_diracs()
        cases = [
            (two, np.array([[0.4, 0.2]]), rows_of(two, Condition.null(), 1)),
            (two, np.array([[1.0, 0.0], [0.3, 0.3]]), rows_of(two, Condition.null(), 2)),
            (mixed, np.array([[0.3, 0.2], [1.0, 0.0], [0.5, -0.5]]), rows),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (responsibilities, posterior_endpoint_mean, marginal_velocity):
                for mixture, x, cond in cases:
                    late = [fn(x, t, cold(mixture), cond) for t in (1.0, 1.0 - EPS_T / 2)]
                    want = fn(x, 1.0 - EPS_T, cold(mixture), cond)
                    assert all(np.array_equal(got, want) for got in late)

    def test_only_points_under_log_weight_rows_are_taken(self):
        # Two points (2, 2) of a mixture of K = 3 components, and each other form
        # but a list of conditions, which the test below checks.
        mix = GaussianMixture([0.5, 0.25, 0.25], [[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]],
                              [0.0, 0.1, 0.0], ["a", "b", "c"])
        x, rows = np.array([[0.3, 0.2], [1.0, 0.0]]), rows_of(mix, Condition.null(), 2)
        for points, logw, shapes in [
            (x, Condition.of("a"), r"\(2, 2\) and log-weight rows \(1,\)"),
            (x[0], rows[:1], r"\(2,\) and log-weight rows \(1, 3\)"),
            (x[:1], rows[0], r"\(1, 2\) and log-weight rows \(3,\)"),
            (x, rows[:1], r"\(2, 2\) and log-weight rows \(1, 3\)"),
            (x, rows[:, :2], r"\(2, 2\) and log-weight rows \(2, 2\)"),
        ]:
            with pytest.raises(ValueError, match=r"points of the mixture's dimension, \(n, 2\), "
                               r"under log-weight rows \(n, 3\), not points " + shapes):
                marginal_velocity(points, 0.5, mix, logw)

    @pytest.mark.parametrize("fn", [posterior_endpoint_mean, marginal_velocity])
    def test_a_list_of_conditions_is_rejected(self, fn):
        x = np.array([[0.3, 0.2], [1.0, 0.0]])
        with pytest.raises(ValueError, match=r"under log-weight rows \(n, 2\), not points "
                           r"\(2, 2\) and log-weight rows \(2, 1\)"):
            fn(x, 0.5, two_diracs(), [Condition.of("a"), Condition.null()])


class TestMixtureValidation:
    def test_a_mixture_needs_a_component(self):
        with pytest.raises(ValueError, match="mixture needs at least one component"):
            GaussianMixture([], np.zeros((0, 2)), [], [])

    def test_means_must_be_finite(self):
        with pytest.raises(ValueError, match="means must be finite"):
            GaussianMixture([1.0], [[np.nan, 0.0]], [0.0], ["a"])

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GaussianMixture([0.5, 0.4], [[0.0], [1.0]], [0.1, 0.1], ["a", "b"])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="strictly positive"):
            GaussianMixture([1.0, 0.0], [[0.0], [1.0]], [0.1, 0.1], ["a", "b"])

    def test_variances_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            GaussianMixture([1.0], [[0.0]], [-0.1], ["a"])

    @pytest.mark.parametrize("weights", [[np.nan, np.nan], [np.inf, 0.5]])
    def test_weights_must_be_finite(self, weights):
        with pytest.raises(ValueError, match="weights must be finite"):
            GaussianMixture(weights, [[0.0], [1.0]], [0.1, 0.1], ["a", "b"])

    @pytest.mark.parametrize("variance", [np.nan, np.inf])
    def test_variances_must_be_finite(self, variance):
        with pytest.raises(ValueError, match="variances must be finite"):
            GaussianMixture([0.5, 0.5], [[0.0], [1.0]], [0.1, variance], ["a", "b"])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="matching lengths"):
            GaussianMixture([1.0], [[0.0], [1.0]], [0.1, 0.1], ["a", "b"])

    def test_mixture_keeps_read_only_copies_of_its_arrays(self):
        weights, variances = np.array([0.5, 0.5]), np.array([0.05, 0.05])
        means = np.array([[2.0, 0.0], [-2.0, 0.0]])
        mix = GaussianMixture(weights, means, variances, ["A", "B"])
        x, null = np.array([[0.5, 0.3]]), rows_of(mix, Condition.null(), 1)
        want = marginal_velocity(x, 0.5, mix, null)
        weights[:], means[0], variances[:] = [0.9, 0.1], [5.0, 0.0], 0.2
        assert np.array_equal(marginal_velocity(x, 0.5, mix, null), want)
        assert np.array_equal(mix.mean_sq, [4.0, 4.0])
        for a in (mix.weights, mix.means, mix.variances, mix.log_weights(Condition.of("A")),
                  mix._cdf):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    def test_unknown_condition_label(self):
        with pytest.raises(ValueError, match=re.escape(
                "condition labels ['zzz'] are not in the mixture, whose labels are ['a', 'b']")):
            Condition.of("zzz").select(two_diracs())

    def test_empty_condition_selects_nothing(self):
        with pytest.raises(ValueError, match="selects no components"):
            Condition(frozenset()).select(two_diracs())


class TestSampling:
    def test_empirical_mean_matches_mixture_mean(self):
        rng = np.random.default_rng(1)
        mix = GaussianMixture([0.5, 0.5], [[2.0, 0.0], [-2.0, 0.0]], [0.05, 0.05], ["A", "B"])
        x, _ = sample_mixture(mix, 20000, rng)
        assert np.allclose(x.mean(axis=0), [0.0, 0.0], atol=0.05)


@st.composite
def small_mixtures(draw):
    """A random mixture of 1-4 components in 1-3 dimensions, some of them Diracs."""
    k = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    means = draw(arrays(float, (k, d), elements=st.floats(-3.0, 3.0)))
    variances = draw(arrays(float, k, elements=st.one_of(st.just(0.0), st.floats(1e-4, 1.0))))
    weights = draw(arrays(float, k, elements=st.floats(0.1, 1.0)))
    labels = draw(st.lists(st.sampled_from("ABC"), min_size=k, max_size=k))
    return GaussianMixture(weights / weights.sum(), means, variances, labels)


@st.composite
def conditions(draw, mixture):
    kept = draw(st.one_of(st.none(),
                          st.sets(st.sampled_from(sorted(set(mixture.labels))), min_size=1)))
    return Condition.null() if kept is None else Condition.of(*kept)


@st.composite
def field_cases(draw):
    """A small random mixture, a condition on it, a batch (n, d), and t."""
    mixture = draw(small_mixtures())
    cond = draw(conditions(mixture))
    x = draw(arrays(float, (draw(st.integers(1, 4)), mixture.dim), elements=st.floats(-4.0, 4.0)))
    t = draw(st.floats(0.0, 1.0 - EPS_T))
    return mixture, cond, x, t


@st.composite
def batch_cases(draw):
    """A small random mixture, a batch (n, d), one condition per row, and t.

    Cases whose exponent is ill-conditioned are rejected: with
    kappa = max (||x||^2 + t^2 ||mu_k||^2) / s_k^2, any two roundings of the
    squared distances (BLAS kernels, the direct form) differ by about
    eps * kappa in the log-densities, so kappa <= 1e3 keeps every form
    within 1e-12. TestGemmPrecision bounds the expansion near t = 1.
    """
    mixture = draw(small_mixtures())
    n = draw(st.integers(1, 4))
    x = draw(arrays(float, (n, mixture.dim), elements=st.floats(-4.0, 4.0)))
    conds = [draw(conditions(mixture)) for _ in range(n)]
    t = draw(st.floats(0.0, 1.0 - EPS_T))
    s2 = (1.0 - t) ** 2 + t**2 * mixture.variances
    kappa = (np.sum(x * x, axis=1)[:, None] + t**2 * mixture.mean_sq[None, :]) / s2
    assume(kappa.max() <= 1e3)
    return mixture, conds, x, t


def _scale(mixture, x):
    """A bound on the magnitude of the endpoint means, for relative comparisons."""
    return max(np.abs(mixture.means).max(), np.abs(x).max(), 1.0)


class TestFieldProperties:
    @settings(deadline=None)
    @given(field_cases())
    def test_endpoint_mean_mixes_per_component_endpoints(self, case):
        mixture, cond, x, t = case
        idx, logw = cond.select(mixture), rows_of(mixture, cond, len(x))
        r = responsibilities(x, t, mixture, logw)[:, idx]
        mu, var = mixture.means[idx], mixture.variances[idx]
        s2 = (1.0 - t) ** 2 + t**2 * var
        endpoints = (mu[None, :, :]
                     + (t * var / s2)[None, :, None] * (x[:, None, :] - t * mu[None, :, :]))
        expected = np.sum(r[:, :, None] * endpoints, axis=1)
        got = posterior_endpoint_mean(x, t, mixture, logw)
        assert got.shape == x.shape
        scale = max(np.abs(endpoints).max(), 1.0)
        assert np.max(np.abs(got - expected)) <= 1e-12 * scale

    @settings(deadline=None)
    @given(field_cases())
    def test_prompt_of_every_label_is_the_null_field(self, case):
        mixture, _, x, t = case
        everything = rows_of(mixture, Condition.of(*mixture.labels), len(x))
        assert np.array_equal(marginal_velocity(x, t, mixture, everything),
                              marginal_velocity(x, t, mixture, rows_of(mixture, Condition.null(),
                                                                       len(x))))

    @settings(deadline=None)
    @given(batch_cases())
    def test_batch_rows_equal_single_point_calls(self, case):
        mixture, conds, x, t = case
        logw = rows_of(mixture, conds[0], len(x))
        batch = posterior_endpoint_mean(x, t, mixture, logw)
        tol = 1e-12 * _scale(mixture, x)
        for i in range(len(x)):
            single = posterior_endpoint_mean(x[i:i + 1], t, mixture, logw[i:i + 1])[0]
            assert np.max(np.abs(batch[i] - single)) <= tol

    @settings(deadline=None)
    @given(batch_cases())
    def test_per_row_conditions_equal_one_call_per_condition(self, case):
        mixture, conds, x, t = case
        rows = np.stack([mixture.log_weights(c) for c in conds])
        means = posterior_endpoint_mean(x, t, mixture, rows)
        r = responsibilities(x, t, mixture, rows)
        assert r.shape == (len(x), mixture.n_components)
        tol = 1e-12 * _scale(mixture, x)
        for i, cond in enumerate(conds):
            kept = np.isin(np.arange(mixture.n_components), cond.select(mixture))
            assert np.all(r[i, ~kept] == 0.0)
            one = responsibilities(x[i:i + 1], t, mixture, rows[i:i + 1])[0]
            assert np.max(np.abs(r[i, kept] - one[kept])) <= 1e-12
            one_mean = posterior_endpoint_mean(x[i:i + 1], t, mixture, rows[i:i + 1])[0]
            assert np.max(np.abs(means[i] - one_mean)) <= tol

    @settings(deadline=None)
    @given(batch_cases())
    def test_gemm_form_matches_the_direct_oracle(self, case):
        mixture, conds, x, t = case
        cond = conds[0]
        logw = rows_of(mixture, cond, len(x))
        _, r_direct, m_direct = direct_field(x, t, mixture, cond)
        r = responsibilities(x, t, mixture, logw)
        assert np.all(np.delete(r, cond.select(mixture), axis=1) == 0.0)
        assert np.max(np.abs(r[:, cond.select(mixture)] - r_direct)) <= 1e-12
        got = posterior_endpoint_mean(x, t, mixture, logw)
        assert np.max(np.abs(got - m_direct)) <= 1e-12 * _scale(mixture, x)


# Values that tie within a row, non-finite entries, and magnitudes up to 1e5.
_LSE_ENTRIES = st.one_of(st.sampled_from([0.0, 1.0, -2.5, -np.inf, np.inf, np.nan]),
                         st.floats(-1e5, 1e5))


@st.composite
def logsumexp_rows(draw):
    """An (n, K) array, K up to 96 (a shapes32 field has 90 components).

    Its bulk values come from a drawn numpy seed and scale, and each row is
    of one kind: one finite maximum over finite and -inf entries (the
    replica's single-maximum branch), up to six entries drawn from
    _LSE_ENTRIES (ties, +-inf, NaN), or only -inf.
    """
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 96))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(-1.0, 1.0, (n, k)) * draw(st.sampled_from([1.0, 30.0, 1e5]))
    for row in a:
        kind = draw(st.sampled_from(["single", "entries", "-inf"]))
        if kind == "single":
            row[rng.random(k) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = -np.inf
            top, gap = np.max(row), draw(st.floats(0.0, 50.0))
            row[rng.integers(k)] = (gap if top == -np.inf
                                    else max(top + gap, np.nextafter(top, np.inf)))
        elif kind == "entries":
            m = draw(st.integers(1, min(k, 6)))
            row[rng.choice(k, m, replace=False)] = draw(arrays(float, m, elements=_LSE_ENTRIES))
        else:
            row[:] = -np.inf
    return a


class TestLogsumexpReplica:
    @settings(deadline=None, max_examples=500)
    @given(logsumexp_rows())
    @example(np.array([[0.0, -1.0, -np.inf], [2.0, np.nextafter(2.0, 0.0), 1.0]]))
    @example(np.array([[1.0, 1.0], [np.nan, 0.0]]))  # one maximum per row on average
    @example(np.array([[np.inf, 0.0, -1.0]]))  # a single +inf maximum
    @example(np.array([[-np.inf]]))  # a one-column -inf row
    @example(np.array([[1e308, 0.0], [1e308, -np.inf]]))  # finite maxima summing past DBL_MAX
    @example(np.array([[np.nan, 0.0], [1.0, 2.0]]))  # a NaN row beside a finite one
    def test_bitwise_equal_to_scipy(self, a):
        got = _log_softmax_rows(a)
        want = logsumexp(a, axis=1, keepdims=True)
        assert got.shape == a.shape
        with np.errstate(invalid="ignore"):
            assert np.array_equal(got, a - want, equal_nan=True)

    def test_non_finite_rows(self):
        got = _log_softmax_rows(np.array([[np.inf, 0.0], [np.nan, 1.0], [3.0, 3.0]]))
        assert np.isnan(got[0, 0]) and got[0, 1] == -np.inf and np.isnan(got[1]).all()
        assert np.array_equal(got[2], [3.0 - (3.0 + np.log(2.0))] * 2)


class TestAffineVelocity:
    """marginal_velocity, the endpoint mean's affine map with 1/(1-t) folded in,
    equals (mean - x) / (1 - t) with the mean of the direct form of the field."""

    @staticmethod
    def _check(x, t, mixture, logw, mean):
        got = marginal_velocity(x, t, mixture, logw)
        assert got.shape == np.shape(x)
        want = (mean - x) / (1.0 - t)
        assert np.max(np.abs(got - want)) <= 1e-12 * _scale(mixture, x) / (1.0 - t)

    @settings(deadline=None)
    @given(batch_cases())
    def test_equals_the_endpoint_mean_form(self, case):
        mixture, conds, x, t = case
        _, _, mean = direct_field(x, t, mixture, conds[0])
        logw = rows_of(mixture, conds[0], len(x))
        self._check(x, t, mixture, logw, mean)
        self._check(x[:1], t, mixture, logw[:1], mean[:1])

    @settings(deadline=None)
    @given(batch_cases())
    def test_equals_the_endpoint_mean_form_per_row(self, case):
        mixture, conds, x, t = case
        mean = np.concatenate([direct_field(p[None], t, mixture, c)[2] for p, c in zip(x, conds)])
        self._check(x, t, mixture, np.stack([mixture.log_weights(c) for c in conds]), mean)

    def test_shapes32_batch_near_the_terminal_time(self):
        # Where the posterior has collapsed onto one component, the direct
        # form's endpoint mean is exact to rounding (TestGemmPrecision).
        mixture, x, t = TestGemmPrecision()._case()
        for cond in (Condition.null(), Condition.of("disk")):
            _, r, mean = direct_field(x, t, mixture, cond)
            collapsed = r.max(axis=1) >= 1.0 - 1e-12
            self._check(x[collapsed], t, mixture, rows_of(mixture, cond, collapsed.sum()),
                        mean[collapsed])


def cold(mixture):
    """A copy of mixture with empty caches."""
    return GaussianMixture(mixture.weights, mixture.means, mixture.variances, mixture.labels)


def inline_velocity(xb, t, mixture, logw):
    """marginal_velocity at t < 1 - EPS_T with its folded per-time constants
    computed at every call, by the expressions of flowfield._build_nodes."""
    # Array loops, as on _build_nodes' (T, 1) times: a 0-d t would give numpy
    # scalars, whose (1 - t) ** 2 can round differently from the array square.
    t = np.array([t])
    var = mixture.variances
    s2 = (1.0 - t) ** 2 + t**2 * var
    two_s2 = 2.0 * s2
    const = (-0.5 * mixture._ambient_dim * np.log(2.0 * np.pi * s2)
             - (t * t) * mixture.mean_sq / two_s2)
    logp = (xb @ (mixture.means.T * ((2.0 * t) / two_s2))
            + np.einsum("nd,nd->n", xb, xb)[:, None] * (-1.0 / two_s2) + const + logw)
    r = np.exp(_log_softmax_rows(logp))
    coef = t * var / s2
    y = r @ np.hstack([((1.0 - t * coef) / (1.0 - t))[:, None] * mixture.means,
                       (coef / (1.0 - t))[:, None]])
    return y[:, :-1] + (y[:, -1] - 1.0 / (1.0 - t))[:, None] * xb


def field_values(x, t, mixture, logw):
    """Responsibilities, endpoint mean and velocity at (x, t), or the error each raises."""
    out = []
    for fn in (responsibilities, posterior_endpoint_mean, marginal_velocity):
        try:
            out.append(fn(x, t, mixture, logw))
        except ValueError as exc:
            out.append(str(exc))
    return out


@st.composite
def transport_cases(draw):
    """A mixture of 1-4 components in 1-3 dimensions with variances from {0, 0.01,
    0.3, 1.5}, a null or one-label condition, t in [0.05, 0.9] and a point near
    a kept component's marginal, t mu_j + s_j z with |z_i| <= 2."""
    k, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    means = draw(arrays(float, (k, d), elements=st.floats(-3.0, 3.0)))
    variances = draw(st.lists(st.sampled_from([0.0, 0.01, 0.3, 1.5]), min_size=k, max_size=k))
    weights = draw(arrays(float, k, elements=st.floats(0.1, 1.0)))
    labels = draw(st.lists(st.sampled_from("AB"), min_size=k, max_size=k))
    mixture = GaussianMixture(weights / weights.sum(), means, variances, labels)
    label = draw(st.none() | st.sampled_from(sorted(set(labels))))
    cond = Condition.null() if label is None else Condition.of(label)
    t = draw(st.floats(0.05, 0.9))
    j = draw(st.sampled_from(cond.select(mixture).tolist()))
    z = draw(arrays(float, d, elements=st.floats(-2.0, 2.0)))
    return mixture, cond, t, t * means[j] + np.sqrt((1 - t) ** 2 + t**2 * variances[j]) * z


class TestTransportEquation:
    """The field moves the interpolation's own marginal: with p_t = sum_k w_k
    N(t mu_k, s_k^2 I) over the kept components, written from its definition,
    d_t log p + v . grad log p + div v = 0, and not only the field's own formula
    (which every other oracle re-derives). A c_k off by 1 % fails it."""

    H = 1e-5  # central-difference step; t + H stays below 1 - EPS_T

    @staticmethod
    def _log_p(x, t, mixture, idx):
        w = mixture.weights[idx] / mixture.weights[idx].sum()
        s2 = (1 - t) ** 2 + t**2 * mixture.variances[idx]
        sq = np.sum((x - t * mixture.means[idx]) ** 2, axis=1)
        return logsumexp(np.log(w) - 0.5 * mixture.dim * np.log(2 * np.pi * s2) - sq / (2 * s2))

    @settings(deadline=None)
    @given(transport_cases())
    def test_the_field_satisfies_the_continuity_equation(self, case):
        mixture, cond, t, x = case
        h, idx, logw = self.H, cond.select(mixture), rows_of(mixture, cond, 1)
        dt_log_p = (self._log_p(x, t + h, mixture, idx)
                    - self._log_p(x, t - h, mixture, idx)) / (2 * h)
        s2 = (1 - t) ** 2 + t**2 * mixture.variances[idx]
        grad_log_p = responsibilities(x[None], t, mixture, logw)[0, idx] @ (
            (t * mixture.means[idx] - x) / s2[:, None])

        def v(p):
            return marginal_velocity(p[None], t, mixture, logw)[0]

        div = sum((v(x + e)[i] - v(x - e)[i]) / (2 * h)
                  for i, e in enumerate(h * np.eye(mixture.dim)))
        terms = [dt_log_p, v(x) @ grad_log_p, div]
        assert abs(sum(terms)) <= 1e-6 * (sum(map(abs, terms)) + 1.0), terms


class TestNodeCache:
    """Each mixture keeps the field's per-time constants, which must not move a bit.

    A time past 1 - EPS_T (the t = 1 draws) is cached as the clamped time."""

    @settings(deadline=None)
    @given(field_cases(), st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    @example((two_diracs(), Condition.null(), np.array([[1.0, 0.0], [-1.0, 0.0]]), 0.5), 1.0)
    @example((two_diracs(), Condition.of("a"), np.array([[0.2, 0.1]]), 0.5), 1.0)
    def test_warm_cache_is_bitwise_the_cold_one(self, case, t):
        mixture, cond, x, _ = case
        logw = rows_of(mixture, cond, len(x))
        first = field_values(x, t, mixture, logw)
        node(mixture, 0.5)
        warm = field_values(x, t, mixture, logw)
        fresh = field_values(x, t, cold(mixture), logw)
        for a, b, c in zip(first, warm, fresh):
            assert type(a) is type(b) is type(c)
            if isinstance(a, str):
                assert a == b == c
            else:
                assert np.array_equal(a, b) and np.array_equal(a, c)

    @settings(deadline=None)
    @given(field_cases())
    def test_cached_velocity_is_bitwise_the_inline_expressions(self, case):
        mixture, cond, x, t = case
        assume(t < 1.0 - EPS_T)
        logw = rows_of(mixture, cond, len(x))
        want = inline_velocity(x, t, mixture, logw)
        assert np.array_equal(marginal_velocity(x, t, mixture, logw), want)
        assert np.array_equal(marginal_velocity(x, t, mixture, logw), want)

    @settings(deadline=None)
    @given(field_cases(), st.integers(1, 30))
    def test_a_node_built_alone_is_bitwise_the_one_built_with_its_grid(self, case, n_steps):
        mixture = case[0]
        nodes = make_grid(n_steps, 1.0, 0.0)[:-1]
        grid = cold(mixture)
        grid._add_nodes(nodes)
        for t in np.minimum(nodes, 1.0 - EPS_T).tolist():
            for a, b in zip(node(cold(mixture), t), grid._nodes[t]):
                assert a.shape == b.shape and np.array_equal(a, b)

    def test_shapes32_nodes_built_alone_equal_those_built_with_their_grid(self):
        mixture, _, _ = TestGemmPrecision()._case()
        nodes = make_grid(28, 0.0, 1.0)[:-1]
        mixture._add_nodes(nodes)
        for t in nodes.tolist():
            assert all(np.array_equal(a, b)
                       for a, b in zip(node(cold(mixture), t), mixture._nodes[t]))

    def test_bounded_over_many_times(self, monkeypatch):
        # A budget of 256 two-Dirac nodes, so that the cache starts over.
        mixture = two_diracs()
        monkeypatch.setattr(flowfield, "_MAX_NODE_BYTES", 256 * node_bytes(mixture, 1))
        x, null = np.array([[0.3, -0.2], [1.5, 0.4]]), rows_of(mixture, Condition.null(), 2)
        times = np.linspace(0.0, 1.0 - EPS_T, 3000)
        first = [marginal_velocity(x, float(t), mixture, null) for t in times[:5]]
        for t in times:
            marginal_velocity(x, float(t), mixture, null)
            assert cached_node_bytes(mixture) <= flowfield._MAX_NODE_BYTES
            assert 1 <= len(mixture._nodes) <= 256
        again = [marginal_velocity(x, float(t), mixture, null) for t in times[:5]]
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

    def test_full_space_grids_keep_within_the_budget_or_one_grid(self):
        # Each full-space shapes32 node is 1.5 MB, so one 28-step grid is past
        # the budget: the cache then holds that grid's nodes and nothing more.
        mixture, x, _ = TestGemmPrecision()._case()
        grid = node_bytes(mixture, 28)
        assert grid > _MAX_NODE_BYTES
        for start, end in ((1.0, 0.0), (0.0, 1.0), (1.0, 0.0)):
            nodes = make_grid(28, start, end)[:-1]
            mixture._add_nodes(nodes)
            assert cached_node_bytes(mixture) <= max(_MAX_NODE_BYTES, grid)
            assert set(mixture._nodes) == set(np.minimum(nodes, 1.0 - EPS_T).tolist())
            for t in nodes[:3].tolist():
                marginal_velocity(x[:2], t, mixture, rows_of(mixture, Condition.null(), 2))
            assert cached_node_bytes(mixture) <= max(_MAX_NODE_BYTES, grid)

    def test_a_reduced_restore_keeps_every_node(self):
        # In the r + 2 = 6 reduced coordinates a shapes32 node is about 11 KB,
        # so both grids of a 28-step restore stay cached, and a second restore
        # of the same config builds none.
        mixture = exemplar_mixture(shapes32_dataset(), 1e-4)
        x = mixture.means[[0, 40]] + 0.01
        restore(x, mixture, [Condition.of("disk"), Condition.null()], PdlsConfig(), [0, 1])
        reduced = mixture._reduced[1]
        cached = dict(reduced._nodes)
        times = np.concatenate([make_grid(28, 1.0, 0.0)[:-1],
                                make_grid(28, 0.0, 1.0)[:-1]])
        assert set(cached) == set(np.minimum(times, 1.0 - EPS_T).tolist())
        assert cached_node_bytes(reduced) <= _MAX_NODE_BYTES
        restore(x, mixture, [Condition.of("disk"), Condition.null()], PdlsConfig(), [2, 3])
        assert reduced._nodes.keys() == cached.keys()
        assert all(reduced._nodes[t] is node for t, node in cached.items())


def node_bytes(mixture, n):
    """Bytes of n nodes of mixture, from one built alone."""
    return n * sum(a.nbytes for a in node(cold(mixture), 0.5))


def cached_node_bytes(mixture):
    """Bytes of the distinct arrays that the mixture's cached nodes are views of."""
    bases = {}
    for node in mixture._nodes.values():
        for a in node:
            base = a if a.base is None else a.base
            bases[id(base)] = base
    return sum(b.nbytes for b in bases.values())


@st.composite
def point_mass_cases(draw):
    """A small mixture in which component 0 alone carries label "S", a batch (n, d),
    (n, K) log-weight rows that each keep one component, and t on a grid from 0
    past 1 - EPS_T."""
    k = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    means = draw(arrays(float, (k, d), elements=st.floats(-3.0, 3.0)))
    variances = draw(arrays(float, k, elements=st.one_of(st.just(0.0), st.floats(1e-4, 1.0))))
    weights = draw(arrays(float, k, elements=st.floats(0.1, 1.0)))
    labels = ["S"] + draw(st.lists(st.sampled_from("AB"), min_size=k - 1, max_size=k - 1))
    mixture = GaussianMixture(weights / weights.sum(), means, variances, labels)
    n = draw(st.integers(1, 4))
    x = draw(arrays(float, (n, d), elements=st.floats(-4.0, 4.0)))
    rows = np.full((n, k), -np.inf)
    for i in range(n):
        rows[i, draw(st.integers(0, k - 1))] = draw(st.floats(-5.0, 5.0))
    t = draw(st.one_of(st.sampled_from(np.linspace(0.0, 1.0, 29).tolist()),
                       st.floats(1.0 - EPS_T, 1.0)))
    return mixture, x, rows, t


def softmax_velocity(x, t, mixture, logw):
    """marginal_velocity's arithmetic through the responsibilities, whatever the rows keep."""
    node, t = _node_at(mixture, t)
    logp = _log_densities(x, node) + logw
    r = np.exp(_log_softmax_rows(logp))
    y = r @ node.vmat
    return y[:, :-1] + (y[:, -1] - 1.0 / (1.0 - t))[:, None] * x


class TestPointMassRows:
    """Rows that keep one component take vmat's row instead of the softmax."""

    @settings(deadline=None)
    @given(point_mass_cases())
    def test_equal_to_the_softmax_path(self, case):
        mixture, x, rows, t = case
        assert mixture._one_component_label
        assert flowfield._point_masses(rows) is not None
        want = softmax_velocity(x, t, mixture, rows)
        assert np.array_equal(marginal_velocity(x, t, mixture, rows), want)
        assert np.array_equal(marginal_velocity(x[:1], t, mixture, rows[:1]), want[:1])
        one = rows_of(mixture, Condition.of("S"), len(x))
        assert np.array_equal(marginal_velocity(x, t, mixture, one),
                              softmax_velocity(x, t, mixture, one))

    def test_a_row_of_two_and_a_row_of_none_take_the_full_path(self):
        # Two finite entries in two rows, but no row is a point mass: the
        # all -inf row gets NaN, as the softmax gives it, without a warning.
        mixture = GaussianMixture([0.5, 0.25, 0.25], [[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]],
                                  [0.0, 0.1, 0.0], ["a", "b", "c"])
        rows = np.array([[np.log(0.5), np.log(0.25), -np.inf], [-np.inf] * 3])
        x = np.array([[0.3, -0.2], [0.1, 0.4]])
        assert flowfield._point_masses(rows) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = marginal_velocity(x, 0.5, mixture, rows)
        assert np.isnan(v[1]).all()
        assert np.array_equal(v[0], softmax_velocity(x, 0.5, mixture, rows)[0])

    def test_a_mixture_without_a_one_component_label_never_tests_its_rows(self, monkeypatch):
        def fail(logw):
            raise AssertionError("point-mass test run")

        monkeypatch.setattr(flowfield, "_point_masses", fail)
        mixture = GaussianMixture([0.25] * 4, [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                                  [0.0] * 4, ["a", "a", "b", "b"])
        assert not mixture._one_component_label
        rows = np.array([[0.0, -np.inf, -np.inf, -np.inf]])
        x = np.array([[0.3, -0.2]])
        assert np.array_equal(marginal_velocity(x, 0.5, mixture, rows),
                              softmax_velocity(x, 0.5, mixture, rows))


def choice_sample(mixture, n, rng):
    """sample_mixture's draw with the components from Generator.choice, its oracle."""
    w = mixture.weights
    chosen = rng.choice(mixture.n_components, size=n, p=w / w.sum())
    x = mixture.means[chosen] + np.sqrt(mixture.variances[chosen])[:, None] * rng.standard_normal(
        (n, mixture.dim))
    return x, [mixture.labels[i] for i in chosen]


class TestSamplingStream:
    @settings(deadline=None)
    @given(small_mixtures(), st.integers(0, 2**32), st.integers(0, 5))
    def test_draws_are_generator_choices_bitwise(self, mixture, seed, n):
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):  # the second draw reads the mixture's cached cdf
            x, labels = sample_mixture(mixture, n, rng)
            want, want_labels = choice_sample(mixture, n, oracle)
            assert x.tobytes() == want.tobytes() and labels == want_labels
        assert rng.random() == oracle.random()
