"""Velocity-field unit tests: pinned values, a direct-density oracle,
property checks over random mixtures, and basic validation behavior."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from pdls.datasets import exemplar_mixture, shapes32_dataset
from pdls.degrade import GaussianBlur, NoiseModel, apply
from pdls.flowfield import (
    _MAX_NODES,
    EPS_T,
    Condition,
    GaussianMixture,
    TerminalTimeError,
    endpoint_conditional_velocity,
    marginal_velocity,
    posterior_endpoint_mean,
    responsibilities,
    sample_mixture,
    _logsumexp_rows,
    _sq_distances,
)


def two_diracs():
    return GaussianMixture([0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0], ["a", "b"])


def standard_normal_target(dim=2):
    return GaussianMixture([1.0], [np.zeros(dim)], [1.0], ["z"])


def direct_field(x, t, mixture, cond=Condition.null()):
    """The direct (n, k, d) form of the field, the oracle for its GEMM form.

    Returns the squared distances ||x - t mu_k||^2, the responsibilities and
    the endpoint mean over cond's selected components, for t < 1.
    """
    idx = cond.select(mixture)
    mu, var, w = mixture.means[idx], mixture.variances[idx], mixture.weights[idx]
    xb = np.atleast_2d(x)
    s2 = (1.0 - t) ** 2 + t**2 * var
    diff = xb[:, None, :] - t * mu[None, :, :]
    sq = np.einsum("nkd,nkd->nk", diff, diff)
    logp = np.log(w) - 0.5 * mixture.dim * np.log(2.0 * np.pi * s2) - sq / (2.0 * s2)
    r = np.exp(logp - logsumexp(logp, axis=1, keepdims=True))
    endpoints = mu[None, :, :] + (t * var / s2)[None, :, None] * diff
    return sq, r, np.einsum("nk,nkd->nd", r, endpoints)


class TestResponsibilities:
    def test_symmetric_point_splits_evenly(self):
        r = responsibilities(np.zeros(2), 0.5, two_diracs())
        assert np.allclose(r, [0.5, 0.5], atol=1e-15)

    def test_single_selected_component_gets_all_mass(self):
        r = responsibilities(np.zeros(2), 0.5, two_diracs(), Condition.of("a"))
        assert r.shape == (1,)
        assert r[0] == pytest.approx(1.0, abs=1e-15)

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
        r = responsibilities(x, t, mix)
        assert np.max(np.abs(r - expected) / expected) < 1e-10

    def test_rows_normalize_over_many_draws(self):
        rng = np.random.default_rng(3)
        mix = GaussianMixture(
            [0.25, 0.25, 0.5], [[2.0, 0.0], [-2.0, 0.0], [0.0, 2.0]],
            [0.05, 0.05, 0.05], ["a", "b", "c"],
        )
        x = rng.standard_normal((1000, 2)) * 2.0
        r = responsibilities(x, 0.6, mix)
        assert r.shape == (1000, 3)
        assert np.allclose(r.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(r >= 0)

    def test_conditioning_renormalizes_the_null_posterior(self):
        mix = GaussianMixture(
            [0.3, 0.3, 0.4], [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]],
            [0.02, 0.02, 0.02], ["a", "b", "a"],
        )
        x = np.array([0.4, -0.2])
        full = responsibilities(x, 0.5, mix)
        cond = responsibilities(x, 0.5, mix, Condition.of("a"))
        sub = full[[0, 2]]
        assert np.allclose(cond, sub / sub.sum(), atol=1e-12)

    def test_time_out_of_range(self):
        with pytest.raises(ValueError, match="time out of range"):
            responsibilities(np.zeros(2), 1.5, two_diracs())

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            responsibilities(np.zeros(3), 0.5, two_diracs())


class TestPosteriorEndpointMean:
    def test_single_dirac_returns_its_mean(self):
        mix = GaussianMixture([1.0], [[2.0, 3.0]], [0.0], ["d"])
        for t in (0.0, 0.3, 0.9):
            m = posterior_endpoint_mean(np.array([5.0, -1.0]), t, mix)
            assert np.allclose(m, [2.0, 3.0], atol=1e-12)

    def test_source_equals_target_fixed_point(self):
        # For a standard-normal target the conditioning coefficient at t=0.5
        # is 0.5/(0.25+0.25) = 1, so the posterior mean is x itself.
        m = posterior_endpoint_mean(np.array([1.0, 1.0]), 0.5, standard_normal_target())
        assert np.allclose(m, [1.0, 1.0], atol=1e-12)

    def test_symmetric_diracs_average_to_origin(self):
        m = posterior_endpoint_mean(np.zeros(2), 0.5, two_diracs())
        assert np.allclose(m, [0.0, 0.0], atol=1e-15)

    def test_batch_agrees_with_single_point(self):
        mix = GaussianMixture([0.6, 0.4], [[1.0, 2.0], [-1.0, 0.0]], [0.1, 0.3], ["a", "b"])
        pts = np.array([[0.2, 0.1], [1.5, -0.5], [0.0, 0.0]])
        batch = posterior_endpoint_mean(pts, 0.4, mix)
        for i, p in enumerate(pts):
            assert np.allclose(batch[i], posterior_endpoint_mean(p, 0.4, mix), atol=1e-14)


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
        mixture, x, t = self._case()
        sq = _sq_distances(x, t, mixture.means, (t * t) * mixture.mean_sq)
        expected, _, _ = direct_field(x, t, mixture)
        eps = np.finfo(float).eps
        bound = 4.0 * np.sqrt(mixture.dim) * eps * (
            np.sum(x * x, axis=1)[:, None] + t**2 * mixture.mean_sq[None, :])
        assert np.all(np.abs(sq - expected) <= bound)

    def test_collapsed_rows_agree_on_the_endpoint_mean(self):
        mixture, x, t = self._case()
        for cond in (Condition.null(), Condition.of("disk")):
            _, r, expected = direct_field(x, t, mixture, cond)
            collapsed = r.max(axis=1) >= 1.0 - 1e-12
            assert collapsed.sum() >= len(x) // 2
            got = posterior_endpoint_mean(x, t, mixture, cond)
            err = np.abs(got - expected)[collapsed]
            assert np.all(err <= 1e-12 * np.abs(expected[collapsed]).max())


class TestMarginalVelocity:
    def test_single_dirac_is_straight_line_flow(self):
        mix = GaussianMixture([1.0], [[2.0, 3.0]], [0.0], ["d"])
        x = np.array([0.5, -0.5])
        for t in (0.0, 0.25, 0.8):
            v = marginal_velocity(x, t, mix)
            assert np.allclose(v, (np.array([2.0, 3.0]) - x) / (1 - t), atol=1e-12)

    def test_standard_normal_target_vanishes_at_half_time(self):
        v = marginal_velocity(np.array([1.3, -0.7]), 0.5, standard_normal_target())
        assert np.allclose(v, 0.0, atol=1e-12)

    def test_standard_normal_target_at_time_zero(self):
        v = marginal_velocity(np.array([1.0, 0.0]), 0.0, standard_normal_target())
        assert np.allclose(v, [-1.0, 0.0], atol=1e-12)

    def test_clamped_at_terminal_time(self):
        # Every field function evaluates a time past 1 - EPS_T at 1 - EPS_T, on
        # Diracs alone and on one Dirac ("a") and two Gaussians ("b") under
        # per-row conditions, and warns of nothing on the way.
        mixed = GaussianMixture([0.2, 0.4, 0.4], [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                                [0.0, 0.5, 0.5], ["a", "b", "b"])
        rows = np.stack([mixed.log_weights(c)
                         for c in (Condition.of("b"), Condition.of("a"), Condition.null())])
        cases = [
            (two_diracs(), np.array([0.4, 0.2]), Condition.null()),
            (two_diracs(), np.array([[1.0, 0.0], [0.3, 0.3]]), Condition.null()),
            (mixed, np.array([[0.3, 0.2], [1.0, 0.0], [0.5, -0.5]]), rows),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (responsibilities, posterior_endpoint_mean, marginal_velocity):
                for mixture, x, cond in cases:
                    late = [fn(x, t, cold(mixture), cond) for t in (1.0, 1.0 - EPS_T / 2)]
                    want = fn(x, 1.0 - EPS_T, cold(mixture), cond)
                    assert all(np.array_equal(got, want) for got in late)

    @pytest.mark.parametrize("fn", [responsibilities, posterior_endpoint_mean,
                                    marginal_velocity])
    def test_a_list_of_conditions_is_rejected(self, fn):
        x = np.array([[0.3, 0.2], [1.0, 0.0]])
        with pytest.raises(ValueError, match=r"Condition or \(2, 2\) log-weight rows, not list"):
            fn(x, 0.5, two_diracs(), [Condition.of("a"), Condition.null()])


class TestEndpointConditionalVelocity:
    def test_on_target_is_zero(self):
        x = np.array([1.0, 0.0])
        for t in (0.1, 0.5, 1.0):
            assert np.allclose(endpoint_conditional_velocity(x, t, x), 0.0)

    def test_toward_noise_end(self):
        v = endpoint_conditional_velocity(np.array([2.0, 0.0]), 0.5, np.zeros(2))
        assert np.allclose(v, [4.0, 0.0], atol=1e-15)

    def test_singular_at_target_time(self):
        with pytest.raises(TerminalTimeError, match="conditional field singular"):
            endpoint_conditional_velocity(np.zeros(2), 0.0, np.ones(2))


class TestMixtureValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GaussianMixture([0.5, 0.4], [[0.0], [1.0]], [0.1, 0.1], ["a", "b"])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="strictly positive"):
            GaussianMixture([1.0, 0.0], [[0.0], [1.0]], [0.1, 0.1], ["a", "b"])

    def test_variances_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            GaussianMixture([1.0], [[0.0]], [-0.1], ["a"])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="matching lengths"):
            GaussianMixture([1.0], [[0.0], [1.0]], [0.1, 0.1], ["a", "b"])

    def test_mixture_keeps_read_only_copies_of_its_arrays(self):
        weights, variances = np.array([0.5, 0.5]), np.array([0.05, 0.05])
        means = np.array([[2.0, 0.0], [-2.0, 0.0]])
        mix = GaussianMixture(weights, means, variances, ["A", "B"])
        x = np.array([0.5, 0.3])
        want = marginal_velocity(x, 0.5, mix)
        weights[:], means[0], variances[:] = [0.9, 0.1], [5.0, 0.0], 0.2
        assert np.array_equal(marginal_velocity(x, 0.5, mix), want)
        assert np.array_equal(mix.mean_sq, [4.0, 4.0])
        for name in ("weights", "means", "variances"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(mix, name)[0] = 1.0

    def test_unknown_condition_label(self):
        with pytest.raises(ValueError, match="not in mixture"):
            Condition.of("zzz").select(two_diracs())

    def test_empty_condition_selects_nothing(self):
        with pytest.raises(ValueError, match="selects no components"):
            Condition(frozenset()).select(two_diracs())


class TestSampling:
    def test_conditioned_sampling_respects_labels(self):
        rng = np.random.default_rng(0)
        x, labels = sample_mixture(two_diracs(), 50, rng, Condition.of("a"))
        assert set(labels) == {"a"}
        assert np.allclose(x, [1.0, 0.0])

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
    """A small random mixture, a condition on it, a single point or a batch, and t."""
    mixture = draw(small_mixtures())
    cond = draw(conditions(mixture))
    d = mixture.dim
    shape = d if draw(st.booleans()) else (draw(st.integers(1, 4)), d)
    x = draw(arrays(float, shape, elements=st.floats(-4.0, 4.0)))
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
        r = np.atleast_2d(responsibilities(x, t, mixture, cond))
        idx = cond.select(mixture)
        mu, var = mixture.means[idx], mixture.variances[idx]
        s2 = (1.0 - t) ** 2 + t**2 * var
        xb = np.atleast_2d(x)
        endpoints = (mu[None, :, :]
                     + (t * var / s2)[None, :, None] * (xb[:, None, :] - t * mu[None, :, :]))
        expected = np.sum(r[:, :, None] * endpoints, axis=1)
        got = posterior_endpoint_mean(x, t, mixture, cond)
        assert got.shape == x.shape
        scale = max(np.abs(endpoints).max(), 1.0)
        assert np.max(np.abs(np.atleast_2d(got) - expected)) <= 1e-12 * scale

    @settings(deadline=None)
    @given(field_cases())
    def test_prompt_of_every_label_is_the_null_field(self, case):
        mixture, _, x, t = case
        everything = Condition.of(*mixture.labels)
        assert np.array_equal(marginal_velocity(x, t, mixture, everything),
                              marginal_velocity(x, t, mixture, Condition.null()))

    @settings(deadline=None)
    @given(batch_cases())
    def test_batch_rows_equal_single_point_calls(self, case):
        mixture, conds, x, t = case
        cond = conds[0]
        batch = posterior_endpoint_mean(x, t, mixture, cond)
        tol = 1e-12 * _scale(mixture, x)
        for i, point in enumerate(x):
            single = posterior_endpoint_mean(point, t, mixture, cond)
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
        for cond in set(conds):
            rows = [i for i, c in enumerate(conds) if c == cond]
            kept = np.isin(np.arange(mixture.n_components), cond.select(mixture))
            assert np.all(r[np.ix_(rows, ~kept)] == 0.0)
            one = responsibilities(x[rows], t, mixture, cond)
            assert np.max(np.abs(r[np.ix_(rows, kept)] - one)) <= 1e-12
            one_mean = posterior_endpoint_mean(x[rows], t, mixture, cond)
            assert np.max(np.abs(means[rows] - one_mean)) <= tol

    @settings(deadline=None)
    @given(batch_cases())
    def test_gemm_form_matches_the_direct_oracle(self, case):
        mixture, conds, x, t = case
        cond = conds[0]
        _, r_direct, m_direct = direct_field(x, t, mixture, cond)
        assert np.max(np.abs(responsibilities(x, t, mixture, cond) - r_direct)) <= 1e-12
        got = posterior_endpoint_mean(x, t, mixture, cond)
        assert np.max(np.abs(got - m_direct)) <= 1e-12 * _scale(mixture, x)


# Values that tie within a row, non-finite entries, and magnitudes up to 1e5.
_LSE_ENTRIES = st.one_of(st.sampled_from([0.0, 1.0, -2.5, -np.inf, np.inf, np.nan]),
                         st.floats(-1e5, 1e5))


@st.composite
def logsumexp_rows(draw):
    """An (n, K) array drawn from _LSE_ENTRIES, sometimes with a row of only -inf."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    a = draw(arrays(float, (n, k), elements=_LSE_ENTRIES))
    if draw(st.booleans()):
        a[draw(st.integers(0, n - 1))] = -np.inf
    return a


class TestLogsumexpReplica:
    @settings(deadline=None, max_examples=500)
    @given(logsumexp_rows())
    def test_bitwise_equal_to_scipy(self, a):
        got = _logsumexp_rows(a)
        want = logsumexp(a, axis=1, keepdims=True)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)

    def test_non_finite_rows(self):
        a = np.array([[-np.inf, -np.inf], [np.inf, 0.0], [np.nan, 1.0], [3.0, 3.0]])
        got = _logsumexp_rows(a)
        assert got[0, 0] == -np.inf and got[1, 0] == np.inf and np.isnan(got[2, 0])
        assert got[3, 0] == 3.0 + np.log(2.0)


class TestAffineVelocity:
    """marginal_velocity folds 1/(1-t) into the endpoint mean's coefficients."""

    @staticmethod
    def _check(x, t, mixture, cond):
        want = (posterior_endpoint_mean(x, t, mixture, cond) - x) / (1.0 - t)
        got = marginal_velocity(x, t, mixture, cond)
        assert got.shape == np.shape(x)
        assert np.max(np.abs(got - want)) <= 1e-12 * _scale(mixture, x) / (1.0 - t)

    @settings(deadline=None)
    @given(field_cases())
    def test_equals_the_endpoint_mean_form(self, case):
        mixture, cond, x, t = case
        self._check(x, t, mixture, cond)

    @settings(deadline=None)
    @given(batch_cases())
    def test_equals_the_endpoint_mean_form_per_row(self, case):
        mixture, conds, x, t = case
        self._check(x, t, mixture, np.stack([mixture.log_weights(c) for c in conds]))

    def test_shapes32_batch_near_the_terminal_time(self):
        mixture, x, t = TestGemmPrecision()._case()
        for cond in (Condition.null(), Condition.of("disk")):
            self._check(x, t, mixture, cond)


def cold(mixture):
    """A copy of mixture with empty caches."""
    return GaussianMixture(mixture.weights, mixture.means, mixture.variances, mixture.labels)


def inline_velocity(x, t, mixture, cond):
    """marginal_velocity at t < 1 - EPS_T with its per-time constants computed at
    every call, as the field computed them before they were cached."""
    xb = np.atleast_2d(x)
    logw = np.broadcast_to(mixture.log_weights(cond), (len(xb), mixture.n_components))
    var = mixture.variances
    s2 = (1.0 - t) ** 2 + t**2 * var
    sq = _sq_distances(xb, t, mixture.means, (t * t) * mixture.mean_sq)
    logp = logw - 0.5 * mixture._ambient_dim * np.log(2.0 * np.pi * s2) - sq / (2.0 * s2)
    r = np.exp(logp - _logsumexp_rows(logp))
    coef = t * var / s2
    out = ((r * ((1.0 - t * coef) / (1.0 - t))) @ mixture.means
           + ((r @ coef - 1.0) / (1.0 - t))[:, None] * xb)
    return out.reshape(np.shape(x))


def field_values(x, t, mixture, cond):
    """Responsibilities, endpoint mean and velocity at (x, t), or the error each raises."""
    out = []
    for fn in (responsibilities, posterior_endpoint_mean, marginal_velocity):
        try:
            out.append(fn(x, t, mixture, cond))
        except ValueError as exc:
            out.append(str(exc))
    return out


class TestNodeCache:
    """Each mixture keeps the field's per-time constants, which must not move a bit.

    A time past 1 - EPS_T (the t = 1 draws) is cached as the clamped time."""

    @settings(deadline=None)
    @given(field_cases(), st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    @example((two_diracs(), Condition.null(), np.array([[1.0, 0.0], [-1.0, 0.0]]), 0.5), 1.0)
    @example((two_diracs(), Condition.of("a"), np.array([0.2, 0.1]), 0.5), 1.0)
    def test_warm_cache_is_bitwise_the_cold_one(self, case, t):
        mixture, cond, x, _ = case
        first = field_values(x, t, mixture, cond)
        mixture._node(0.5)
        warm = field_values(x, t, mixture, cond)
        fresh = field_values(x, t, cold(mixture), cond)
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
        want = inline_velocity(x, t, mixture, cond)
        assert np.array_equal(marginal_velocity(x, t, mixture, cond), want)
        assert np.array_equal(marginal_velocity(x, t, mixture, cond), want)

    def test_bounded_over_many_times(self):
        mixture = two_diracs()
        x = np.array([[0.3, -0.2], [1.5, 0.4]])
        times = np.linspace(0.0, 1.0 - EPS_T, 3000)
        first = [marginal_velocity(x, float(t), mixture) for t in times[:5]]
        for t in times:
            marginal_velocity(x, float(t), mixture)
            assert len(mixture._nodes) <= _MAX_NODES
        again = [marginal_velocity(x, float(t), mixture) for t in times[:5]]
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
