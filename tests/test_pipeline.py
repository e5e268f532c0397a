"""Dual-path inversion and steered-generation tests, including frozen
regression values."""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pdls import pipeline
from pdls.cli import main as cli_main
from pdls.datasets import exemplar_mixture, shapes32_dataset, shapes32_mixture, toy2d_mixture
from pdls.degrade import GaussianBlur, NoiseModel, apply
from pdls.flowfield import (
    EPS_T,
    Condition,
    GaussianMixture,
    marginal_velocity,
    sample_mixture,
    _node_at,
    _posterior,
)
from pdls.integrate import DriftDivergedError, Trajectory, integrate, make_grid
from pdls.metrics import psnr
from pdls.pipeline import (
    BASE_CONDITIONS,
    INIT_MODES,
    DualPaths,
    PdlsConfig,
    draw_noise,
    dual_invert,
    invert_path,
    restore,
    steered_generate,
)

GOLDEN_INVERT_TERMINAL = np.array([0.07076624882460193, 0.357820349991497])
GOLDEN_RESTORED = np.array([1.815243275374944, 0.13431342014281736])


class TestInvertPath:
    def test_full_strength_lands_on_the_noise_draw(self):
        mix = toy2d_mixture()
        obs, null = np.array([[1.9, 0.1]]), mix.log_weights(Condition.null())[None]
        z0 = draw_noise(2, 42)
        for n in (7, 28, 100):
            traj = invert_path(obs, mix, null, PdlsConfig(gamma=1.0, n_steps=n), z0[None])
            assert np.linalg.norm(traj.terminal - z0) / np.linalg.norm(z0) < 1e-9

    def test_zero_strength_from_a_dirac_mean_stays_put(self):
        mix = GaussianMixture([1.0], [[1.5, -0.5]], [0.0], ["d"])
        traj = invert_path(np.array([[1.5, -0.5]]), mix, mix.log_weights(Condition.null())[None],
                           PdlsConfig(gamma=0.0, n_steps=200), draw_noise(2, 0)[None])
        # The marginal field vanishes on the Dirac mean, so the reverse
        # flow holds it fixed to first order.
        assert np.linalg.norm(traj.terminal - [1.5, -0.5]) < 1e-6

    def test_golden_regression(self):
        mix = toy2d_mixture()
        null = mix.log_weights(Condition.null())[None]
        traj = invert_path(np.array([[1.7, 0.3]]), mix, null,
                           PdlsConfig(gamma=0.5, n_steps=28), draw_noise(2, 7)[None])
        assert np.allclose(traj.terminal, GOLDEN_INVERT_TERMINAL, atol=1e-9)
        # Doubling the step count moves the terminal only by a first-order
        # amount, so the locked value is step-size-consistent.
        fine = invert_path(np.array([[1.7, 0.3]]), mix, null,
                           PdlsConfig(gamma=0.5, n_steps=56), draw_noise(2, 7)[None])
        assert np.linalg.norm(traj.terminal - fine.terminal) < 0.05

    def test_a_noise_draw_of_another_shape_is_rejected(self):
        mix = toy2d_mixture()
        with pytest.raises(ValueError, match="z0 must have the shape of observed"):
            invert_path(np.array([[1.7, 0.3]]), mix, mix.log_weights(Condition.null())[None],
                        PdlsConfig(), np.zeros((1, 3)))

    def test_grid_descends_over_full_interval(self):
        mix = toy2d_mixture()
        traj = invert_path(np.array([[1.7, 0.3]]), mix, mix.log_weights(Condition.null())[None],
                           PdlsConfig(gamma=0.5, n_steps=10), draw_noise(2, 0)[None])
        assert traj.nodes[0] == 1.0
        assert traj.nodes[-1] == 0.0


def one_row(structural, semantic):
    """A one-row DualPaths on a one-step descending grid, from the node states
    (2, dim) of its structural and semantic paths."""
    states = np.stack([structural, semantic], axis=1).astype(float)
    return DualPaths(Trajectory(make_grid(1, 1.0, 0.0), states), np.array([1]),
                     (Condition.of("A"),))


class TestDualInvert:
    def test_all_label_prompt_collapses_the_paths(self):
        mix = toy2d_mixture()
        paths = dual_invert(np.array([[1.8, 0.2]]), mix, [Condition.of("A", "B")],
                            PdlsConfig(), draws([3], 2))
        states = paths.inversion.states
        assert np.array_equal(states[:, 0], states[:, paths.pair[0]])

    def test_full_strength_makes_latents_identical(self):
        mix = toy2d_mixture()
        paths = dual_invert(np.array([[1.8, 0.2]]), mix, [Condition.of("A")],
                            PdlsConfig(gamma=1.0), draws([3], 2))
        z0 = draw_noise(2, 3)
        end = paths.inversion.terminal
        assert np.allclose(end[0], z0, atol=1e-9)
        assert np.allclose(end[paths.pair[0]], z0, atol=1e-9)

    def test_null_prompt_row_is_its_own_semantic_row(self):
        paths = dual_invert(np.zeros((3, 2)), toy2d_mixture(),
                            [Condition.of("A"), Condition.null(), Condition.of("B")],
                            PdlsConfig(n_steps=4), draws([0, 1, 2], 2))
        assert paths.pair.tolist() == [3, 1, 4]
        assert paths.inversion.states.shape == (5, 5, 2)

    def test_log_weights_hold_null_rows_then_each_prompts_row(self):
        mix = GaussianMixture([0.2, 0.3, 0.5], [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]],
                              [0.1, 0.1, 0.1], ["A", "B", "B"])
        prompts = [Condition.of("B"), Condition.null(), Condition.of("A"), Condition.of("A", "B")]
        paths = dual_invert(np.zeros((4, 2)), mix, prompts, PdlsConfig(n_steps=4),
                            draws(range(4), 2))
        assert paths.log_weights.shape == (len(paths.inversion.states[0]), 3)
        for i, prompt in enumerate(prompts):
            assert np.array_equal(paths.log_weights[i], mix.log_weights(Condition.null()))
            assert np.array_equal(paths.log_weights[paths.pair[i]], mix.log_weights(prompt))

    def test_one_point_is_not_a_batch(self):
        with pytest.raises(ValueError, match="batch"):
            dual_invert(np.array([1.8, 0.2]), toy2d_mixture(), [Condition.of("A")],
                        PdlsConfig(), draw_noise(2, 3))

    @pytest.mark.parametrize("prompts", [["A", "B"], [Condition.of("A"), None]])
    def test_a_prompt_that_is_not_a_condition_is_rejected(self, prompts):
        with pytest.raises(ValueError, match="one Condition prompt per row"):
            dual_invert(np.zeros((2, 2)), toy2d_mixture(), prompts, PdlsConfig(),
                        np.ones((2, 2)))

    @pytest.mark.parametrize("shape", [(2,), (1, 2), (3, 3), (2, 2, 1)])
    def test_noise_draws_of_the_wrong_shape_are_rejected(self, shape):
        with pytest.raises(ValueError, match="noise draw"):
            dual_invert(np.zeros((2, 2)), toy2d_mixture(), [Condition.of("A")] * 2,
                        PdlsConfig(), np.ones(shape))

    def test_semantic_path_pins_the_prompted_component(self):
        mix = GaussianMixture([0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]],
                              [0.0, 0.0], ["a", "b"])
        obs = np.array([[0.9, 0.05]])
        paths = dual_invert(obs, mix, [Condition.of("a")], PdlsConfig(gamma=0.5), draws([1], 2))
        semantic = paths.inversion.states[:, paths.pair[0]]
        prompt = mix.log_weights(Condition.of("a"))[None]
        for state, t in zip(semantic, paths.inversion.nodes):
            if t >= 1.0 - 1e-9 or t <= 1e-9:
                continue
            m = state + (1.0 - t) * marginal_velocity(state[None], float(t), mix, prompt)[0]
            assert np.allclose(m, [1.0, 0.0], atol=1e-12)
        # The structural path keeps nonzero responsibility on the other
        # component for an observation between the two.
        mid = np.array([[0.1, 0.0]])
        r = _posterior(mid, _node_at(mix, 0.5)[0], mix.log_weights(Condition.null()))
        assert r[0, 1] > 1e-6


class TestAveragedTarget:
    def test_identical_paths_return_the_common_state(self):
        paths = one_row([[1.0, 2.0]] * 2, [[1.0, 2.0]] * 2)
        assert np.allclose(paths.targets[0], [[1.0, 2.0]])

    def test_midpoint(self):
        paths = one_row([[0.0, 0.0]] * 2, [[2.0, 4.0]] * 2)
        assert np.allclose(paths.targets[1], [[1.0, 2.0]])

    def test_equidistant_from_both_paths(self):
        mix = toy2d_mixture()
        paths = dual_invert(np.array([[1.6, 0.4]]), mix, [Condition.of("A")],
                            PdlsConfig(), draws([5], 2))
        states = paths.inversion.states
        for j in range(paths.inversion.nodes.size):
            ybar = paths.targets[j, 0]
            da = np.linalg.norm(ybar - states[j, 0])
            db = np.linalg.norm(ybar - states[j, paths.pair[0]])
            assert da == pytest.approx(db, abs=1e-12)

    def test_a_slice_gives_the_targets_of_its_nodes(self):
        states = np.arange(24.0).reshape(4, 3, 2)
        paths = DualPaths(Trajectory(make_grid(3, 1.0, 0.0), states), np.array([2, 1]),
                          (Condition.of("A"), Condition.null()))
        for j in (slice(None), slice(None, None, -1), slice(1, 3)):
            want = np.stack([0.5 * (states[i, :2] + states[i, [2, 1]]) for i in range(4)[j]])
            assert np.array_equal(paths.targets[j], want)

    def test_index_out_of_range(self):
        paths = one_row([[0.0, 0.0]] * 2, [[1.0, 1.0]] * 2)
        with pytest.raises(IndexError):
            paths.targets[5]


class TestInitialLatent:
    def test_modes(self):
        paths = one_row([[9.0, 9.0], [1.0, 0.0]], [[9.0, 9.0], [3.0, 2.0]])
        assert np.allclose(paths.latents("structural"), [[1.0, 0.0]])
        assert np.allclose(paths.latents("semantic"), [[3.0, 2.0]])
        assert np.allclose(paths.latents("mixed"), [[2.0, 1.0]])


class TestSteeredGenerate:
    def test_zero_strength_is_pure_flow(self):
        from pdls.flowfield import marginal_velocity

        mix = toy2d_mixture()
        paths = dual_invert(np.array([[1.7, 0.3]]), mix, [Condition.of("A")],
                            PdlsConfig(eta_max=0.0), draws([2], 2))
        gen = steered_generate(paths, mix, PdlsConfig(eta_max=0.0))
        grid = make_grid(28, 0.0, 1.0)
        plain = integrate(
            paths.inversion.terminal[:1], grid,
            lambda x, t, k: marginal_velocity(x, t, mix, mix.log_weights(Condition.of("A"))[None]),
        )
        assert np.allclose(gen.states[:, 0], plain.states[:, 0], atol=1e-12)

    def test_mismatched_grid_rejected(self):
        mix = toy2d_mixture()
        grid = make_grid(4, 0.9, 0.1)
        traj = Trajectory(grid, np.zeros((5, 1, 2)))
        paths = DualPaths(traj, np.array([0]), np.stack([mix.log_weights(Condition.of("A"))]))
        with pytest.raises(ValueError, match="reversal of the generation grid"):
            steered_generate(paths, mix, PdlsConfig(n_steps=4))

    def test_full_strength_retraces_the_stored_line(self):
        # Stored paths are the exact straight line between the observation
        # and z0. Full-strength control toward the node each step lands on
        # retraces the line exactly: the final step's contraction factor is
        # zero, so the terminal state equals the observation.
        mix = GaussianMixture([1.0], [[2.0, 1.0]], [0.0], ["d"])
        obs = np.array([2.0, 1.0])
        z0 = np.array([-0.5, 0.25])
        n = 16
        grid = make_grid(n, 1.0, 0.0)
        line = np.array([[z0 + t * (obs - z0)] for t in grid])
        paths = DualPaths(Trajectory(grid, line), np.array([0]),
                          np.stack([mix.log_weights(Condition.of("d"))]))
        cfg = PdlsConfig(eta_max=1.0, schedule_kind="constant", n_steps=n)
        gen = steered_generate(paths, mix, cfg)
        assert np.linalg.norm(gen.terminal[0] - obs) < 1e-9

    @pytest.mark.xfail(
        strict=True,
        reason="at the default cosine schedule the stored-path information "
        "about the observation sits near t=1 where the steering strength "
        "has decayed; win rates stay near 50% for every gamma probed",
    )
    def test_steering_beats_unsteered_generation(self):
        mix = toy2d_mixture()
        wins = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            clean, labels = sample_mixture(mix, 1, rng)
            obs, label = clean[0], labels[0]
            steered = restore(obs, mix, Condition.of(label), PdlsConfig(), seed)
            plain = restore(obs, mix, Condition.of(label),
                            PdlsConfig(eta_max=0.0), seed)
            if psnr(steered.restored, obs) > psnr(plain.restored, obs):
                wins += 1
        assert wins >= 40


class TestRestore:
    def test_round_trip_identity(self):
        mix = toy2d_mixture()
        rng = np.random.default_rng(0)
        obs, labels = sample_mixture(mix, 1, rng)
        obs = obs[0]
        res = restore(obs, mix, Condition.null(),
                      PdlsConfig(gamma=0.0, eta_max=0.0, n_steps=400), seed=0)
        assert np.linalg.norm(res.restored - obs) < 0.05

    def test_golden_regression(self):
        mix = toy2d_mixture()
        res = restore(np.array([1.7, 0.3]), mix, Condition.of("A"), PdlsConfig(), seed=7)
        assert np.allclose(res.restored, GOLDEN_RESTORED, atol=1e-9)
        fine = restore(np.array([1.7, 0.3]), mix, Condition.of("A"),
                       PdlsConfig(n_steps=56), seed=7)
        assert np.linalg.norm(res.restored - fine.restored) < 0.02

    def test_seed_determinism(self):
        mix = toy2d_mixture()
        a = restore(np.array([1.2, -0.3]), mix, Condition.of("B"), PdlsConfig(), seed=9)
        b = restore(np.array([1.2, -0.3]), mix, Condition.of("B"), PdlsConfig(), seed=9)
        assert np.array_equal(a.restored, b.restored)
        assert np.array_equal(a.generated.states, b.generated.states)

    def test_null_prompt_collapses_to_single_path(self):
        mix = toy2d_mixture()
        res = restore(np.array([1.5, 0.0]), mix, Condition.null(), PdlsConfig(), seed=4)
        assert np.array_equal(res.structural.states, res.semantic.states)

    def test_diagnostics_cover_every_node(self):
        mix = toy2d_mixture()
        cfg = PdlsConfig(n_steps=12)
        res = restore(np.array([1.5, 0.0]), mix, Condition.of("A"), cfg, seed=4)
        assert len(res.diagnostics) == 13
        steps, times, etas, dists = zip(*res.diagnostics)
        assert steps == tuple(range(13))
        assert times[0] == 0.0 and times[-1] == 1.0
        assert etas[0] == pytest.approx(cfg.eta_max)
        assert etas[-1] == pytest.approx(0.0, abs=1e-12)
        assert all(d >= 0 for d in dists)
        assert np.linalg.norm(res.structural.terminal) > 0
        assert np.linalg.norm(res.semantic.terminal) > 0

    def test_batch_rows_equal_single_restores(self):
        mix = toy2d_mixture()
        obs = np.array([[1.7, 0.3], [-1.5, 0.2], [1.5, 0.0], [0.2, -0.4]])
        prompts = [Condition.of("A"), Condition.of("B"), Condition.null(), Condition.of("A")]
        seeds = [7, 8, 4, 7]
        results = restore(obs, mix, prompts, PdlsConfig(), seeds)
        assert len(results) == 4
        for x, prompt, seed, res in zip(obs, prompts, seeds, results):
            one = restore(x, mix, prompt, PdlsConfig(), seed)
            for got, want in ((res.restored, one.restored),
                              (res.structural.states, one.structural.states),
                              (res.semantic.states, one.semantic.states),
                              (res.generated.states, one.generated.states)):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert np.allclose(np.array(res.diagnostics), np.array(one.diagnostics),
                               rtol=1e-12, atol=1e-14)
        assert results[2].semantic is results[2].structural
        assert np.allclose(results[0].restored, GOLDEN_RESTORED, atol=1e-9)

    def test_batch_needs_one_prompt_and_seed_per_row(self):
        mix = toy2d_mixture()
        with pytest.raises(ValueError, match="one prompt and one seed per row"):
            restore(np.zeros((3, 2)), mix, [Condition.null()] * 3, PdlsConfig(), [0, 1])

    def test_config_validation(self):
        with pytest.raises(ValueError, match="gamma"):
            PdlsConfig(gamma=2.0)
        with pytest.raises(ValueError, match="eta_max"):
            PdlsConfig(eta_max=1.5)
        with pytest.raises(ValueError, match="init_mode"):
            PdlsConfig(init_mode="other")
        with pytest.raises(ValueError, match="base_condition"):
            PdlsConfig(base_condition="other")
        with pytest.raises(ValueError, match="schedule_kind"):
            PdlsConfig(schedule_kind="other")

    @pytest.mark.xfail(
        strict=True,
        reason="the paper's claim on held-out images (ROADMAP item 5): over the 90 "
        "demo-seed-1 shapes32 images under gblur 7/3.0 at sigma_y 0.05, with label "
        "prompts on the builtin mixture and seed i for image i, default steering "
        "scores a mean PSNR of 27.08 dB against 29.18 dB at eta_max=0, and wins 26 of 90",
    )
    def test_steering_beats_eta_max_0_on_held_out_images(self):
        data = shapes32_dataset(30, seed=1)
        observed = np.stack([apply(GaussianBlur(7, 3.0), img, NoiseModel(0.05, seed=i)).flatten()
                             for i, (img, _) in enumerate(data)])
        prompts = [Condition.of(label) for _, label in data]
        mixture, seeds = shapes32_mixture(), list(range(len(data)))

        def mean_psnr(config):
            results = restore(observed, mixture, prompts, config, seeds)
            return np.mean([psnr(np.clip(r.restored, 0.0, 1.0), img.flatten())
                            for r, (img, _) in zip(results, data)])

        assert mean_psnr(PdlsConfig()) > mean_psnr(PdlsConfig(eta_max=0.0))

    def test_step_count_is_bounded_by_the_conditional_field(self):
        # The inversion's last drift runs at t = 1 / n_steps, which must not
        # fall below EPS_T.
        limit = round(1 / EPS_T)
        with pytest.raises(ValueError, match=r"n_steps .*EPS_T"):
            PdlsConfig(n_steps=limit + 1)
        res = restore(np.array([1.7, 0.3]), toy2d_mixture(), Condition.of("A"),
                      PdlsConfig(n_steps=limit), seed=7)
        assert np.all(np.isfinite(res.restored))
        assert len(res.diagnostics) == limit + 1


def manifest_batch():
    """Every shapes32 exemplar blurred by GaussianBlur(7, 1.5) with NoiseModel(0.01,
    seed=i): the observations (90, 1024), the mixture, the labels and seeds 0-89."""
    data = shapes32_dataset()
    obs = np.stack([apply(GaussianBlur(7, 1.5), img, NoiseModel(0.01, seed=i)).flatten()
                    for i, (img, _) in enumerate(data)])
    return obs, shapes32_mixture(), [label for _, label in data], list(range(len(data)))


def draws(seeds, dim):
    """(n, dim) noise draws of the seeds, as restore() makes them."""
    return np.stack([draw_noise(dim, s) for s in seeds])


def full_space_restore(obs, mixture, prompts, config, z0):
    """restore() composed from the public full-space invert_path and steered_generate,
    with the noise draws z0 (n, d).

    Gives the batch's DualPaths and the (n_steps + 1, n, d) generated states.
    """
    n = len(prompts)
    rows = [i for i, p in enumerate(prompts) if not p.is_null]
    conds = [Condition.null()] * n + [prompts[i] for i in rows]
    log_weights = np.stack([mixture.log_weights(c) for c in conds])
    structural = invert_path(obs, mixture, log_weights[:n], config, z0)
    states, pair = structural.states, np.arange(n)
    if rows:
        inv = invert_path(obs[rows], mixture, log_weights[n:], config, z0[rows])
        states = np.concatenate([states, inv.states], axis=1)
        pair[rows] = np.arange(n, n + len(rows))
    paths = DualPaths(Trajectory(structural.nodes, states), pair, log_weights)
    return paths, steered_generate(paths, mixture, config).states


def assert_restores_match(results, paths, generated, trajectory_rtol=1e-12):
    """restore()'s results equal a full-space composition's rows within 1e-12 of
    each row's largest magnitude: restored, the noise-end latents' norms, and
    the lifted trajectories within trajectory_rtol."""
    states = paths.inversion.states
    for i, res in enumerate(results):
        j = paths.pair[i]
        for got, ref, rtol in ((res.restored, generated[-1, i], 1e-12),
                               (res.generated.states, generated[:, i], trajectory_rtol),
                               (res.structural.states, states[:, i], trajectory_rtol),
                               (res.semantic.states, states[:, j], trajectory_rtol)):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))
        for got, ref in ((res.structural.terminal, states[-1, i]),
                         (res.semantic.terminal, states[-1, j])):
            assert abs(np.linalg.norm(got) - np.linalg.norm(ref)) <= 1e-12 * np.linalg.norm(ref)


MANIFEST_ORACLE = Path(__file__).parent / "data" / "manifest_oracle.npz"


def test_a_whole_manifest_is_within_1e12_of_the_direct_form():
    # The oracle is the direct (n, K, d) form of the field, composed by
    # tests/data/make_manifest_oracle.py; every row must hold the promise.
    oracle = np.load(MANIFEST_ORACLE)
    obs, mixture, labels, seeds = manifest_batch()
    for kind, prompts in (("label", [Condition.of(lb) for lb in labels]),
                          ("null", [Condition.null()] * len(labels))):
        results = restore(obs, mixture, prompts, PdlsConfig(), seeds)
        want = oracle[f"{kind}_restored"]
        got = np.stack([r.restored for r in results])
        err = np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)
        assert np.all(err <= 1e-12), (kind, np.flatnonzero(err > 1e-12), err.max())
        want = oracle[f"{kind}_norms"]
        got = np.array([[np.linalg.norm(r.structural.terminal),
                         np.linalg.norm(r.semantic.terminal)] for r in results])
        assert np.all(np.abs(got - want) <= 1e-12 * want), kind


def test_manifest_trajectories_are_within_2e11_of_the_direct_form(monkeypatch):
    # Row 4 has the worst inversion trajectories of the whole manifest
    # (1.4e-11 of the direct form: the pipeline docstring's figure; 1.3e-11
    # with the SVD basis), row 45 had the worst restored point with the SVD
    # basis (2.9e-13); row 46 runs with a null prompt.
    rows = [4, 15, 45, 46]
    obs, mixture, labels, seeds = manifest_batch()
    obs, seeds = obs[rows], [seeds[i] for i in rows]
    prompts = [Condition.of(labels[i]) for i in rows[:-1]] + [Condition.null()]
    results = restore(obs, mixture, prompts, PdlsConfig(), seeds)
    spec = importlib.util.spec_from_file_location(
        "make_manifest_oracle", MANIFEST_ORACLE.with_name("make_manifest_oracle.py"))
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    monkeypatch.setattr(pipeline, "marginal_velocity", oracle.direct_velocity)
    paths, generated = full_space_restore(obs, mixture, prompts, PdlsConfig(),
                                          draws(seeds, obs.shape[1]))
    assert_restores_match(results, paths, generated, trajectory_rtol=2e-11)


TRUTH = MANIFEST_ORACLE.with_name("truth.npz")
# How much further from the extended-precision truth than the float64 direct
# form the pipeline may be, per array at the worst row of each over a case
# set, and per row. A row within 1e-12 (the output rule) passes whatever its
# direct-form error, which is under 1e-15 on some rows. At the parent of the
# field's folded node constants the worst-row ratio was 1.82 (the manifest's
# restored points), and 1.87 after (the manifest's semantic trajectories);
# the largest row ratio above 1e-12 is 1.87 (manifest row 4's structural
# path, 2.78e-11 against 1.49e-11).
TRUTH_FACTOR = 3.0


def data_script(name):
    """The module of tests/data/<name>.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(name, TRUTH.with_name(f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_restores_are_as_close_to_the_truth_as_the_direct_form(monkeypatch):
    # tests/data/make_truth.py recomputes these rows in longdouble from the
    # same float64 inputs. The direct form of the field makes rounding errors
    # of its own, so the pipeline's worst row of each array is held to a
    # multiple of the direct form's worst row, and each row to that multiple
    # of the direct form's error on it or to 1e-12, whichever is more.
    truth, cases = np.load(TRUTH), data_script("make_truth")
    direct = data_script("make_manifest_oracle").direct_velocity
    for name, (obs, mixture, prompts, seeds) in (("manifest", cases.manifest_cases()),
                                                 ("toy", cases.toy_cases())):
        results = restore(obs, mixture, prompts, PdlsConfig(), seeds)
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "marginal_velocity", direct)
            paths, generated = full_space_restore(obs, mixture, prompts, PdlsConfig(),
                                                  draws(seeds, obs.shape[1]))
        states, errs = paths.inversion.states, {}
        for i, res in enumerate(results):
            j = paths.pair[i]
            for kind, got, ref in (("restored", res.restored, generated[-1, i]),
                                   ("structural", res.structural.states, states[:, i]),
                                   ("semantic", res.semantic.states, states[:, j]),
                                   ("generated", res.generated.states, generated[:, i])):
                want = truth[f"{name}_{kind}"][i]
                err, ref_err = (np.max(np.abs(a - want)) / np.max(np.abs(want))
                                for a in (got, ref))
                print(f"{name} row {i} {kind}: pipeline {err:.2e}, "
                      f"direct form {ref_err:.2e} from the truth")
                assert err <= max(TRUTH_FACTOR * ref_err, 1e-12), (name, i, kind, err, ref_err)
                errs.setdefault(kind, []).append((err, ref_err))
        for kind, pairs in errs.items():
            worst, ref_worst = np.max(pairs, axis=0)
            assert worst <= TRUTH_FACTOR * ref_worst, (name, kind, worst, ref_worst)


@st.composite
def restore_cases(draw):
    """A small mixture with unequal variances, a batch, prompts, a config.

    d runs from 1 to K + 5 and the means have a drawn rank r in [0, K]
    (coefficients (K, r) times a basis (r, d)), so both frames are drawn:
    the identity where r + 2 >= d or d <= 3, and reduced coordinates
    elsewhere, K + 2 >= d among them.

    Cases whose exponent is ill-conditioned anywhere along the full-space
    paths are rejected later, as batch_cases in test_flowfield does. The
    step count stays at its default: the first inversion step multiplies
    the field's rounding by dt / (1 - t) at t = 1 - EPS_T, about 36 at 28
    steps but 500 at 2.
    """
    k = draw(st.integers(2, 3))
    d = draw(st.integers(1, k + 5))
    r = draw(st.integers(0, k))
    means = (draw(arrays(float, (k, r), elements=st.floats(-1.0, 1.0)))
             @ draw(arrays(float, (r, d), elements=st.floats(-2.0, 2.0))))
    variances = draw(st.floats(0.1, 0.5)) + np.concatenate(
        [[0.0], draw(arrays(float, k - 1, elements=st.floats(0.05, 0.5)))])
    weights = draw(arrays(float, k, elements=st.floats(0.1, 1.0)))
    labels = draw(st.lists(st.sampled_from("AB"), min_size=k, max_size=k))
    mixture = GaussianMixture(weights / weights.sum(), means, variances, labels)
    n = draw(st.integers(1, 3))
    obs = draw(arrays(float, (n, d), elements=st.floats(-2.0, 2.0)))
    null = draw(st.booleans())
    prompts = [Condition.null() if null or draw(st.booleans())
               else Condition.of(draw(st.sampled_from(labels))) for _ in range(n)]
    config = PdlsConfig(init_mode=draw(st.sampled_from(INIT_MODES)),
                        base_condition=draw(st.sampled_from(BASE_CONDITIONS)))
    seeds = draw(st.lists(st.integers(0, 1 << 16), min_size=n, max_size=n))
    return obs, mixture, prompts, config, seeds


def exponent_conditioning(mixture, paths, generated):
    """kappa = max (||x||^2 + t^2 ||mu_k||^2) / s_k^2 over every state the field sees."""
    kappa = 0.0
    inv_nodes = paths.inversion.nodes
    for states, nodes in ((paths.inversion.states, inv_nodes), (generated, inv_nodes[::-1])):
        for x, t in zip(states, np.minimum(nodes, 1.0 - EPS_T)):
            s2 = (1.0 - t) ** 2 + t**2 * mixture.variances
            sq = np.sum(x * x, axis=1)[:, None] + t**2 * mixture.mean_sq[None, :]
            kappa = max(kappa, float(np.max(sq / s2)))
    return kappa


# An observation whose squares underflow: unscaled, its norm is off, and so
# is the unit length of its direction (by up to 8e-7).
TINY_CASE = (np.full((1, 5), 3.75e-159),
             GaussianMixture([0.4, 0.6], [[1.0, -0.5, 0.3, 0.0, 1.2],
                                          [-0.7, 0.2, 0.9, -1.1, 0.4]], [0.2, 0.35], ["A", "B"]))


class TestReducedCoordinates:
    @settings(max_examples=100, deadline=None)
    @given(restore_cases())
    @example(TINY_CASE + ([Condition.of("A")], PdlsConfig(), [0]))
    @example(TINY_CASE + ([Condition.null()], PdlsConfig(), [0]))
    def test_restore_equals_the_full_space_composition(self, case):
        obs, mixture, prompts, config, seeds = case
        paths, generated = full_space_restore(obs, mixture, prompts, config,
                                              draws(seeds, obs.shape[1]))
        assume(exponent_conditioning(mixture, paths, generated) <= 1e3)
        results = restore(obs, mixture, prompts, config, seeds)
        assert_restores_match(results, paths, generated)

    @pytest.mark.parametrize("rank", [0, 1])
    def test_means_of_rank_below_two(self, rank):
        # All-zero means, or one mean repeated K times, at d > K + 2: the
        # basis of the means is rank columns wide.
        k, d = 3, 8
        means = np.zeros((k, d)) if rank == 0 else np.tile(np.linspace(-1.0, 1.0, d), (k, 1))
        mixture = GaussianMixture([0.2, 0.3, 0.5], means, [0.2, 0.3, 0.4], ["A", "B", "B"])
        obs = np.array([[0.3, -0.2, 0.5, 0.1, -0.4, 0.2, 0.0, 0.6], [0.1] * d])
        prompts, seeds = [Condition.of("B"), Condition.null()], [3, 4]
        results = restore(obs, mixture, prompts, PdlsConfig(), seeds)
        assert results[0]._frame.q0.shape == (d, rank)
        assert all(np.all(np.isfinite(res.restored)) for res in results)
        paths, generated = full_space_restore(obs, mixture, prompts, PdlsConfig(),
                                              draws(seeds, d))
        assert_restores_match(results, paths, generated)

    def test_shapes32_basis_has_the_rank_of_the_means(self):
        # Every exemplar is bg * 1 + (fg - bg) * mask of its class, so the
        # 90 means have rank 4.
        obs, mixture, labels, seeds = manifest_batch()
        frame = restore(obs[:1], mixture, [Condition.null()], PdlsConfig(n_steps=2),
                        seeds[:1])[0]._frame
        assert frame.q0.shape == (1024, 4)
        assert np.max(np.abs(frame.q0.T @ frame.q0 - np.eye(4))) <= 1e-14
        assert frame.mixture.dim == 6

    def test_shapes32_of_1023_exemplars_restores_at_rank_4(self):
        # K + 2 >= d = 1024, but the means keep rank 4.
        mixture = shapes32_mixture(n_per_class=341)
        obs = manifest_batch()[0][:1]
        frame = restore(obs, mixture, [Condition.null()], PdlsConfig(n_steps=2), [0])[0]._frame
        assert frame.q0.shape == (1024, 4)

    def test_the_basis_is_built_once_on_first_use(self, monkeypatch):
        # shapes32's means have rank 4 and 13 orders of magnitude between
        # their 4th and 5th singular values, so the basis comes from one eigh
        # of their Gram matrix and no SVD runs.
        calls = {"eigh": 0, "svd": 0}

        def counted(name):
            fn = getattr(np.linalg, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name))
        data = shapes32_dataset(n_per_class=2)
        for mixture in (shapes32_mixture(), exemplar_mixture(data)):
            assert mixture._reduced is None
        assert calls == {"eigh": 0, "svd": 0}
        mixture = shapes32_mixture()
        obs = np.stack([img.flatten() for img, _ in data[:2]])
        config = PdlsConfig(n_steps=2)
        first = restore(obs, mixture, [Condition.null()] * 2, config, [0, 1])[0]._frame
        assert mixture._reduced is not None
        second = restore(obs, mixture, [Condition.null()] * 2, config, [0, 1])[0]._frame
        assert second.q0 is first.q0
        assert calls == {"eigh": 1, "svd": 0}

    @pytest.mark.parametrize("smallest", [1e-3, 1e-7, 1e-10, 0.0])
    def test_the_basis_at_the_rank_edge(self, smallest):
        # Five means of d = 12 with singular values 3, 2, 1 and 3 * smallest:
        # the Gram spectrum resolves smallest = 1e-3 but not 1e-7 or 1e-10,
        # which matrix_rank still keeps. smallest = 0 is exactly rank 3:
        # dyadic means whose last two are sums of the first three.
        k, d = 5, 12
        if smallest:
            rng = np.random.default_rng(5)
            u = np.linalg.qr(rng.standard_normal((k, 4)))[0]
            v = np.linalg.qr(rng.standard_normal((d, 4)))[0]
            means = (u * (3.0 * np.array([1.0, 2 / 3, 1 / 3, smallest]))) @ v.T
        else:
            base = np.arange(3 * d).reshape(3, d) % 7 / 8.0
            means = np.vstack([base, base[0] + base[1], base[1] + base[2]])
        rank = np.linalg.matrix_rank(means)
        assert rank == (4 if smallest else 3)
        mixture = GaussianMixture(np.full(k, 0.2), means, np.full(k, 0.05), list("AABBB"))
        obs = means[[0, 3]] + 0.1 * np.sin(np.arange(d))
        prompts, seeds = [Condition.of("A"), Condition.null()], [3, 4]
        results = restore(obs, mixture, prompts, PdlsConfig(), seeds)
        q0 = results[0]._frame.q0
        assert q0.shape == (d, rank)
        assert np.max(np.abs(q0.T @ q0 - np.eye(rank))) <= 1e-14
        tol = np.linalg.norm(means, 2) * max(k, d) * np.finfo(float).eps
        assert np.linalg.norm(means - (means @ q0) @ q0.T, 2) <= tol
        paths, generated = full_space_restore(obs, mixture, prompts, PdlsConfig(),
                                              draws(seeds, d))
        assert_restores_match(results, paths, generated)

    @pytest.mark.parametrize("observation", ["exemplar", "midpoint"])
    def test_observations_in_the_span_of_the_means(self, observation):
        # The observation's own direction is rounding noise here; normalised,
        # it would not be orthogonal to the means.
        mixture = shapes32_mixture()
        labels = mixture.labels
        if observation == "exemplar":
            obs, label = mixture.means[[5]], labels[5]
        else:
            obs, label = 0.5 * (mixture.means[[3]] + mixture.means[[40]]), labels[3]
        for prompt in (Condition.of(label), Condition.null()):
            paths, generated = full_space_restore(obs, mixture, [prompt], PdlsConfig(),
                                                  draws([11], obs.shape[1]))
            results = restore(obs, mixture, [prompt], PdlsConfig(), [11])
            assert_restores_match(results, paths, generated)
            assert not results[0]._frame.dirs[0, 0].any()

    @pytest.mark.parametrize("k, d, rank", [(5, 6, 2), (8, 6, 2), (5, 6, 5), (7, 6, 6)])
    def test_many_means_restore_at_their_rank(self, k, d, rank):
        # K + 2 >= d > 3: the frame is reduced where the means' rank r gives
        # r + 2 < d (a basis from their (K, K) Gram matrix where K <= d, from
        # their (d, d) one where K > d), and is the identity where it does
        # not, holding no (d, d) array (7 full-rank means of d = 6 among them).
        rng = np.random.default_rng(7)
        means = rng.standard_normal((k, rank)) @ rng.standard_normal((rank, d))
        mixture = GaussianMixture(np.full(k, 1.0 / k), means, np.full(k, 0.05),
                                  ["A", "B"] * (k // 2) + ["A"] * (k % 2))
        obs = means[[0, 1]] + 0.1 * np.sin(np.arange(d))
        prompts, seeds = [Condition.of("A"), Condition.null()], [3, 4]
        results = restore(obs, mixture, prompts, PdlsConfig(), seeds)
        frame = results[0]._frame
        if rank + 2 >= d:
            assert frame.q0 is None and frame.dirs is None and frame.mixture is mixture
        else:
            assert frame.q0.shape == (d, rank)
        paths, generated = full_space_restore(obs, mixture, prompts, PdlsConfig(),
                                              draws(seeds, d))
        assert_restores_match(results, paths, generated)

    def test_toy2d_restores_in_the_full_space(self):
        # d <= 3: the frame is the identity, and restore() is the
        # full-space composition exactly.
        mix = toy2d_mixture()
        obs = np.array([[1.7, 0.3], [-1.5, 0.2], [1.5, 0.0]])
        prompts, seeds = [Condition.of("A"), Condition.of("B"), Condition.null()], [7, 8, 4]
        results = restore(obs, mix, prompts, PdlsConfig(), seeds)
        frame = results[0]._frame
        assert frame.q0 is None and frame.dirs is None and frame.mixture is mix
        paths, generated = full_space_restore(obs, mix, prompts, PdlsConfig(), draws(seeds, 2))
        states = paths.inversion.states
        for i, res in enumerate(results):
            assert np.array_equal(res.restored, generated[-1, i])
            assert np.array_equal(res.generated.states, generated[:, i])
            assert np.array_equal(res.structural.states, states[:, i])
            assert np.array_equal(res.semantic.states, states[:, paths.pair[i]])

    @settings(deadline=None)
    @given(arrays(float, st.tuples(st.integers(1, 12), st.just(2)),
                  elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                     st.sampled_from([-0.0, 0.0, -5e-324, 2.5e-310]))))
    def test_the_identity_frame_is_its_products_bitwise(self, x):
        # The identity frame's coordinates and lifts skip x @ I, which they
        # match byte for byte: -0.0 comes out +0.0 either way.
        frame = pipeline._Frame.of(toy2d_mixture(), x, x)
        assert frame.q0 is None
        products = pipeline._Frame(np.eye(2), np.zeros((len(x), 0, 2)), frame.mixture)
        assert frame.coords(x).tobytes() == products.coords(x).tobytes()
        assert frame.lift(x).tobytes() == products.lift(x).tobytes()
        assert frame.lift(x[:1], 0).tobytes() == products.lift(x[:1], 0).tobytes()

    def test_trajectories_are_lifted_once_on_first_access(self):
        obs, mixture, labels, seeds = manifest_batch()
        results = restore(obs[:3], mixture, [Condition.of(labels[0]), Condition.null(),
                                             Condition.of(labels[2])], PdlsConfig(), seeds[:3])
        lazy = {"structural", "semantic", "generated", "diagnostics"}
        for res in results:
            assert not lazy & set(vars(res))
            assert res.structural is res.structural and res.generated is res.generated
            assert res.generated.states.shape == (29, 1024)
            assert res.structural.states.shape == (29, 1024)
            err = np.max(np.abs(res.generated.terminal - res.restored))
            assert err <= 1e-14 * np.max(np.abs(res.restored))
        assert results[1].semantic is results[1].structural


def test_results_compare_and_hash_by_identity():
    mix = toy2d_mixture()
    one, two = (restore(np.array([1.7, 0.3]), mix, Condition.of("A"), PdlsConfig(), 0)
                for _ in range(2))
    for a, b in ((one, two), (one._paths, two._paths), (one.generated, two.generated),
                 (one._frame, two._frame)):
        assert a == a and a != b and len({a, b}) == 2


def test_a_mixture_of_another_dimension_is_rejected_first():
    mixture = shapes32_mixture()
    with pytest.raises(ValueError, match=r"observations of shape \(100,\) do not match "
                                         "the mixture's dimension 1024"):
        restore(np.zeros(100), mixture, Condition.null(), PdlsConfig(), 0)
    with pytest.raises(ValueError, match=r"shape \(2, 32, 32\) do not match"):
        restore(np.zeros((2, 32, 32)), mixture, [Condition.null()] * 2, PdlsConfig(), [0, 1])
    assert mixture._reduced is None


class TestBatchSharing:
    def test_each_condition_is_selected_once(self, monkeypatch):
        calls = Counter()
        select = Condition.select
        monkeypatch.setattr(Condition, "select",
                            lambda cond, mixture: calls.update([cond]) or select(cond, mixture))
        mix = toy2d_mixture()
        x, _ = sample_mixture(mix, 3, np.random.default_rng(0))
        prompts = [Condition.of("A"), Condition.null(), Condition.of("B")]
        restore(x, mix, prompts, PdlsConfig(), [0, 1, 2])
        assert calls == Counter(prompts)

    @pytest.mark.parametrize("seeds, n_draws", [([7] * 90, 1), ([0, 1, 0], 2)])
    def test_each_distinct_seed_is_drawn_once(self, monkeypatch, seeds, n_draws):
        calls = []
        monkeypatch.setattr(pipeline, "draw_noise",
                            lambda d, s: calls.append(s) or draw_noise(d, s))
        obs = np.tile([1.7, 0.3], (len(seeds), 1))
        restore(obs, toy2d_mixture(), [Condition.of("A")] * len(seeds),
                PdlsConfig(n_steps=2), seeds)
        assert len(calls) == n_draws

    def test_equal_rows_restore_bitwise_equal(self):
        obs, mixture, labels, seeds = manifest_batch()
        prompts = [Condition.of(lb) for lb in labels]
        for i in (31, 89):
            obs[i], prompts[i], seeds[i] = obs[0], prompts[0], seeds[0]
        results = restore(obs, mixture, prompts, PdlsConfig(), seeds)
        assert np.array_equal(results[31].restored, results[0].restored)
        assert np.array_equal(results[89].restored, results[0].restored)

    def test_row_diagnostics_equal_the_batch_forms(self):
        obs, mixture, labels, seeds = manifest_batch()
        prompts = [Condition.null() if i % 3 == 0 else Condition.of(lb)
                   for i, lb in enumerate(labels)]
        config = PdlsConfig(init_mode="mixed")
        results = restore(obs, mixture, prompts, config, seeds)
        paths, generated = results[0]._paths, results[0]._generated
        dists = np.linalg.norm(generated.states - paths.targets[::-1], axis=2)
        nodes = generated.nodes
        etas = [float(pipeline.eta(config, float(t))) for t in nodes]
        for i, res in enumerate(results):
            steps, times, row_etas, row_dists = zip(*res.diagnostics)
            assert steps == tuple(range(config.n_steps + 1))
            assert np.array_equal(times, nodes) and list(row_etas) == etas
            assert np.array_equal(row_dists, dists[:, i])


def test_a_huge_observation_diverges_cleanly():
    # Every component's log-density is -inf, so the normalisation is
    # -inf - -inf: NaN for integrate's check, with no numpy warning.
    with pytest.raises(DriftDivergedError, match="diverged at step 0"):
        restore(np.array([1e200, 0.0]), toy2d_mixture(), Condition.null(), PdlsConfig(), 0)


@pytest.mark.parametrize("task", ["toy2d", "manifest"])
def test_cli_exits_3_when_the_field_diverges(tmp_path, monkeypatch, task):
    if task == "toy2d":
        args = ["--task", "toy2d", "--seeds", "0:4"]
    else:
        deg = tmp_path / "deg"
        assert cli_main(["degrade", "--out", str(deg), "--op", "gblur:size=7,sigma=1.5",
                         "--demo", "--n-per-class", "2"]) == 0
        args = ["--manifest", str(deg / "manifest.json"), "--n-per-class", "2"]
    field = pipeline.marginal_velocity
    monkeypatch.setattr(pipeline, "marginal_velocity", lambda *a: field(*a) * np.nan)
    code = cli_main(["restore", "--out", str(tmp_path / "out"), "--steps", "4"] + args)
    assert code == 3


@st.composite
def any_restore(draw):
    """A restore of any shape and scale: d in [1, 8], K in [1, 6], means and
    observations of magnitude 1e-300 to 1e200 (or 0), zero and non-zero
    variances, null and label prompts, repeated seeds and 1 to 4 steps."""

    def scaled(shape):
        unit = draw(arrays(float, shape, elements=st.floats(-1.0, 1.0)))
        return unit * 10.0 ** draw(st.floats(-300.0, 200.0))

    k, d, n = draw(st.integers(1, 6)), draw(st.integers(1, 8)), draw(st.integers(1, 3))
    weights = draw(arrays(float, k, elements=st.floats(0.1, 1.0)))
    variances = draw(arrays(float, k, elements=st.sampled_from([0.0, 1e-4, 0.05, 1.0])))
    labels = draw(st.lists(st.sampled_from("AB"), min_size=k, max_size=k))
    mixture = GaussianMixture(weights / weights.sum(), scaled((k, d)), variances, labels)
    prompts = [draw(st.sampled_from([Condition.null()] + [Condition.of(lb) for lb in labels]))
               for _ in range(n)]
    seeds = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return scaled((n, d)), mixture, prompts, PdlsConfig(n_steps=draw(st.integers(1, 4))), seeds


@settings(max_examples=300, deadline=None)
@given(any_restore())
@example((np.array([[np.inf, 0.0, 0.0, 0.0, 0.0]]),) + TINY_CASE[1:] + (
    [Condition.null()], PdlsConfig(n_steps=2), [0]))
# Malformed prompts and seeds: a bare Condition or label strings for a
# batch's prompts, a bare seed for its seeds, a seed that is not an integer.
@example(TINY_CASE + (Condition.of("A"), PdlsConfig(n_steps=2), [0]))
@example(TINY_CASE + (["A"], PdlsConfig(n_steps=2), [0]))
@example(TINY_CASE + ([Condition.null()], PdlsConfig(n_steps=2), 0))
@example(TINY_CASE + ([Condition.null()], PdlsConfig(n_steps=2), [0.5]))
@example((np.empty((0, 2)), toy2d_mixture(), [], PdlsConfig(), []))  # the empty batch
def test_restore_is_total(case):
    # Every input restores to finite output, trajectories included, or is
    # rejected; the suite turns any numpy warning into a failure.
    try:
        results = restore(*case)
    except (ValueError, DriftDivergedError):
        return
    for res in results:
        assert np.isfinite(res.restored).all()
        for traj in (res.structural, res.semantic, res.generated):
            assert np.isfinite(traj.states).all()
        assert np.isfinite([row[3] for row in res.diagnostics]).all()


def test_an_empty_batch_restores_to_an_empty_list():
    assert restore(np.empty((0, 2)), toy2d_mixture(), [], PdlsConfig(), []) == []
