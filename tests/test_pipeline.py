"""Dual-path inversion and steered-generation tests, including frozen
regression values."""

import numpy as np
import pytest

from pdls.datasets import toy2d_mixture
from pdls.flowfield import (
    Condition,
    GaussianMixture,
    posterior_endpoint_mean,
    responsibilities,
    sample_mixture,
)
from pdls.integrate import Trajectory, integrate, make_grid
from pdls.metrics import psnr
from pdls.pipeline import (
    DualPaths,
    NoiseEndLatent,
    PdlsConfig,
    averaged_target,
    draw_noise,
    dual_invert,
    initial_latent,
    invert_path,
    restore,
    steered_generate,
)

GOLDEN_INVERT_TERMINAL = np.array([0.07076624882460193, 0.357820349991497])
GOLDEN_RESTORED = np.array([1.815243275374944, 0.13431342014281736])


class TestInvertPath:
    def test_full_strength_lands_on_the_noise_draw(self):
        mix = toy2d_mixture()
        obs = np.array([1.9, 0.1])
        for n in (7, 28, 100):
            traj = invert_path(obs, mix, Condition.null(), gamma=1.0,
                               n_steps=n, noise_seed=42)
            z0 = draw_noise(2, 42)
            assert np.linalg.norm(traj.terminal - z0) / np.linalg.norm(z0) < 1e-9

    def test_zero_strength_from_a_dirac_mean_stays_put(self):
        mix = GaussianMixture([1.0], [[1.5, -0.5]], [0.0], ["d"])
        traj = invert_path(np.array([1.5, -0.5]), mix, Condition.null(),
                           gamma=0.0, n_steps=200, noise_seed=0)
        # The marginal field vanishes on the Dirac mean, so the reverse
        # flow holds it fixed to first order.
        assert np.linalg.norm(traj.terminal - [1.5, -0.5]) < 1e-6

    def test_golden_regression(self):
        mix = toy2d_mixture()
        traj = invert_path(np.array([1.7, 0.3]), mix, Condition.null(),
                           gamma=0.5, n_steps=28, noise_seed=7)
        assert np.allclose(traj.terminal, GOLDEN_INVERT_TERMINAL, atol=1e-9)
        # Doubling the step count moves the terminal only by a first-order
        # amount, so the locked value is step-size-consistent.
        fine = invert_path(np.array([1.7, 0.3]), mix, Condition.null(),
                           gamma=0.5, n_steps=56, noise_seed=7)
        assert np.linalg.norm(traj.terminal - fine.terminal) < 0.05

    def test_grid_descends_over_full_interval(self):
        mix = toy2d_mixture()
        traj = invert_path(np.array([1.7, 0.3]), mix, Condition.null(), 0.5, 10, 0)
        assert traj.grid.t_start == 1.0
        assert traj.grid.t_end == 0.0


class TestDualInvert:
    def test_all_label_prompt_collapses_the_paths(self):
        mix = toy2d_mixture()
        paths = dual_invert(np.array([1.8, 0.2]), mix, Condition.of("A", "B"),
                            PdlsConfig(), noise_seed=3)
        assert np.array_equal(paths.structural.states, paths.semantic.states)

    def test_full_strength_makes_latents_identical(self):
        mix = toy2d_mixture()
        paths = dual_invert(np.array([1.8, 0.2]), mix, Condition.of("A"),
                            PdlsConfig(gamma=1.0), noise_seed=3)
        z0 = draw_noise(2, 3)
        assert np.allclose(paths.structural.terminal, z0, atol=1e-9)
        assert np.allclose(paths.semantic.terminal, z0, atol=1e-9)

    def test_null_prompt_rejected(self):
        with pytest.raises(ValueError, match="non-null prompt"):
            dual_invert(np.zeros(2), toy2d_mixture(), Condition.null(),
                        PdlsConfig(), 0)

    def test_semantic_path_pins_the_prompted_component(self):
        mix = GaussianMixture([0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]],
                              [0.0, 0.0], ["a", "b"])
        obs = np.array([0.9, 0.05])
        paths = dual_invert(obs, mix, Condition.of("a"), PdlsConfig(gamma=0.5),
                            noise_seed=1)
        for state, t in zip(paths.semantic.states, paths.semantic.grid.nodes):
            if t >= 1.0 - 1e-9 or t <= 1e-9:
                continue
            m = posterior_endpoint_mean(state, float(t), mix, Condition.of("a"))
            assert np.allclose(m, [1.0, 0.0], atol=1e-12)
        # The structural path keeps nonzero responsibility on the other
        # component for an observation between the two.
        mid = np.array([0.1, 0.0])
        r = responsibilities(mid, 0.5, mix)
        assert r[1] > 1e-6

    def test_paths_must_share_grids(self):
        mix = toy2d_mixture()
        a = invert_path(np.ones(2), mix, Condition.null(), 0.5, 8, 0)
        b = invert_path(np.ones(2), mix, Condition.null(), 0.5, 9, 0)
        with pytest.raises(ValueError, match="share the same grid"):
            DualPaths(a, b, Condition.of("A"))


class TestAveragedTarget:
    def _paths(self, s0, s1):
        grid = make_grid(1, 1.0, 0.0)
        a = Trajectory(grid, np.array([s0, s0], dtype=float))
        b = Trajectory(grid, np.array([s1, s1], dtype=float))
        return DualPaths(a, b, Condition.of("A"))

    def test_identical_paths_return_the_common_state(self):
        paths = self._paths([1.0, 2.0], [1.0, 2.0])
        assert np.allclose(averaged_target(paths, 0), [1.0, 2.0])

    def test_midpoint(self):
        paths = self._paths([0.0, 0.0], [2.0, 4.0])
        assert np.allclose(averaged_target(paths, 1), [1.0, 2.0])

    def test_equidistant_from_both_paths(self):
        mix = toy2d_mixture()
        paths = dual_invert(np.array([1.6, 0.4]), mix, Condition.of("A"),
                            PdlsConfig(), noise_seed=5)
        for j in range(paths.structural.grid.n_steps + 1):
            ybar = averaged_target(paths, j)
            da = np.linalg.norm(ybar - paths.structural.states[j])
            db = np.linalg.norm(ybar - paths.semantic.states[j])
            assert da == pytest.approx(db, abs=1e-12)

    def test_index_out_of_range(self):
        paths = self._paths([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(IndexError):
            averaged_target(paths, 5)


class TestInitialLatent:
    def test_modes(self):
        grid = make_grid(1, 1.0, 0.0)
        a = Trajectory(grid, np.array([[9.0, 9.0], [1.0, 0.0]]))
        b = Trajectory(grid, np.array([[9.0, 9.0], [3.0, 2.0]]))
        paths = DualPaths(a, b, Condition.of("A"))
        assert np.allclose(initial_latent(paths, "structural"), [1.0, 0.0])
        assert np.allclose(initial_latent(paths, "semantic"), [3.0, 2.0])
        assert np.allclose(initial_latent(paths, "mixed"), [2.0, 1.0])

    def test_noise_end_requires_descending_trajectory(self):
        grid = make_grid(1, 0.0, 1.0)
        traj = Trajectory(grid, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="descending"):
            NoiseEndLatent.from_trajectory(traj)


class TestSteeredGenerate:
    def test_zero_strength_is_pure_flow(self):
        from pdls.flowfield import marginal_velocity

        mix = toy2d_mixture()
        paths = dual_invert(np.array([1.7, 0.3]), mix, Condition.of("A"),
                            PdlsConfig(eta_max=0.0), noise_seed=2)
        gen = steered_generate(paths, mix, PdlsConfig(eta_max=0.0))
        grid = make_grid(28, 0.0, 1.0)
        plain = integrate(
            paths.structural.terminal, grid,
            lambda x, t, k: marginal_velocity(x, t, mix, Condition.of("A")),
        )
        assert np.allclose(gen.states, plain.states, atol=1e-12)

    def test_mismatched_grid_rejected(self):
        mix = toy2d_mixture()
        grid = make_grid(4, 0.9, 0.1)
        traj = Trajectory(grid, np.zeros((5, 2)))
        paths = DualPaths(traj, traj, Condition.of("A"))
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
        line = np.array([z0 + t * (obs - z0) for t in grid.nodes])
        traj = Trajectory(grid, line)
        paths = DualPaths(traj, traj, Condition.of("d"))
        cfg = PdlsConfig(eta_max=1.0, schedule_kind="constant", n_steps=n)
        gen = steered_generate(paths, mix, cfg)
        assert np.linalg.norm(gen.terminal - obs) < 1e-9

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
            if psnr(steered.restored, obs, peak=4.0) > psnr(plain.restored, obs, peak=4.0):
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
        assert np.array_equal(res.paths.structural.states, res.paths.semantic.states)

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
        assert res.structural_latent_norm > 0
        assert res.semantic_latent_norm > 0

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
                              (res.paths.structural.states, one.paths.structural.states),
                              (res.paths.semantic.states, one.paths.semantic.states),
                              (res.generated.states, one.generated.states)):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert np.allclose(np.array(res.diagnostics), np.array(one.diagnostics),
                               rtol=1e-12, atol=1e-14)
        assert results[2].paths.semantic is results[2].paths.structural
        assert np.allclose(results[0].restored, GOLDEN_RESTORED, atol=1e-9)

    def test_batch_trajectories_are_views_of_the_stacked_states(self):
        mix = toy2d_mixture()
        obs = np.array([[1.7, 0.3], [-1.5, 0.2]])
        a, b = restore(obs, mix, [Condition.of("A"), Condition.of("B")], PdlsConfig(), [1, 2])
        for x, y in ((a.generated, b.generated), (a.paths.structural, b.paths.semantic)):
            assert x.states.base is not None
            assert x.states.base is y.states.base

    def test_batch_needs_one_prompt_and_seed_per_row(self):
        mix = toy2d_mixture()
        with pytest.raises(ValueError, match="one prompt and one seed per row"):
            restore(np.zeros((3, 2)), mix, [Condition.null()] * 3, PdlsConfig(), [0, 1])

    def test_config_validation(self):
        with pytest.raises(ValueError, match="gamma"):
            PdlsConfig(gamma=2.0)
        with pytest.raises(ValueError, match="init_mode"):
            PdlsConfig(init_mode="other")
        with pytest.raises(ValueError, match="base_condition"):
            PdlsConfig(base_condition="other")
        with pytest.raises(ValueError, match="schedule_kind"):
            PdlsConfig(schedule_kind="other")
