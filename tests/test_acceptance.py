"""Acceptance gate: ten numbered criteria, one printed pass/fail line each.

The project's pytest options include -rA, so the printed verdict lines show
up in the run summary for passing tests too.
"""

from math import comb

import numpy as np

from pdls.control import eta, lqr_control
from pdls.datasets import exemplar_mixture, shapes32_dataset, toy2d_mixture
from pdls.degrade import (
    Downsample,
    GaussianBlur,
    ImageGrid,
    MotionBlur,
    NoiseModel,
    apply,
    block_replicate,
    gaussian_kernel,
    make_freeform_mask,
    motion_kernel,
)
from pdls.degrade import FreeformMask, Identity
from pdls.flowfield import (
    Condition,
    GaussianMixture,
    marginal_velocity,
    sample_mixture,
)
from pdls.integrate import integrate, make_grid
from pdls.metrics import psnr, report, ssim
from pdls.pipeline import PdlsConfig, draw_noise, invert_path, restore

BENCH_BANDWIDTH = 1e-4


def _report(num, name, ok):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


# ------------------------------------------------------------------ 1


def test_criterion_01_schedule_exactness():
    ok = True
    for eta_max in (0.1, 0.5, 1.0):
        cfg = PdlsConfig(eta_max=eta_max)
        ok &= abs(eta(cfg, 0.0) - eta_max) <= 1e-12
        ok &= abs(eta(cfg, 0.5) - eta_max / 2) <= 1e-12
        ok &= abs(eta(cfg, 1.0)) <= 1e-12
    _report(1, "schedule exactness", ok)


# ------------------------------------------------------------------ 2


def test_criterion_02_contraction_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        x = rng.standard_normal(d) * 3
        y = rng.standard_normal(d) * 3
        t = rng.uniform(0.0, 0.95)
        dt = rng.uniform(0.0, 1.0 - t)
        x_next = x + dt * lqr_control(x, y, t)
        lhs = np.linalg.norm(x_next - y)
        rhs = (1.0 - dt / (1.0 - t)) * np.linalg.norm(x - y)
        worst = max(worst, abs(lhs - rhs))
    _report(2, "LQR contraction identity", worst <= 1e-12)


# ------------------------------------------------------------------ 3


def test_criterion_03_exact_arrival():
    mix = toy2d_mixture()
    obs = np.array([1.9, 0.1])
    target = np.array([-0.7, 1.3])
    z0 = draw_noise(2, 17)
    ok = True
    null = mix.log_weights(Condition.null())[None]
    for n in (7, 28, 100):
        traj = invert_path(obs[None], mix, null, PdlsConfig(gamma=1.0, n_steps=n), z0[None])
        ok &= np.linalg.norm(traj.terminal - z0) / np.linalg.norm(z0) < 1e-9
        grid = make_grid(n, 0.0, 1.0)
        steered = integrate(np.array([0.4, -0.2]), grid,
                            lambda x, t, k: lqr_control(x, target, t))
        ok &= (np.linalg.norm(steered.terminal - target)
               / np.linalg.norm(target)) < 1e-9
    _report(3, "exact arrival", ok)


# ------------------------------------------------------------------ 4


def _mc_velocity(x, t, mixture, rng, n_samples):
    """Importance-sampling conditional-expectation oracle.

    Sample X1 from the mixture, pin X0 = (x - t X1)/(1 - t), and weight by
    the standard-normal density of X0; this is the exact conditional law of
    X1 given X_t = x up to normalization.
    """
    x1, _ = sample_mixture(mixture, n_samples, rng)
    x0 = (x[None, :] - t * x1) / (1.0 - t)
    logw = -0.5 * np.sum(x0**2, axis=1)
    logw -= logw.max()
    w = np.exp(logw)
    m = (w[:, None] * x1).sum(axis=0) / w.sum()
    return (m - x) / (1.0 - t)


def test_criterion_04_field_oracle_equivalence():
    cases = [
        (GaussianMixture([1.0], [[1.2]], [0.3], ["a"]), 100_000),
        (GaussianMixture([0.5, 0.5], [[1.0], [-1.0]], [0.05, 0.05], ["a", "b"]),
         100_000),
        (GaussianMixture([0.3, 0.3, 0.4], [[2.0], [-1.0], [0.5]],
                         [0.1, 0.2, 0.05], ["a", "b", "c"]), 100_000),
        (GaussianMixture([1.0], [[0.5, -0.5]], [0.5], ["a"]), 500_000),
        (toy2d_mixture(), 500_000),
        (GaussianMixture([0.25, 0.25, 0.5], [[1.5, 0.0], [-1.5, 0.0], [0.0, 1.5]],
                         [0.1, 0.1, 0.05], ["a", "b", "c"]), 500_000),
    ]
    probes_per_case = (4, 3, 3, 4, 3, 3)  # 20 probe points total
    rng = np.random.default_rng(404)
    worst = 0.0
    probes = 0
    for (mixture, n_samples), quota in zip(cases, probes_per_case):
        done = 0
        while done < quota:
            # Probe at a marginal sample; skip near-zero velocities so the
            # relative error is well-defined.
            t = float(rng.uniform(0.25, 0.75))
            x1, _ = sample_mixture(mixture, 1, rng)
            x = (1 - t) * rng.standard_normal(mixture.dim) + t * x1[0]
            v_exact = marginal_velocity(x[None], t, mixture,
                                        mixture.log_weights(Condition.null())[None])[0]
            if np.linalg.norm(v_exact) < 0.2:
                continue
            v_mc = _mc_velocity(x, t, mixture, rng, n_samples)
            rel = np.linalg.norm(v_mc - v_exact) / np.linalg.norm(v_exact)
            worst = max(worst, rel)
            done += 1
            probes += 1
    _report(4, f"field-oracle equivalence [worst {worst:.4f}]",
            probes == 20 and worst < 0.02)


# ------------------------------------------------------------------ 5


def test_criterion_05_transport_fidelity():
    mix = toy2d_mixture()
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1000, 2))
    null = np.tile(mix.log_weights(Condition.null()), (len(x), 1))
    nodes = make_grid(200, 0.0, 1.0)
    for k in range(nodes.size - 1):
        dt = nodes[k + 1] - nodes[k]
        x = x + dt * marginal_velocity(x, float(nodes[k]), mix, null)
    separation = np.linalg.norm(mix.means[0] - mix.means[1])
    nearest = np.argmin(
        np.linalg.norm(x[:, None, :] - mix.means[None, :, :], axis=2), axis=1
    )
    ok = True
    for c in (0, 1):
        cluster_mean = x[nearest == c].mean(axis=0)
        ok &= np.linalg.norm(cluster_mean - mix.means[c]) < 0.05 * separation

    # Convergence order on the analytic single-Gaussian case.
    gaussian = GaussianMixture([1.0], [np.zeros(2)], [1.0], ["z"])
    x0 = np.array([1.0, 0.0])
    exact = x0 * np.sqrt(0.5**2 + 0.5**2)
    null = gaussian.log_weights(Condition.null())[None]

    def err(n):
        g = make_grid(n, 0.0, 0.5)
        traj = integrate(x0[None], g, lambda x, t, k: marginal_velocity(x, t, gaussian, null))
        return np.linalg.norm(traj.terminal - exact)

    ratio = err(100) / err(200)
    ok &= 1.6 <= ratio <= 2.4
    _report(5, "transport fidelity", ok)


# ------------------------------------------------------------------ 6


def test_criterion_06_round_trip_halving():
    mix = toy2d_mixture()
    rng = np.random.default_rng(6)
    obs, _ = sample_mixture(mix, 1, rng)
    obs = obs[0]

    def err(n):
        cfg = PdlsConfig(gamma=0.0, eta_max=0.0, n_steps=n)
        res = restore(obs, mix, Condition.null(), cfg, seed=6)
        return np.linalg.norm(res.restored - obs)

    ratio = err(100) / err(200)
    _report(6, "round-trip error halving", 1.6 <= ratio <= 2.4)


# ------------------------------------------------------------------ 7


def _degraded_observation(op, img, seed):
    obs = apply(op, img, NoiseModel(0.01, seed))
    if isinstance(op, Downsample):
        return ImageGrid(block_replicate(obs.pixels, op.factor))
    return obs


def test_criterion_07_restoration_improvement():
    dataset = shapes32_dataset()
    mixture = exemplar_mixture(dataset, BENCH_BANDWIDTH)
    ok = True
    details = []
    for name, op in (("gblur", GaussianBlur(7, 1.5)),
                     ("mblur", MotionBlur(7, 0.5, 45.0)),
                     ("sr8", Downsample(8))):
        wins = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            img, label = dataset[int(rng.integers(len(dataset)))]
            obs = _degraded_observation(op, img, seed)
            res = restore(obs.flatten(), mixture, Condition.of(label),
                          PdlsConfig(), seed)
            recon = ImageGrid.from_vector(res.restored, 32, 32)
            wins += psnr(recon, img) > psnr(obs, img)
        details.append(f"{name} {wins}/50")
        ok &= wins >= 40
    _report(7, "restoration improvement [" + ", ".join(details) + "]", ok)


# ------------------------------------------------------------------ 8


def _sign_test_p(n01, n10):
    """One-sided exact sign test on discordant pairs."""
    n = n01 + n10
    if n == 0:
        return 1.0
    return sum(comb(n, k) for k in range(n01, n + 1)) / 2.0**n


def _discordant_pairs(cases, mixture):
    """(n01, n10): how many cases (observed, clean, label, seed) a label prompt's
    restore classifies right and the null prompt's wrong, and the reverse, as
    metrics.report scores them."""
    rows = {"null": [], "prompt": []}
    for obs, _, label, seed in cases:
        for name, cond in (("null", Condition.null()), ("prompt", Condition.of(label))):
            rows[name].append(restore(obs, mixture, cond, PdlsConfig(), seed).restored)
    _, clean, labels, _ = zip(*cases)
    a_null, a_prompt = ([r.class_accuracy for r in report(rows[name], clean, mixture, labels)]
                        for name in ("null", "prompt"))
    return (sum(p > n for n, p in zip(a_null, a_prompt)),
            sum(n > p for n, p in zip(a_null, a_prompt)))


def test_criterion_08_dual_path_benefit():
    ok = True
    # 2-component toy benchmark: clean draw plus observation noise.
    mix = toy2d_mixture()
    cases = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        clean, labels = sample_mixture(mix, 1, rng)
        cases.append((clean[0] + 1.0 * rng.standard_normal(2), clean[0], labels[0], seed))
    n01, n10 = _discordant_pairs(cases, mix)
    ok &= n01 >= n10 and _sign_test_p(n01, n10) < 0.05
    toy_detail = f"toy2d +{n01}/-{n10}"

    # shapes32 benchmark under heavy downsampling.
    dataset = shapes32_dataset()
    mixture = exemplar_mixture(dataset, BENCH_BANDWIDTH)
    op = Downsample(8)
    cases = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        img, label = dataset[int(rng.integers(len(dataset)))]
        cases.append((_degraded_observation(op, img, seed).flatten(), img.flatten(), label, seed))
    n01, n10 = _discordant_pairs(cases, mixture)
    ok &= n01 >= n10 and _sign_test_p(n01, n10) < 0.05
    _report(8, f"dual-path benefit [{toy_detail}, shapes32 +{n01}/-{n10}]", ok)


# ------------------------------------------------------------------ 9


def test_criterion_09_init_ablation_direction():
    dataset = shapes32_dataset()
    mixture = exemplar_mixture(dataset, BENCH_BANDWIDTH)
    op = GaussianBlur(7, 1.5)
    means = {}
    for mode in ("structural", "mixed"):
        vals = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            img, label = dataset[int(rng.integers(len(dataset)))]
            obs = apply(op, img, NoiseModel(0.01, seed))
            res = restore(obs.flatten(), mixture, Condition.of(label),
                          PdlsConfig(init_mode=mode), seed)
            vals.append(psnr(ImageGrid.from_vector(res.restored, 32, 32), img))
        means[mode] = float(np.mean(vals))
    ok = means["mixed"] <= means["structural"]
    _report(9, "init ablation direction "
               f"[mixed {means['mixed']:.2f} <= structural {means['structural']:.2f}]",
            ok)


# ------------------------------------------------------------------ 10


def test_criterion_10_metric_correctness():
    ok = True
    # PSNR pinned values.
    ok &= abs(psnr(np.zeros((8, 8)), np.full((8, 8), 0.1)) - 20.0) <= 1e-12
    ok &= abs(psnr(np.zeros((8, 8)), np.full((8, 8), 0.01)) - 40.0) <= 1e-12
    # SSIM trivial and closed-form cases.
    rng = np.random.default_rng(10)
    img = rng.uniform(0, 1, (32, 32))
    ok &= abs(ssim(img, img) - 1.0) <= 1e-12
    c1, c2 = 0.3, 0.6
    k1 = 0.01**2
    expected = (2 * c1 * c2 + k1) / (c1**2 + c2**2 + k1)
    ok &= abs(ssim(np.full((16, 16), c1), np.full((16, 16), c2)) - expected) <= 1e-12
    # Kernel normalization.
    ok &= abs(gaussian_kernel(7, 1.5).sum() - 1.0) <= 1e-12
    ok &= abs(gaussian_kernel(61, 3.0).sum() - 1.0) <= 1e-12
    ok &= abs(motion_kernel(7, 0.5, 45.0).sum() - 1.0) <= 1e-12
    ok &= abs(motion_kernel(61, 0.5, 0.0).sum() - 1.0) <= 1e-12
    # Operator linearity on convex combinations.
    a = ImageGrid(rng.uniform(0, 1, (32, 32)))
    b = ImageGrid(rng.uniform(0, 1, (32, 32)))
    alpha = 0.4
    mixd = ImageGrid(alpha * a.pixels + (1 - alpha) * b.pixels)
    for op in (GaussianBlur(7, 1.5), MotionBlur(7, 0.5, 45.0), Downsample(8),
               FreeformMask(make_freeform_mask(32, 32, 0.15, seed=1)), Identity()):
        lhs = apply(op, mixd, NoiseModel(0.0)).pixels
        rhs = (alpha * apply(op, a, NoiseModel(0.0)).pixels
               + (1 - alpha) * apply(op, b, NoiseModel(0.0)).pixels)
        ok &= float(np.max(np.abs(lhs - rhs))) <= 1e-10
    _report(10, "metric correctness", ok)
