"""Frequency-wandering process and the delay-dependent visibility law."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from remotehom.units_core import Rate
from remotehom.wavepacket import EmitterParams
from remotehom.spectral_noise import (
    DelayVisibilitySeries,
    WanderingProcess,
    individual_indistinguishability,
    intrinsic_visibility,
    ou_path_uniform,
    sample_frequency_path,
    visibility_vs_delay,
)


# --- OU path sampling -------------------------------------------------------

def test_zero_sigma_path_is_exactly_zero():
    p = WanderingProcess(sigma=Rate(0.0), tau_c_ns=100.0, seed=5)
    path = sample_frequency_path(p, np.linspace(0, 1000, 513))
    np.testing.assert_array_equal(path, np.zeros(513))


def test_path_deterministic_per_seed_and_stream():
    p = WanderingProcess(sigma=Rate(3.0), tau_c_ns=50.0, seed=99)
    t = np.linspace(0, 500, 2048)
    a = sample_frequency_path(p, t, stream=2)
    b = sample_frequency_path(p, t, stream=2)
    np.testing.assert_array_equal(a, b)
    c = sample_frequency_path(p, t, stream=3)
    assert not np.array_equal(a, c)


def test_stationary_variance():
    # samples 20 tau_c apart are independent to ~2e-9; the variance of
    # 1e6 iid normal draws has relative SE sqrt(2/N) = 0.14%, so the 1%
    # band sits at 7 sigma
    sigma = 4.7
    p = WanderingProcess(sigma=Rate(sigma), tau_c_ns=10.0, seed=17)
    t = 200.0 * np.arange(1_000_000)
    path = sample_frequency_path(p, t)
    assert path.var() == pytest.approx(sigma**2, rel=0.01)
    assert abs(path.mean()) < 5.0 * sigma / 1000.0


def test_autocorrelation_at_tau_c():
    tau_c = 40.0
    p = WanderingProcess(sigma=Rate(2.5), tau_c_ns=tau_c, seed=23)
    dt = tau_c / 5.0
    path = sample_frequency_path(p, dt * np.arange(1_000_000))
    lag = 5
    x0, x1 = path[:-lag], path[lag:]
    rho = np.mean((x0 - x0.mean()) * (x1 - x1.mean())) / path.var()
    assert rho == pytest.approx(math.exp(-1.0), abs=0.02)


def test_autocorrelation_decay_profile():
    tau_c = 40.0
    p = WanderingProcess(sigma=Rate(2.5), tau_c_ns=tau_c, seed=29)
    dt = 4.0
    path = sample_frequency_path(p, dt * np.arange(400_000))
    var = path.var()
    for lag_steps in [1, 5, 10, 25]:
        rho = np.mean(path[:-lag_steps] * path[lag_steps:]) / var
        assert rho == pytest.approx(math.exp(-lag_steps * dt / tau_c), abs=0.03)


def test_non_uniform_times_match_uniform_statistics():
    # exact conditional transition: irregular sampling must give the
    # same stationary law as uniform sampling
    p = WanderingProcess(sigma=Rate(3.0), tau_c_ns=30.0, seed=31)
    rng = np.random.default_rng(0)
    t = np.sort(rng.uniform(0, 90_000.0, size=40_000))
    path = sample_frequency_path(p, t)
    assert path.var() == pytest.approx(9.0, rel=0.05)


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.78, 0.99, 0.99999, 1.0])
def test_uniform_path_scan_matches_recursion(lam):
    # the scan sums the recursion's terms in another order: agree to 1e-12 sigma;
    # the path draws its stationary start, then the drive, from the one stream
    z = np.random.default_rng(7).standard_normal(5001)
    sigma = 2.0
    ref = np.empty(z.size)
    x = ref[0] = sigma * z[0]
    for k, eps in enumerate(z[1:], start=1):
        x = lam * x + sigma * math.sqrt(1.0 - lam * lam) * eps
        ref[k] = x
    got = ou_path_uniform(sigma, lam, np.random.default_rng(7), z.size)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12 * sigma)
    np.testing.assert_array_equal(ou_path_uniform(sigma, lam, np.random.default_rng(7), 1),
                                  ref[:1])


def test_times_must_increase():
    p = WanderingProcess(sigma=Rate(1.0), tau_c_ns=10.0, seed=1)
    with pytest.raises(ValueError):
        sample_frequency_path(p, [0.0, 2.0, 1.0])


def test_process_validation():
    with pytest.raises(ValueError):
        WanderingProcess(sigma=Rate(1.0), tau_c_ns=0.0, seed=1)


# --- delay law --------------------------------------------------------------

def test_visibility_at_zero_delay_is_v0():
    assert visibility_vs_delay(0.87, 1.3, 500.0, 0.0) == pytest.approx(0.87)


def test_visibility_long_delay_saturation():
    v = visibility_vs_delay(0.9, 0.5, 100.0, 1e9)
    assert v == pytest.approx(0.9 / 1.5, rel=1e-9)
    assert v == pytest.approx(0.6, rel=1e-9)


def test_visibility_filtered_endpoint_configuration():
    v0 = intrinsic_visibility(Rate(1000 / 162), Rate(0.17))
    assert v0 == pytest.approx(0.9732, abs=1e-4)
    v = visibility_vs_delay(v0, 4.6 / (1000 / 162 + 0.17), 1420.0, 525.0)
    assert v == pytest.approx(0.734, abs=0.01)


def test_visibility_monotone_in_delay_and_wandering():
    delays = np.linspace(0.0, 5000.0, 40)
    vals = [visibility_vs_delay(0.95, 0.8, 700.0, d) for d in delays]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    ratios = np.linspace(0.0, 3.0, 40)
    vals_r = [visibility_vs_delay(0.95, r, 700.0, 300.0) for r in ratios]
    assert all(a >= b for a, b in zip(vals_r, vals_r[1:]))


def test_visibility_no_wandering_is_flat():
    for d in [0.0, 12.2, 525.0, 1e6]:
        assert visibility_vs_delay(0.91, 0.0, 1400.0, d) == pytest.approx(0.91)


def test_visibility_validation():
    with pytest.raises(ValueError):
        visibility_vs_delay(1.2, 0.5, 100.0, 10.0)
    with pytest.raises(ValueError):
        visibility_vs_delay(0.9, -0.5, 100.0, 10.0)
    with pytest.raises(ValueError):
        visibility_vs_delay(0.9, 0.5, 100.0, -10.0)


def test_intrinsic_visibility_cases():
    assert intrinsic_visibility(Rate(5.0), Rate(0.0)) == 1.0
    assert intrinsic_visibility(Rate(5.0), Rate(5.0)) == pytest.approx(0.5)
    assert intrinsic_visibility(Rate(1000 / 162), Rate(0.17)) == pytest.approx(0.9732, abs=1e-4)
    with pytest.raises(ValueError):
        intrinsic_visibility(Rate(0.0), Rate(1.0))


def test_individual_indistinguishability_wiring():
    src = EmitterParams(162.0, gamma_star=Rate(0.17), delta_omega=Rate(4.6),
                        tau_c_ns=1420.0)
    direct = visibility_vs_delay(
        intrinsic_visibility(src.gamma, src.gamma_star),
        4.6 / src.total_linewidth.value, 1420.0, 525.0)
    assert individual_indistinguishability(src, 525.0) == pytest.approx(direct, rel=1e-12)


# --- Monte-Carlo bridge: OU paths feeding the overlap formula ----------------

def _mc_pair_visibility(sigma: float, tau_c: float, delta_tau: float,
                        gamma: float, seed: int, n_pairs: int = 40_000):
    """Average instantaneous-detuning overlap of photon pairs a fixed
    delay apart, with pairs spaced far enough to be independent."""
    p = WanderingProcess(sigma=Rate(sigma), tau_c_ns=tau_c, seed=seed)
    spacing = delta_tau + 12.0 * tau_c
    starts = spacing * np.arange(n_pairs)
    times = np.empty(2 * n_pairs)
    times[0::2] = starts
    times[1::2] = starts + delta_tau
    path = sample_frequency_path(p, times)
    delta = path[1::2] - path[0::2]
    m = 4.0 * gamma**2 / (4.0 * gamma**2 + delta**2)
    return float(m.mean()), float(m.std(ddof=1) / math.sqrt(n_pairs))


def _quadrature_expected_overlap(sigma: float, tau_c: float, delta_tau: float,
                                 gamma: float) -> float:
    """E[4 g^2/(4 g^2 + D^2)] with D ~ Normal(0, 2 sigma^2 (1 - e^{-dt/tau}))."""
    var = 2.0 * sigma**2 * (1.0 - math.exp(-delta_tau / tau_c))
    if var == 0.0:
        return 1.0
    sd = math.sqrt(var)
    pdf = lambda d: math.exp(-d * d / (2 * var)) / (sd * math.sqrt(2 * math.pi))
    val, _ = quad(lambda d: 4 * gamma**2 / (4 * gamma**2 + d * d) * pdf(d),
                  -10 * sd, 10 * sd, limit=400)
    return val


MC_GRID = [(r, f) for r in (0.25, 0.5, 0.75, 1.0, 1.5) for f in (0.5, 3.0)]


@pytest.mark.parametrize("dw_r,delay_frac", MC_GRID)
def test_mc_overlap_matches_quadrature_oracle(dw_r, delay_frac):
    # dual route: the sampled process against direct quadrature over the
    # exact pair-detuning distribution Normal(0, 2 sigma^2 (1-e^{-dt/tau}))
    gamma, tau_c = 6.0, 80.0
    sigma = dw_r * gamma
    mc, se = _mc_pair_visibility(sigma, tau_c, delay_frac * tau_c, gamma,
                                 seed=int(1000 * dw_r + 10 * delay_frac))
    expected = _quadrature_expected_overlap(sigma, tau_c, delay_frac * tau_c, gamma)
    assert abs(mc - expected) <= 3.0 * se


@pytest.mark.xfail(strict=True, reason=(
    "the harmonic average of the instantaneous overlap is strictly above "
    "the moment-matched delay law (Jensen), and the two closed forms use "
    "different detuning conventions; documented model limitation"))
@pytest.mark.parametrize("dw_r,delay_frac", [(r, f) for r in (0.5, 1.0) for f in (0.5, 3.0)])
def test_mc_overlap_matches_delay_law_literally(dw_r, delay_frac):
    gamma, tau_c = 6.0, 80.0
    sigma = dw_r * gamma
    mc, se = _mc_pair_visibility(sigma, tau_c, delay_frac * tau_c, gamma,
                                 seed=int(7000 * dw_r + 17 * delay_frac))
    law = visibility_vs_delay(1.0, dw_r, tau_c, delay_frac * tau_c)
    assert abs(mc - law) <= 3.0 * se


# --- series container and CSV round trip ------------------------------------

def test_series_validation():
    with pytest.raises(ValueError):
        DelayVisibilitySeries(np.array([0.0, 0.0]), np.array([0.9, 0.8]),
                              np.array([0.01, 0.01]))
    with pytest.raises(ValueError):
        DelayVisibilitySeries(np.array([0.0, 1.0]), np.array([0.9, 1.2]),
                              np.array([0.01, 0.01]))
    with pytest.raises(ValueError):
        DelayVisibilitySeries(np.array([0.0, 1.0]), np.array([0.9, 0.8]),
                              np.array([0.01]))


@pytest.mark.parametrize("which", range(3))
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_series_rejects_non_finite(which, bad):
    arrays = [np.array([12.2, 40.0, 525.0]), np.array([0.9, 0.8, 0.7]),
              np.array([0.01, 0.01, 0.02])]
    arrays[which][1] = bad
    with pytest.raises(ValueError, match="finite"):
        DelayVisibilitySeries(*arrays)


def test_series_csv_round_trip(tmp_path):
    s = DelayVisibilitySeries(
        np.array([12.2, 24.4, 525.0]),
        np.array([0.939, 0.9121, 0.734]),
        np.array([0.008, 0.009, 0.012]),
        source_label="alpha", filtered=True)
    path = tmp_path / "series.csv"
    s.to_csv(path, header_comment="delay scan")
    back = DelayVisibilitySeries.from_csv(path, source_label="alpha", filtered=True)
    np.testing.assert_array_equal(back.delay_ns, s.delay_ns)
    np.testing.assert_array_equal(back.visibility, s.visibility)
    np.testing.assert_array_equal(back.sigma_v, s.sigma_v)
    assert len(back) == 3


def test_series_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("delay,vis,err\n1,0.9,0.01\n")
    with pytest.raises(ValueError):
        DelayVisibilitySeries.from_csv(path)
