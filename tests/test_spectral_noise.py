"""Frequency-wandering process and the delay-dependent visibility law."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from remotehom.units_core import Rate, make_rng
from remotehom.wavepacket import EmitterParams
from remotehom.spectral_noise import (
    DelayVisibilitySeries,
    WanderingProcess,
    individual_indistinguishability,
    ou_path_uniform,
    sample_frequency_path,
)
from reference import delay_law


# --- OU path sampling -------------------------------------------------------

def test_zero_sigma_path_is_exactly_zero():
    p = WanderingProcess(sigma=Rate(0.0), tau_c_ns=100.0, seed=5)
    path = sample_frequency_path(p, np.linspace(0, 1000, 513))
    np.testing.assert_array_equal(path, np.zeros(513))


def test_path_deterministic_per_seed():
    t = np.linspace(0, 500, 2048)
    a = sample_frequency_path(WanderingProcess(sigma=Rate(3.0), tau_c_ns=50.0, seed=99), t)
    b = sample_frequency_path(WanderingProcess(sigma=Rate(3.0), tau_c_ns=50.0, seed=99), t)
    np.testing.assert_array_equal(a, b)
    c = sample_frequency_path(WanderingProcess(sigma=Rate(3.0), tau_c_ns=50.0, seed=98), t)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("times", [
    np.linspace(0, 1000, 513),
    12.2 * np.arange(3 * 65536),  # the benchmark's OU probe: one op's pulse train
    np.array([7.0]),
])
def test_path_is_the_uniform_scan_on_stream_zero(times):
    p = WanderingProcess(sigma=Rate(2.5), tau_c_ns=50.0, seed=41)
    lam = math.exp(-(times[1] - times[0]) / 50.0) if times.size > 1 else 0.0
    np.testing.assert_array_equal(sample_frequency_path(p, times),
                                  ou_path_uniform(2.5, lam, make_rng(41, 0), times.size))


def test_stationary_variance():
    # samples 20 tau_c apart are independent to ~2e-9; the variance of
    # 1e6 iid normal draws has relative SE sqrt(2/N) = 0.14%, so the 1%
    # band sits at 7 sigma
    sigma = 4.7
    path = ou_path_uniform(sigma, math.exp(-200.0 / 10.0), make_rng(17, 0), 1_000_000)
    assert path.var() == pytest.approx(sigma**2, rel=0.01)
    assert abs(path.mean()) < 5.0 * sigma / 1000.0


def test_autocorrelation_at_tau_c():
    tau_c = 40.0
    dt = tau_c / 5.0
    path = ou_path_uniform(2.5, math.exp(-dt / tau_c), make_rng(23, 0), 1_000_000)
    lag = 5
    x0, x1 = path[:-lag], path[lag:]
    rho = np.mean((x0 - x0.mean()) * (x1 - x1.mean())) / path.var()
    assert rho == pytest.approx(math.exp(-1.0), abs=0.02)


def test_autocorrelation_decay_profile():
    tau_c = 40.0
    dt = 4.0
    path = ou_path_uniform(2.5, math.exp(-dt / tau_c), make_rng(29, 0), 400_000)
    var = path.var()
    for lag_steps in [1, 5, 10, 25]:
        rho = np.mean(path[:-lag_steps] * path[lag_steps:]) / var
        assert rho == pytest.approx(math.exp(-lag_steps * dt / tau_c), abs=0.03)


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


@pytest.mark.parametrize("times", [[0.0, 2.0, 1.0], [0.0, 1.0, 3.0], [2.0, 1.0, 0.0],
                                   [1.0, 1.0, 1.0], [0.0, math.nan], [], [[0.0, 1.0]]])
def test_times_must_increase(times):
    # uniformly, in one dimension
    p = WanderingProcess(sigma=Rate(1.0), tau_c_ns=10.0, seed=1)
    with pytest.raises(ValueError):
        sample_frequency_path(p, times)


def test_process_validation():
    with pytest.raises(ValueError):
        WanderingProcess(sigma=Rate(1.0), tau_c_ns=0.0, seed=1)


# --- delay law --------------------------------------------------------------

def source(t1_ps: float = 162.0, gamma_star: float = 0.17, delta_omega: float = 4.6,
           tau_c_ns: float = 1420.0) -> EmitterParams:
    return EmitterParams(t1_ps, gamma_star=Rate(gamma_star), delta_omega=Rate(delta_omega),
                         tau_c_ns=tau_c_ns)


def test_visibility_at_zero_delay_is_v0():
    # the intrinsic value g / (g + g*), with g = 1000 / 200 = 5 exactly
    assert individual_indistinguishability(source(200.0, 0.0, 6.0), 0.0) == 1.0
    assert individual_indistinguishability(source(200.0, 5.0, 6.0), 0.0) == 0.5


def test_visibility_long_delay_saturation():
    # g = 10, g* = 10/9: v0 = 0.9 and dw_r = 0.5, so V -> 0.9 / 1.5
    v = individual_indistinguishability(source(100.0, 10.0 / 9.0, 0.5 * (10.0 + 10.0 / 9.0),
                                               100.0), 1e9)
    assert v == pytest.approx(0.6, rel=1e-9)


def test_visibility_filtered_endpoint_configuration():
    assert individual_indistinguishability(source(), 0.0) == pytest.approx(0.9732, abs=1e-4)
    assert individual_indistinguishability(source(), 525.0) == pytest.approx(0.734, abs=0.01)


def test_individual_indistinguishability_wiring():
    src = source()
    g, total = src.gamma.value, src.total_linewidth.value
    for d in [0.0, 12.2, 525.0, 3.0 * src.tau_c_ns]:
        assert individual_indistinguishability(src, d) == pytest.approx(
            delay_law(g / total, 4.6 / total, 1420.0, d), rel=1e-12)


def test_visibility_monotone_in_delay_and_wandering():
    delays = np.linspace(0.0, 5000.0, 40)
    vals = [individual_indistinguishability(source(delta_omega=4.0, tau_c_ns=700.0), d)
            for d in delays]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    widths = np.linspace(0.0, 18.0, 40)
    vals_w = [individual_indistinguishability(source(delta_omega=w, tau_c_ns=700.0), 300.0)
              for w in widths]
    assert all(a >= b for a, b in zip(vals_w, vals_w[1:]))


def test_visibility_no_wandering_is_flat():
    v0 = individual_indistinguishability(source(delta_omega=0.0), 0.0)
    for d in [12.2, 525.0, 1e6]:
        assert individual_indistinguishability(source(delta_omega=0.0), d) == v0


def test_visibility_takes_its_limit_where_the_squared_width_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wide = source(delta_omega=1e200)
        v0 = individual_indistinguishability(wide, 0.0)
        v = individual_indistinguishability(wide, np.array([0.0, 1e-9, 12.2]))
        assert v.tolist() == [v0, 0.0, 0.0]
        # dw_r itself overflows: 1e307 rad/ns over a linewidth of 1e-304
        assert individual_indistinguishability(source(1e307, 0.0, 1e307), 12.2) == 0.0
        assert individual_indistinguishability(source(1e307, 0.0, 1e307), 0.0) == 1.0


def test_visibility_validation():
    with pytest.raises(ValueError, match="delay"):
        individual_indistinguishability(source(), -10.0)
    with pytest.raises(ValueError, match="delay"):
        individual_indistinguishability(source(), np.array([0.0, 12.2, -10.0]))


def test_delay_law_on_an_array_equals_the_scalar_calls_bit_for_bit():
    src = source()
    delays = np.linspace(0.0, 3.0 * src.tau_c_ns, 201)
    curve = individual_indistinguishability(src, delays)
    assert curve.shape == delays.shape
    scalars = [individual_indistinguishability(src, float(d)) for d in delays]
    assert all(isinstance(v, float) for v in scalars)
    np.testing.assert_array_equal(curve, scalars)


# --- Monte-Carlo bridge: OU paths feeding the overlap formula ----------------

def _mc_pair_visibility(sigma: float, tau_c: float, delta_tau: float,
                        gamma: float, seed: int, n_pairs: int = 40_000):
    """Average instantaneous-detuning overlap of photon pairs a fixed
    delay apart, with pairs spaced far enough to be independent.

    One path of step delta_tau; pair j is (x[jK], x[jK + 1]), so that
    consecutive pairs sit at least 12 tau_c apart."""
    k = math.ceil(12.0 * tau_c / delta_tau) + 1
    path = ou_path_uniform(sigma, math.exp(-delta_tau / tau_c), make_rng(seed, 0),
                           (n_pairs - 1) * k + 2)
    delta = path[1::k] - path[0::k]
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
    law = delay_law(1.0, dw_r, tau_c, delay_frac * tau_c)
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
    with pytest.raises(ValueError, match="non-negative"):
        DelayVisibilitySeries(np.array([-300.0, 12.2]), np.array([0.9, 0.8]),
                              np.array([0.01, 0.01]))


@pytest.mark.parametrize("delays, vis, sigma, message", [
    # one series is one row of delays, even where all three arrays share a 2-D shape
    ([[0.0, 1.0], [2.0, 3.0]], [[0.9, 0.8], [0.7, 0.6]], [[0.01, 0.01]] * 2, "must match"),
    ([0.0, 1.0, 2.0], [0.9, 0.8], [0.01, 0.01], "must match"),
    # a negative first delay followed by increasing positive ones
    ([-1.0, 2.0, 3.0], [0.9, 0.8, 0.7], [0.01] * 3, "non-negative"),
])
def test_series_rejects_bad_shapes_and_a_negative_first_delay(delays, vis, sigma, message):
    with pytest.raises(ValueError, match=message):
        DelayVisibilitySeries(np.array(delays), np.array(vis), np.array(sigma))


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
