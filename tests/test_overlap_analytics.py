"""Closed-form overlaps, Voigt evaluator, bounds, filter model."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from remotehom.units_core import EnergySplitting, Frequency, Rate, Wavelength
from remotehom.wavepacket import Charge, EmitterParams
from remotehom.overlap_analytics import (
    FilterParams,
    FilterRegimeError,
    SourcePair,
    apply_filter,
    calibrate_sideband_fraction,
    filtered_wandering,
    indistinguishability_from_hom,
    make_source_pair,
    mwo_no_dephasing,
    mwo_voigt_averaged,
    mwo_with_dephasing,
    remote_upper_bound,
    voigt,
)

GAMMA_A = Rate(1000.0 / 162.0)  # 6.173 ns^-1
GAMMA_B = Rate(1000.0 / 128.0)  # 7.8125 ns^-1


def pair_with(gamma_star=(0.0, 0.0), delta_omega=(0.0, 0.0), detuning=0.0,
              s=1.0, t1=(162.0, 128.0)) -> SourcePair:
    a = EmitterParams(t1[0], gamma_star=Rate(gamma_star[0]),
                      delta_omega=Rate(delta_omega[0]))
    b = EmitterParams(t1[1], gamma_star=Rate(gamma_star[1]),
                      delta_omega=Rate(delta_omega[1]))
    return SourcePair(a=a, b=b, mean_detuning=Frequency(detuning), s_classical=s)


# --- mwo_no_dephasing -------------------------------------------------------

def test_no_dephasing_resonant_identical():
    assert mwo_no_dephasing(Rate(5.0), Rate(5.0), Frequency(0.0)) == pytest.approx(1.0)


def test_no_dephasing_detuned_half():
    g = 4.2
    assert mwo_no_dephasing(Rate(g), Rate(g), Frequency(2 * g)) == pytest.approx(0.5)


def test_no_dephasing_equals_classical_overlap_at_zero_detuning():
    m = mwo_no_dephasing(GAMMA_A, GAMMA_B, Frequency(0.0))
    assert m == pytest.approx(82944 / 84100, rel=1e-12)
    assert m == pytest.approx(0.9863, abs=1e-4)


def test_no_dephasing_symmetric_and_even():
    rng = np.random.default_rng(31)
    for _ in range(50):
        gi, gj = rng.uniform(0.5, 20.0, size=2)
        d = rng.uniform(-30.0, 30.0)
        m_ij = mwo_no_dephasing(Rate(gi), Rate(gj), Frequency(d))
        assert m_ij == mwo_no_dephasing(Rate(gj), Rate(gi), Frequency(d))
        assert m_ij == mwo_no_dephasing(Rate(gi), Rate(gj), Frequency(-d))
        assert 0.0 <= m_ij <= 1.0


def test_no_dephasing_rejects_zero_rate():
    with pytest.raises(ValueError):
        mwo_no_dephasing(Rate(0.0), Rate(1.0), Frequency(0.0))


# --- mwo_with_dephasing -----------------------------------------------------

def test_dephasing_reduces_to_resonant_unity():
    assert mwo_with_dephasing(pair_with(t1=(162.0, 162.0))) == pytest.approx(1.0)


def test_dephasing_equal_rates_half():
    # gamma* = gamma on both sources halves the overlap at resonance
    g = 1000.0 / 162.0
    p = pair_with(gamma_star=(g, g), t1=(162.0, 162.0))
    assert mwo_with_dephasing(p) == pytest.approx(0.5)


def test_dephasing_free_identity_random_sweep():
    # with gamma* = 0 the broadened form collapses to s times the
    # dephasing-free overlap of two emitters at the mean rate
    # (gi+gj)/2 and twice the mean detuning: the two closed forms are
    # printed with different detuning conventions (delta^2 vs
    # 4*dbar^2) and different numerators (4 gi gj vs (gi+gj)^2), and
    # this is the substitution that reconciles them identically
    rng = np.random.default_rng(32)
    for _ in range(100):
        t1a, t1b = rng.uniform(50.0, 600.0, size=2)
        d = rng.uniform(-40.0, 40.0)
        s = rng.uniform(0.2, 1.0)
        p = pair_with(detuning=d, s=s, t1=(t1a, t1b))
        g_mean = Rate(0.5 * (1000 / t1a + 1000 / t1b))
        expected = s * mwo_no_dephasing(g_mean, g_mean, Frequency(2 * d))
        assert mwo_with_dephasing(p) == pytest.approx(expected, rel=1e-12)


def test_dephasing_free_resonant_equals_s():
    # at zero detuning and zero dephasing the broadened form returns
    # exactly the supplied classical overlap, for unequal rates too
    p = pair_with(s=0.93, t1=(162.0, 128.0))
    assert mwo_with_dephasing(p) == pytest.approx(0.93, rel=1e-12)


def test_dephasing_bounded_by_classical_overlap():
    rng = np.random.default_rng(33)
    for _ in range(100):
        p = pair_with(gamma_star=tuple(rng.uniform(0.0, 5.0, size=2)),
                      detuning=rng.uniform(-20.0, 20.0),
                      s=rng.uniform(0.1, 1.0),
                      t1=tuple(rng.uniform(80.0, 400.0, size=2)))
        assert mwo_with_dephasing(p) <= p.s_classical + 1e-15


def test_dephasing_equality_only_when_pure_and_resonant():
    p = pair_with(s=0.97, t1=(162.0, 162.0))
    assert mwo_with_dephasing(p) == pytest.approx(0.97, rel=1e-12)
    p2 = pair_with(gamma_star=(0.17, 0.03), s=0.97, t1=(162.0, 162.0))
    assert mwo_with_dephasing(p2) < 0.97


# --- Voigt ------------------------------------------------------------------

def test_voigt_gaussian_limit():
    assert voigt(0.0, Rate(0.0), Rate(1.0)) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-6)
    assert voigt(0.0, Rate(0.0), Rate(1.0)) == pytest.approx(0.39894, abs=1e-5)


def test_voigt_lorentzian_limit():
    assert voigt(0.0, Rate(1.0), Rate(0.0)) == pytest.approx(1 / math.pi, abs=1e-6)
    assert voigt(0.0, Rate(1.0), Rate(0.0)) == pytest.approx(0.31831, abs=1e-5)


def test_voigt_both_widths_zero_rejected():
    with pytest.raises(ValueError):
        voigt(0.0, Rate(0.0), Rate(0.0))


def _voigt_quadrature(x: float, gl: float, sig: float) -> float:
    lorentz = lambda u: gl / math.pi / (u * u + gl * gl)
    gauss = lambda u: math.exp(-u * u / (2 * sig * sig)) / (sig * math.sqrt(2 * math.pi))
    span = 40.0 * max(gl, sig)
    val, _ = quad(lambda u: lorentz(x - u) * gauss(u), -span, span,
                  points=[0.0, x], limit=800, epsabs=1e-13, epsrel=1e-10)
    return val


def test_voigt_matches_convolution_quadrature():
    rng = np.random.default_rng(35)
    for _ in range(50):
        gl = rng.uniform(0.05, 8.0)
        sig = rng.uniform(0.05, 8.0)
        x = rng.uniform(-15.0, 15.0)
        ours = voigt(x, Rate(gl), Rate(sig))
        ref = _voigt_quadrature(x, gl, sig)
        assert ours == pytest.approx(ref, rel=1e-6)


def test_voigt_normalization():
    # full-line integral is 1; a finite +-30 sigma_eff window misses
    # exactly the Lorentzian tail mass ~2*gl/(pi*X), which dominates
    # 1e-6 whenever gl > 0, so the window check targets that tail
    for gl, sig in [(1.0, 1.0), (0.2, 3.0), (5.0, 0.4)]:
        total, _ = quad(lambda x: voigt(x, Rate(gl), Rate(sig)),
                        -np.inf, np.inf, points=None, limit=800)
        assert total == pytest.approx(1.0, abs=1e-6)
        x_max = 30.0 * math.hypot(gl, sig)
        window, _ = quad(lambda x: voigt(x, Rate(gl), Rate(sig)),
                         -x_max, x_max, limit=800)
        tail = 2.0 * gl / (math.pi * x_max)
        assert 1.0 - window == pytest.approx(tail, rel=0.05)


# --- mwo_voigt_averaged -----------------------------------------------------

def test_voigt_averaged_lorentzian_limit_matches_dephasing_form():
    # delta_omega -> 0: the Voigt collapses to a Lorentzian and, at s = 1,
    # the averaged form must equal the static broadened form
    rng = np.random.default_rng(36)
    for _ in range(50):
        t1a, t1b = rng.uniform(80.0, 400.0, size=2)
        gs = rng.uniform(0.0, 2.0, size=2)
        d = rng.uniform(-10.0, 10.0)
        p = pair_with(gamma_star=tuple(gs), detuning=d, t1=(t1a, t1b))
        assert mwo_voigt_averaged(p) == pytest.approx(mwo_with_dephasing(p), rel=1e-6)


def test_voigt_averaged_scales_as_s_squared():
    # printed averaged form carries s^2 while the static form carries s:
    # their ratio at fixed parameters is exactly s
    p1 = pair_with(gamma_star=(0.17, 0.03), delta_omega=(3.0, 2.0), s=1.0)
    ps = pair_with(gamma_star=(0.17, 0.03), delta_omega=(3.0, 2.0), s=0.7)
    assert mwo_voigt_averaged(ps) == pytest.approx(0.49 * mwo_voigt_averaged(p1), rel=1e-12)


def test_voigt_averaged_monte_carlo_oracle():
    # direct average of the static form over the wandering distribution,
    # scaled by 1/s to undo its single power of s, must agree with the
    # s^2 printed form within Monte-Carlo error (module-level spot check;
    # the full 20-configuration sweep runs in the acceptance suite)
    rng = np.random.default_rng(37)
    for _ in range(5):
        t1a, t1b = rng.uniform(80.0, 400.0, size=2)
        gs = rng.uniform(0.0, 1.0, size=2)
        dw = rng.uniform(0.5, 6.0, size=2)
        dbar = rng.uniform(-5.0, 5.0)
        s = rng.uniform(0.5, 1.0)
        p = pair_with(gamma_star=tuple(gs), delta_omega=tuple(dw),
                      detuning=dbar, s=s, t1=(t1a, t1b))
        n = 200_000
        deltas = rng.normal(dbar, p.combined_wandering.value, size=n)
        gi, gj = p.a.gamma.value, p.b.gamma.value
        Gsum = p.a.total_linewidth.value + p.b.total_linewidth.value
        samples = s * Gsum * (gi + gj) / (Gsum**2 + 4.0 * deltas**2)
        mc_mean = s * samples.mean()  # extra s: printed average carries s^2
        se = s * samples.std(ddof=1) / math.sqrt(n)
        assert abs(mwo_voigt_averaged(p) - mc_mean) <= 3.0 * se


def test_voigt_averaged_filtered_configuration():
    p = pair_with(gamma_star=(0.17, 0.03), delta_omega=(4.6, 1.78), s=0.986)
    m = mwo_voigt_averaged(p)
    assert m == pytest.approx(0.7307631, abs=1e-6)
    assert m == pytest.approx(0.71, abs=0.05)


def test_voigt_averaged_unfiltered_configuration():
    p = pair_with(gamma_star=(0.17, 0.03), delta_omega=(4.7, 2.12), s=0.986)
    m = mwo_voigt_averaged(p)
    assert m == pytest.approx(0.7191008, abs=1e-6)
    # without a filter each source keeps its 5% sideband, degrading the
    # prediction by (1 - 0.05)^2
    assert m * 0.95**2 == pytest.approx(0.65, abs=0.05)


def test_voigt_averaged_monotone_in_wandering():
    values = []
    for dw in np.linspace(0.0, 12.0, 25):
        p = pair_with(gamma_star=(0.17, 0.03), delta_omega=(dw, 0.0))
        values.append(mwo_voigt_averaged(p))
    assert all(a > b for a, b in zip(values, values[1:]))


def test_voigt_averaged_clamped_to_unit_interval():
    rng = np.random.default_rng(38)
    for _ in range(50):
        p = pair_with(gamma_star=tuple(rng.uniform(0, 2, size=2)),
                      delta_omega=tuple(rng.uniform(0, 8, size=2)),
                      detuning=rng.uniform(-10, 10),
                      s=rng.uniform(0.3, 1.0),
                      t1=tuple(rng.uniform(80, 400, size=2)))
        assert 0.0 <= mwo_voigt_averaged(p) <= 1.0


# --- bounds and the HOM inversion -------------------------------------------

def test_upper_bound_trivial():
    assert remote_upper_bound(1.0, 1.0, 1.0) == 1.0


def test_upper_bound_geometric_mean_cases():
    assert remote_upper_bound(0.986, 0.939, 0.971) == pytest.approx(0.955, abs=1e-3)
    assert remote_upper_bound(0.995, 0.966, 0.938) == pytest.approx(0.952, abs=1e-3)


def test_upper_bound_s_limited():
    assert remote_upper_bound(0.9, 0.99, 0.99) == pytest.approx(0.9)


def test_upper_bound_validates_range():
    with pytest.raises(ValueError):
        remote_upper_bound(1.2, 0.9, 0.9)


def test_hom_inversion_examples():
    assert indistinguishability_from_hom(0.9, 0.0) == pytest.approx(0.9)
    assert indistinguishability_from_hom(0.9, 0.01) == pytest.approx(0.91 / 0.99, rel=1e-12)
    assert indistinguishability_from_hom(0.9, 0.01) == pytest.approx(0.9192, abs=1e-4)
    assert indistinguishability_from_hom(1.0, 0.0) == pytest.approx(1.0)


def test_hom_inversion_flags_inconsistent_inputs():
    with pytest.warns(UserWarning):
        m = indistinguishability_from_hom(0.99, 0.05)
    assert m > 1.0


def test_hom_inversion_validates_g2():
    with pytest.raises(ValueError):
        indistinguishability_from_hom(0.9, 1.0)
    with pytest.raises(ValueError):
        indistinguishability_from_hom(0.9, -0.1)


# --- filter model -----------------------------------------------------------

FILTER_8PM = FilterParams(center=Wavelength(924.8), fwhm_pm=8.0)


def test_apply_filter_trivial_source_unchanged():
    src = EmitterParams(162.0, sideband_fraction=0.0)
    out, factor = apply_filter(src, FILTER_8PM)
    assert factor == pytest.approx(1.0, abs=1e-9)
    assert out.delta_omega.value == 0.0
    assert out.t1_ps == src.t1_ps
    assert out.gamma_star == src.gamma_star


def test_apply_filter_narrows_wandering_and_costs_brightness():
    src = EmitterParams(162.0, delta_omega=Rate(40.0), sideband_fraction=0.0)
    out, factor = apply_filter(src, FILTER_8PM)
    assert factor < 1.0
    assert out.delta_omega.value < src.delta_omega.value
    assert out.sideband_fraction == 0.0
    # stronger wandering transmits less
    src2 = EmitterParams(162.0, delta_omega=Rate(80.0), sideband_fraction=0.0)
    _, factor2 = apply_filter(src2, FILTER_8PM)
    assert factor2 < factor


def test_apply_filter_removes_sideband():
    src = EmitterParams(162.0, sideband_fraction=0.3)
    out, factor = apply_filter(src, FILTER_8PM)
    assert out.sideband_fraction == 0.0
    assert factor == pytest.approx(0.7, abs=1e-9)


def test_apply_filter_rejects_sub_linewidth_filter():
    # 162 ps lifetime: radiative width 6.17 rad/ns; a 0.5 pm filter is
    # ~3.5 rad/ns, inside the homogeneous line
    with pytest.raises(FilterRegimeError):
        apply_filter(EmitterParams(162.0), FilterParams(center=Wavelength(924.8), fwhm_pm=0.5))


def test_apply_filter_halves_brightness_when_calibrated():
    # the documented operating point: calibrate the sideband fraction so
    # the 8 pm filter transmits about half the total emission
    src = EmitterParams(162.0, delta_omega=Rate(4.7), sideband_fraction=0.0)
    p = calibrate_sideband_fraction(src, FILTER_8PM, target_ratio=0.5)
    out, factor = apply_filter(
        EmitterParams(162.0, delta_omega=Rate(4.7), sideband_fraction=p), FILTER_8PM)
    assert factor == pytest.approx(0.5, abs=0.15)
    assert factor == pytest.approx(0.5, abs=1e-6)


def test_calibrate_sideband_unreachable_target():
    src = EmitterParams(162.0, delta_omega=Rate(200.0), sideband_fraction=0.0)
    with pytest.raises(ValueError):
        calibrate_sideband_fraction(src, FILTER_8PM, target_ratio=0.99)


def test_filtered_wandering_zero_sigma():
    t_bar, new = filtered_wandering(Rate(0.0), Rate(10.0))
    assert t_bar == 1.0
    assert new.value == 0.0


def test_filtered_wandering_monotone_in_filter_width():
    sig = Rate(5.0)
    widths = [2.0, 5.0, 10.0, 30.0, 100.0]
    t_bars = [filtered_wandering(sig, Rate(w))[0] for w in widths]
    sigmas = [filtered_wandering(sig, Rate(w))[1].value for w in widths]
    assert all(a < b for a, b in zip(t_bars, t_bars[1:]))
    assert all(a < b for a, b in zip(sigmas, sigmas[1:]))
    assert t_bars[-1] == pytest.approx(1.0, abs=0.01)
    assert sigmas[-1] == pytest.approx(5.0, abs=0.1)


def _filtered_wandering_quad(sig: float, hw: float) -> tuple[float, float]:
    pdf = lambda d: math.exp(-d * d / (2 * sig * sig)) / (sig * math.sqrt(2 * math.pi))
    span = 12.0 * max(sig, hw)
    t_bar = quad(lambda d: pdf(d) * hw * hw / (d * d + hw * hw),
                 -span, span, points=[0.0], limit=400, epsabs=0.0, epsrel=1e-13)[0]
    second = quad(lambda d: d * d * pdf(d) * hw * hw / (d * d + hw * hw),
                  -span, span, points=[0.0], limit=400, epsabs=0.0, epsrel=1e-13)[0]
    return t_bar, math.sqrt(second / t_bar)


@pytest.mark.parametrize("sig,hw", [(5.0, 2.0), (5.0, 30.0), (0.5, 5.0), (3.0, 3.0),
                                    (40.0, 4.0), (2.12, 15.0)])
def test_filtered_wandering_closed_form_matches_quadrature(sig, hw):
    # the quadrature resolves the Gaussian only while sigma >~ hw / 10
    t_ref, sig_ref = _filtered_wandering_quad(sig, hw)
    t_bar, new = filtered_wandering(Rate(sig), Rate(hw))
    assert t_bar == pytest.approx(t_ref, rel=1e-10)
    assert new.value == pytest.approx(sig_ref, rel=1e-10)


def test_filtered_wandering_narrow_wandering_behind_wide_filter():
    # sigma << hw: T(d) ~ 1 - d^2/hw^2 over the Gaussian, so t_bar ~ 1 - sigma^2/hw^2
    # and the reweighted width stays ~ sigma
    for sig, hw in ((0.01, 19.0), (0.01, 47.0), (1e-4, 10.0)):
        t_bar, new = filtered_wandering(Rate(sig), Rate(hw))
        assert t_bar == pytest.approx(1.0 - (sig / hw) ** 2, rel=1e-12)
        assert new.value == pytest.approx(sig, rel=1e-3)


@pytest.mark.parametrize("ratio", np.logspace(-12, 1, 27))
def test_filtered_wandering_matches_quadrature_for_any_sigma(ratio):
    # 1 - t_bar as a quad over the standard normal z of u / (1 + u), u = (sigma z / hw)^2,
    # which has no cancellation however small sigma is
    hw = 10.0
    sig = ratio * hw
    one_minus = quad(lambda z: math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
                     * (sig * z / hw) ** 2 / (1.0 + (sig * z / hw) ** 2),
                     -math.inf, math.inf, limit=200, epsabs=0.0, epsrel=1e-13)[0]
    t_bar, new = filtered_wandering(Rate(sig), Rate(hw))
    assert t_bar == pytest.approx(1.0 - one_minus, rel=1e-9)
    assert new.value == pytest.approx(hw * math.sqrt(one_minus / (1.0 - one_minus)), rel=1e-9)


def test_filtered_wandering_subnormal_sigma():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t_bar, new = filtered_wandering(Rate(1e-310), Rate(10.0))
    assert (t_bar, new.value) == (1.0, 1e-310)


# --- pair construction and result types -------------------------------------

def test_make_source_pair_computes_s_from_profiles():
    p = make_source_pair(EmitterParams(240.0), EmitterParams(212.0))
    assert p.s_classical == pytest.approx(0.9962, abs=5e-4)


def test_make_source_pair_explicit_s_wins():
    p = make_source_pair(EmitterParams(240.0), EmitterParams(212.0), s_classical=0.9)
    assert p.s_classical == 0.9


def test_source_pair_combined_wandering():
    p = pair_with(delta_omega=(3.0, 4.0))
    assert p.combined_wandering.value == pytest.approx(5.0)


def test_source_pair_effective_sidebands():
    a = EmitterParams(162.0, sideband_fraction=0.2)
    b = EmitterParams(128.0, sideband_fraction=0.1)
    unfiltered = SourcePair(a=a, b=b)
    assert unfiltered.effective_sidebands == (0.2, 0.1)
    filtered = SourcePair(a=a, b=b, filter=FILTER_8PM)
    assert filtered.effective_sidebands == (0.0, 0.0)


def test_source_pair_validates_s():
    with pytest.raises(ValueError):
        pair_with(s=1.2)

