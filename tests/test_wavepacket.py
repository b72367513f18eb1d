"""Temporal profiles and the generalised classical overlap."""

import math

import numpy as np
import pytest

from remotehom.units_core import HBAR_UEV_NS, EnergySplitting, Rate
from remotehom.wavepacket import (
    Charge,
    EmitterParams,
    WavepacketProfile,
    classical_overlap,
    default_grid,
    emission_profile,
    read_lifetime_csv,
)
from remotehom.cli_io import emitter_from_dict

from reference import beating_overlap_quadrature, closed_form_temporal_overlap


def beating_params(t1_ps: float, fss_uev: float) -> EmitterParams:
    return EmitterParams(t1_ps=t1_ps, fss=EnergySplitting(fss_uev), charge=Charge.X)


def test_mono_profile_normalized():
    p = emission_profile(EmitterParams(200.0), np.linspace(0.0, 10.0, 4096))
    assert np.trapezoid(p.f**2, p.t_grid) == pytest.approx(1.0, abs=1e-6)


def test_mono_profile_decay_constant():
    p = emission_profile(EmitterParams(200.0), np.linspace(0.0, 10.0, 100001))
    i0 = np.interp(0.0, p.t_grid, p.f**2)
    i1 = np.interp(0.2, p.t_grid, p.f**2)
    assert i1 / i0 == pytest.approx(math.exp(-1.0), rel=1e-6)


def test_mono_overlap_240_vs_212():
    g = default_grid(240.0, 212.0)
    p = emission_profile(EmitterParams(240.0), g)
    q = emission_profile(EmitterParams(212.0), g)
    s = classical_overlap(p, q)
    assert s == pytest.approx(0.9962, abs=5e-4)
    assert s == pytest.approx(0.995, abs=3e-3)


def test_closed_form_examples():
    assert closed_form_temporal_overlap(Rate(2.5), Rate(2.5)) == pytest.approx(1.0)
    assert closed_form_temporal_overlap(Rate(3.0), Rate(1.0)) == pytest.approx(0.75)
    # 4*128*162/(128+162)^2 = 82944/84100
    s = closed_form_temporal_overlap(Rate(1000 / 162), Rate(1000 / 128))
    assert s == pytest.approx(82944 / 84100, rel=1e-12)
    assert s == pytest.approx(0.9863, abs=1e-4)


def test_closed_form_rejects_zero_rate():
    with pytest.raises(ValueError):
        closed_form_temporal_overlap(Rate(0.0), Rate(1.0))


def test_quadrature_matches_closed_form_random_pairs():
    # 20-lifetime span at 65536 samples: worst trapezoid error ~1e-7
    # over 50-600 ps lifetimes, comfortably under the 1e-6 budget
    rng = np.random.default_rng(21)
    for _ in range(100):
        t1a, t1b = rng.uniform(50.0, 600.0, size=2)
        g = np.linspace(0.0, 20.0 * max(t1a, t1b) / 1000.0, 65536)
        s_grid = classical_overlap(
            emission_profile(EmitterParams(t1a), g),
            emission_profile(EmitterParams(t1b), g),
        )
        s_cf = closed_form_temporal_overlap(Rate(1000 / t1a), Rate(1000 / t1b))
        assert abs(s_grid - s_cf) <= 1e-6


def test_beating_first_zero_position():
    p = emission_profile(beating_params(162.0, 6.3), np.linspace(0.0, 1.62, 65536))
    inten = p.f**2
    # first interior minimum after the first beat maximum; the window
    # covers one full beat period (~656 ps of the 1.62 ns grid)
    i_peak = int(np.argmax(inten))
    i_stop = i_peak + int(0.7 / 1.62 * inten.size)
    i = i_peak + int(np.argmin(inten[i_peak:i_stop]))
    t_zero_ps = p.t_grid[i] * 1000.0
    assert t_zero_ps == pytest.approx(2 * math.pi * 658.2119 / 6.3, abs=1.0)
    assert t_zero_ps == pytest.approx(656.4, abs=1.0)


def test_beating_small_fss_limit_shape():
    # As fss -> 0 the normalized sin^2 projection tends to the
    # t^2-weighted decay t^2 e^{-t/T1} / (2 T1^3), not to the
    # mono-exponential: sin^2(wt) ~ (wt)^2 and the w^2 cancels under
    # normalization while the t^2 envelope survives. Only fss = 0
    # exactly selects the mono-exponential branch.
    g = np.linspace(0.0, 1.62, 8192)
    p_beat = emission_profile(beating_params(162.0, 1e-6), g)
    t1 = 0.162
    limit_intensity = g**2 * np.exp(-g / t1) / (2.0 * t1**3)
    limit_f = np.sqrt(limit_intensity / np.trapezoid(limit_intensity, g))
    np.testing.assert_allclose(p_beat.f, limit_f, atol=1e-6)


def test_beating_zero_fss_allowed():
    g = np.linspace(0.0, 1.62, 4096)
    p = emission_profile(beating_params(162.0, 0.0), g)
    q = emission_profile(EmitterParams(162.0), g)
    np.testing.assert_array_equal(p.f, q.f)


def test_beating_pair_overlap_value():
    # (162 ps, 6.3 ueV) x (128 ps, 6.7 ueV). Reference 0.9791009 from
    # piecewise adaptive quadrature between beat zeros, cross-checked
    # against the analytic normalization integral. The default grid adds
    # ~5e-5 truncation bias, covered by the tolerance.
    g = default_grid(162.0, 128.0)
    s = classical_overlap(
        emission_profile(beating_params(162.0, 6.3), g),
        emission_profile(beating_params(128.0, 6.7), g),
    )
    assert s == pytest.approx(0.9791009, abs=1e-4)


def test_beating_overlap_below_mono_overlap():
    # beating redistributes intensity, so the mismatched-beat pair
    # overlaps less than the plain mono-exponential pair
    g = default_grid(162.0, 128.0)
    s_beat = classical_overlap(
        emission_profile(beating_params(162.0, 6.3), g),
        emission_profile(beating_params(128.0, 6.7), g),
    )
    s_mono = closed_form_temporal_overlap(Rate(1000 / 162), Rate(1000 / 128))
    assert s_beat < s_mono


def test_overlap_symmetric():
    g = default_grid(162.0, 128.0)
    p = emission_profile(beating_params(162.0, 6.3), g)
    q = emission_profile(EmitterParams(128.0), g)
    assert classical_overlap(p, q) == classical_overlap(q, p)


def test_overlap_identical_profiles_is_one():
    p = emission_profile(EmitterParams(162.0), default_grid(162.0))
    assert classical_overlap(p, p) == pytest.approx(1.0, abs=1e-6)


def test_overlap_in_unit_interval_random():
    rng = np.random.default_rng(22)
    for _ in range(20):
        t1a, t1b = rng.uniform(50.0, 600.0, size=2)
        fss = rng.uniform(0.0, 10.0)
        g = default_grid(t1a, t1b)
        p = emission_profile(beating_params(t1a, fss), g)
        q = emission_profile(EmitterParams(t1b), g)
        assert 0.0 <= classical_overlap(p, q) <= 1.0


def test_theta_never_enters_normalized_profile():
    # sin^2(2 theta) cancels under normalization, so a config's theta_rad is
    # checked and dropped: emitters that differ only there are equal
    g = np.linspace(0.0, 1.62, 4096)
    p0, p1 = (emitter_from_dict({"t1_ps": 162.0, "fss_uev": 6.3, "charge": "X",
                                 "theta_rad": theta}) for theta in (0.1, 1.3))
    assert p0 == p1 == beating_params(162.0, 6.3)
    np.testing.assert_array_equal(emission_profile(p0, g).f, emission_profile(p1, g).f)


def test_overlap_rejects_mismatched_grids():
    p = emission_profile(EmitterParams(240.0), np.linspace(0.0, 2.4, 4096))
    q = emission_profile(EmitterParams(212.0), np.linspace(0.0, 2.4, 6000))
    with pytest.raises(ValueError, match="default_grid"):
        classical_overlap(p, q)


def test_overlap_on_one_grid_array_equals_overlap_on_an_equal_copy():
    # the shared-array shortcut skips the elementwise grid test, not the result
    g = default_grid(162.0, 128.0)
    p = emission_profile(beating_params(162.0, 6.3), g)
    q = emission_profile(EmitterParams(128.0), g)
    q_copy = WavepacketProfile(g.copy(), q.f)
    assert p.t_grid is q.t_grid and p.t_grid is not q_copy.t_grid
    assert classical_overlap(p, q) == classical_overlap(p, q_copy)
    shifted = WavepacketProfile(g + 1e-3, q.f)
    with pytest.raises(ValueError, match="default_grid"):
        classical_overlap(p, shifted)


def test_default_grid_keeps_4096_samples_up_to_a_lifetime_ratio_of_10():
    for t1 in [(162.0,), (162.0, 128.0), (240.0, 212.0), (1280.0, 128.0), (128.0, 1280.0)]:
        g = default_grid(*t1)
        np.testing.assert_array_equal(g, np.linspace(0.0, 10.0 * max(t1) / 1000.0, 4096))
        assert g[0] == 0.0 and np.ptp(np.diff(g)) <= 1e-12 * g[-1]
    # past a ratio of 10 the faster emitter keeps 40.96 samples per lifetime
    assert default_grid(128.0, 12800.0).size == 40960
    assert default_grid(128.0, 2560.0 * 128.0).size == 2**20


def test_default_grid_rejects_lifetimes_beyond_the_sample_cap():
    for t1 in [(128.0, 2561.0 * 128.0), (3000.0, 1.0), (1e-300, 1e300)]:
        with pytest.raises(ValueError, match="t1_ps values must lie within a factor 2560"):
            default_grid(*t1)


RATIOS = np.geomspace(1.0, 2560.0, 9)


@pytest.mark.parametrize("ratio", RATIOS)
def test_mono_overlap_on_default_grid_matches_closed_form_up_to_the_cap(ratio):
    t1a, t1b = 128.0, 128.0 * ratio
    g = default_grid(t1a, t1b)
    s = classical_overlap(emission_profile(EmitterParams(t1a), g),
                          emission_profile(EmitterParams(t1b), g))
    s_cf = closed_form_temporal_overlap(Rate(1000 / t1a), Rate(1000 / t1b))
    assert s == pytest.approx(s_cf, rel=1e-4)


@pytest.mark.parametrize("ratio", RATIOS)
def test_beating_overlap_on_default_grid_matches_quadrature_up_to_the_cap(ratio):
    # the slower X beats slower in proportion, so the oracle's pieces stay few
    a, b = (128.0, 6.7), (128.0 * ratio, 6.3 / ratio)
    g = default_grid(a[0], b[0])
    s = classical_overlap(emission_profile(beating_params(*a), g),
                          emission_profile(beating_params(*b), g))
    assert s == pytest.approx(beating_overlap_quadrature(a, b, float(g[-1])), rel=1e-4)


def test_profile_decays_to_zero_where_t_over_t1_overflows():
    # the fast profile on a grid spanning 1e157 ns: t / T1 passes the largest float
    grid = np.linspace(0.0, 1e157, 4096)
    f = emission_profile(EmitterParams(1e-149), grid).f
    assert f[0] > 0.0 and not f[1:].any()


def test_beat_phase_that_overflows_raises():
    with pytest.raises(ValueError, match="fss_uev"):
        emission_profile(beating_params(60.0, 1e261), np.linspace(0.0, 1e48, 4096))


def test_profile_rejects_bad_normalization():
    t = np.linspace(0.0, 1.0, 64)
    with pytest.raises(ValueError):
        WavepacketProfile(t, np.full(64, 3.0))


def test_intensity_cdf_monotone_and_complete():
    p = emission_profile(EmitterParams(162.0), default_grid(162.0))
    cdf = p.intensity_cdf()
    assert cdf[0] == 0.0
    assert cdf[-1] == 1.0
    assert np.all(np.diff(cdf) >= 0)
    # median emission time of an exponential is T1 ln2
    t_med = np.interp(0.5, cdf, p.t_grid)
    assert t_med == pytest.approx(0.162 * math.log(2.0), rel=2e-3)


def test_emitter_params_validation():
    with pytest.raises(ValueError):
        EmitterParams(t1_ps=0.0)
    with pytest.raises(ValueError):
        EmitterParams(t1_ps=162.0, brightness=1.5)
    with pytest.raises(ValueError):
        EmitterParams(t1_ps=162.0, sideband_fraction=-0.1)
    with pytest.raises(ValueError):
        EmitterParams(t1_ps=162.0, tau_c_ns=0.0)
    # a lifetime whose rate 1000/t1_ps overflows four times over, or whose
    # 10-lifetime grid span overflows
    for t1_ps in (1e-320, 5e-306, 2.2e-305, 1e308, math.inf):
        with pytest.raises(ValueError, match="t1_ps must give a finite rate"):
            EmitterParams(t1_ps=t1_ps)
    assert EmitterParams(t1_ps=2.3e-305).gamma.value == 1000.0 / 2.3e-305
    # a wandering width whose 16-width detuning span overflows
    with pytest.raises(ValueError, match="delta_omega must give a finite 16-width"):
        EmitterParams(t1_ps=162.0, delta_omega=Rate(1.2e307))
    assert EmitterParams(t1_ps=162.0, delta_omega=Rate(1e307)).delta_omega.value == 1e307


def test_emission_profile_dispatch():
    g = default_grid(162.0)
    trion = emission_profile(EmitterParams(162.0, charge=Charge.CX), g)
    # X with fss > 0 beats: sin^2(fss t / 2 hbar) exp(-t / T1), normalized
    beat = emission_profile(beating_params(162.0, 6.3), g)
    inten = np.sin(6.3 / (2.0 * HBAR_UEV_NS) * g) ** 2 * np.exp(-g / 0.162)
    expected = WavepacketProfile.from_intensity(g, inten)
    np.testing.assert_array_equal(beat.f, expected.f)
    # X with fss = 0 decays like a CX
    np.testing.assert_array_equal(emission_profile(beating_params(162.0, 0.0), g).f, trion.f)
    # a trion's fss is ignored
    trion_fss = EmitterParams(162.0, fss=EnergySplitting(6.3), charge=Charge.CX)
    np.testing.assert_array_equal(emission_profile(trion_fss, g).f, trion.f)


def test_read_lifetime_csv(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("time_ps,counts\n0,100\n50,61\n100,37\n")
    t, c = read_lifetime_csv(path)
    np.testing.assert_array_equal(t, [0.0, 50.0, 100.0])
    np.testing.assert_array_equal(c, [100.0, 61.0, 37.0])


def test_read_lifetime_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t,n\n0,100\n")
    with pytest.raises(ValueError):
        read_lifetime_csv(path)
