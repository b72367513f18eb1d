"""Unit conversion layer: exact constants, round trips, validation."""

import math

import numpy as np
import pytest

from remotehom.units_core import (
    C_NM_PER_NS,
    HBAR_UEV_NS,
    EnergySplitting,
    Frequency,
    Rate,
    Wavelength,
    angular_frequency_to_wavelength,
    angular_rate_to_energy,
    energy_to_angular_rate,
    fwhm_pm_to_angular_rate,
    lifetime_to_rate,
    make_rng,
    rate_to_lifetime,
    read_csv_columns,
    uniform_grid,
    wavelength_to_angular_frequency,
    write_csv_columns,
)


def test_hbar_constant_value():
    assert HBAR_UEV_NS == pytest.approx(0.6582119, abs=1e-7)


def test_speed_of_light_nm_per_ns():
    # 299792458 m/s = 2.99792458e8 nm/ns
    assert C_NM_PER_NS == pytest.approx(2.99792458e8, rel=1e-12)


def test_energy_equal_to_hbar_gives_unit_rate():
    r = energy_to_angular_rate(EnergySplitting(0.6582119))
    assert r.value == pytest.approx(1.0, rel=1e-9)


def test_fine_structure_splitting_beat_rate():
    # 6.3 ueV splitting: angular rate ~9.572 rad/ns, beat period ~656 ps
    r = energy_to_angular_rate(EnergySplitting(6.3))
    assert r.value == pytest.approx(9.572, abs=2e-3)
    period_ps = 2.0 * math.pi / r.value * 1000.0
    assert period_ps == pytest.approx(656.4, abs=0.5)


def test_lifetime_to_rate_examples():
    assert lifetime_to_rate(162.0).value == pytest.approx(6.173, abs=1e-3)
    assert lifetime_to_rate(128.0).value == pytest.approx(7.8125, rel=1e-12)
    assert lifetime_to_rate(1000.0).value == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, -162.0])
def test_lifetime_to_rate_rejects_non_positive(bad):
    with pytest.raises(ValueError):
        lifetime_to_rate(bad)


def test_energy_rate_round_trip_random():
    rng = np.random.default_rng(11)
    for e in rng.uniform(1e-3, 1e3, size=200):
        back = angular_rate_to_energy(energy_to_angular_rate(EnergySplitting(e)))
        assert back.value == pytest.approx(e, rel=1e-12)


def test_lifetime_rate_round_trip_random():
    rng = np.random.default_rng(12)
    for t1 in rng.uniform(1.0, 5000.0, size=200):
        assert rate_to_lifetime(lifetime_to_rate(t1)) == pytest.approx(t1, rel=1e-12)


def test_wavelength_frequency_round_trip_random():
    rng = np.random.default_rng(13)
    for wl in rng.uniform(200.0, 2000.0, size=200):
        back = angular_frequency_to_wavelength(
            wavelength_to_angular_frequency(Wavelength(wl))
        )
        assert back.value == pytest.approx(wl, rel=1e-12)


def test_wavelength_to_angular_frequency_magnitude():
    # omega = 2 pi c / lambda; at 924.8 nm this is ~2.037e6 rad/ns
    f = wavelength_to_angular_frequency(Wavelength(924.8))
    assert f.value == pytest.approx(2.0 * math.pi * C_NM_PER_NS / 924.8, rel=1e-14)
    assert 2.0e6 < f.value < 2.1e6


def test_fwhm_pm_conversion_linearization():
    center = Wavelength(924.734)
    r = fwhm_pm_to_angular_rate(318.9, center)
    expected = 2.0 * math.pi * C_NM_PER_NS * 318.9e-3 / 924.734**2
    assert r.value == pytest.approx(expected, rel=1e-12)
    # pm-scale width at optical wavelength: linearization error < 1e-3 relative
    lo = wavelength_to_angular_frequency(Wavelength(924.734 - 0.3189 / 2))
    hi = wavelength_to_angular_frequency(Wavelength(924.734 + 0.3189 / 2))
    assert r.value == pytest.approx(lo.value - hi.value, rel=1e-3)


def test_fwhm_pm_rejects_non_positive():
    with pytest.raises(ValueError):
        fwhm_pm_to_angular_rate(0.0, Wavelength(924.8))


def test_rate_validation():
    with pytest.raises(ValueError):
        Rate(-1.0)
    with pytest.raises(ValueError):
        Rate(float("nan"))
    Rate(0.0)  # zero allowed (no dephasing, no detuning)


def test_frequency_validation():
    with pytest.raises(ValueError):
        Frequency(float("inf"))
    Frequency(-3.0)  # signed detunings allowed


def test_wavelength_validation():
    with pytest.raises(ValueError):
        Wavelength(0.0)
    with pytest.raises(ValueError):
        Wavelength(-924.8)


def test_energy_splitting_validation():
    with pytest.raises(ValueError):
        EnergySplitting(-0.1)
    EnergySplitting(0.0)


def test_value_types_are_frozen():
    r = Rate(1.0)
    with pytest.raises(AttributeError):
        r.value = 2.0  # type: ignore[misc]


def test_make_rng_same_key_same_stream():
    a = make_rng(1234, 0, 7, 2).uniform(size=16)
    b = make_rng(1234, 0, 7, 2).uniform(size=16)
    np.testing.assert_array_equal(a, b)


def test_make_rng_distinct_purpose_keys_differ():
    base = make_rng(1234, 0, 0, 0).uniform(size=16)
    for key in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]:
        other = make_rng(1234, *key).uniform(size=16)
        assert not np.array_equal(base, other)


def test_make_rng_seed_changes_stream():
    a = make_rng(1, 0).uniform(size=16)
    b = make_rng(2, 0).uniform(size=16)
    assert not np.array_equal(a, b)


def test_uniform_grid_spacing_and_bounds():
    g = uniform_grid(2.5, 501)
    assert g[0] == 0.0
    assert g[-1] == pytest.approx(2.5, rel=1e-15)
    assert len(g) == 501
    dt = np.diff(g)
    np.testing.assert_allclose(dt, dt[0], rtol=1e-12)


def test_uniform_grid_validation():
    with pytest.raises(ValueError):
        uniform_grid(-1.0)
    with pytest.raises(ValueError):
        uniform_grid(1.0, 1)


def test_read_csv_columns_skips_comments_and_extra_cells(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# produced by a test\n a , b ,note\n1.5,2,x\n# mid\n3,4e1,y\n")
    a, b = read_csv_columns(path, ("a", "b"))
    np.testing.assert_array_equal(a, [1.5, 3.0])
    np.testing.assert_array_equal(b, [2.0, 40.0])


@pytest.mark.parametrize("text, message", [
    ("", "empty"),
    ("# only a comment\n", "empty"),
    ("a,c\n1,2\n", "header"),
    ("a,b\n", "no data rows"),
    ("a,b\n1,2\n3\n", "fewer than 2 cells"),
    ("a,b\n1,nan\n", "finite"),
    ("a,b\n1,2\n-inf,2\n", "finite"),
    ("a,b\n1,1e999\n", "finite"),
    ("a,b\n1,two\n", "could not convert"),
])
def test_read_csv_columns_rejects_malformed_files(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_csv_columns(path, ("a", "b"))


def test_write_csv_columns_round_trips_exactly(tmp_path):
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40),
                        [5e-324, -0.0, 0.1, 1.0 / 3.0]])
    n = rng.integers(-2**52, 2**52, x.size)
    path = tmp_path / "columns.csv"
    write_csv_columns(path, ("x", "n"), (x, n), comment="two columns")
    lines = path.read_text().splitlines()
    assert lines[:2] == ["# two columns", "x,n"]
    assert all(line.split(",")[1].lstrip("-").isdigit() for line in lines[2:])
    x_back, n_back = read_csv_columns(path, ("x", "n"))
    np.testing.assert_array_equal(x_back, x)
    np.testing.assert_array_equal(n_back, n)
