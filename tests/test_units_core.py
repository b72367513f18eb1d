"""Unit conversion layer: exact constants, round trips, validation."""

import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remotehom.units_core import (
    C_NM_PER_NS,
    HBAR_UEV_NS,
    EnergySplitting,
    Frequency,
    Rate,
    Wavelength,
    column_text,
    fwhm_pm_to_angular_rate,
    json_text,
    lifetime_to_rate,
    make_rng,
    read_csv_columns,
    write_csv_columns,
)

from reference import csv_float_columns


def test_hbar_constant_value():
    assert HBAR_UEV_NS == pytest.approx(0.6582119, abs=1e-7)


def test_speed_of_light_nm_per_ns():
    # 299792458 m/s = 2.99792458e8 nm/ns
    assert C_NM_PER_NS == pytest.approx(2.99792458e8, rel=1e-12)


def test_energy_equal_to_hbar_gives_unit_rate():
    assert 0.6582119 / HBAR_UEV_NS == pytest.approx(1.0, rel=1e-9)


def test_fine_structure_splitting_beat_rate():
    # 6.3 ueV splitting: angular rate ~9.572 rad/ns, beat period ~656 ps
    rate = 6.3 / HBAR_UEV_NS
    assert rate == pytest.approx(9.572, abs=2e-3)
    period_ps = 2.0 * math.pi / rate * 1000.0
    assert period_ps == pytest.approx(656.4, abs=0.5)


def test_lifetime_to_rate_examples():
    assert lifetime_to_rate(162.0).value == pytest.approx(6.173, abs=1e-3)
    assert lifetime_to_rate(128.0).value == pytest.approx(7.8125, rel=1e-12)
    assert lifetime_to_rate(1000.0).value == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, -162.0])
def test_lifetime_to_rate_rejects_non_positive(bad):
    with pytest.raises(ValueError):
        lifetime_to_rate(bad)


def test_fwhm_pm_conversion_linearization():
    center = Wavelength(924.734)
    r = fwhm_pm_to_angular_rate(318.9, center)
    expected = 2.0 * math.pi * C_NM_PER_NS * 318.9e-3 / 924.734**2
    assert r.value == pytest.approx(expected, rel=1e-12)
    # pm-scale width at optical wavelength: linearization error < 1e-3 relative
    # against the exact omega = 2 pi c / lambda at the two band edges
    lo = 2.0 * math.pi * C_NM_PER_NS / (924.734 - 0.3189 / 2)
    hi = 2.0 * math.pi * C_NM_PER_NS / (924.734 + 0.3189 / 2)
    assert r.value == pytest.approx(lo - hi, rel=1e-3)


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


def test_make_rng_keys_differing_by_trailing_zeros_alias():
    # SeedSequence pads its entropy with zeros to four words: the reason each
    # caller keeps one key length
    a = make_rng(1234, 0, 9).uniform(size=16)
    b = make_rng(1234, 0, 9, 0).uniform(size=16)
    np.testing.assert_array_equal(a, b)


def test_make_rng_seed_changes_stream():
    a = make_rng(1, 0).uniform(size=16)
    b = make_rng(2, 0).uniform(size=16)
    assert not np.array_equal(a, b)


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
    ("a,b\n1,2\n   \n3,4\n", "could not convert"),  # a whitespace-only line is a row
    ("a,b\n1_000,2\n", "could not convert"),  # float() reads 1000, numpy's parser does not
    ("a,b\n1,2 # note\n", "could not convert"),  # a comment takes a whole line
    ("a,b\nNaN,2\n", "finite"),
    ("a,b\n1,Infinity\n", "finite"),
])
def test_read_csv_columns_rejects_malformed_files(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as info:
        read_csv_columns(path, ("a", "b"))
    assert " at row" not in str(info.value)  # loadtxt's row numbers skip comments and blanks


def test_read_csv_columns_reads_quoted_cells_crlf_and_mid_file_comments(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b'# exported\r\n"a"," b ",note\r\n"1.5",2,"x,y"\r\n  # mid\r\n\r\n'
                     b'3," 4e1 "\r\n')
    a, b = read_csv_columns(path, ("a", "b"))
    np.testing.assert_array_equal(a, [1.5, 3.0])
    np.testing.assert_array_equal(b, [2.0, 40.0])


def test_read_csv_columns_header_only_file_raises_without_warning(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# no data\na,b\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no data rows"):
            read_csv_columns(path, ("a", "b"))


NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-10**20, 10**20).map(str))
ODD_CELLS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["NaN", "-inf", "Infinity", "+1.5", ".5", "5.", "-0", "1E-3", "1_000",
                     "0x10", "1e999", "", "two", "2#c", "1 2", "--1"]),
    st.text(alphabet="0123456789.eE+-_ ", max_size=6),
)
# a cell plain, quoted or padded; a blank before an opening quote makes the
# quote part of the cell
FORMATS = st.sampled_from(["{}", '"{}"', "{} ", " {}", '"{}" ', "\t{}"])
ODD_FORMATS = st.sampled_from(["{}", '"{}"', ' "{}"', '\t"{}" '])
TAILS = st.sampled_from(["", ",x", ',"1,2"'])
OTHER_LINES = st.sampled_from(["# comment", "  # indented, comment", "", "   ", "7", "#"])


@st.composite
def csv_texts(draw) -> str:
    """CSV text under an `a,b` header: rows of two numbers, plain, quoted or
    padded, some with a third cell; then up to two odd cells and up to two
    comment, empty, whitespace-only or short lines; LF or CRLF."""
    rows = [[draw(FORMATS).format(a), draw(FORMATS).format(b)]
            for a, b in draw(st.lists(st.tuples(NUMBERS, NUMBERS), min_size=1, max_size=6))]
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, 1))] = draw(ODD_FORMATS).format(draw(ODD_CELLS))
    lines = [",".join(row) + draw(TAILS) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(OTHER_LINES))
    header = draw(st.sampled_from(["a,b", " a , b ,c", "a,c", '"a","b"', "a,b"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join([header] + lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=csv_texts())
def test_read_csv_columns_matches_the_csv_module_and_float(text):
    # bit-equal columns wherever the oracle reads the file, ValueError
    # wherever it raises; only an underscore literal reads in the oracle alone
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(text.encode())
        try:
            expected = csv_float_columns(path, ("a", "b"))
        except ValueError:
            with pytest.raises(ValueError):
                read_csv_columns(path, ("a", "b"))
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = read_csv_columns(path, ("a", "b"))
            except ValueError as exc:
                assert "_" in str(exc).split(":", 1)[1], exc
                return
    assert [c.tobytes() for c in got] == [c.tobytes() for c in expected]


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


def test_write_csv_columns_matches_the_percent_r_row_format(tmp_path):
    x = np.array([-0.0, 1e-05, 5e-324, 1e16, 0.1, -2.5e-300, 123456789.0])
    n = np.array([0, -1, 2**62, -(2**63), 7, 10**15, 3], dtype=np.int64)
    expected = "# c\nx,n\n" + "".join("%r,%r\n" % row for row in zip(x.tolist(), n.tolist()))
    write_csv_columns(tmp_path / "arrays.csv", ("x", "n"), (x, n), comment="c")
    assert (tmp_path / "arrays.csv").read_text() == expected
    # a column given as its text writes the same bytes
    write_csv_columns(tmp_path / "text.csv", ("x", "n"), (column_text(x), n), comment="c")
    assert (tmp_path / "text.csv").read_bytes() == (tmp_path / "arrays.csv").read_bytes()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_text_rejects_a_float_json_cannot_hold(value):
    assert json_text({"v": 1.5}) == '{\n  "v": 1.5\n}\n'
    with pytest.raises(ValueError):
        json_text({"nested": [0.0, {"v": value}]})
