"""Physical quantities, unit conversions, and shared numeric utilities.

Canonical internal units: time in ns, rates and angular frequencies in
rad/ns (rates are treated as angular-compatible because only ratios and
differences of rates and detunings enter the formulas). Wavelengths are
kept in nm and energies in ueV at the API boundary.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "HBAR_UEV_NS",
    "C_NM_PER_NS",
    "Frequency",
    "Rate",
    "EnergySplitting",
    "Wavelength",
    "lifetime_to_rate",
    "fwhm_pm_to_angular_rate",
    "make_rng",
    "read_csv_columns",
    "column_text",
    "write_csv_columns",
    "json_text",
]

#: Reduced Planck constant in ueV * ns.
HBAR_UEV_NS = 0.6582119

#: Vacuum speed of light in nm / ns (299792458 m/s expressed in nm and ns).
C_NM_PER_NS = 2.99792458e8


@dataclass(frozen=True)
class Frequency:
    """Angular frequency in rad/ns."""

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"frequency must be finite, got {self.value}")


@dataclass(frozen=True)
class Rate:
    """Decay or dephasing rate in ns^-1 (angular-compatible), non-negative."""

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value < 0:
            raise ValueError(f"rate must be finite and >= 0, got {self.value}")


@dataclass(frozen=True)
class EnergySplitting:
    """Energy splitting in ueV, non-negative."""

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value < 0:
            raise ValueError(f"energy splitting must be >= 0 ueV, got {self.value}")


@dataclass(frozen=True)
class Wavelength:
    """Wavelength in nm, strictly positive."""

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value <= 0:
            raise ValueError(f"wavelength must be > 0 nm, got {self.value}")


def lifetime_to_rate(t1_ps: float) -> Rate:
    """Emission rate (ns^-1) for a lifetime given in ps.

    Raises ValueError for non-positive lifetimes.
    """
    if not t1_ps > 0:
        raise ValueError(f"lifetime must be > 0 ps, got {t1_ps}")
    return Rate(1000.0 / t1_ps)


def fwhm_pm_to_angular_rate(fwhm_pm: float, center: Wavelength) -> Rate:
    """Convert a spectral FWHM in pm around `center` to rad/ns.

    Uses the local linearization |d omega/d lambda| = 2 pi c / lambda^2,
    which is exact to first order for pm-scale widths at optical
    wavelengths.
    """
    dlam_nm = fwhm_pm * 1e-3
    return Rate(2.0 * math.pi * C_NM_PER_NS * dlam_nm / center.value**2)


def make_rng(seed: int, *stream_key: int) -> np.random.Generator:
    """Deterministic RNG for (seed, sub-stream key).

    All stochastic code in this package draws from generators produced
    here. Passing the same `(seed, *stream_key)` always yields the same
    stream; distinct keys of one length yield statistically independent
    streams. This is the documented split rule for concurrent simulations.
    Each caller keeps one key length: `SeedSequence` pads its entropy with
    zeros to four words, so keys that differ only by trailing zeros, such
    as (s, 0, 9) and (s, 0, 9, 0), give the same stream.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, stream_key)]))


def read_csv_columns(path: str | Path, names: Sequence[str]) -> tuple[np.ndarray, ...]:
    """The leading columns `names` of a CSV file, one float array each.

    Empty lines are skipped and lines whose first non-blank character is
    `#` are comments; the first other line is the header and must start
    with `names`; further columns are ignored. numpy's C parser
    (`np.loadtxt`, `"` quoting a cell) reads the data rows, so `1_000`,
    which `float()` reads, is an error. Raises ValueError on an empty file,
    a wrong header, no data rows, a short row or a cell that is not a
    finite number.
    """
    path, n = Path(path), len(names)
    # `"#" not in ln` spares the lstrip on the many lines that cannot be comments
    lines = [ln for ln in path.read_text().split("\n")
             if ln and ("#" not in ln or not ln.lstrip().startswith("#"))]
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = next(csv.reader(lines[:1]))
    if [c.strip() for c in header[:n]] != list(names):
        raise ValueError(f"{path}: expected header '{','.join(names)}', got {header}")
    if len(lines) == 1:  # before loadtxt, which warns on an empty input
        raise ValueError(f"{path}: no data rows")
    try:
        data = np.loadtxt(lines[1:], delimiter=",", usecols=range(n), ndmin=2, quotechar='"',
                          comments=None)
    except ValueError as exc:  # loadtxt's "at row" counts data lines, not file lines: cut it
        msg = str(exc).split(" at row")[0]
        if msg.startswith("invalid column index"):  # loadtxt's words for a short row
            msg = f"a row with fewer than {n} cells"
        raise ValueError(f"{path}: {msg}") from None
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: every value must be finite")
    return tuple(data.T)


def column_text(column: np.ndarray) -> list[str]:
    """A column's CSV text: the repr of each value's Python scalar, so floats
    read back bit for bit with :func:`read_csv_columns` and integers stay
    integers."""
    return list(map(repr, np.asarray(column).tolist()))


def write_csv_columns(path: str | Path, names: Sequence[str],
                      columns: Sequence[np.ndarray | list[str]], comment: str) -> None:
    """Write `columns` under the header `names`, after a `# comment` line.

    A column is an array, written as its :func:`column_text`, or that text.
    """
    texts = [c if isinstance(c, list) else column_text(c) for c in columns]
    lines = [f"# {comment}", ",".join(names)]
    lines += map(",".join, zip(*texts))
    Path(path).write_text("\n".join(lines) + "\n", newline="")


def json_text(payload: dict) -> str:
    """The canonical text of a JSON artifact: sorted keys, indent 2, final newline.
    Raises ValueError on a NaN or infinite float, which JSON cannot hold."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
