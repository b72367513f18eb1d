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
    "energy_to_angular_rate",
    "lifetime_to_rate",
    "wavelength_to_angular_frequency",
    "angular_frequency_to_wavelength",
    "fwhm_pm_to_angular_rate",
    "make_rng",
    "uniform_grid",
    "read_csv_columns",
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

    def to_angular_rate(self) -> Rate:
        return energy_to_angular_rate(self)


@dataclass(frozen=True)
class Wavelength:
    """Wavelength in nm, strictly positive."""

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value <= 0:
            raise ValueError(f"wavelength must be > 0 nm, got {self.value}")

    def to_angular_frequency(self) -> Frequency:
        return wavelength_to_angular_frequency(self)


def energy_to_angular_rate(e: EnergySplitting) -> Rate:
    """Convert an energy splitting (ueV) to an angular rate (rad/ns) via hbar."""
    return Rate(e.value / HBAR_UEV_NS)


def angular_rate_to_energy(r: Rate) -> EnergySplitting:
    """Inverse of :func:`energy_to_angular_rate`."""
    return EnergySplitting(r.value * HBAR_UEV_NS)


def lifetime_to_rate(t1_ps: float) -> Rate:
    """Emission rate (ns^-1) for a lifetime given in ps.

    Raises ValueError for non-positive lifetimes.
    """
    if not t1_ps > 0:
        raise ValueError(f"lifetime must be > 0 ps, got {t1_ps}")
    return Rate(1000.0 / t1_ps)


def rate_to_lifetime(r: Rate) -> float:
    """Lifetime in ps for an emission rate; inverse of :func:`lifetime_to_rate`."""
    if r.value <= 0:
        raise ValueError("rate must be > 0 to define a lifetime")
    return 1000.0 / r.value


def wavelength_to_angular_frequency(wl: Wavelength) -> Frequency:
    """Angular frequency (rad/ns) of light with the given vacuum wavelength."""
    return Frequency(2.0 * math.pi * C_NM_PER_NS / wl.value)


def angular_frequency_to_wavelength(f: Frequency) -> Wavelength:
    """Inverse of :func:`wavelength_to_angular_frequency`."""
    if f.value <= 0:
        raise ValueError("frequency must be > 0 to define a wavelength")
    return Wavelength(2.0 * math.pi * C_NM_PER_NS / f.value)


def fwhm_pm_to_angular_rate(fwhm_pm: float, center: Wavelength) -> Rate:
    """Convert a spectral FWHM in pm around `center` to rad/ns.

    Uses the local linearization |d omega/d lambda| = 2 pi c / lambda^2,
    which is exact to first order for pm-scale widths at optical
    wavelengths.
    """
    if fwhm_pm <= 0:
        raise ValueError(f"FWHM must be > 0 pm, got {fwhm_pm}")
    dlam_nm = fwhm_pm * 1e-3
    return Rate(2.0 * math.pi * C_NM_PER_NS * dlam_nm / center.value**2)


def make_rng(seed: int, *stream_key: int) -> np.random.Generator:
    """Deterministic RNG for (seed, sub-stream key).

    All stochastic code in this package draws from generators produced
    here. Passing the same `(seed, *stream_key)` always yields the same
    stream; distinct keys yield statistically independent streams. This
    is the documented split rule for concurrent simulations.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, stream_key)]))


def uniform_grid(t_max_ns: float, n_samples: int = 4096) -> np.ndarray:
    """Uniform time grid [0, t_max] in ns with `n_samples` points."""
    if t_max_ns <= 0 or n_samples < 2:
        raise ValueError("grid needs t_max > 0 and at least 2 samples")
    return np.linspace(0.0, float(t_max_ns), int(n_samples))


def read_csv_columns(path: str | Path, names: Sequence[str]) -> tuple[np.ndarray, ...]:
    """The leading columns `names` of a CSV file, one float array each.

    Lines starting with `#` are comments; the first other line is the
    header and must start with `names`; further columns are ignored. Raises
    ValueError on an empty file, a wrong header, no data rows, a short
    row or a cell that is not a finite number.
    """
    path, n = Path(path), len(names)
    with path.open(newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise ValueError(f"{path}: empty file")
    if [c.strip() for c in rows[0][:n]] != list(names):
        raise ValueError(f"{path}: expected header '{','.join(names)}', got {rows[0]}")
    if len(rows) == 1 or min(map(len, rows[1:])) < n:
        raise ValueError(f"{path}: no data rows, or a row with fewer than {n} cells")
    data = np.array([float(c) for r in rows[1:] for c in r[:n]]).reshape(-1, n)
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: every value must be finite")
    return tuple(data.T)


def write_csv_columns(path: str | Path, names: Sequence[str], columns: Sequence[np.ndarray],
                      comment: str | None = None) -> None:
    """Write `columns` under the header `names`, after an optional `# comment` line.

    Each value is the repr of its Python scalar, so floats read back bit for
    bit with :func:`read_csv_columns` and integer columns stay integers.
    """
    fmt = ",".join(["%r"] * len(names))
    lines = ([f"# {comment}"] if comment else []) + [",".join(names)]
    lines += [fmt % values for values in zip(*(np.asarray(c).tolist() for c in columns))]
    Path(path).write_text("\n".join(lines) + "\n", newline="")


def json_text(payload: dict) -> str:
    """The canonical text of a JSON artifact: sorted keys, indent 2, final newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
