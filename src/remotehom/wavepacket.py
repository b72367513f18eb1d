"""Temporal amplitude profiles of emitted photons and their classical overlap.

A profile stores the magnitude f(t) of the temporal amplitude on a
uniform grid, normalized so that the intensity integrates to one. The
generalised classical overlap of two profiles is

    s = [ integral f_p(t) f_q(t) dt ]^2,

which upper-bounds the mean wavepacket overlap of the corresponding
photons and equals 4*g_i*g_j/(g_i+g_j)^2 for mono-exponential decays.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

from .units_core import (HBAR_UEV_NS, EnergySplitting, Rate, lifetime_to_rate,
                         read_csv_columns, uniform_grid)

__all__ = [
    "Charge",
    "EmitterParams",
    "WavepacketProfile",
    "GridSpanError",
    "default_grid",
    "emission_profile",
    "classical_overlap",
    "read_lifetime_csv",
]

NORM_TOL = 1e-6
DEFAULT_SPAN_LIFETIMES = 10.0
DEFAULT_SAMPLES = 4096


class Charge(Enum):
    """Emitter charge state: neutral exciton (X) or trion (CX)."""

    X = "X"
    CX = "CX"


class GridSpanError(ValueError):
    """Raised when a time grid is too short for a requested profile."""


@dataclass(frozen=True)
class EmitterParams:
    """Static parameters of one single-photon source.

    t1_ps            : radiative lifetime (ps), > 0
    gamma_star       : pure-dephasing rate (ns^-1)
    delta_omega      : std. dev. of the slow frequency wandering (rad/ns)
    tau_c_ns         : wandering correlation time (ns), > 0
    fss              : fine-structure splitting (ueV)
    theta_rad        : dipole angle w.r.t. the analysis axis (rad); validated, unused
    charge           : X (beating decay) or CX (mono-exponential decay)
    brightness       : emission probability per excitation pulse, in [0, 1]
    sideband_fraction: fraction of emission in the incoherent sideband, in [0, 1]
    """

    t1_ps: float
    gamma_star: Rate = Rate(0.0)
    delta_omega: Rate = Rate(0.0)
    tau_c_ns: float = 1400.0
    fss: EnergySplitting = EnergySplitting(0.0)
    theta_rad: float = 0.0
    charge: Charge = Charge.CX
    brightness: float = 1.0
    sideband_fraction: float = 0.05

    def __post_init__(self) -> None:
        if not self.t1_ps > 0:
            raise ValueError(f"t1_ps must be > 0, got {self.t1_ps}")
        if not self.tau_c_ns > 0:
            raise ValueError(f"tau_c_ns must be > 0, got {self.tau_c_ns}")
        if not math.isfinite(self.theta_rad):
            raise ValueError(f"theta_rad must be finite, got {self.theta_rad}")
        for name in ("brightness", "sideband_fraction"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")

    @property
    def gamma(self) -> Rate:
        """Radiative rate 1/T1 in ns^-1."""
        return lifetime_to_rate(self.t1_ps)

    @property
    def total_linewidth(self) -> Rate:
        """Homogeneous linewidth gamma + gamma* in ns^-1."""
        return Rate(self.gamma.value + self.gamma_star.value)


@dataclass(frozen=True)
class WavepacketProfile:
    """Normalized temporal amplitude |f(t)| on a uniform time grid (ns)."""

    t_grid: np.ndarray
    f: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t_grid, dtype=float)
        f = np.asarray(self.f, dtype=float)
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "f", f)
        if t.ndim != 1 or t.shape != f.shape or t.size < 2:
            raise ValueError("t_grid and f must be 1-d arrays of equal length >= 2")
        dt = np.diff(t)
        if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
            raise ValueError("t_grid must be uniformly spaced")
        if np.any(f < 0):
            raise ValueError("amplitude samples must be non-negative")
        norm = np.trapezoid(f * f, t)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"intensity must integrate to 1 +- {NORM_TOL}, got {norm}")

    @property
    def dt(self) -> float:
        return float(self.t_grid[1] - self.t_grid[0])

    @classmethod
    def from_intensity(cls, t_grid: np.ndarray, intensity: np.ndarray) -> "WavepacketProfile":
        """Build a normalized profile from sampled (non-negative) intensity."""
        t = np.asarray(t_grid, dtype=float)
        inten = np.asarray(intensity, dtype=float)
        if np.any(inten < 0):
            raise ValueError("intensity must be non-negative")
        area = np.trapezoid(inten, t)
        if area <= 0:
            raise ValueError("intensity must have positive area")
        return cls(t, np.sqrt(inten / area))

    def intensity_cdf(self) -> np.ndarray:
        """Cumulative intensity on the grid, normalized to end at 1 exactly."""
        inten = self.f * self.f
        mids = 0.5 * (inten[1:] + inten[:-1]) * np.diff(self.t_grid)
        cdf = np.concatenate([[0.0], np.cumsum(mids)])
        return cdf / cdf[-1]


def default_grid(*t1_ps: float) -> np.ndarray:
    """Uniform grid of DEFAULT_SAMPLES points spanning 10 times the longest lifetime."""
    if not t1_ps:
        raise ValueError("at least one lifetime required")
    return uniform_grid(DEFAULT_SPAN_LIFETIMES * max(t1_ps) / 1000.0, DEFAULT_SAMPLES)


def _check_grid(grid: np.ndarray, t1_ns: float) -> None:
    span = float(grid[-1] - grid[0])
    if span < 5.0 * t1_ns:
        raise GridSpanError(
            f"grid span {span:.4g} ns < 5 lifetimes ({5 * t1_ns:.4g} ns); truncation too large")
    # 1e-9 slack: a span of exactly 10 lifetimes may round a few ulp short
    if span < DEFAULT_SPAN_LIFETIMES * t1_ns * (1.0 - 1e-9) or grid.size < 2000:
        warnings.warn(
            "grid shorter than 10 lifetimes or under 2000 samples; "
            "profile truncation error may exceed 5e-5", stacklevel=3)


def emission_profile(params: EmitterParams,
                     grid: Optional[np.ndarray] = None) -> WavepacketProfile:
    """Profile implied by the charge state, normalized on `grid` (default: 10 lifetimes).

    The intensity is exp(-t / T1), zero before t = 0. A neutral exciton (X)
    with fss > 0 beats: the decay is multiplied by sin^2(fss * t / (2 hbar)).
    A trion (CX) ignores its fss, and an X with fss = 0 decays like a CX.
    The overall sin^2(2 theta) projection factor cancels under
    normalization, so theta never enters. This is the ideal trace with no
    detector response, so overlaps of measured traces come out higher:
    0.979 ideal vs 0.986 measured for the (162 ps, 6.3 ueV) x
    (128 ps, 6.7 ueV) pair.
    """
    t1_ns = params.t1_ps / 1000.0
    if grid is None:
        grid = default_grid(params.t1_ps)
    grid = np.asarray(grid, dtype=float)
    _check_grid(grid, t1_ns)
    t = np.clip(grid, 0.0, None)
    intensity = np.exp(-t / t1_ns)
    if params.charge is Charge.X and params.fss.value > 0:
        intensity *= np.sin(params.fss.value / (2.0 * HBAR_UEV_NS) * t) ** 2
    intensity[grid < 0] = 0.0
    return WavepacketProfile.from_intensity(grid, intensity)


def _resample(p: WavepacketProfile, q: WavepacketProfile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Put two profiles on one grid (the finer spacing wins), zero outside support."""
    same = (p.t_grid.size == q.t_grid.size
            and np.allclose(p.t_grid, q.t_grid, rtol=1e-12, atol=1e-15))
    if same:
        return p.t_grid, p.f, q.f
    dt = min(p.dt, q.dt)
    t0 = min(p.t_grid[0], q.t_grid[0])
    t1 = max(p.t_grid[-1], q.t_grid[-1])
    n = int(round((t1 - t0) / dt)) + 1
    t = t0 + dt * np.arange(n)
    fp = np.interp(t, p.t_grid, p.f, left=0.0, right=0.0)
    fq = np.interp(t, q.t_grid, q.f, left=0.0, right=0.0)
    return t, fp, fq


def classical_overlap(p: WavepacketProfile, q: WavepacketProfile) -> float:
    """Generalised classical overlap s = [ integral f_p f_q dt ]^2, in [0, 1].

    Symmetric in its arguments; equals 1 for identical profiles
    (Cauchy-Schwarz equality) and the closed form
    4*g_p*g_q/(g_p+g_q)^2 for mono-exponential profiles.
    """
    t, fp, fq = _resample(p, q)
    s = float(np.trapezoid(fp * fq, t)) ** 2
    return min(max(s, 0.0), 1.0)


def read_lifetime_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a lifetime trace CSV with header `time_ps,counts`."""
    return read_csv_columns(path, ("time_ps", "counts"))
