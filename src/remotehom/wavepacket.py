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
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .units_core import HBAR_UEV_NS, EnergySplitting, Rate, lifetime_to_rate, read_csv_columns

__all__ = [
    "Charge",
    "EmitterParams",
    "WavepacketProfile",
    "default_grid",
    "emission_profile",
    "classical_overlap",
    "read_lifetime_csv",
]

NORM_TOL = 1e-6
DEFAULT_SPAN_LIFETIMES = 10.0
DEFAULT_SAMPLES = 4096
MIN_SAMPLES_PER_LIFETIME = 40.96  # what DEFAULT_SAMPLES gives at a lifetime ratio of 10
MAX_GRID_SAMPLES = 2**20


class Charge(Enum):
    """Emitter charge state: neutral exciton (X) or trion (CX)."""

    X = "X"
    CX = "CX"


@dataclass(frozen=True)
class EmitterParams:
    """Static parameters of one single-photon source.

    t1_ps            : radiative lifetime (ps), > 0
    gamma_star       : pure-dephasing rate (ns^-1)
    delta_omega      : std. dev. of the slow frequency wandering (rad/ns)
    tau_c_ns         : wandering correlation time (ns), > 0
    fss              : fine-structure splitting (ueV)
    charge           : X (beating decay) or CX (mono-exponential decay)
    brightness       : emission probability per excitation pulse, in [0, 1]
    sideband_fraction: fraction of emission in the incoherent sideband, in [0, 1]
    """

    t1_ps: float
    gamma_star: Rate = Rate(0.0)
    delta_omega: Rate = Rate(0.0)
    tau_c_ns: float = 1400.0
    fss: EnergySplitting = EnergySplitting(0.0)
    charge: Charge = Charge.CX
    brightness: float = 1.0
    sideband_fraction: float = 0.05

    def __post_init__(self) -> None:
        if not self.t1_ps > 0:
            raise ValueError(f"t1_ps must be > 0, got {self.t1_ps}")
        # a pair's closed forms add the two rates, and the trapezoid over a normalized
        # profile adds two peaks of up to twice the rate: 4000/t1_ps must be finite
        if not (math.isfinite(4000.0 / self.t1_ps)
                and math.isfinite(DEFAULT_SPAN_LIFETIMES * self.t1_ps)):
            raise ValueError(f"t1_ps must give a finite rate 1000/t1_ps with fourfold headroom "
                             f"and a finite {DEFAULT_SPAN_LIFETIMES:g}-lifetime span, so lie "
                             f"between about 2.2e-305 and 1.8e307, got {self.t1_ps}")
        if not self.tau_c_ns > 0:
            raise ValueError(f"tau_c_ns must be > 0, got {self.tau_c_ns}")
        # the simulator's detuning path reaches about 6 combined widths, and the
        # combined width of a pair is up to sqrt(2) widths of one source
        if not math.isfinite(16.0 * self.delta_omega.value):
            raise ValueError("delta_omega must give a finite 16-width detuning span, "
                             f"got {self.delta_omega.value}")
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
    """Normalized temporal amplitude |f(t)| on a time grid (ns), e.g. `default_grid`."""

    t_grid: np.ndarray
    f: np.ndarray

    def __post_init__(self) -> None:
        norm = np.trapezoid(self.f * self.f, self.t_grid)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"intensity must integrate to 1 +- {NORM_TOL}, got {norm}")

    @classmethod
    def from_intensity(cls, t_grid: np.ndarray, intensity: np.ndarray) -> "WavepacketProfile":
        """Build a normalized profile from sampled (non-negative) intensity."""
        t = np.asarray(t_grid, dtype=float)
        inten = np.asarray(intensity, dtype=float)
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
    """Uniform grid from 0 over 10 times the longest of the lifetimes `t1_ps`, in
    DEFAULT_SAMPLES points or, where they differ by more than a factor 10, in
    enough to give the shortest MIN_SAMPLES_PER_LIFETIME samples per lifetime.
    Mono-exponential overlaps on it are then within 4.5e-5 relative of the
    closed form 4 g_a g_b / (g_a + g_b)^2, and 2.1e-5 at ratios above 10.
    More than MAX_GRID_SAMPLES points, a ratio above 2560, raise ValueError
    naming `t1_ps`.

    Beyond 10 lifetimes a mono-exponential profile leaves e^-10 = 4.5e-5 of
    its intensity. A beating X leaves more, and more the slower it beats:
    for T1 = 162 ps, 8.9e-5 at 6.3 ueV, 6.0e-4 at 1.5 ueV and 2.4e-3 at
    0.5 ueV. Profiles are renormalized on the grid, so that tail is dropped.
    """
    lo, hi = min(t1_ps), max(t1_ps)
    n = MIN_SAMPLES_PER_LIFETIME * DEFAULT_SPAN_LIFETIMES * (hi / lo)
    if not n <= MAX_GRID_SAMPLES:
        max_ratio = MAX_GRID_SAMPLES / (MIN_SAMPLES_PER_LIFETIME * DEFAULT_SPAN_LIFETIMES)
        raise ValueError(f"t1_ps values must lie within a factor {max_ratio:g} of each other "
                         f"(a grid of at most {MAX_GRID_SAMPLES} samples), got {lo:g} and {hi:g}")
    return np.linspace(0.0, DEFAULT_SPAN_LIFETIMES * hi / 1000.0,
                       max(DEFAULT_SAMPLES, math.ceil(n)))


def emission_profile(params: EmitterParams, grid: np.ndarray) -> WavepacketProfile:
    """Profile implied by the charge state, normalized on `grid`.

    The intensity is exp(-t / T1), zero before t = 0. A neutral exciton (X)
    with fss > 0 beats: the decay is multiplied by sin^2(fss * t / (2 hbar)).
    A trion (CX) ignores its fss, and an X with fss = 0 decays like a CX.
    The dipole angle enters only as an overall sin^2(2 theta) factor,
    which cancels under normalization, so it is no parameter (a config's
    `theta_rad` is checked and dropped). This is the ideal trace with no
    detector response, so overlaps of measured traces come out higher:
    0.979 ideal vs 0.986 measured for the (162 ps, 6.3 ueV) x
    (128 ps, 6.7 ueV) pair.
    """
    t1_ns = params.t1_ps / 1000.0
    grid = np.asarray(grid, dtype=float)
    t = np.clip(grid, 0.0, None)
    with np.errstate(over="ignore"):  # t / T1 past the largest float: the decay's limit 0
        intensity = np.exp(-t / t1_ns)
    if params.charge is Charge.X and params.fss.value > 0:
        beat = params.fss.value / (2.0 * HBAR_UEV_NS)
        if not math.isfinite(beat * float(t.max())):
            raise ValueError(f"fss_uev must give a finite beat phase, got {params.fss.value}")
        intensity *= np.sin(beat * t) ** 2
    intensity[grid < 0] = 0.0
    return WavepacketProfile.from_intensity(grid, intensity)


def classical_overlap(p: WavepacketProfile, q: WavepacketProfile) -> float:
    """Generalised classical overlap s = [ integral f_p f_q dt ]^2, in [0, 1].

    Symmetric in its arguments; equals 1 for identical profiles
    (Cauchy-Schwarz equality) and the closed form
    4*g_p*g_q/(g_p+g_q)^2 for mono-exponential profiles. Both profiles
    must be sampled on one grid, e.g. `default_grid(t1_p, t1_q)`.
    """
    # one array is one grid (a profile's grid holds no NaN): skip the elementwise test
    if p.t_grid is not q.t_grid and (
            p.t_grid.size != q.t_grid.size
            or not np.allclose(p.t_grid, q.t_grid, rtol=1e-12, atol=1e-15)):
        raise ValueError("profiles must share one time grid; build both on "
                         "default_grid(t1_p, t1_q)")
    s = float(np.trapezoid(p.f * q.f, p.t_grid)) ** 2
    return min(max(s, 0.0), 1.0)


def read_lifetime_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a lifetime trace CSV with header `time_ps,counts`."""
    return read_csv_columns(path, ("time_ps", "counts"))
