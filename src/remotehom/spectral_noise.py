"""Stochastic spectral diffusion and the delay-dependent visibility law.

The emitter center frequency wanders as a stationary Gauss-Markov
(Ornstein-Uhlenbeck) process: normally distributed with std `sigma` and
exponentially decaying autocorrelation with time constant `tau_c`. That
is the minimal process with the two properties the visibility law
assumes, and it is sampled here with the exact conditional transition,
so any step size is unbiased.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .units_core import Rate, make_rng, read_csv_columns, write_csv_columns
from .wavepacket import EmitterParams

__all__ = [
    "WanderingProcess",
    "DelayVisibilitySeries",
    "sample_frequency_path",
    "ou_path_uniform",
    "individual_indistinguishability",
]


@dataclass(frozen=True)
class WanderingProcess:
    """Stationary OU frequency wandering: std sigma (rad/ns), timescale tau_c (ns)."""

    sigma: Rate
    tau_c_ns: float
    seed: int

    def __post_init__(self) -> None:
        if not self.tau_c_ns > 0:
            raise ValueError(f"tau_c_ns must be > 0, got {self.tau_c_ns}")


def ou_path_uniform(sigma: float, lam: float, rng: np.random.Generator,
                    n: int, out: np.ndarray | None = None) -> np.ndarray:
    """x_0 .. x_{n-1} of x_{k+1} = lam x_k + sigma sqrt(1-lam^2) eps_k, as a numpy scan.

    x_0 is drawn from the stationary N(0, sigma^2), then the n - 1 drive
    terms eps_k, all from `rng`, straight into the path. With lam x_0
    folded into the first drive term, the passes s = 1, 2, 4, ... add
    lam^s times the partial sums s steps back, each product formed in one
    scratch array. They stop once lam^s underflows to 0, after which every
    pass would add exact zeros. The path goes to `out`, a contiguous
    float64 array of n elements, or else to a new array, and is returned;
    the draws and bits are the same either way. `out` is overwritten, so
    it must not share memory with an array the caller still reads.
    """
    path = np.empty(n) if out is None else out
    path[0] = sigma * rng.standard_normal()
    drive = rng.standard_normal(n - 1, out=path[1:])
    drive *= sigma * math.sqrt(1.0 - lam * lam)
    drive[:1] += lam * path[0]
    scratch = np.empty(max(drive.size - 1, 0))
    s, factor = 1, lam
    while s < drive.size and factor > 0.0:
        drive[s:] += np.multiply(factor, drive[:-s], out=scratch[:drive.size - s])
        s, factor = 2 * s, factor * factor
    return path


def sample_frequency_path(p: WanderingProcess, times: Sequence[float] | np.ndarray) -> np.ndarray:
    """Frequency offsets (rad/ns) of the wandering process at uniformly spaced times.

    The path of :func:`ou_path_uniform` on the stream `make_rng(seed, 0)`,
    starting in the stationary distribution. Raises ValueError unless the
    times are a non-empty 1-d sequence, increasing and uniformly spaced.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    dts = np.diff(t)
    if dts.size and not (dts[0] > 0 and np.allclose(dts, dts[0], rtol=1e-9, atol=0.0)):
        raise ValueError("times must be increasing and uniformly spaced")
    if p.sigma.value == 0.0:
        return np.zeros_like(t)
    lam = math.exp(-dts[0] / p.tau_c_ns) if dts.size else 0.0
    return ou_path_uniform(p.sigma.value, lam, make_rng(p.seed, 0), t.size)


def individual_indistinguishability(params: EmitterParams,
                                    delay_ns: float | np.ndarray) -> float | np.ndarray:
    """Two-photon indistinguishability of one source at a photon separation (ns).

    V(d) = v0 / [ 1 + 2 dw_r^2 (1 - exp(-d / tau_c)) ] with the intrinsic
    value v0 = g / (g + g*), the wandering width in units of the total
    homogeneous linewidth dw_r = delta_omega / (g + g*) and the source's own
    tau_c, elementwise over an array of delays. Monotone non-increasing in
    the delay and dw_r. Raises ValueError on a negative delay.
    """
    g = params.gamma.value
    v0 = g / (g + params.gamma_star.value)
    dw_r = params.delta_omega.value / params.total_linewidth.value
    d = np.asarray(delay_ns, dtype=float)
    if np.any(d < 0):
        raise ValueError("delay must be >= 0")
    growth = 1.0 - np.exp(-d / params.tau_c_ns)
    # np.float64 squares as a float does, but may overflow: then V is 0, or v0 at zero growth
    with np.errstate(over="ignore", invalid="ignore"):
        v = v0 / (1.0 + 2.0 * np.float64(dw_r) ** 2 * growth)
    return np.where(growth > 0.0, v, v0)[()]


@dataclass(frozen=True)
class DelayVisibilitySeries:
    """(delay, visibility, uncertainty) triples for one source/filter setting."""

    delay_ns: np.ndarray
    visibility: np.ndarray
    sigma_v: np.ndarray
    source_label: str = ""
    filtered: bool = False

    def __post_init__(self) -> None:
        d = np.asarray(self.delay_ns, dtype=float)
        v = np.asarray(self.visibility, dtype=float)
        s = np.asarray(self.sigma_v, dtype=float)
        object.__setattr__(self, "delay_ns", d)
        object.__setattr__(self, "visibility", v)
        object.__setattr__(self, "sigma_v", s)
        if not (d.shape == v.shape == s.shape) or d.ndim != 1 or d.size == 0:
            raise ValueError("delay, visibility and sigma arrays must match and be non-empty")
        if not np.all(np.isfinite(np.stack([d, v, s]))):
            raise ValueError("delay, visibility and sigma must be finite")
        if d[0] < 0 or np.any(np.diff(d) <= 0):
            raise ValueError("delays must be non-negative and strictly increasing")
        if np.any((v < 0) | (v > 1)):
            raise ValueError("visibilities must lie in [0, 1]")

    def __len__(self) -> int:
        return int(self.delay_ns.size)

    def to_csv(self, path: str | Path, header_comment: str) -> None:
        write_csv_columns(path, ("delay_ns", "visibility", "sigma_v"),
                          (self.delay_ns, self.visibility, self.sigma_v), comment=header_comment)

    @classmethod
    def from_csv(cls, path: str | Path, source_label: str = "",
                 filtered: bool = False) -> "DelayVisibilitySeries":
        return cls(*read_csv_columns(path, ("delay_ns", "visibility", "sigma_v")),
                   source_label=source_label, filtered=filtered)
