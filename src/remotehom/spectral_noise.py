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
    "visibility_vs_delay",
    "intrinsic_visibility",
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
                    n: int) -> np.ndarray:
    """x_0 .. x_{n-1} of x_{k+1} = lam x_k + sigma sqrt(1-lam^2) eps_k, as a numpy scan.

    x_0 is drawn from the stationary N(0, sigma^2), then the n - 1 drive
    terms eps_k, all from `rng`. With lam x_0 folded into the first drive
    term, the passes s = 1, 2, 4, ... add lam^s times the partial sums s
    steps back. They stop once lam^s underflows to 0, after which every
    pass would add exact zeros.
    """
    path = np.empty(n)
    path[0] = sigma * rng.standard_normal()
    out = path[1:]
    out[:] = sigma * math.sqrt(1.0 - lam * lam) * rng.standard_normal(n - 1)
    out[:1] += lam * path[0]
    s, factor = 1, lam
    while s < out.size and factor > 0.0:
        out[s:] += factor * out[:-s]
        s, factor = 2 * s, factor * factor
    return path


def sample_frequency_path(p: WanderingProcess, times: Sequence[float] | np.ndarray,
                          stream: int = 0) -> np.ndarray:
    """Frequency offsets (rad/ns) of the wandering process at the given times.

    Deterministic for a given (seed, stream); the path starts in the
    stationary distribution. Times must be increasing. `stream` selects
    an independent sub-stream for the same seed (the documented split
    rule for concurrent use).
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if np.any(np.diff(t) < 0):
        raise ValueError("times must be increasing")
    sigma = p.sigma.value
    if sigma == 0.0:
        return np.zeros_like(t)
    rng = make_rng(p.seed, stream)
    dts = np.diff(t)
    if dts.size and np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
        return ou_path_uniform(sigma, math.exp(-dts[0] / p.tau_c_ns), rng, t.size)
    out = np.empty(t.size)
    out[0] = sigma * rng.standard_normal()
    noise = rng.standard_normal(t.size - 1)
    for k, dt in enumerate(dts):
        lam = math.exp(-dt / p.tau_c_ns)
        out[k + 1] = lam * out[k] + sigma * math.sqrt(1.0 - lam * lam) * noise[k]
    return out


def visibility_vs_delay(v0: float, delta_omega_r: float, tau_c_ns: float,
                        delay_ns: float) -> float:
    """Visibility between photons of one source separated by a delay.

    V(d) = v0 / [ 1 + 2 dw_r^2 (1 - exp(-d / tau_c)) ], where dw_r is the
    wandering width in units of the total homogeneous linewidth. Monotone
    non-increasing in both the delay and dw_r.
    """
    if not 0.0 <= v0 <= 1.0:
        raise ValueError(f"v0 must be in [0, 1], got {v0}")
    if delta_omega_r < 0 or tau_c_ns <= 0 or delay_ns < 0:
        raise ValueError("need delta_omega_r >= 0, tau_c > 0, delay >= 0")
    growth = 1.0 - math.exp(-delay_ns / tau_c_ns)
    return v0 / (1.0 + 2.0 * delta_omega_r ** 2 * growth)


def intrinsic_visibility(gamma: Rate, gamma_star: Rate) -> float:
    """Zero-delay indistinguishability g / (g + g*) of a single source."""
    if gamma.value <= 0:
        raise ValueError("radiative rate must be > 0")
    return gamma.value / (gamma.value + gamma_star.value)


def individual_indistinguishability(params: EmitterParams, delay_ns: float) -> float:
    """Single-source two-photon indistinguishability at a photon separation.

    Combines the intrinsic value g/(g+g*) with the delay law, using
    dw_r = delta_omega / (g + g*) and the source's own tau_c.
    """
    v0 = intrinsic_visibility(params.gamma, params.gamma_star)
    dw_r = params.delta_omega.value / params.total_linewidth.value
    return visibility_vs_delay(v0, dw_r, params.tau_c_ns, delay_ns)


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
        if np.any(np.diff(d) <= 0):
            raise ValueError("delays must be strictly increasing")
        if np.any((v < 0) | (v > 1)):
            raise ValueError("visibilities must lie in [0, 1]")

    def __len__(self) -> int:
        return int(self.delay_ns.size)

    def to_csv(self, path: str | Path, header_comment: str | None = None) -> None:
        write_csv_columns(path, ("delay_ns", "visibility", "sigma_v"),
                          (self.delay_ns, self.visibility, self.sigma_v), comment=header_comment)

    @classmethod
    def from_csv(cls, path: str | Path, source_label: str = "",
                 filtered: bool = False) -> "DelayVisibilitySeries":
        return cls(*read_csv_columns(path, ("delay_ns", "visibility", "sigma_v")),
                   source_label=source_label, filtered=filtered)
