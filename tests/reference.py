"""Independent references that the tests check the package against.

None is needed at run time: `closed_form_temporal_overlap` is the
closed form that `classical_overlap` must reproduce for mono-exponential
profiles, `beating_overlap_quadrature` the piecewise adaptive quadrature it
must reproduce for beating ones, `finite_difference_jacobian` the numerical
derivative that every analytic Jacobian in `remotehom.estimation` must match,
`csv_float_columns` the `csv` module and `float()` reading of a CSV that
`read_csv_columns` must reproduce, and `dense_delay_bin_probs` the full
(2W + 1) x (n_bins + 1) delay table whose rows the banded
`_delay_bin_probs` must hold.
"""

import csv
import math
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from remotehom.units_core import Rate


def closed_form_temporal_overlap(gamma_i: Rate, gamma_j: Rate) -> float:
    """Closed-form overlap 4*g_i*g_j/(g_i+g_j)^2 of two mono-exponential decays."""
    gi, gj = gamma_i.value, gamma_j.value
    if gi <= 0 or gj <= 0:
        raise ValueError("both rates must be > 0")
    return 4.0 * gi * gj / (gi + gj) ** 2


def finite_difference_jacobian(fn: Callable, p: np.ndarray, x, rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of fn(p, x) with a relative step."""
    p = np.asarray(p, dtype=float)
    cols = []
    for j in range(p.size):
        h = rel_step * max(abs(p[j]), 1e-8)
        up, dn = p.copy(), p.copy()
        up[j] += h
        dn[j] -= h
        cols.append((np.asarray(fn(up, x)) - np.asarray(fn(dn, x))) / (2.0 * h))
    return np.stack(cols, axis=1)


def csv_float_columns(path: str | Path, names: Sequence[str]) -> tuple[np.ndarray, ...]:
    """`read_csv_columns` by the `csv` module and one `float()` per cell.

    The same contract, except that `float()` also reads what numpy's parser
    rejects (underscore literals such as `1_000`, non-ASCII digits) and that
    a quoted first cell starting with `#` makes the line a comment.
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


def dense_delay_bin_probs(pair, cfg) -> tuple[np.ndarray, np.ndarray]:
    """Bin edges and the full table of bin probabilities of t_b - t_a + k*T,
    one row per peak offset k in [-W, W], each with a last overflow cell.

    The delay shape of `hom_montecarlo._delay_bin_probs` with every bin of
    every row stored: the cross-correlation of the two profiles' cell
    masses, times the jitter's transfer function, read as a CDF at
    `edges - k*T`.
    """
    half_span = (cfg.window_peaks + 0.5) * cfg.rep_period_ns
    n_bins = max(1, int(round(2.0 * half_span / (cfg.bin_width_ps / 1000.0))))
    edges = np.linspace(-half_span, half_span, n_bins + 1)
    m_a, m_b = (np.diff(p.intensity_cdf()) for p in pair.profiles)
    grid = pair.profiles[0].t_grid
    dt = float(grid[1] - grid[0])
    sig = math.sqrt(2.0) * cfg.jitter_sigma_ps / 1000.0
    lag0 = m_a.size - 1 + int(math.ceil(8.0 * sig / dt))
    n_fft = 1 << (2 * lag0).bit_length()
    spec = np.fft.rfft(m_b, n_fft) * np.conj(np.fft.rfft(m_a, n_fft)) \
        * np.exp(-2.0 * (math.pi * sig * np.fft.rfftfreq(n_fft, dt)) ** 2)
    dens = np.roll(np.fft.irfft(spec, n_fft), lag0)[:2 * lag0 + 1]
    cdf_x = dt * (np.arange(dens.size + 1) - lag0 - 0.5)
    cdf = np.concatenate([[0.0], np.cumsum(dens)])
    ks = np.arange(-cfg.window_peaks, cfg.window_peaks + 1)
    p = np.clip(np.diff(np.interp(edges - ks[:, None] * cfg.rep_period_ns, cdf_x, cdf)), 0.0, None)
    return edges, np.column_stack([p, np.maximum(1.0 - p.sum(axis=1), 0.0)])


def beating_overlap_quadrature(a: tuple[float, float], b: tuple[float, float],
                               t_end: float) -> float:
    """Classical overlap of two ideal beating decays (T1 ps, fss ueV) on [0, t_end] ns.

    Independent oracle: each intensity sin^2(fss t / 2 hbar) exp(-t / T1)
    is integrated with `quad` piecewise between the zeros of both sine
    factors, where |sin| is smooth. Uses no package code.
    """
    hbar = 0.6582119569  # ueV ns (CODATA)
    (t1a, fss_a), (t1b, fss_b) = a, b
    wa, wb = fss_a / (2 * hbar), fss_b / (2 * hbar)
    ga, gb = 1000.0 / t1a, 1000.0 / t1b
    zeros = {k * math.pi / w for w in (wa, wb) for k in range(1, int(t_end * w / math.pi) + 1)}
    edges = [0.0, *sorted(z for z in zeros if z < t_end), t_end]

    def integral(fn) -> float:
        return math.fsum(quad(fn, lo, hi, epsabs=0.0, epsrel=1e-12)[0]
                         for lo, hi in zip(edges, edges[1:]))

    na = integral(lambda t: math.sin(wa * t) ** 2 * math.exp(-ga * t))
    nb = integral(lambda t: math.sin(wb * t) ** 2 * math.exp(-gb * t))
    c = integral(lambda t: abs(math.sin(wa * t) * math.sin(wb * t)) * math.exp(-0.5 * (ga + gb) * t))
    return c * c / (na * nb)
