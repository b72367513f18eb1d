"""Pulse-train Monte-Carlo synthesis of two-source interference histograms.

Each excitation pulse may yield one photon per source; photon pairs are
formed between the two sources only (same-pulse pairs build the central
peak, pairs offset by whole repetition periods build the side peaks).
Same-source accidentals are outside the model, which is why the
perpendicular central peak equals the side peaks. For the parallel
configuration a same-pulse coincidence survives with probability
(1 - m)/2, where m is the dephasing-broadened overlap evaluated at the
instantaneous detuning of that pulse; all other pairings survive with
probability 1/2. Averaged over the wandering statistics, the parallel
suppression therefore reproduces the Voigt-averaged overlap without ever
evaluating it, which is this module's role as an independent check of
the closed form.

A histogram is shape x counts. The detection-time difference of one
coincidence does not depend on which pulse produced it, so each peak's
bin probabilities are computed once per run (the cross-correlation of
the two emission profiles, smoothed by the detector jitter, shifted by
the peak's offset) and stored as a band: the bins that hold the peak's
support, every other bin having probability exactly 0, so memory grows
linearly in the number of peaks. The shape is built first, on the
calling thread, since two threads overlap little of a shard's short
numpy calls. A shard counts the coincidences of each peak: a per-pulse
Bernoulli for the parallel central peak, where the wandering-correlated
m changes from pulse to pulse, and binomial counts everywhere else. Each
peak's histogram is then one multinomial draw of its count over its
band, which draws what a draw over the whole row would, since a bin of
probability 0 takes no draw. A shard draws only what can change a
result: a brightness of 1 settles every pulse without a draw, the phonon
sidebands scale m by (1 - p_a)(1 - p_b) instead of a per-pulse draw that
would enter only that pulse's acceptance, and sources sharing tau_c get
one OU path for the detuning, since the difference of two independent OU
paths with one tau_c is an OU path of std hypot(dw_a, dw_b). Unequal
tau_c draw two. A shard does its per-pulse float work (the emission
draws, the detuning paths, m, the acceptance probability and its uniform
draws) in place in one workspace of two shard-long rows of its own
(every pair's detuning in row 0), so it makes no temporary arrays of
that size (but the one scratch array of each OU scan), which would be
freed and faulted in again shard after shard.

Determinism: the pulse train is cut into fixed-size shards, and the
shards of all polarizations of a run share one thread pool (none at one
worker or one shard per polarization). The process keeps one pool per
worker count from its first use to its exit, so a study's runs start no
threads of their own; a child of `os.fork` drops the parent's pools, whose
threads it does not have, and builds its own. Python 3.12 and later warn
when a process with live threads calls `os.fork`; `subprocess` does not
fork that way and does not warn. Every random stream is keyed by
(seed, polarization, shard index, purpose), so merged histograms are
bit-identical for any worker count or execution order. Wandering and
blinking restart from their stationary distributions at shard
boundaries, and photon pairings never cross a shard boundary (both
effects are negligible at the default shard size of 65536 pulses against
correlation times of microseconds or less).
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .units_core import json_text, make_rng, write_csv_columns
from .overlap_analytics import SourcePair, mwo_voigt_averaged, mwo_with_dephasing
from .spectral_noise import ou_path_uniform

__all__ = [
    "Polarization",
    "HomExperimentConfig",
    "CoincidenceHistogram",
    "VisibilityEstimate",
    "simulate_histogram",
    "simulate_histograms",
    "estimate_visibility",
    "analytic_prediction",
    "write_histogram_csv",
    "write_visibility_json",
]

SHARD_SIZE = 65536
_MAX_DELAY_FFT = 1 << 24  # delay-shape FFT cap, what T1 0.01 ps needs at 12 ps jitter


class Polarization(Enum):
    PARALLEL = "parallel"
    PERPENDICULAR = "perpendicular"


@dataclass(frozen=True)
class HomExperimentConfig:
    """Pulse-train and detection settings for one interference run.

    n_pulses below ~1e4 gives estimates dominated by shot noise; the
    statistical contracts in this package assume at least that many.
    """

    n_pulses: int
    rep_period_ns: float = 12.2
    jitter_sigma_ps: float = 12.0
    g2: float = 0.0
    blink_on_prob: float = 0.9
    blink_dwell_ns: float = 100.0
    bin_width_ps: float = 50.0
    window_peaks: int = 3

    def __post_init__(self) -> None:
        if self.n_pulses < 1:
            raise ValueError("n_pulses must be >= 1")
        for name in ("rep_period_ns", "jitter_sigma_ps", "blink_dwell_ns", "bin_width_ps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.rep_period_ns <= 0 or self.bin_width_ps <= 0:
            raise ValueError("rep_period_ns and bin_width_ps must be > 0")
        if not 0.0 <= self.g2 < 1.0:
            raise ValueError(f"g2 must be in [0, 1), got {self.g2}")
        if not 0.0 <= self.blink_on_prob <= 1.0:
            raise ValueError("blink_on_prob must be in [0, 1]")
        if self.blink_on_prob < 1.0 and self.blink_dwell_ns < self.rep_period_ns:
            raise ValueError("blink_dwell_ns must be >= rep_period_ns")
        if self.jitter_sigma_ps < 0 or self.window_peaks < 1:
            raise ValueError("jitter must be >= 0 and window_peaks >= 1")


@dataclass(frozen=True)
class CoincidenceHistogram:
    """Binned coincidence counts vs detection-time difference (ns)."""

    bin_centers: np.ndarray
    counts: np.ndarray
    polarization: Polarization


@dataclass(frozen=True)
class VisibilityEstimate:
    """Interference visibility 1 - A_par/A_perp with Poisson uncertainty."""

    v_tpi: float
    sigma: float
    a_par: float
    a_perp: float


# Stream purpose codes; every use of randomness gets its own sub-stream so
# that switching one mechanism on or off (e.g. blinking) leaves all other
# draws untouched, enabling tightly paired comparisons at one seed. Retired
# codes (6, 7, 10) stay gaps: recoding a live stream would change its draws.
_P_BLINK_A, _P_BLINK_B = 0, 1
_P_EMIT_A, _P_EMIT_B = 2, 3
_P_FREQ_A, _P_FREQ_B = 4, 5
_P_ACCEPT, _P_TIMES, _P_G2 = 8, 9, 11


def _blink_chain(rng: np.random.Generator, n: int, p_on: float,
                 rep_period_ns: float, dwell_ns: float) -> np.ndarray:
    """Stationary two-state Markov chain sampled at pulse resolution.

    The stationary on-probability is p_on; dwell_ns is the correlation
    time of the chain, so P(off->on) = p_on * T / dwell per pulse and
    P(on->off) = (1 - p_on) * T / dwell.
    """
    if p_on >= 1.0:
        return np.ones(n, dtype=bool)
    if p_on <= 0.0:
        return np.zeros(n, dtype=bool)
    to_on = p_on * rep_period_ns / dwell_ns
    to_off = (1.0 - p_on) * rep_period_ns / dwell_ns
    start_on = bool(rng.random() < p_on)
    pieces = []
    covered = 0
    state = start_on
    mean_cycle = 1.0 / to_on + 1.0 / to_off
    while covered < n:
        n_cyc = max(8, int(1.3 * (n - covered) / mean_cycle))
        lens_a = rng.geometric(to_off if state else to_on, n_cyc)
        lens_b = rng.geometric(to_on if state else to_off, n_cyc)
        # cut at n: with p_on within ulps of 0 or 1 a dwell can exceed 1e16 pulses
        lens = np.minimum(np.column_stack([lens_a, lens_b]).ravel(), n)
        vals = np.tile([state, not state], n_cyc)
        pieces.append(np.repeat(vals, lens))
        covered += int(lens.sum())
        # after an even number of segments the state is back where it started
    return np.concatenate(pieces)[:n]


@functools.lru_cache(maxsize=1)
def _binning(window_peaks: int, rep_period_ns: float,
             bin_width_ps: float) -> tuple[np.ndarray, np.ndarray]:
    """The histogram's bin edges and centers (ns), read-only: a study's runs
    share one binning, so the last one is kept."""
    half_span = (window_peaks + 0.5) * rep_period_ns
    n_bins = max(1, int(round(2.0 * half_span / (bin_width_ps / 1000.0))))
    edges = np.linspace(-half_span, half_span, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    edges.flags.writeable = centers.flags.writeable = False
    return edges, centers


def _delay_bin_probs(pair: SourcePair, cfg: HomExperimentConfig
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Histogram bin edges and, for each peak offset k in [-W, W], the band of
    bins that holds the support of t_b - t_a + k*T: its first bin and the bin
    probabilities over it.

    Row k + W of the probabilities holds one value per band bin plus a last
    overflow cell for the mass outside the band; every bin outside the band
    has probability exactly 0, so the band is the whole row of a dense
    (2W + 1) x n_bins table, in O(W * band) memory. Arrival times are
    piecewise uniform within the profile grid cells (the inverse of the
    piecewise-linear CDF), so the difference density is the cross-correlation
    of the two profiles' cell masses on the pair's shared grid, smoothed by
    the two detectors' Gaussian jitter (combined width sigma * sqrt(2)),
    applied as its transfer function exp(-2 (pi sigma f)^2) on at most _MAX_DELAY_FFT points.
    """
    edges, _ = _binning(cfg.window_peaks, cfg.rep_period_ns, cfg.bin_width_ps)
    n_bins = edges.size - 1
    m_a, m_b = (np.diff(p.intensity_cdf()) for p in pair.profiles)
    grid = pair.profiles[0].t_grid
    dt = float(grid[1] - grid[0])
    sig = math.sqrt(2.0) * cfg.jitter_sigma_ps / 1000.0
    lag0 = m_a.size - 1 + math.ceil(min(8.0 * sig / dt, _MAX_DELAY_FFT))  # lags -lag0 .. lag0
    n_fft = 1 << (2 * lag0).bit_length()
    if n_fft > _MAX_DELAY_FFT:  # min() sends an infinite lag count here too
        raise ValueError(f"jitter_sigma_ps {cfg.jitter_sigma_ps!r} against t1_ps {pair.a.t1_ps!r} "
                         f"and {pair.b.t1_ps!r} needs a delay shape of more than 2^24 FFT points")
    spec = np.fft.rfft(m_b, n_fft) * np.conj(np.fft.rfft(m_a, n_fft)) \
        * np.exp(-2.0 * (math.pi * sig * np.fft.rfftfreq(n_fft, dt)) ** 2)
    dens = np.roll(np.fft.irfft(spec, n_fft), lag0)[:2 * lag0 + 1]
    cdf_x = dt * (np.arange(dens.size + 1) - lag0 - 0.5)
    cdf = np.concatenate([[0.0], np.cumsum(dens)])
    shifts = np.arange(-cfg.window_peaks, cfg.window_peaks + 1) * cfg.rep_period_ns
    # a bin with both edges on one side of [cdf_x[0], cdf_x[-1]] reads one constant
    # CDF value twice, so its probability is exactly 0; the spare bins on each side
    # absorb the rounding of edges - shift
    first = np.searchsorted(edges, cdf_x[0] + shifts) - 2
    width = min(int(np.max(np.searchsorted(edges, cdf_x[-1] + shifts) + 1 - first)), n_bins)
    starts = np.clip(first, 0, n_bins - width)
    p = np.clip(np.diff(np.interp(edges[starts[:, None] + np.arange(width + 1)] - shifts[:, None],
                                  cdf_x, cdf)), 0.0, None)
    return edges, starts, np.column_stack([p, np.maximum(1.0 - p.sum(axis=1), 0.0)])


def _simulate_shard(pair: SourcePair, cfg: HomExperimentConfig, pol: Polarization,
                    seed: int, shard: int, n_shard: int, probs: np.ndarray) -> np.ndarray:
    """Coincidence counts of one shard over each peak's band, whose bin
    probabilities are the rows `probs` of `_delay_bin_probs`."""
    key = (0 if pol is Polarization.PARALLEL else 1, shard)
    T = cfg.rep_period_ns
    W = cfg.window_peaks

    on_a = _blink_chain(make_rng(seed, *key, _P_BLINK_A), n_shard,
                        cfg.blink_on_prob, T, cfg.blink_dwell_ns)
    on_b = _blink_chain(make_rng(seed, *key, _P_BLINK_B), n_shard,
                        cfg.blink_on_prob, T, cfg.blink_dwell_ns)

    # the shard's per-pulse floats are drawn and computed in place in these two
    # rows (an OU path adds its scan's one scratch array), not in temporaries
    # that would be freed and faulted in again shard after shard
    rows = np.empty((2, n_shard))

    def bernoulli(purpose: int, p: float) -> np.ndarray | bool:
        # random() lies in [0, 1), so p = 0 and p = 1 settle every pulse without
        # a draw; each purpose has its own stream, so no other draw moves
        if p <= 0.0 or p >= 1.0:
            return p >= 1.0
        return make_rng(seed, *key, purpose).random(n_shard, out=rows[0]) < p

    present_a = on_a & bernoulli(_P_EMIT_A, pair.a.brightness)
    present_b = on_b & bernoulli(_P_EMIT_B, pair.b.brightness)

    # cross-source pairs at offset k, index k + W: same-pulse pairs build the
    # central peak, pairs offset by whole periods the side peaks
    both = present_a & present_b
    offsets = range(1, min(W, n_shard - 1) + 1)
    n_pairs = np.zeros(2 * W + 1, dtype=np.int64)
    n_pairs[W] = np.count_nonzero(both)
    for off in offsets:
        n_pairs[W + off] = np.count_nonzero(present_a[:-off] & present_b[off:])
        n_pairs[W - off] = np.count_nonzero(present_a[off:] & present_b[:-off])

    rng_accept = make_rng(seed, *key, _P_ACCEPT)
    n_peak = np.zeros(2 * W + 1, dtype=np.int64)  # coincidences at offset k, index k + W
    if pol is Polarization.PARALLEL:  # the central peak is interference-sensitive
        # the overlap m varies pulse to pulse with the correlated wandering,
        # so acceptance stays a per-pulse Bernoulli here
        a, b = pair.a, pair.b
        if a.tau_c_ns == b.tau_c_ns:
            # two independent AR(1) paths with one lambda differ by one AR(1)
            # path of std hypot(dw_a, dw_b): draw only that one
            terms = [(np.add, _P_FREQ_A, pair.combined_wandering.value, a.tau_c_ns)]
        else:
            terms = [(np.add, _P_FREQ_A, a.delta_omega.value, a.tau_c_ns),
                     (np.subtract, _P_FREQ_B, b.delta_omega.value, b.tau_c_ns)]
        # row 0 builds up mean + path_a - path_b from paths drawn into row 1, then m and
        # the acceptance probability take row 1 and the uniform draws row 0
        rows[0].fill(pair.mean_detuning.value)
        for op, purpose, sigma, tau_c_ns in terms:
            if sigma != 0.0:
                op(rows[0], ou_path_uniform(sigma, math.exp(-T / tau_c_ns),
                                            make_rng(seed, *key, purpose), n_shard, out=rows[1]),
                   out=rows[0])
        m = np.multiply((1.0 - a.sideband_fraction) * (1.0 - b.sideband_fraction),
                        mwo_with_dephasing(pair, rows[0], out=rows[1]), out=rows[1])
        p = np.multiply(0.5, np.subtract(1.0, m, out=m), out=m)
        accept = np.less(rng_accept.random(n_shard, out=rows[0]), p)
        accept &= both
        n_peak[W] = np.count_nonzero(accept)
    else:
        n_peak[W] = rng_accept.binomial(n_pairs[W], 0.5)
    # side peaks: no interference, drawn in the order +1, -1, +2, -2, ...
    side = [W + sign * off for off in offsets for sign in (1, -1)]
    n_peak[side] = rng_accept.binomial(n_pairs[side], 0.5)

    # residual multiphoton: per pulse and window, a fully distinguishable
    # extra coincidence candidate with probability g2, surviving 1/2
    if cfg.g2 > 0.0:
        n_peak += make_rng(seed, *key, _P_G2).binomial(n_pairs, 0.5 * cfg.g2)

    # a binomial with p = 0 draws nothing, so drawing over a band leaves this
    # stream where the dense row would
    return make_rng(seed, *key, _P_TIMES).multinomial(n_peak, probs)[:, :-1]


# one thread pool per worker count, kept for the life of the process; a forked
# child holds copies without their threads, where a shard would wait forever
_POOLS: dict[int, ThreadPoolExecutor] = {}
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_POOLS.clear)


def simulate_histograms(pair: SourcePair, cfg: HomExperimentConfig,
                        pols: Sequence[Polarization], seed: int,
                        workers: int = 1) -> list[CoincidenceHistogram]:
    """One coincidence histogram per polarization in `pols`. The delay shape is
    built first, then the shards of all polarizations run in the order of
    `pols`: on the process's pool of `workers` threads (ValueError below 1) when
    there are several workers and several shards per polarization, else in turn.
    That pool is built on first use and kept until the process exits; a child
    of `os.fork` builds its own (Python 3.12 and later warn of a fork while its
    threads live; `subprocess` does not). A shard that raises cancels the shards
    not yet started and is raised once the running ones have finished. The
    histograms share the binning's read-only `bin_centers`. Deterministic per
    (pair, cfg, pol, seed): `workers` never changes a result."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _, starts, probs = _delay_bin_probs(pair, cfg)
    n_shards = (cfg.n_pulses + SHARD_SIZE - 1) // SHARD_SIZE
    jobs = [(k, shard) for k in range(len(pols)) for shard in range(n_shards)]

    def run(job: tuple[int, int]) -> np.ndarray:
        k, shard = job
        n_shard = min(SHARD_SIZE, cfg.n_pulses - shard * SHARD_SIZE)
        return _simulate_shard(pair, cfg, pols[k], seed, shard, n_shard, probs)

    bands: list = [0] * len(pols)  # per polarization, its shards' band counts summed
    # one shard per polarization: two short shards in threads only contend for the GIL
    if workers > 1 and n_shards > 1:
        pool = _POOLS.get(workers) or _POOLS.setdefault(workers, ThreadPoolExecutor(workers))
        futures = [pool.submit(run, job) for job in jobs]
        try:
            for (k, _), future in zip(jobs, futures):
                bands[k] += future.result()
        except BaseException:
            for future in futures:
                future.cancel()
            wait(futures)
            raise
    else:
        for job in jobs:
            bands[job[0]] += run(job)
    centers = _binning(cfg.window_peaks, cfg.rep_period_ns, cfg.bin_width_ps)[1]
    columns = starts[:, None] + np.arange(probs.shape[1] - 1)
    hists = []
    for band, pol in zip(bands, pols):
        total = np.zeros(centers.size, dtype=np.int64)
        np.add.at(total, columns, band)  # adjacent peaks' bands may overlap
        hists.append(CoincidenceHistogram(centers, total, pol))
    return hists


def simulate_histogram(pair: SourcePair, cfg: HomExperimentConfig, pol: Polarization,
                       seed: int, workers: int = 1) -> CoincidenceHistogram:
    """Synthesize one coincidence histogram for the given polarization."""
    return simulate_histograms(pair, cfg, (pol,), seed, workers)[0]


def estimate_visibility(h_par: CoincidenceHistogram, h_perp: CoincidenceHistogram,
                        rep_period_ns: float) -> VisibilityEstimate:
    """Visibility 1 - A_par/A_perp from the central peaks of the two histograms.

    The central integration window is one repetition period centered on
    zero delay. Uncertainty comes from Poisson propagation of the two
    areas. Raises ValueError when the histograms are binned differently
    and ZeroDivisionError when the perpendicular central peak is empty.
    """
    # one array is one binning (a histogram's centers hold no NaN): skip the elementwise test
    if h_par.bin_centers is not h_perp.bin_centers and (
            h_par.bin_centers.shape != h_perp.bin_centers.shape
            or not np.allclose(h_par.bin_centers, h_perp.bin_centers, rtol=1e-12, atol=1e-12)):
        raise ValueError("histograms must share identical binning")
    window = np.abs(h_par.bin_centers) < rep_period_ns / 2.0
    a_par = float(np.sum(h_par.counts[window]))
    a_perp = float(np.sum(h_perp.counts[window]))
    if a_perp <= 0:
        raise ZeroDivisionError("empty perpendicular central peak; cannot normalize")
    ratio = a_par / a_perp
    if a_par > 0:
        sigma = ratio * math.sqrt(1.0 / a_par + 1.0 / a_perp)
    else:
        sigma = 1.0 / a_perp
    return VisibilityEstimate(v_tpi=1.0 - ratio, sigma=sigma, a_par=a_par, a_perp=a_perp)


def analytic_prediction(pair: SourcePair) -> float:
    """Closed-form prediction of the measured visibility for a pair.

    The Voigt-averaged overlap degraded by the sideband fractions:
    (1 - p_a)(1 - p_b) * M_voigt. Filtered emitters (see `apply_filter`)
    carry no sideband, so the factors become 1.
    """
    return ((1.0 - pair.a.sideband_fraction) * (1.0 - pair.b.sideband_fraction)
            * mwo_voigt_averaged(pair))


# the last read-only bin-center array written and its text: a study's runs
# share one binning (`_binning`), whose centers are then formatted once
_centers_text: tuple[np.ndarray | None, list[str] | None] = (None, None)


def write_histogram_csv(h: CoincidenceHistogram | Sequence[CoincidenceHistogram],
                        path: str | Path | Sequence[str | Path],
                        config_hash: str) -> None:
    """Write `bin_center_ns, counts` rows, tagged with the producing config.

    Given a sequence of histograms and one path each, writes each file and
    formats a bin-center array that several of them share once; the text of
    the last read-only one is kept for the next call that writes it.
    """
    global _centers_text
    hists, paths = ((h,), (path,)) if isinstance(h, CoincidenceHistogram) else (h, path)
    centers, text = _centers_text
    for hist, p in zip(hists, paths):
        if hist.bin_centers is not centers:  # not the last file's array: format it
            centers = text = hist.bin_centers
        text = write_csv_columns(p, ("bin_center_ns", "counts"), (text, hist.counts),
                                 comment=f"config_hash={config_hash}")[0]
        if not centers.flags.writeable and centers.base is None:  # not a view either
            _centers_text = centers, text


def write_visibility_json(est: VisibilityEstimate, path: str | Path,
                          config_hash: str, seed: int) -> None:
    """Write the visibility summary as deterministic (sorted-key) JSON."""
    payload = {
        "v_tpi": est.v_tpi,
        "sigma": est.sigma,
        "a_par": est.a_par,
        "a_perp": est.a_perp,
        "config_hash": config_hash,
        "seed": int(seed),
    }
    Path(path).write_text(json_text(payload))
