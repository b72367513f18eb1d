"""Measure how much of a `simulate` shard two threads can overlap, stage by stage.

Usage, from the root of a source checkout:

    python bench/bench_threads.py [--src DIR] [--rounds N]

`--src` is a directory that holds a `remotehom` package (default: this
checkout's `src/`). Everything runs in this one process, on the
README pair with 0.8 brightness, blinking on, g2 0.02 and one
65,536-pulse shard's worth of data per call. Each stage below is timed
serially (the median time of one call) and on two threads that start
together from a barrier and each make the same number of calls with
state of their own. Two threads report:

- `speedup`: the serial time of all calls of both threads over the
  wall time of the two-thread run (2 means full overlap, 1 none);
- `cpu_per_wall`: the two threads' summed CPU time (`time.thread_time`)
  over that wall time. A thread that waits for the GIL uses no CPU, so a
  stage that holds the GIL throughout reads about 1, a stage that
  releases it for its whole length about 2.

Stages: a control that releases the GIL for its whole length (sha256 of
65,536 doubles' bytes), which shows how much of two CPUs the host gives
this process at the time; four numpy primitives over 65,536 doubles, for
reference; the nine stream setups (`make_rng`) of a shard; the two blink
chains; the two emission draws; the pair counts of every peak offset;
the OU normal fill and the OU scan passes of one detuning path; m and
the acceptance probability p; the acceptance draw; the tail draws
(side-peak and g2 binomials and the multinomial time draws); a whole
parallel shard; a whole perpendicular shard; and the delay shape.

Last, `simulate_histograms` itself at 2 workers and 4 shards per
polarization, with each shard wrapped to record when and on which thread
it starts, and its wall and thread CPU time: the median start of the
first shard and of the second pool thread's first shard, both after the
call starts, and the median wall and CPU time of a parallel shard.
Stdout is JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Callable

import harness

N = 65536
SEED = 32


def two_threads(make: Callable[[], Callable[[], object]], calls: int) -> tuple[float, float]:
    """Wall time of two threads each making `calls` calls of their own `make()`,
    and the two threads' summed CPU time."""
    fns = [make(), make()]
    barrier = threading.Barrier(3)
    cpu = [0.0, 0.0]

    def work(k: int) -> None:
        barrier.wait()
        c0 = time.thread_time()
        for _ in range(calls):
            fns[k]()
        cpu[k] = time.thread_time() - c0

    threads = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    return time.perf_counter() - t0, sum(cpu)


def measure(make: Callable[[], Callable[[], object]], rounds: int) -> dict:
    t1 = statistics.median(harness.time_calls(make(), rounds, 1)) / 1e3
    calls = max(3, int(0.03 / t1))  # a two-thread round of about 30 ms or more
    speedups, ratios = [], []
    for _ in range(rounds):
        wall, cpu = two_threads(make, calls)
        speedups.append(2 * calls * t1 / wall)
        ratios.append(cpu / wall)
    return {"serial_ms": round(t1 * 1e3, 4), "calls_per_thread": calls,
            "speedup": round(statistics.median(speedups), 3),
            "cpu_per_wall": round(statistics.median(ratios), 3)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=harness.ROOT / "src")
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)
    if args.rounds < 1:  # no run to take a median of
        parser.error(f"--rounds {args.rounds}: need at least one")
    harness.use_tree(args.src)
    import numpy as np

    from remotehom import hom_montecarlo as hm
    from remotehom.overlap_analytics import SourcePair, mwo_with_dephasing
    from remotehom.spectral_noise import ou_path_uniform
    from remotehom.units_core import Rate, make_rng
    from remotehom.wavepacket import EmitterParams

    a = EmitterParams(162.0, gamma_star=Rate(0.17), delta_omega=Rate(4.7), brightness=0.8)
    b = EmitterParams(128.0, gamma_star=Rate(0.03), delta_omega=Rate(2.12), brightness=0.8)
    pair = SourcePair(a, b, s_given=0.986)
    cfg = hm.HomExperimentConfig(n_pulses=4 * N, g2=0.02, blink_on_prob=0.9,
                                 blink_dwell_ns=100.0)
    T, W = cfg.rep_period_ns, cfg.window_peaks
    lam = math.exp(-T / a.tau_c_ns)
    sigma = pair.combined_wandering.value
    probs = hm._delay_bin_probs(pair, cfg)[2]
    rng = make_rng(SEED, 0)
    both = (rng.random(N) < 0.72) & hm._blink_chain(rng, N, 0.9, T, 100.0)
    n_pairs = np.full(2 * W + 1, 28000, dtype=np.int64)
    side = [W + s * off for off in range(1, W + 1) for s in (1, -1)]

    def primitive(name: str):
        def make():
            g = make_rng(SEED, 1)
            x, y, out = g.random(N), g.random(N), np.empty(N)
            return {"np.multiply": lambda: np.multiply(x, y, out=out),
                    "random(out=)": lambda: g.random(N, out=out),
                    "standard_normal(out=)": lambda: g.standard_normal(N, out=out),
                    "np.exp": lambda: np.exp(x, out=out)}[name]
        return make

    def streams():
        return lambda: [make_rng(SEED, 0, 7, p) for p in range(9)]

    def blink_chains():
        g = make_rng(SEED, 2)
        return lambda: (hm._blink_chain(g, N, 0.9, T, 100.0), hm._blink_chain(g, N, 0.9, T, 100.0))

    def emission():
        g, row = make_rng(SEED, 3), np.empty(N)
        return lambda: (g.random(N, out=row) < 0.8, g.random(N, out=row) < 0.8)

    def pair_counts():
        g = make_rng(SEED, 4)
        pa, pb = g.random(N) < 0.72, g.random(N) < 0.72

        def run():
            counts = [np.count_nonzero(pa & pb)]
            for off in range(1, W + 1):
                counts += [np.count_nonzero(pa[:-off] & pb[off:]),
                           np.count_nonzero(pa[off:] & pb[:-off])]
            return counts
        return run

    def ou_fill():
        g, row = make_rng(SEED, 5), np.empty(N)
        return lambda: g.standard_normal(N, out=row)

    def ou_scan():
        drive0 = make_rng(SEED, 6).standard_normal(N - 1) * sigma * math.sqrt(1.0 - lam * lam)
        drive, scratch = np.empty(N - 1), np.empty(N - 2)

        def run():
            # the passes of ou_path_uniform, on a fresh copy of the same drive terms
            np.copyto(drive, drive0)
            s, factor = 1, lam
            while s < drive.size and factor > 0.0:
                drive[s:] += np.multiply(factor, drive[:-s], out=scratch[:drive.size - s])
                s, factor = 2 * s, factor * factor
        return run

    def m_and_p():
        delta = ou_path_uniform(sigma, lam, make_rng(SEED, 7), N)
        out = np.empty(N)

        def run():
            m = np.multiply((1.0 - a.sideband_fraction) * (1.0 - b.sideband_fraction),
                            mwo_with_dephasing(pair, delta, out=out), out=out)
            return np.multiply(0.5, np.subtract(1.0, m, out=out), out=out)
        return run

    def acceptance():
        g, row, p = make_rng(SEED, 8), np.empty(N), np.full(N, 0.3)

        def run():
            accept = np.less(g.random(N, out=row), p)
            accept &= both
            return np.count_nonzero(accept)
        return run

    def tail():
        g = make_rng(SEED, 9)

        def run():
            n_peak = np.zeros(2 * W + 1, dtype=np.int64)
            n_peak[W] = 9000
            n_peak[side] = g.binomial(n_pairs[side], 0.5)
            n_peak += g.binomial(n_pairs, 0.5 * cfg.g2)
            return g.multinomial(n_peak, probs)
        return run

    def shard(pol):
        return lambda: lambda: hm._simulate_shard(pair, cfg, pol, SEED, 0, N, probs)

    def control():
        data = np.ones(N).tobytes()
        return lambda: hashlib.sha256(data).digest()

    stages = {"control: sha256 (GIL released)": control}
    stages.update({name: primitive(name) for name in
                   ("np.multiply", "random(out=)", "standard_normal(out=)", "np.exp")})
    stages.update({
        "stream setups (9 make_rng)": streams, "blink chains": blink_chains,
        "emission draws": emission, "pair counts": pair_counts,
        "OU normal fill": ou_fill, "OU scan passes": ou_scan, "m and p": m_and_p,
        "acceptance draw": acceptance, "tail draws": tail,
        "parallel shard": shard(hm.Polarization.PARALLEL),
        "perpendicular shard": shard(hm.Polarization.PERPENDICULAR),
        "delay shape": lambda: lambda: hm._delay_bin_probs(pair, cfg),
    })
    result = {"host": harness.host(), "src": str(args.src), "rounds": args.rounds,
              "stages": {name: measure(make, args.rounds) for name, make in stages.items()}}

    # the pool itself: when its threads start, and what a parallel shard costs there
    shard_fn, records = hm._simulate_shard, []

    def recorded(pair, cfg, pol, *rest):
        t0, c0 = time.perf_counter(), time.thread_time()
        counts = shard_fn(pair, cfg, pol, *rest)
        records.append((threading.get_ident(), pol, t0, time.perf_counter() - t0,
                        time.thread_time() - c0))
        return counts

    hm._simulate_shard = recorded
    first, second, walls, cpus = [], [], [], []
    try:
        for r in range(args.rounds + 1):
            records.clear()
            t0 = time.perf_counter()
            hm.simulate_histograms(pair, cfg, (hm.Polarization.PARALLEL,
                                               hm.Polarization.PERPENDICULAR), SEED, workers=2)
            if r == 0:
                continue  # warm up
            starts: dict[int, float] = {}
            for ident, _, start, _, _ in records:
                starts.setdefault(ident, start - t0)
            ordered = sorted(starts.values())
            first.append(ordered[0])
            if len(ordered) > 1:
                second.append(ordered[1])
            walls += [w for _, pol, _, w, _ in records if pol is hm.Polarization.PARALLEL]
            cpus += [c for _, pol, _, _, c in records if pol is hm.Polarization.PARALLEL]
    finally:
        hm._simulate_shard = shard_fn
    ms = lambda xs: round(statistics.median(xs) * 1e3, 3) if xs else None  # noqa: E731
    result["pool_at_2_workers"] = {
        "shards_per_polarization": 4,
        "first_shard_start_ms": ms(first),
        "second_thread_first_shard_start_ms": ms(second),
        "parallel_shard_wall_ms": ms(walls),
        "parallel_shard_thread_cpu_ms": ms(cpus)}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
