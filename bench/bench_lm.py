"""Time the LM fits of the benchmark's `fit_batch` inputs, model by model, in process.

Usage, from the root of a source checkout:

    python bench/bench_lm.py [--src DIR]

`--src` is the directory that holds the `remotehom` package to time
(default: this checkout's `src/`), so that two trees can be timed by one
script. The inputs are the CSVs that `perfbench/fit_batch.py` generates
for seeds 41 and 42, ops 0-199: 100 mono-exponential and 100 beating
lifetime traces, 100 reflectivity spectra and 100 delay-series pairs,
each read once before any timing. Each model's fit (`fit_lifetime`,
`fit_reflectivity` or `fit_delay_visibility`, the call its `fit-*`
command makes) runs over its inputs once untimed, then `ROUNDS` times
timed, one call at a time; an input's time is its fastest call, which
drops the bursts of a shared host. Stdout is JSON: per model, the
quartiles of those times in ms; the median, 90th percentile and
maximum of the LM iterations; and the median cost of one iteration in
µs, each input's time divided by its iterations, which reads the
engine's cost apart from how many iterations a fit takes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

import harness

SEEDS, OPS = (41, 42), 200
ROUNDS = 5


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=harness.ROOT / "src")
    args = parser.parse_args(argv)
    harness.use_tree(args.src)
    import numpy as np

    import fit_batch
    from remotehom.estimation import (LifetimeModel, LifetimeTrace, fit_delay_visibility,
                                      fit_lifetime, fit_reflectivity, read_reflectivity_csv)
    from remotehom.spectral_noise import DelayVisibilitySeries
    from remotehom.units_core import Rate
    from remotehom.wavepacket import read_lifetime_csv

    calls: dict[str, list] = {fit: [] for fit in fit_batch.FITS}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for op_id in range(OPS):
                op = fit_batch.make_op(seed, op_id, Path(tmp) / str(seed))
                fit, argv_fit = op.truth["fit"], op.argvs[0]
                if fit in ("mono", "fss"):
                    model = LifetimeModel.MONO_EXP if fit == "mono" else LifetimeModel.FSS_BEATING
                    trace = LifetimeTrace(*read_lifetime_csv(argv_fit[1]), float(argv_fit[-1]))
                    call = (lambda tr=trace, m=model: fit_lifetime(tr, m))
                elif fit == "reflectivity":
                    call = (lambda d=read_reflectivity_csv(argv_fit[1]): fit_reflectivity(*d))
                else:
                    series = (DelayVisibilitySeries.from_csv(argv_fit[1]),
                              DelayVisibilitySeries.from_csv(argv_fit[2]))
                    gamma = Rate(1000.0 / op.truth["t1_ps_input"])
                    call = (lambda s=series, g=gamma: fit_delay_visibility(*s, g))
                calls[fit].append(call)

    result = {}
    for fit, fns in calls.items():
        iterations = [fn().n_iter for fn in fns]
        rounds = [[harness.time_calls(fn, 1)[0] for fn in fns] for _ in range(ROUNDS)]
        times = [min(calls) for calls in zip(*rounds)]  # each input's fastest call
        result[fit] = {"quartiles_ms": harness.quartiles(times),
                       "inputs": len(fns), "n_iter_median": statistics.median(iterations),
                       "n_iter_p90": float(np.percentile(iterations, 90)),
                       "n_iter_max": max(iterations),
                       "us_per_iter_median": round(statistics.median(
                           1e3 * t / n for t, n in zip(times, iterations)), 2)}
    payload = {"src": str(args.src), "host": harness.host(), "fits": result}
    print(json.dumps(payload, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
