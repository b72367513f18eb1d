"""Time `simulate` and count the page faults it takes, in process and from a cold start.

Usage, from the root of a source checkout:

    python bench/bench_shard_alloc.py [--src DIR]... [--pairs N] [--ops N]

Each `--src` is a directory that holds a `remotehom` package (default:
this checkout's `src/`). Every pair runs each tree once, in a fresh
process, in `harness.alternate`'s order. One run is:

- in process: the benchmark's own mc_simulate ops (`perfbench/mc_simulate.py`,
  seed 7, ops 0 to N-1) through `remotehom.cli_io.main`, at 1 and then 2
  workers, after one untimed op per worker count. Per op, the wall time and
  the minor page faults of the whole process (`ru_minflt`, every thread);
- cold: `python -m remotehom.cli_io simulate` on the README's `run.json` at
  1e6 pulses with 1 and 2 workers and at 1e7 pulses with 2 workers, each
  one fresh process, timed from outside.

Each finished pair goes to stderr as one JSON line. Stdout is JSON: one
entry per `--src`, in their order, naming its tree and giving, per measure,
the per-pair values and their median; with two trees, per measure,
`harness.compare`'s summary, in which every measure is better lower.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness

SEED = 7
WORKERS = (1, 2)
COLD = (("1e6_w1", 1_000_000, 1), ("1e6_w2", 1_000_000, 2), ("1e7_w2", 10_000_000, 2))
README_CONFIG = {
    "pair": {"a": {"t1_ps": 162.0, "gamma_star_ns_inv": 0.17, "delta_omega_ns_inv": 4.7,
                   "tau_c_ns": 1400.0, "wavelength_nm": 924.847, "sideband_fraction": 0.05},
             "b": {"t1_ps": 128.0, "gamma_star_ns_inv": 0.03, "delta_omega_ns_inv": 2.12,
                   "tau_c_ns": 1400.0, "wavelength_nm": 924.847, "sideband_fraction": 0.05},
             "s_classical": 0.986},
    "experiment": {"n_pulses": 1000000},
    "seed": 7,
}


def in_process(src: Path, n_ops: int) -> dict:
    """Per worker count, the median wall time (ms) and minor faults per op."""
    harness.use_tree(src)
    import mc_simulate
    from remotehom.cli_io import main

    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        ops = [mc_simulate.make_op(SEED, i, Path(tmp)) for i in range(n_ops)]
        for workers in WORKERS:
            times, faults = [], []
            for k, op in enumerate([ops[0], *ops]):
                argv = mc_simulate.argv(op, op.workdir / "out", workers)
                f0, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
                harness.run_cli(main, argv)
                t1, f1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                if k:  # the first op warms up
                    times.append((t1 - t0) * 1e3)
                    faults.append(f1 - f0)
            result[f"inproc_w{workers}_p50_ms"] = statistics.median(times)
            result[f"inproc_w{workers}_minflt_per_op"] = statistics.median(faults)
    return result


def cold(src: str) -> dict:
    """Wall time (s) of one fresh `simulate` process per setting."""
    env = dict(os.environ, PYTHONPATH=src)
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.json"
        config.write_text(json.dumps(README_CONFIG))
        for name, pulses, workers in COLD:
            argv = [sys.executable, "-m", "remotehom.cli_io", "simulate", "--config", str(config),
                    "--out", str(Path(tmp) / name), "--pulses", str(pulses),
                    "--workers", str(workers)]
            t0 = time.perf_counter()
            subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
            result[f"cold_{name}_s"] = time.perf_counter() - t0
    return result


def one_run(src: str, n_ops: int) -> dict:
    return dict(harness.child_json(__file__, "--child", src, "--ops", str(n_ops)), **cold(src))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--ops", type=int, default=24)
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for name in ("pairs", "ops"):  # no run to take a median of
        if getattr(args, name) < 1:
            parser.error(f"--{name} {getattr(args, name)}: need at least one")
    if args.child is not None:
        print(json.dumps(in_process(args.child, args.ops)))
        return 0
    srcs = [str(s.resolve()) for s in (args.src or [harness.ROOT / "src"])]
    records = harness.alternate(args.pairs, srcs, lambda _, src: one_run(src, args.ops))
    runs = [[r["runs"][k] for r in records] for k in range(len(srcs))]
    trees = [dict(tree=src, **{key: {"median": statistics.median(r[key] for r in tree_runs),
                                     "runs": [round(r[key], 4) for r in tree_runs]}
                               for key in tree_runs[0]})
             for src, tree_runs in zip(srcs, runs)]
    result = {"host": harness.host(), "seed": SEED, "ops": args.ops, "pairs": args.pairs,
              "trees": trees}
    if len(srcs) == 2:
        result["summary"] = harness.compare(*runs, dict.fromkeys(runs[0][0], "lower"))
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
