"""Time in-process `overlap` and `predict-delay` calls on overlap_sweep-shaped configs.

Usage, from the root of a source checkout:

    python bench/bench_predict_delay.py [--src DIR]

`--src` is the directory that holds the `remotehom` package to time
(default: this checkout's `src/`), so that two trees can be timed by one
script. The 40 configs are the ones the benchmark's `overlap_sweep`
workload generates for seed 17, ops 0-39: per source a neutral exciton
(fine-structure splitting 0-8 ueV) or a trion, T1 120-250 ps, wandering
0-6 rad/ns, no `s_classical` key, and every odd op behind an 8-40 pm
filter. Each command runs 400 times with the op's own arguments, cycling
over the ops, after 20 untimed calls; the quartiles of the single-call
times, in ms, go to stdout as JSON.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import tempfile
from pathlib import Path

import harness

SEED = 17
CONFIGS, CALLS, WARMUP = 40, 400, 20


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=harness.ROOT / "src")
    args = parser.parse_args(argv)
    harness.use_tree(args.src)
    import overlap_sweep
    from remotehom.cli_io import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        ops = [overlap_sweep.make_op(SEED, i, Path(tmp)) for i in range(CONFIGS)]
        result = {}
        for k, command in enumerate(("overlap", "predict-delay")):  # each op's argvs, in order
            argvs = itertools.cycle([op.argvs[k] for op in ops])
            times = harness.time_calls(lambda: harness.run_cli(cli_main, next(argvs)), CALLS, WARMUP)
            result[command] = {"quartiles_ms": harness.quartiles(times), "calls": CALLS}
    payload = {"src": str(args.src), "host": harness.host(), "main": result}
    print(json.dumps(payload, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
