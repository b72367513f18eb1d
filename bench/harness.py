"""What the scripts in `bench/` share, each written once: the tree they time,
the host, one quartile rule, single-call timing, in-process CLI calls, child
runs, alternated pairs and one summary of two sides' runs."""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def use_tree(src: Path) -> None:
    """Import `remotehom` from `src`, and the benchmark's input generators from `perfbench/`."""
    sys.path[:0] = [str(src.resolve()), str(ROOT / "perfbench")]


def host() -> dict:
    """The CPUs and the versions a run was measured with."""
    return {"vcpus": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__}


def quartiles(values: Sequence[float]) -> list[float]:
    """Q1, median and Q3 by the inclusive method, rounded to 4 decimals."""
    if len(values) == 1:  # statistics.quantiles needs two
        return [round(values[0], 4)] * 3
    return [round(q, 4) for q in statistics.quantiles(values, n=4, method="inclusive")]


def time_calls(fn: Callable[[], object], calls: int, warmup: int = 0) -> list[float]:
    """Wall times (ms) of `calls` single calls of `fn`, after `warmup` untimed ones."""
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return times


def run_cli(main: Callable[[list[str]], int], argv: list[str]) -> None:
    """`main(argv)` with its stdout dropped; a non-zero exit raises RuntimeError."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited {code}")


def child_json(*argv: str, cwd: Path | None = None) -> dict:
    """The last stdout line, as JSON, of `python *argv` in a fresh process,
    whose stderr passes through; a failed child raises CalledProcessError."""
    out = subprocess.run([sys.executable, *argv], cwd=cwd, check=True, stdout=subprocess.PIPE,
                         text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def alternate(pairs: int, sides: Sequence[str], run: Callable[[int, str], dict]) -> list[dict]:
    """`run(i, side)` for pair i from 0 and every side, in the order of `sides`
    on even pairs and reversed on odd ones, so that a drift of the host's speed
    hits every side alike. Returns the pairs, each also on stderr as one JSON
    line as soon as it is done, so that a later failure loses none of them."""
    records = []
    for i in range(pairs):
        order = list(range(len(sides)))[::1 if i % 2 == 0 else -1]
        runs = {k: run(i, sides[k]) for k in order}
        records.append({"pair": i + 1, "first": sides[order[0]],
                        "runs": [runs[k] for k in range(len(sides))]})
        print(json.dumps(records[-1]), file=sys.stderr, flush=True)
    return records


def compare(first_runs: list[dict], second_runs: list[dict], better: dict[str, str]) -> dict:
    """Per key of `better` ("higher" or "lower"), over runs paired by index:
    both sides' quartiles, the pairs the second side won (a tie counts for
    neither), and the relative change of the medians, signed so that a
    positive value is better; null where the first side's median is 0."""
    summary = {}
    for key, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        first, second = [r[key] for r in first_runs], [r[key] for r in second_runs]
        median = statistics.median(first)
        summary[key] = {
            "first_quartiles": quartiles(first), "second_quartiles": quartiles(second),
            "second_wins": sum(sign * (b - a) > 0 for a, b in zip(first, second)),
            "pairs": len(first),
            "median_rel_gain": (round(sign * (statistics.median(second) - median) / median, 4)
                                if median else None)}
    return summary
