"""Run the benchmark on two checkouts in alternated pairs and compare the end-to-end metrics.

Usage:

    python bench/bench_pairs.py --parent DIR --change DIR --workload NAME
                                [--seeds 2001-2010] [--seconds 15]

`--parent` and `--change` are source checkouts, each with its own
`perfbench/run.py`. Pair i runs both on seed i, one after the other,
the parent first in even pairs and the change first in odd ones, so a
drift of the host's speed hits both sides alike. Stdout is JSON: per
end-to-end metric of `BENCHMARK.json`, both sides' medians and
quartiles, the change's wins, and the relative change of the median,
signed so that a positive value is an improvement; plus every run's
metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q2, 4), round(q3, 4)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="2001-2010", help="first-last, inclusive")
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args()
    try:
        first, last = map(int, args.seeds.split("-"))
    except ValueError:
        parser.error(f"--seeds {args.seeds}: expected first-last")
    if last <= first:  # quartiles need two runs a side
        parser.error(f"--seeds {args.seeds}: need at least two seeds")
    runs = []
    for i, seed in enumerate(range(first, last + 1)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {side: run_once(getattr(args, side), args.workload, seed, args.seconds)
                for side in order}
        runs.append({"seed": seed, "first": order[0],
                     **{side: {name: m["value"] for name, m in pair[side]["metrics"].items()}
                        for side in ("parent", "change")}})
        print(f"pair {i + 1}: seed {seed} done", file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    summary = {}
    for metric in spec:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        parent = [r["parent"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        p_med = statistics.median(parent)
        summary[name] = {
            "bound": metric["bound"],
            "parent_quartiles": quartiles(parent),
            "change_quartiles": quartiles(change),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(runs),
            "median_rel_improvement": (round(sign * (statistics.median(change) - p_med) / p_med, 4)
                                       if p_med else None),
        }
    print(json.dumps({"workload": args.workload, "seconds": args.seconds,
                      "summary": summary, "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
