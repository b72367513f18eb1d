"""Run the benchmark on two checkouts in alternated pairs and compare the end-to-end metrics.

Usage:

    python bench/bench_pairs.py --parent DIR --change DIR --workload NAME
                                [--seeds 2001-2010] [--seconds 15]

`--parent` and `--change` are source checkouts, each with its own
`perfbench/run.py`. Pair i runs both on seed i, in `harness.alternate`'s
order, and goes to stderr as one JSON line. Stdout is JSON: per
end-to-end metric of `BENCHMARK.json`, its bound and `harness.compare`'s
summary with the parent first; plus every run's metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import harness

SIDES = ("parent", "change")


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

    def run(i: int, side: str) -> dict:
        out = harness.child_json("perfbench/run.py", "--workload", args.workload,
                                 "--seed", str(first + i), "--seconds", str(args.seconds),
                                 "--trace", "0", cwd=getattr(args, side))
        return {name: m["value"] for name, m in out["metrics"].items()}

    records = harness.alternate(last - first + 1, SIDES, run)
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    summary = harness.compare([r["runs"][0] for r in records], [r["runs"][1] for r in records],
                              {m["name"]: m["better"] for m in spec})
    runs = [{"seed": first + i, "first": r["first"], **dict(zip(SIDES, r["runs"]))}
            for i, r in enumerate(records)]
    print(json.dumps({"workload": args.workload, "seconds": args.seconds,
                      "summary": {m["name"]: {"bound": m["bound"], **summary[m["name"]]}
                                  for m in spec},
                      "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
