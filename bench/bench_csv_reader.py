"""Time `units_core.read_csv_columns` and one in-process `fit-lifetime`.

Usage, from the root of a source checkout:

    python bench/bench_csv_reader.py [--src DIR]

`--src` is the directory that holds the `remotehom` package to time
(default: this checkout's `src/`), so that two trees can be timed by one
script. The CSVs are the ones the benchmark's `fit_batch` workload
generates for seed 16: op 0's 500-row lifetime trace, op 2's 400-row
reflectivity spectrum and op 3's 7-row filtered delay series. Each read
runs 500 times and op 0's `fit-lifetime` 100 times, in process, after 20
untimed calls; the quartiles of the single-call times, in ms, go to
stdout as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import harness

SEED = 16
READ_CALLS, FIT_CALLS, WARMUP = 500, 100, 20
# per op of fit_batch: its name here and the columns its CSV holds
INPUTS = {0: ("lifetime_500_rows", ("time_ps", "counts")),
          2: ("reflectivity_400_rows", ("wavelength_nm", "reflectivity")),
          3: ("delay_7_rows", ("delay_ns", "visibility", "sigma_v"))}


def summarize(fn, calls: int) -> dict:
    """Quartiles (ms) of `calls` single calls, after the untimed ones."""
    return {"quartiles_ms": harness.quartiles(harness.time_calls(fn, calls, WARMUP)),
            "calls": calls}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=harness.ROOT / "src")
    args = parser.parse_args(argv)
    harness.use_tree(args.src)
    import fit_batch
    from remotehom.cli_io import main as cli_main
    from remotehom.units_core import read_csv_columns

    with tempfile.TemporaryDirectory() as tmp:
        ops = {op_id: fit_batch.make_op(SEED, op_id, Path(tmp)) for op_id in INPUTS}
        result = {}
        for op_id, (name, names) in INPUTS.items():
            path = ops[op_id].argvs[0][1]  # the CSV its fit-* command reads first
            result[name] = summarize(lambda: read_csv_columns(path, names), READ_CALLS)
        result["main_fit_lifetime_mono"] = summarize(
            lambda: harness.run_cli(cli_main, ops[0].argvs[0]), FIT_CALLS)
    payload = {"src": str(args.src), "host": harness.host(), "read_csv_columns": result}
    print(json.dumps(payload, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
