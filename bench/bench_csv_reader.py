"""Time `units_core.read_csv_columns` and one in-process `fit-lifetime`.

Usage, from the root of a source checkout:

    python bench/bench_csv_reader.py [--src DIR]

`--src` is the directory that holds the `remotehom` package to time
(default: this checkout's `src/`), so that two trees can be timed by one
script. The CSVs are written the way the benchmark's `fit_batch` workload
writes them (the repr of each float): a 500-row lifetime trace, a 400-row
reflectivity spectrum and a 7-row delay series. Each read runs 500 times
and the in-process `fit-lifetime` 100 times, after 20 untimed calls; the
median and quartiles of the single-call times, in ms, go to stdout as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
READ_CALLS, FIT_CALLS = 500, 100


def write_csv(path: Path, header: str, columns: list[np.ndarray]) -> None:
    rows = "\n".join(",".join(repr(float(v)) for v in row) for row in zip(*columns))
    path.write_text(f"{header}\n{rows}\n")


def make_inputs(folder: Path) -> dict[str, tuple[Path, tuple[str, ...]]]:
    rng = np.random.default_rng(16)
    t = np.arange(0.0, 2000.0, 4.0)
    counts = rng.poisson(12000.0 * np.exp(-t / 170.0) + 10.0).astype(float)
    write_csv(folder / "lifetime.csv", "time_ps,counts", [t, counts])
    wl = np.linspace(924.5, 925.1, 400)
    hw = 0.16
    refl = 0.97 - 0.6 * hw * hw / ((wl - 924.8) ** 2 + hw * hw) + rng.normal(0.0, 0.01, wl.size)
    write_csv(folder / "reflectivity.csv", "wavelength_nm,reflectivity", [wl, refl])
    delays = np.array([12.2, 40.0, 120.0, 300.0, 525.0, 1200.0, 3000.0])
    vis = 0.9 / (1.0 + 0.5 * (1.0 - np.exp(-delays / 1400.0)))
    write_csv(folder / "delay.csv", "delay_ns,visibility,sigma_v", [delays, vis, 0.01 * vis])
    return {
        "lifetime_500_rows": (folder / "lifetime.csv", ("time_ps", "counts")),
        "reflectivity_400_rows": (folder / "reflectivity.csv", ("wavelength_nm", "reflectivity")),
        "delay_7_rows": (folder / "delay.csv", ("delay_ns", "visibility", "sigma_v")),
    }


def summarize(fn, calls: int) -> dict[str, float]:
    """Median and quartiles (ms) of `calls` single calls, after 20 untimed ones."""
    for _ in range(20):
        fn()
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median_ms": round(median, 4), "q1_ms": round(q1, 4), "q3_ms": round(q3, 4),
            "calls": calls}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from remotehom.cli_io import main as cli_main
    from remotehom.units_core import read_csv_columns

    with tempfile.TemporaryDirectory() as tmp:
        inputs = make_inputs(Path(tmp))
        result = {name: summarize(lambda p=path, n=names: read_csv_columns(p, n), READ_CALLS)
                  for name, (path, names) in inputs.items()}
        argv_fit = ["fit-lifetime", str(inputs["lifetime_500_rows"][0]), "--model", "mono_exp",
                    "--background", "10"]

        def fit() -> None:
            with contextlib.redirect_stdout(io.StringIO()):
                if cli_main(argv_fit) != 0:
                    raise RuntimeError("fit-lifetime failed")

        result["main_fit_lifetime_mono"] = summarize(fit, FIT_CALLS)
    payload = {"src": str(args.src), "python": platform.python_version(),
               "numpy": np.__version__, "read_csv_columns": result}
    print(json.dumps(payload, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
