"""Time in-process `overlap` and `predict-delay` calls on overlap_sweep-shaped configs.

Usage, from the root of a source checkout:

    python bench/bench_predict_delay.py [--src DIR]

`--src` is the directory that holds the `remotehom` package to time
(default: this checkout's `src/`), so that two trees can be timed by one
script. The 40 configs are drawn the way the benchmark's `overlap_sweep`
workload draws them: per source a neutral exciton (fine-structure
splitting 0-8 ueV) or a trion, T1 120-250 ps, wandering 0-6 rad/ns, no
`s_classical` key, and every second config behind an 8-40 pm filter. Each
command runs 400 times, cycling over the configs, after 20 untimed calls;
the median and quartiles of the single-call times, in ms, go to stdout as
JSON.
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
CENTER_NM = 924.847
CONFIGS, CALLS = 40, 400


def make_config(rng: np.random.Generator, filtered: bool) -> dict:
    emitters = []
    for _ in range(2):
        x = bool(rng.random() < 0.5)
        emitters.append({"t1_ps": float(rng.uniform(120.0, 250.0)), "charge": "X" if x else "CX",
                         "fss_uev": float(rng.uniform(0.0, 8.0)) if x else 0.0,
                         "gamma_star_ns_inv": float(rng.uniform(0.0, 0.5)),
                         "delta_omega_ns_inv": float(rng.uniform(0.0, 6.0)),
                         "tau_c_ns": float(rng.uniform(500.0, 2000.0)),
                         "wavelength_nm": CENTER_NM,
                         "sideband_fraction": float(rng.uniform(0.0, 0.1))})
    config = {"pair": {"a": emitters[0], "b": emitters[1],
                       "mean_detuning_ns_inv": float(rng.uniform(-3.0, 3.0))},
              "experiment": {"n_pulses": 100000}, "seed": 1}
    if filtered:
        config["filter"] = {"center_nm": CENTER_NM, "fwhm_pm": float(rng.uniform(8.0, 40.0))}
    return config


def summarize(argvs: list[list[str]], cli_main) -> dict[str, float]:
    """Median and quartiles (ms) of CALLS single calls, after 20 untimed ones."""

    def call(argv: list[str]) -> float:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        elapsed = (time.perf_counter() - t0) * 1e3
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited {code}")
        return elapsed

    for i in range(20):
        call(argvs[i % len(argvs)])
    times = [call(argvs[i % len(argvs)]) for i in range(CALLS)]
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median_ms": round(median, 4), "q1_ms": round(q1, 4), "q3_ms": round(q3, 4),
            "calls": CALLS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from remotehom.cli_io import main as cli_main

    rng = np.random.default_rng(17)
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i in range(CONFIGS):
            paths.append(Path(tmp) / f"config{i}.json")
            paths[-1].write_text(json.dumps(make_config(rng, filtered=bool(i % 2))))
        out = str(Path(tmp) / "out")
        result = {
            "overlap": summarize([["overlap", "--config", str(p), "--out", out]
                                  for p in paths], cli_main),
            "predict-delay": summarize([["predict-delay", "--config", str(p), "--out", out,
                                         "--source", "ab"[i % 2]]
                                        for i, p in enumerate(paths)], cli_main),
        }
    payload = {"src": str(args.src), "python": platform.python_version(),
               "numpy": np.__version__, "main": result}
    print(json.dumps(payload, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
