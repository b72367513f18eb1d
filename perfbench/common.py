"""Shared pieces of the three workloads: ops, outcomes and the CLI call."""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from tracing import Tracer

from remotehom.cli_io import config_hash, emitter_from_dict
from remotehom.hom_montecarlo import HomExperimentConfig
from remotehom.overlap_analytics import FilterParams, SourcePair, apply_filter, make_source_pair
from remotehom.units_core import Frequency, Wavelength
from remotehom.wavepacket import classical_overlap, default_grid, emission_profile

NPROC = os.cpu_count() or 1


@dataclass
class Op:
    """One generated operation: its input files, CLI argv list and truth."""

    op_id: int
    kind: str
    workdir: Path
    argvs: list[list[str]]
    truth: dict[str, Any]


@dataclass
class Outcome:
    """Result of checking one op against the oracles."""

    ok: bool
    reason: str = ""
    stats: dict[str, float] = field(default_factory=dict)


@dataclass
class CliRun:
    codes: list[int]
    stdouts: list[str]
    seconds: float
    error: Optional[str] = None


def op_rng(seed: int, op_id: int) -> np.random.Generator:
    """Inputs of op `op_id` depend only on (seed, op_id)."""
    return np.random.default_rng([seed, op_id])


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1) + "\n")


def run_cli(main: Callable[[list[str]], int], op: Op) -> CliRun:
    """Run every argv of `op` through `main` in-process; only the calls are timed.

    A command after a non-zero exit still runs, as a user's script would
    carry on; an exception escaping `main` ends the op and is recorded.
    """
    codes, outs = [], []
    elapsed = 0.0
    for argv in op.argvs:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        except Exception:  # boundary: an escaping exception is a failed op
            elapsed += time.perf_counter() - t0
            return CliRun(codes, outs, elapsed, traceback.format_exc(limit=3))
        elapsed += time.perf_counter() - t0
        codes.append(rc)
        outs.append(out.getvalue())
    return CliRun(codes, outs, elapsed)


def cli_failure(run: CliRun) -> Optional[str]:
    """Reason an op failed before its outputs are even read, if any.

    Every generated input is valid, so exit codes 2 and 3 are failures
    too, and so is anything outside the documented {0, 2, 3}.
    """
    if run.error is not None:
        return "exception escaped main: " + run.error.strip().splitlines()[-1]
    for rc in run.codes:
        if rc != 0:
            return f"exit code {rc}"
    return None


def read_csv_columns(path: Path) -> np.ndarray:
    """Numeric rows of a CSV written by the package (comments, header skipped)."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]], dtype=float)


def traced_load(tr: Tracer, path: Path) -> tuple[dict, SourcePair, HomExperimentConfig, str,
                                                 list[float]]:
    """What `load_run_config` does for a config without overrides, call by call.

    The classical overlap is computed from the two emission profiles and
    handed to `make_source_pair`, so each step gets its own span. Returns
    the raw config, the pair, the experiment, the config hash and the
    filter transmission factor of each source (empty when unfiltered).
    """
    with tr.span("cli_io.config_parse"):
        raw = json.loads(path.read_text())
        a = emitter_from_dict(raw["pair"]["a"], "pair.a")
        b = emitter_from_dict(raw["pair"]["b"], "pair.b")
        filt = (FilterParams(Wavelength(raw["filter"]["center_nm"]), raw["filter"]["fwhm_pm"])
                if "filter" in raw else None)
        exp = HomExperimentConfig(**raw["experiment"])
        h = config_hash(raw)
    factors = []
    if filt is not None:
        with tr.span("overlap_analytics.apply_filter"):
            a, f_a = apply_filter(a, filt)
        with tr.span("overlap_analytics.apply_filter"):
            b, f_b = apply_filter(b, filt)
        factors = [f_a, f_b]
    grid = default_grid(a.t1_ps, b.t1_ps)
    with tr.span("wavepacket.emission_profile"):
        prof_a = emission_profile(a, grid)
    with tr.span("wavepacket.emission_profile"):
        prof_b = emission_profile(b, grid)
    with tr.span("wavepacket.classical_overlap"):
        s = classical_overlap(prof_a, prof_b)
    with tr.span("overlap_analytics.make_source_pair"):
        pair = make_source_pair(a, b, Frequency(raw["pair"].get("mean_detuning_ns_inv", 0.0)),
                                filt=filt, s_classical=s)
    return raw, pair, exp, h, factors
