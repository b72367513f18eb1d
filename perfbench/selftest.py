"""Tiny-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload untraced and one workload traced at a few ops each,
and checks that:
- every end-to-end and per-layer metric in BENCHMARK.json is emitted,
  with the unit given there;
- an op whose CLI call raises, and a replayed op that raises, are counted
  as failed ops instead of ending the run;
- without the package source next to it the benchmark exits non-zero and
  prints no result.
Exits 0 when all checks pass. It is not a pytest module on purpose: it
runs the package end to end and belongs to the benchmark, not to the
repository's test suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def invoke(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.2",
                       "--trace", str(trace)])
    assert rc == 0, f"{workload} trace {trace}: exit {rc}"
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_metrics(result: dict, section: str) -> None:
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{section}: emitted {sorted(got)} with units, wanted {want}"
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], float), f"{name} is not a float: {v}"
    assert isinstance(result["correct"], bool)
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]


def without_source() -> None:
    """The benchmark alone, without `src/`, must refuse to run."""
    bare = run.OUT_ROOT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", "fit_batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "ran without the package source"
    assert '"metrics"' not in proc.stdout, "printed a result without the package source"


def main() -> int:
    tiny = {"MIN_OPS": 3, "SETUP_PROCESSES": 1, "IMPORTTIME_PROCESSES": 1,
            "REPLAY_OPS": {"mc_simulate": 1, "overlap_sweep": 4, "fit_batch": 4},
            "PROBE_OPS": {"mc_simulate": 1, "overlap_sweep": 2, "fit_batch": 8}}
    with mock.patch.multiple(run, **tiny):
        for workload in ("mc_simulate", "overlap_sweep", "fit_batch"):
            check_metrics(invoke(workload, 0), "end_to_end")
        import fit_batch
        from remotehom import cli_io

        real_main = cli_io.main

        def flaky_main(argv):
            # the timed run of op 1 raises; its untimed warm-up run does not
            if Path(argv[1]).parent.name == "op1" and "warmup" not in argv[1]:
                raise ZeroDivisionError("injected")
            return real_main(argv)

        with mock.patch.object(cli_io, "main", flaky_main):
            result = invoke("fit_batch", 0)
        assert result["failed"] >= 1, "injected CLI exception was not counted"

        real_replay, raised = fit_batch.replay, []

        def flaky_replay(op, tr):
            # the first traced replay of op 1 raises; op 5 is the same kind of
            # fit, so its layer is still timed
            if op.op_id == 1 and tr.enabled and not raised:
                raised.append(op)
                raise ZeroDivisionError("injected")
            return real_replay(op, tr)

        with mock.patch.object(fit_batch, "replay", flaky_replay):
            result = invoke("overlap_sweep", 1)
        check_metrics(result, "per_layer")
        assert result["failed"] >= 1, "injected replay exception was not counted"
    without_source()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
