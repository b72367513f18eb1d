"""Benchmark of the remotehom package: three seeded closed-loop workloads.

    python3 perfbench/run.py --workload mc_simulate --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; it imports the package from
`src/`. Each workload has one client in one process: the next op starts
when the previous one has returned. Inputs are generated from `--seed`
before each op's clock starts, the program only ever sees the generated
config and CSV files, and every output is checked against the
independent oracles in `oracles.py`. An op that raises, exits non-zero
or fails its oracle counts as failed and the run goes on.

`--trace 0` runs the ops through `remotehom.cli_io.main` untraced and
reports the end-to-end metrics, with timings scaled for the speed of the
host by a reference kernel timed alongside. `--trace 1` replays the same
ops call by call with a span around every public call into each module,
plus a small fixed probe of the other workloads so that every layer is
timed, and reports the per-layer metrics. Spans and per-op records are
written to `.perfbench_out/` in the checkout. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

MODULES = ("units_core", "wavepacket", "overlap_analytics", "spectral_noise",
           "hom_montecarlo", "estimation", "cli_io")
SETUP_PROCESSES = 7      # fresh interpreters timed per run for setup_s
IMPORTTIME_PROCESSES = 3
MIN_OPS = 100            # so that at least ten ops lie beyond p90
MAX_FAILED_FRAC = 0.10   # beyond this p90 would be a failed op, i.e. undefined
WALL_CAP_S = 120.0       # hard stop for one run, generation and checks included

# An untraced run makes a fixed number of ops, --seconds times these rates,
# so that two runs of one seed attempt, and fail, the same ops. At these
# rates the op loop of a run lasts about --seconds on a 2-vCPU x86 host,
# generation, checks and reference timings included.
OPS_PER_S = {"mc_simulate": 4.0, "overlap_sweep": 70.0, "fit_batch": 140.0}
# Timings are scaled to a host on which the reference kernel takes
# REF_NOMINAL_S. It is timed, off the op clock, every REF_EVERY_S, and
# each op is scaled by the timing taken just before it.
REF_NOMINAL_S = 0.005
REF_EVERY_S = 0.2

# ops replayed per traced pass, and ops of each workload in the probe that
# gives the layers a workload does not reach their per-layer numbers
REPLAY_OPS = {"mc_simulate": 12, "overlap_sweep": 400, "fit_batch": 400}
PROBE_OPS = {"mc_simulate": 2, "overlap_sweep": 40, "fit_batch": 40}
BLOCK = {"mc_simulate": 4, "overlap_sweep": 32, "fit_batch": 32}

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _fresh_import(extra: list[str]) -> tuple[float, str]:
    """Wall seconds for a new interpreter to import the CLI module, and its stderr."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *extra, "-c", "import remotehom.cli_io"],
                          env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import remotehom.cli_io failed:\n{proc.stderr[-2000:]}")
    return elapsed, proc.stderr


def measure_setup() -> float:
    """Median wall time of fresh `import remotehom.cli_io` processes.

    One untimed process first, so that bytecode caches are written once.
    """
    _fresh_import([])
    return statistics.median(_fresh_import([])[0] for _ in range(SETUP_PROCESSES))


def import_times_ms() -> dict[str, float]:
    """Cumulative import time of each package module from `-X importtime`."""
    runs: dict[str, list[float]] = {m: [] for m in MODULES}
    for _ in range(IMPORTTIME_PROCESSES):
        _, log = _fresh_import(["-X", "importtime"])
        seen = {}
        for line in log.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*remotehom\.(\w+)\s*$", line)
            # the first line per module is its own import; a later
            # `remotehom.cli_io` line is the top-level statement, package included
            if m and m.group(2) in runs:
                seen.setdefault(m.group(2), int(m.group(1)) / 1000.0)
        for mod, ms in seen.items():
            runs[mod].append(ms)
    missing = [m for m, v in runs.items() if len(v) != IMPORTTIME_PROCESSES]
    if missing:
        raise RuntimeError(f"-X importtime did not report {missing}")
    return {f"{m}.import_ms": statistics.median(v) for m, v in runs.items()}


def run_metadata(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "why": WHY[workload], "seed": seed,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": _git_sha(), "src_sha256": digest.hexdigest()}


def _git_sha() -> str | None:
    """HEAD of the checkout, read from `.git` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; failed ops enter as +inf."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    if math.isinf(xs[hi]):
        return math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def op_count(name: str, seconds: float) -> int:
    return max(MIN_OPS, round(seconds * OPS_PER_S[name]))


def reference_s() -> float:
    """Wall seconds of one pass of a fixed reference kernel.

    The kernel mixes what ops spend their time on: numpy sampling, a
    histogram and a sort, and an interpreter loop. It never calls the
    package, so only the speed the shared host gives the process moves
    it, and dividing op times by it takes that drift out of the timings.
    """
    import numpy as np

    t0 = time.perf_counter()
    x = np.random.default_rng(5).random(100_000)
    np.histogram(x, bins=200)
    np.sort(x[:50_000])
    acc = 0
    for i in range(30_000):
        acc += i * i
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics

def run_untraced(wl, name: str, seed: int, seconds: float, work: Path, log: dict) -> dict:
    from common import run_cli
    from remotehom.cli_io import main as cli_main

    records, refs = [], []
    failed = 0
    n_ops = op_count(name, seconds)
    # warm-up, neither timed nor counted: the first block of the same sequence
    for i in range(min(BLOCK[name], n_ops)):
        op = wl.make_op(seed, i, work / "warmup")
        run_cli(cli_main, op)
        wl.cleanup(op)
    wall0 = last_ref = time.perf_counter()
    for start in range(0, n_ops, BLOCK[name]):
        block = [wl.make_op(seed, i, work) for i in range(start, min(start + BLOCK[name], n_ops))]
        for op in block:
            if time.perf_counter() - wall0 >= WALL_CAP_S:
                wl.cleanup(op)
                continue
            if not refs or time.perf_counter() - last_ref >= REF_EVERY_S:
                refs.append(reference_s())
                last_ref = time.perf_counter()
            run = run_cli(cli_main, op)
            outcome = _judge(wl, op, run)
            wl.cleanup(op)
            failed += not outcome.ok
            records.append({"op": op.op_id, "s": run.seconds, "ref_s": refs[-1],
                            "ok": outcome.ok, "reason": outcome.reason, **outcome.stats})
    attempted = len(records)
    checks = {}
    if name == "mc_simulate":
        # op 1 is a filtered pair, so the filtered shard branch is compared too
        same, _, _ = wl.worker_invariance(cli_main, wl.make_op(seed, 1, work / "invariance"))
        attempted += 1
        failed += not same
        checks["worker_invariance"] = same
        zs = [r["z"] for r in records if "z" in r]
        checks["z_rms"] = math.sqrt(statistics.fmean(z * z for z in zs)) if zs else None
    scaled, latencies = _timings(records, BLOCK[name], scale=True)
    unscaled, _ = _timings(records, BLOCK[name], scale=False)
    unscaled.update(reference_ms=1e3 * statistics.median(refs), reference_timings=len(refs))
    p90 = scaled["latency_p90_ms"] / 1e3
    correct = (failed / attempted < MAX_FAILED_FRAC and checks.get("worker_invariance", True)
               and (checks.get("z_rms") is None or 0.5 <= checks["z_rms"] <= 2.0)
               and math.isfinite(p90))
    log.update(ops=records, checks=checks, unscaled=unscaled)
    print(f"# {attempted} ops attempted, {failed} failed; latency samples {len(latencies)}, "
          f"{sum(x > p90 for x in latencies)} beyond p90; checks {checks}")
    print("# unscaled " + json.dumps(unscaled))
    for r in records:
        if not r["ok"]:
            print(f"# failed op {r['op']}: {r['reason']}")
    return {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": {
        **scaled,
        "ops_ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }}


def _timings(records: list[dict], block: int, scale: bool) -> tuple[dict, list[float]]:
    """Throughput and latency percentiles of the ops, and the latencies.

    Scaled, each op time is multiplied by REF_NOMINAL_S over the reference
    time taken just before the op. Failed ops have infinite latency and
    count as zero ops. Throughput is the median over blocks of consecutive
    ops, each of which holds every kind of op.
    """
    secs = [r["s"] * (REF_NOMINAL_S / r["ref_s"] if scale else 1.0) for r in records]
    latencies = [s if r["ok"] else math.inf for s, r in zip(secs, records)]
    throughput = statistics.median(
        sum(r["ok"] for r in records[i:i + block]) / sum(secs[i:i + block])
        for i in range(0, len(records), block))
    return {"throughput_ops_per_s": throughput,
            "latency_p50_ms": 1e3 * percentile(latencies, 50),
            "latency_p90_ms": 1e3 * percentile(latencies, 90)}, latencies


def _judge(wl, op, run):
    """Check one untraced op: exit codes first, then its outputs against the oracles."""
    from common import Outcome, cli_failure

    reason = cli_failure(run)
    if reason is not None:
        return Outcome(False, reason)
    try:
        return wl.check(op, wl.parse(op, run.stdouts))
    except Exception:  # boundary: unreadable or malformed output is a failed op
        return Outcome(False, "output check raised: "
                       + traceback.format_exc(limit=2).strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# traced run: per-layer metrics

def run_traced(workloads: dict, name: str, seed: int, seconds: float, work: Path,
               log: dict) -> dict:
    from common import NPROC, Outcome
    from tracing import Tracer
    from remotehom.cli_io import main as cli_main

    tr, untraced = Tracer(), Tracer(enabled=False)
    ops = [workloads[name].make_op(seed, i, work) for i in range(REPLAY_OPS[name])]
    probe = [workloads[other].make_op(seed, i, work / other)
             for other in workloads if other != name for i in range(PROBE_OPS[other])]
    first_pass: list[tuple] = []
    traced_s = untraced_s = 0.0
    passes = 0
    wall0 = time.perf_counter()
    while passes == 0 or time.perf_counter() - wall0 < min(seconds, WALL_CAP_S):
        for op in ops + probe:
            wl = workloads[op.kind]
            # alternate which side runs first, so warm caches favour neither
            order = (untraced, tr) if (op.op_id + passes) % 2 else (tr, untraced)
            for tracer in order:
                t0 = time.perf_counter()
                try:
                    with tracer.op(op.op_id, op.kind):
                        out = wl.replay(op, tracer)
                    dt = time.perf_counter() - t0
                    outcome = wl.check(op, out)
                except Exception:  # boundary: a raising op is a failed op
                    dt = time.perf_counter() - t0
                    out, outcome = {}, Outcome(False, traceback.format_exc(limit=2)
                                               .strip().splitlines()[-1])
                if op.kind == name:
                    if tracer is tr:
                        traced_s += dt
                    else:
                        untraced_s += dt
                if passes == 0 and tracer is tr:
                    first_pass.append((op, out, outcome))
        passes += 1

    mc = workloads["mc_simulate"]
    mc_op = next(op for op in ops + probe if op.kind == "mc_simulate")
    for _ in range(3):
        mc.ou_path_probe(mc_op, tr)
    # even ops are unfiltered and odd ops filtered: compare both shard branches
    invariance = [mc.worker_invariance(cli_main, mc.make_op(seed, k % 2, work / f"inv{k}"))
                  for k in range(3)]
    metrics = dict(import_times_ms())
    metrics.update(_layer_metrics(tr, first_pass))
    metrics["hom_montecarlo.parallel_efficiency"] = statistics.median(
        t1 / (NPROC * tn) for _, t1, tn in invariance)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    attempted = len(first_pass) + len(invariance)
    failed = sum(not o.ok for _, _, o in first_pass) + sum(not same for same, _, _ in invariance)
    own = [o for op, _, o in first_pass if op.kind == name]
    metrics["ops_failed_frac"] = sum(not o.ok for o in own) / len(own)
    log.update(passes=passes, summary=tr.summary(),
               ops=[{"op": op.op_id, "kind": op.kind, "ok": o.ok, "reason": o.reason, **o.stats}
                    for op, _, o in first_pass])
    print(f"# traced {len(ops)} {name} ops + {len(probe)} probe ops, {passes} passes; "
          f"{failed} of {attempted} failed")
    for op, _, o in first_pass:
        if not o.ok:
            print(f"# failed {op.kind} op {op.op_id}: {o.reason}")
    correct = failed / attempted < MAX_FAILED_FRAC and all(s for s, _, _ in invariance)
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": metrics, "_tracer": tr}


def _layer_metrics(tr, first_pass: list[tuple]) -> dict[str, float]:
    def med_ms(span: str) -> float:
        """Median duration of one call; these spans have no children."""
        return 1e3 * statistics.median(tr.durations(span))

    out = {m["name"]: med_ms(m["name"][:-3]) for m in BENCHMARK["per_layer"]
           if m["name"].endswith("_ms") and not m["name"].endswith(".import_ms")}
    # one op writes four artifacts in three places; the metric is their sum per op
    out["cli_io.artifact_write_ms"] = 1e3 * statistics.median(
        tr.per_op_totals("cli_io.artifact_write"))

    def stats(kind: str, key: str, ok_only: bool = False) -> list[float]:
        return [o.stats[key] for op, _, o in first_pass
                if op.kind == kind and key in o.stats and (o.ok or not ok_only)]

    events = stats("mc_simulate", "events")
    sim = [(out_["sim_cpu"], out_["sim_wall"]) for op, out_, _ in first_pass
           if op.kind == "mc_simulate" and "sim_wall" in out_]
    out["hom_montecarlo.events_per_op"] = statistics.fmean(events)
    out["hom_montecarlo.events_per_s"] = sum(events) / sum(w for _, w in sim)
    out["hom_montecarlo.cpu_per_wall"] = sum(c for c, _ in sim) / sum(w for _, w in sim)
    out["hom_montecarlo.z_rms"] = math.sqrt(statistics.fmean(
        z * z for z in stats("mc_simulate", "z")))
    out["overlap_analytics.oracle_max_rel_err"] = max(
        stats("overlap_sweep", "max_rel_err", ok_only=True))
    out["estimation.lm_iterations"] = sum(stats("fit_batch", "n_iter"))
    conv = stats("fit_batch", "converged")
    out["estimation.converged_frac"] = sum(conv) / len(conv)
    return out


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "remotehom" / "cli_io.py").is_file():
        print(f"error: no package source at {SRC}/remotehom; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    run_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    work = run_dir / "work"
    work.mkdir(parents=True)

    setup_s = measure_setup() if args.trace == 0 else None

    import fit_batch
    import mc_simulate
    import overlap_sweep

    workloads = {"mc_simulate": mc_simulate, "overlap_sweep": overlap_sweep,
                 "fit_batch": fit_batch}
    meta = run_metadata(args.workload, args.seed)
    log: dict = {"meta": meta}
    try:
        if args.trace == 0:
            result = run_untraced(workloads[args.workload], args.workload, args.seed,
                                  args.seconds, work, log)
            result["metrics"]["setup_s"] = setup_s
            (run_dir / "ops.json").write_text(json.dumps(log) + "\n")
        else:
            result = run_traced(workloads, args.workload, args.seed, args.seconds, work, log)
            tracer = result.pop("_tracer")
            tracer.dump(run_dir / "trace.json", dict(meta, passes=log["passes"], ops=log["ops"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    section = BENCHMARK["end_to_end" if args.trace == 0 else "per_layer"]
    result["metrics"] = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                         for m in section}
    meta["attempted"] = result["attempted"]
    print("# meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
