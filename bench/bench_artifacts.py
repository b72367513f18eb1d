"""Compare what two source trees print and write on the benchmark's generated inputs.

Usage, from the root of a source checkout:

    python bench/bench_artifacts.py --src DIR [--src DIR]

Each `--src` is a directory that holds a `remotehom` package (default:
this checkout's `src/`). Each tree runs in a fresh process, which
generates the inputs with the benchmark's own op generators in
`perfbench/` and runs every op through `remotehom.cli_io.main` in
process:

- mc_simulate, seeds 41 and 42, ops 0-11, at 1, 2 and 4 workers;
- overlap_sweep, seeds 41 and 42, ops 0-299;
- fit_batch, seeds 41 and 42, ops 0-599.

An op's digest is the sha256 of its exit codes, its stdout (the op's
directory replaced by a fixed token) and every file it writes. The
process also hashes the delay shape (`hom_montecarlo._delay_bin_probs`:
bin edges and the per-peak bands of bin probabilities as a dense table) of
300 random configs, and counts `WavepacketProfile.from_intensity` calls
per command on one config with and without `s_classical`. Stdout is JSON:
one entry per `--src`, in their order, naming its tree and giving, per
category, the op count and a sha256 over the op digests, plus the profile
builds; with two trees, whether each category matches and its first
differing op.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import harness

SEEDS = (41, 42)
OPS = {"mc_simulate": 12, "overlap_sweep": 300, "fit_batch": 600}
SHAPE_CONFIGS = 300


def run_tree(src: Path) -> dict:
    """Digests and profile-build counts of the package in `src`, in this process."""
    harness.use_tree(src)
    import numpy as np

    import fit_batch
    import mc_simulate
    import overlap_sweep
    from remotehom import hom_montecarlo as hm
    from remotehom.cli_io import main
    from remotehom.overlap_analytics import SourcePair
    from remotehom.wavepacket import Charge, EmitterParams, WavepacketProfile
    from remotehom.units_core import EnergySplitting

    def digest(argvs: list[list[str]], workdir: Path, out: Path) -> str:
        h = hashlib.sha256()
        for argv in argvs:
            text = io.StringIO()
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            h.update(f"{code}\n{text.getvalue().replace(str(workdir), '<op>')}\n".encode())
        for path in sorted(out.rglob("*")) if out.exists() else ():
            h.update(f"{path.relative_to(out).as_posix()}\n".encode() + path.read_bytes())
        return h.hexdigest()

    categories: dict[str, list[str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            root = Path(tmp) / f"seed{seed}"
            for kind, module in (("mc_simulate", mc_simulate), ("overlap_sweep", overlap_sweep),
                                 ("fit_batch", fit_batch)):
                for op_id in range(OPS[kind]):
                    op = module.make_op(seed, op_id, root / kind)
                    if kind == "mc_simulate":
                        for workers in (1, 2, 4):
                            out = op.workdir / f"out{workers}"
                            categories.setdefault(f"{kind}_seed{seed}_workers{workers}", []).append(
                                digest([module.argv(op, out, workers)], op.workdir, out))
                    else:
                        categories.setdefault(f"{kind}_seed{seed}", []).append(
                            digest(op.argvs, op.workdir, op.workdir / "out"))

        rng = np.random.default_rng(20)
        shapes = []
        for _ in range(SHAPE_CONFIGS):
            x = rng.random() < 0.5
            emitters = [EmitterParams(float(rng.uniform(120.0, 250.0)),
                                      charge=Charge.X if x else Charge.CX,
                                      fss=EnergySplitting(float(rng.uniform(0.0, 8.0)) if x else 0.0))
                        for _ in range(2)]
            cfg = hm.HomExperimentConfig(n_pulses=1000, window_peaks=int(rng.integers(1, 6)),
                                         jitter_sigma_ps=float(rng.uniform(0.0, 200.0)),
                                         bin_width_ps=float(rng.uniform(5.0, 200.0)))
            pair = SourcePair(*emitters, s_given=1.0)
            edges, starts, bands = hm._delay_bin_probs(pair, cfg)
            dense = np.zeros((bands.shape[0], edges.size - 1))
            # without the overflow cells, whose sums may round differently
            for row, start, band in zip(dense, starts, bands[:, :-1]):
                row[start:start + band.size] = band
            shapes.append(hashlib.sha256(edges.tobytes() + dense.tobytes()).hexdigest())
        categories["delay_shape_random_configs"] = shapes

        builds = []
        build = WavepacketProfile.from_intensity
        WavepacketProfile.from_intensity = staticmethod(lambda *a: builds.append(1) or build(*a))
        config = {"pair": {"a": {"t1_ps": 162.0, "gamma_star_ns_inv": 0.17,
                                 "delta_omega_ns_inv": 4.7},
                           "b": {"t1_ps": 128.0, "gamma_star_ns_inv": 0.03,
                                 "delta_omega_ns_inv": 2.12}},
                  "experiment": {"n_pulses": 20000}, "seed": 7}
        profile_builds = {}
        for s_given in (False, True):
            path = Path(tmp) / f"builds_{s_given}.json"
            if s_given:
                config["pair"]["s_classical"] = 0.986
            path.write_text(json.dumps(config))
            for command in ("overlap", "simulate", "predict-delay"):
                builds.clear()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main([command, "--config", str(path), "--out", str(Path(tmp) / "b")])
                key = f"{command}, s {'given' if s_given else 'computed'}"
                profile_builds[key] = {"exit": code, "builds": len(builds)}

    return {"categories": {name: {"ops": len(d), "sha256": hashlib.sha256(
                "".join(d).encode()).hexdigest(), "ops_sha256": d}
                           for name, d in categories.items()},
            "profile_builds": profile_builds}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", type=Path,
                        help="directory holding a remotehom package (repeatable)")
    parser.add_argument("--one", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        sys.stdout.write(json.dumps(run_tree(args.one)))
        return 0
    trees = [s.resolve() for s in (args.src or [harness.ROOT / "src"])]
    results = [harness.child_json(__file__, "--one", str(t)) for t in trees]
    report = {"trees": [{"tree": str(tree),
                         "categories": {k: {"ops": v["ops"], "sha256": v["sha256"]}
                                        for k, v in res["categories"].items()},
                         "profile_builds": res["profile_builds"]}
                        for tree, res in zip(trees, results)]}
    if len(results) == 2:
        first, second = (r["categories"] for r in results)
        report["identical"] = {
            name: {"match": first[name]["sha256"] == second[name]["sha256"],
                   "first_differing_op": next((i for i, (x, y) in enumerate(zip(
                       first[name]["ops_sha256"], second[name]["ops_sha256"])) if x != y), None)}
            for name in first}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
