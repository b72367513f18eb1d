"""Workload `mc_simulate`: one `remotehom simulate` per op on a fresh pair.

Pairs are drawn around the paper's values with a short wandering
correlation time (50 ns, as in criterion 07) so that the OU-inflated
error formula holds. Blinking is on, g2 is small and non-zero, and odd
ops sit behind a filter, so every branch of a shard runs. The pulse
count spans three 65,536-pulse shards per polarization, which keeps
both worker threads of a two-core machine busy.
"""

from __future__ import annotations

import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

import oracles as O
from common import (NPROC, Op, Outcome, cli_failure, op_rng, read_csv_columns, run_cli,
                    traced_load, write_json)
from tracing import Tracer

from remotehom.hom_montecarlo import (
    Polarization,
    analytic_prediction,
    estimate_visibility,
    simulate_histogram,
    write_histogram_csv,
    write_visibility_json,
)
from remotehom.overlap_analytics import (
    mwo_no_dephasing,
    mwo_voigt_averaged,
    mwo_with_dephasing,
    remote_upper_bound,
)
from remotehom.spectral_noise import WanderingProcess, sample_frequency_path
from remotehom.units_core import Rate

KIND = "mc_simulate"
N_PULSES = 3 * 65536
TAU_C_NS = 50.0
REP_PERIOD_NS = 12.2
P_ON, DWELL_NS = 0.9, 100.0
SIDEBAND = 0.05
CENTER_NM = 924.847
ARTIFACTS = ("overlap.json", "visibility.json", "histogram_par.csv", "histogram_perp.csv")

S_RTOL = 1e-4      # profile quadrature vs closed form on the default 4096-point grid
M_RTOL = 1e-7      # same formula, two Faddeeva implementations
Z_MAX = 5.0


def argv(op: Op, out: Path, workers: int) -> list[str]:
    return ["simulate", "--config", str(op.workdir / "config.json"),
            "--out", str(out), "--workers", str(workers)]


def make_op(seed: int, op_id: int, root: Path) -> Op:
    rng = op_rng(seed, op_id)
    t1 = rng.uniform(120.0, 250.0, 2)
    gs = rng.uniform(0.0, 0.5, 2)
    dw = rng.uniform(0.5, 5.0, 2)
    truth = {"t1": t1.tolist(), "gs": gs.tolist(), "dw": dw.tolist(),
             "dbar": float(rng.uniform(-3.0, 3.0)), "g2": float(rng.uniform(0.005, 0.02)),
             "fwhm_pm": float(rng.uniform(8.0, 40.0)) if op_id % 2 else None,
             "seed": int(rng.integers(2 ** 31))}
    emitters = [{"t1_ps": float(t1[k]), "gamma_star_ns_inv": float(gs[k]),
                 "delta_omega_ns_inv": float(dw[k]), "tau_c_ns": TAU_C_NS,
                 "wavelength_nm": CENTER_NM, "sideband_fraction": SIDEBAND} for k in (0, 1)]
    config = {"pair": {"a": emitters[0], "b": emitters[1],
                       "mean_detuning_ns_inv": truth["dbar"]},
              "experiment": {"n_pulses": N_PULSES, "rep_period_ns": REP_PERIOD_NS,
                             "g2": truth["g2"], "blink_on_prob": P_ON,
                             "blink_dwell_ns": DWELL_NS},
              "seed": truth["seed"]}
    if truth["fwhm_pm"] is not None:
        config["filter"] = {"center_nm": CENTER_NM, "fwhm_pm": truth["fwhm_pm"]}
    workdir = root / f"op{op_id}"
    workdir.mkdir(parents=True)
    write_json(workdir / "config.json", config)
    op = Op(op_id, KIND, workdir, [], truth)
    op.argvs = [argv(op, workdir / "out", NPROC)]
    return op


def _histograms(out: Path) -> dict:
    par = read_csv_columns(out / "histogram_par.csv")
    perp = read_csv_columns(out / "histogram_perp.csv")
    return {"centers": par[:, 0], "par": par[:, 1], "perp": perp[:, 1]}


def parse(op: Op, stdouts: list[str]) -> dict:
    out = op.workdir / "out"
    summary = json.loads(stdouts[0])
    vis = json.loads((out / "visibility.json").read_text())
    return dict(summary, a_par=vis["a_par"], a_perp=vis["a_perp"], **_histograms(out))


def check(op: Op, out: dict) -> Outcome:
    tr = op.truth
    g = [O.rate_from_t1(t) for t in tr["t1"]]
    big_g = [g[k] + tr["gs"][k] for k in (0, 1)]
    dw, sidebands = tr["dw"], (SIDEBAND, SIDEBAND)
    if tr["fwhm_pm"] is not None:
        hw = 0.5 * O.fwhm_pm_to_rate(tr["fwhm_pm"], CENTER_NM)
        dw, sidebands = [O.filtered_sigma(d, hw) for d in dw], (0.0, 0.0)
    dw_comb = math.hypot(*dw)
    s = out["s_classical"]
    m_ref = O.m_averaged(s, g[0], g[1], big_g[0], big_g[1], tr["dbar"], dw_comb)
    v_exp = O.mc_visibility(m_ref, s, sidebands, tr["g2"])
    sigma = O.mc_sigma(out["sigma"], v_exp, s=s, sidebands=sidebands, g_sum=g[0] + g[1],
                       big_g_sum=big_g[0] + big_g[1], dbar=tr["dbar"], dw=dw_comb,
                       tau_c=TAU_C_NS, n_pulses=N_PULSES, rep_period=REP_PERIOD_NS,
                       p_on=P_ON, dwell=DWELL_NS)
    z = (out["v_tpi"] - v_exp) / sigma
    window = np.abs(out["centers"]) < REP_PERIOD_NS / 2.0
    stats = {"z": z, "events": float(out["par"].sum() + out["perp"].sum()),
             "m_rel_err": O.rel_err(out["m_averaged"], m_ref)}
    checks = [
        (O.rel_err(s, O.cx_overlap(*g)) <= S_RTOL, "s_classical off the closed form"),
        (stats["m_rel_err"] <= M_RTOL, "m_averaged off the Voigt oracle"),
        (O.rel_err(out["m_event_mean"], (1 - sidebands[0]) * (1 - sidebands[1]) * m_ref)
         <= M_RTOL, "m_event_mean off the oracle"),
        (abs(z) <= Z_MAX, f"visibility {z:+.2f} sigma from the expectation"),
        (out["a_par"] == out["par"][window].sum()
         and out["a_perp"] == out["perp"][window].sum(), "peak areas disagree with histograms"),
    ]
    for passed, reason in checks:
        if not passed:
            return Outcome(False, reason, stats)
    return Outcome(True, "", stats)


def replay(op: Op, tr: Tracer) -> dict:
    """The `simulate` path, call by call, with a span around each public call."""
    out = op.workdir / "replay"
    out.mkdir(exist_ok=True)
    raw, pair, exp, h, _ = traced_load(tr, op.workdir / "config.json")
    with tr.span("overlap_analytics.mwo_no_dephasing"):
        m_plain = mwo_no_dephasing(pair.a.gamma, pair.b.gamma, pair.mean_detuning)
    with tr.span("overlap_analytics.mwo_with_dephasing"):
        m_deph = mwo_with_dephasing(pair)
    with tr.span("overlap_analytics.mwo_voigt_averaged"):
        m_avg = mwo_voigt_averaged(pair)
    with tr.span("hom_montecarlo.analytic_prediction"):
        m_event = analytic_prediction(pair)
    with tr.span("overlap_analytics.remote_upper_bound"):
        bound = remote_upper_bound(pair.s_classical, 1.0, 1.0)
    report = {"s_classical": pair.s_classical, "m_no_dephasing": m_plain,
              "m_dephasing": m_deph, "m_averaged": m_avg, "m_event_mean": m_event,
              "upper_bound": bound, "config_hash": h}
    with tr.span("cli_io.artifact_write"):
        with (out / "overlap.json").open("w") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
    cpu0, wall0 = time.process_time(), time.perf_counter()
    with tr.span("hom_montecarlo.simulate_parallel"):
        h_par = simulate_histogram(pair, exp, Polarization.PARALLEL, raw["seed"], workers=NPROC)
    with tr.span("hom_montecarlo.simulate_perpendicular"):
        h_perp = simulate_histogram(pair, exp, Polarization.PERPENDICULAR, raw["seed"],
                                    workers=NPROC)
    sim_cpu, sim_wall = time.process_time() - cpu0, time.perf_counter() - wall0
    with tr.span("cli_io.artifact_write"):
        write_histogram_csv(h_par, out / "histogram_par.csv", config_hash=h)
        write_histogram_csv(h_perp, out / "histogram_perp.csv", config_hash=h)
    with tr.span("hom_montecarlo.estimate_visibility"):
        est = estimate_visibility(h_par, h_perp, exp.rep_period_ns)
    with tr.span("cli_io.artifact_write"):
        write_visibility_json(est, out / "visibility.json", config_hash=h, seed=raw["seed"])
    return dict(report, v_tpi=est.v_tpi, sigma=est.sigma, a_par=est.a_par, a_perp=est.a_perp,
                centers=h_par.bin_centers, par=h_par.counts.astype(float),
                perp=h_perp.counts.astype(float), sim_cpu=sim_cpu, sim_wall=sim_wall)


def worker_invariance(main, op: Op) -> tuple[bool, float, float]:
    """Run `op` at 1 and at NPROC workers; artifacts must match byte for byte.

    Returns (identical, seconds at 1 worker, seconds at NPROC workers).
    """
    times = {}
    for workers in (1, NPROC):
        single = Op(op.op_id, KIND, op.workdir,
                    [argv(op, op.workdir / f"workers{workers}", workers)], op.truth)
        run = run_cli(main, single)
        times[workers] = run.seconds
        if cli_failure(run) is not None:
            return False, times[1], run.seconds
    same = all((op.workdir / "workers1" / f).read_bytes()
               == (op.workdir / f"workers{NPROC}" / f).read_bytes() for f in ARTIFACTS)
    return same, times[1], times[NPROC]


def ou_path_probe(op: Op, tr: Tracer) -> None:
    """Time `sample_frequency_path` over one op's pulse train."""
    times = REP_PERIOD_NS * np.arange(N_PULSES)
    proc = WanderingProcess(Rate(op.truth["dw"][0]), TAU_C_NS, op.truth["seed"])
    with tr.span("spectral_noise.ou_path"):
        sample_frequency_path(proc, times)


def cleanup(op: Op) -> None:
    shutil.rmtree(op.workdir, ignore_errors=True)
