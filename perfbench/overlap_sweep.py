"""Workload `overlap_sweep`: `remotehom overlap` then `predict-delay` per op.

Configs mix neutral excitons (X, fine-structure splitting 0-8 ueV) with
trions (CX), draw the wandering width uniformly over 0-6 rad/ns, and put
odd ops behind a Lorentzian filter of 8-40 pm. Narrow wandering behind a
filter is where the package's quadrature misses the Gaussian; those
draws stay in the workload and count as failed ops.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

import oracles as O
from common import Op, Outcome, op_rng, read_csv_columns, traced_load, write_json
from tracing import Tracer

from remotehom.cli_io import emitter_from_dict
from remotehom.hom_montecarlo import analytic_prediction
from remotehom.overlap_analytics import (
    FilterParams,
    apply_filter,
    mwo_no_dephasing,
    mwo_voigt_averaged,
    mwo_with_dephasing,
)
from remotehom.spectral_noise import DelayVisibilitySeries, individual_indistinguishability
from remotehom.units_core import Wavelength

KIND = "overlap_sweep"
CENTER_NM = 924.847
CURVE_POINTS = 201

S_RTOL = 1e-4      # profile quadrature vs closed form on the default 4096-point grid
M_RTOL = 1e-7      # closed forms evaluated two ways
T_RTOL = 1e-6      # quadrature vs closed-form transmission where the quadrature is right


def make_op(seed: int, op_id: int, root: Path) -> Op:
    rng = op_rng(seed, op_id)
    sources = []
    for _ in range(2):
        x = bool(rng.random() < 0.5)
        sources.append({"t1": float(rng.uniform(120.0, 250.0)),
                        "charge": "X" if x else "CX",
                        "fss": float(rng.uniform(0.0, 8.0)) if x else 0.0,
                        "gs": float(rng.uniform(0.0, 0.5)), "dw": float(rng.uniform(0.0, 6.0)),
                        "tau_c": float(rng.uniform(500.0, 2000.0)),
                        "p_sb": float(rng.uniform(0.0, 0.1))})
    truth = {"src": sources, "dbar": float(rng.uniform(-3.0, 3.0)),
             "fwhm_pm": float(rng.uniform(8.0, 40.0)) if op_id % 2 else None,
             "source": "a" if rng.random() < 0.5 else "b"}
    emitters = [{"t1_ps": s["t1"], "charge": s["charge"], "fss_uev": s["fss"],
                 "gamma_star_ns_inv": s["gs"], "delta_omega_ns_inv": s["dw"],
                 "tau_c_ns": s["tau_c"], "wavelength_nm": CENTER_NM,
                 "sideband_fraction": s["p_sb"]} for s in sources]
    config = {"pair": {"a": emitters[0], "b": emitters[1],
                       "mean_detuning_ns_inv": truth["dbar"]},
              "experiment": {"n_pulses": 100000}, "seed": op_id}
    if truth["fwhm_pm"] is not None:
        config["filter"] = {"center_nm": CENTER_NM, "fwhm_pm": truth["fwhm_pm"]}
    workdir = root / f"op{op_id}"
    workdir.mkdir(parents=True)
    write_json(workdir / "config.json", config)
    cfg, out = str(workdir / "config.json"), str(workdir / "out")
    return Op(op_id, KIND, workdir,
              [["overlap", "--config", cfg, "--out", out],
               ["predict-delay", "--config", cfg, "--out", out, "--source", truth["source"]]],
              truth)


def _program_transmissions(op: Op) -> list[float]:
    """Filter factors the CLI used internally; `overlap` does not print them."""
    raw = json.loads((op.workdir / "config.json").read_text())
    if "filter" not in raw:
        return []
    filt = FilterParams(Wavelength(raw["filter"]["center_nm"]), raw["filter"]["fwhm_pm"])
    return [apply_filter(emitter_from_dict(raw["pair"][k]), filt)[1] for k in ("a", "b")]


def parse(op: Op, stdouts: list[str]) -> dict:
    curve = read_csv_columns(op.workdir / "out" / "predicted_delay.csv")
    return dict(json.loads(stdouts[0]), delays=curve[:, 0], curve=curve[:, 1],
                transmissions=_program_transmissions(op))


def check(op: Op, out: dict) -> Outcome:
    tr = op.truth
    src = tr["src"]
    g = [O.rate_from_t1(s["t1"]) for s in src]
    big_g = [g[k] + src[k]["gs"] for k in (0, 1)]
    dw = [s["dw"] for s in src]
    sidebands = [s["p_sb"] for s in src]
    t_err = 0.0
    if tr["fwhm_pm"] is not None:
        hw = 0.5 * O.fwhm_pm_to_rate(tr["fwhm_pm"], CENTER_NM)
        t_ref = [(1.0 - sidebands[k]) * O.filter_transmission(dw[k], hw) for k in (0, 1)]
        t_err = max(O.rel_err(t, r) for t, r in zip(out["transmissions"], t_ref))
        dw, sidebands = [O.filtered_sigma(d, hw) for d in dw], [0.0, 0.0]
    s = out["s_classical"]
    dbar = tr["dbar"]
    m_ref = O.m_averaged(s, g[0], g[1], big_g[0], big_g[1], dbar, float(np.hypot(*dw)))
    m_err = O.rel_err(out["m_averaged"], m_ref)
    k = 0 if tr["source"] == "a" else 1
    tau = src[k]["tau_c"]
    delays = np.linspace(0.0, 3.0 * tau, CURVE_POINTS)
    curve_ref = O.delay_curve(g[k], src[k]["gs"], dw[k], tau, delays)
    stats = {"max_rel_err": max(m_err, t_err)}
    cx_pair = all(s_["fss"] == 0.0 for s_ in src)
    checks = [
        (t_err <= T_RTOL, "filter transmission off the erfcx closed form"),
        (not cx_pair or O.rel_err(s, O.cx_overlap(*g)) <= S_RTOL,
         "s_classical off the closed form"),
        (O.rel_err(out["m_no_dephasing"], 4 * g[0] * g[1] / ((g[0] + g[1]) ** 2 + dbar ** 2))
         <= M_RTOL, "m_no_dephasing off the closed form"),
        (O.rel_err(out["m_dephasing"], s * sum(big_g) * sum(g) / (sum(big_g) ** 2 + 4 * dbar ** 2))
         <= M_RTOL, "m_dephasing off the closed form"),
        (m_err <= M_RTOL, "m_averaged off the Voigt oracle"),
        (O.rel_err(out["m_event_mean"], (1 - sidebands[0]) * (1 - sidebands[1]) * m_ref)
         <= M_RTOL, "m_event_mean off the oracle"),
        (out["curve"].size == CURVE_POINTS
         and np.allclose(out["delays"], delays, rtol=1e-12, atol=1e-12)
         and np.allclose(out["curve"], curve_ref, rtol=M_RTOL, atol=0.0),
         "delay curve off the delay law"),
    ]
    for passed, reason in checks:
        if not passed:
            return Outcome(False, reason, stats)
    return Outcome(True, "", stats)


def replay(op: Op, tr: Tracer) -> dict:
    """`overlap` then `predict-delay`, call by call; each re-reads the config."""
    out = op.workdir / "replay"
    out.mkdir(exist_ok=True)
    path = op.workdir / "config.json"
    _, pair, _, h, factors = traced_load(tr, path)
    with tr.span("overlap_analytics.mwo_no_dephasing"):
        m_plain = mwo_no_dephasing(pair.a.gamma, pair.b.gamma, pair.mean_detuning)
    with tr.span("overlap_analytics.mwo_with_dephasing"):
        m_deph = mwo_with_dephasing(pair)
    with tr.span("overlap_analytics.mwo_voigt_averaged"):
        m_avg = mwo_voigt_averaged(pair)
    with tr.span("hom_montecarlo.analytic_prediction"):
        m_event = analytic_prediction(pair)
    report = {"s_classical": pair.s_classical, "m_no_dephasing": m_plain,
              "m_dephasing": m_deph, "m_averaged": m_avg, "m_event_mean": m_event,
              "config_hash": h}
    with tr.span("cli_io.report_write"):
        (out / "overlap.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")

    _, pair, _, h, _ = traced_load(tr, path)
    source = pair.a if op.truth["source"] == "a" else pair.b
    with tr.span("spectral_noise.delay_curve"):
        delays = np.linspace(0.0, 3.0 * source.tau_c_ns, CURVE_POINTS)
        vis = np.array([individual_indistinguishability(source, d) for d in delays])
    with tr.span("cli_io.report_write"):
        series = DelayVisibilitySeries(delays, vis, np.zeros_like(vis),
                                       source_label=op.truth["source"],
                                       filtered=pair.filter is not None)
        series.to_csv(out / "predicted_delay.csv", header_comment=f"config_hash={h}")
    return dict(report, delays=delays, curve=vis, transmissions=factors)


def cleanup(op: Op) -> None:
    shutil.rmtree(op.workdir, ignore_errors=True)
