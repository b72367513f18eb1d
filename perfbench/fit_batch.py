"""Workload `fit_batch`: one `fit-*` command per op on generated CSVs.

Ops rotate through the four fits: a mono-exponential lifetime (CX), a
fine-structure beating lifetime (X, 5-8 ueV), a cavity reflectivity dip
(Q 1700-2900) and the joint delay-visibility law. Lifetime traces carry
Poisson noise over a flat background; spectra and delay series carry 1 %
Gaussian noise. The fitted parameters are checked by their pulls.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

import oracles as O
from common import Op, Outcome, op_rng
from tracing import Tracer

from remotehom.estimation import (
    LifetimeModel,
    LifetimeTrace,
    fit_delay_visibility,
    fit_lifetime,
    fit_reflectivity,
    read_reflectivity_csv,
)
from remotehom.spectral_noise import DelayVisibilitySeries
from remotehom.units_core import Rate
from remotehom.wavepacket import read_lifetime_csv

KIND = "fit_batch"
FITS = ("mono", "fss", "reflectivity", "delay")
HBAR_UEV_PS = 658.2119
TIME_PS = np.arange(0.0, 2000.0, 4.0)
DELAYS_NS = np.array([12.2, 40.0, 120.0, 300.0, 525.0, 1200.0, 3000.0])
PULL_MAX = 5.0


def _write_csv(path: Path, header: str, columns: list[np.ndarray]) -> None:
    rows = "\n".join(",".join(repr(float(v)) for v in row) for row in zip(*columns))
    path.write_text(f"{header}\n{rows}\n")


def make_op(seed: int, op_id: int, root: Path) -> Op:
    rng = op_rng(seed, op_id)
    fit = FITS[op_id % len(FITS)]
    workdir = root / f"op{op_id}"
    workdir.mkdir(parents=True)
    data = workdir / "data.csv"
    if fit in ("mono", "fss"):
        t1 = float(rng.uniform(120.0, 250.0))
        bg = float(rng.uniform(2.0, 20.0))
        if fit == "mono":
            truth = {"amplitude": float(rng.uniform(3000.0, 20000.0)), "t1_ps": t1,
                     "background": bg}
            mean = truth["amplitude"] * np.exp(-TIME_PS / t1) + bg
        else:
            truth = {"amplitude": float(rng.uniform(8000.0, 40000.0)), "t1_ps": t1,
                     "fss_uev": float(rng.uniform(5.0, 8.0)),
                     "t0_ps": float(rng.uniform(20.0, 60.0)), "background": bg}
            dt = np.clip(TIME_PS - truth["t0_ps"], 0.0, None)
            mean = truth["amplitude"] * np.sin(truth["fss_uev"] * dt / (2 * HBAR_UEV_PS)) ** 2 \
                * np.exp(-dt / t1) + bg
        _write_csv(data, "time_ps,counts", [TIME_PS, rng.poisson(mean).astype(float)])
        argv = ["fit-lifetime", str(data), "--model",
                "mono_exp" if fit == "mono" else "fss_beating", "--background", repr(bg)]
    elif fit == "reflectivity":
        center = float(rng.uniform(924.6, 925.0))
        q = float(rng.uniform(1700.0, 2900.0))
        fwhm = center / q
        truth = {"center_nm": center, "fwhm_nm": fwhm, "depth": float(rng.uniform(0.5, 0.7)),
                 "baseline": float(rng.uniform(0.95, 0.99)), "q": q}
        wl = np.linspace(center - 6 * fwhm, center + 6 * fwhm, 400)
        hw = fwhm / 2
        refl = truth["baseline"] - truth["depth"] * hw * hw / ((wl - center) ** 2 + hw * hw)
        refl = refl + rng.normal(0.0, 0.01, wl.size)
        _write_csv(data, "wavelength_nm,reflectivity", [wl, refl])
        argv = ["fit-reflectivity", str(data)]
    else:
        t1 = float(rng.uniform(120.0, 250.0))
        truth = {"gamma_star": float(rng.uniform(0.03, 0.25)),
                 "delta_omega_filtered": float(rng.uniform(1.5, 5.0)),
                 "delta_omega_unfiltered": float(rng.uniform(1.5, 5.0)),
                 "tau_c_ns": float(rng.uniform(1000.0, 1800.0))}
        g = O.rate_from_t1(t1)
        files = []
        for name in ("filtered", "unfiltered"):
            v = O.delay_curve(g, truth["gamma_star"], truth[f"delta_omega_{name}"],
                              truth["tau_c_ns"], DELAYS_NS)
            noisy = np.clip(v * (1.0 + rng.normal(0.0, 0.01, v.size)), 0.0, 1.0)
            path = workdir / f"{name}.csv"
            _write_csv(path, "delay_ns,visibility,sigma_v", [DELAYS_NS, noisy, 0.01 * v])
            files.append(str(path))
        argv = ["fit-delay", *files, "--t1-ps", repr(t1)]
        truth["t1_ps_input"] = t1
    return Op(op_id, KIND, workdir, [argv], dict(truth, fit=fit))


def parse(op: Op, stdouts: list[str]) -> dict:
    return json.loads(stdouts[0])


def check(op: Op, out: dict) -> Outcome:
    truth = {k: v for k, v in op.truth.items() if k not in ("fit", "t1_ps_input")}
    pulls = O.pulls(out["params"], out["sigmas"], truth)
    worst = max(pulls, key=lambda k: abs(pulls[k]))
    stats = {"n_iter": float(out["n_iter"]), "converged": float(out["converged"]),
             "max_abs_pull": abs(pulls[worst])}
    if not out["converged"]:
        return Outcome(False, "fit did not converge", stats)
    if not abs(pulls[worst]) <= PULL_MAX:
        return Outcome(False, f"{op.truth['fit']}: pull of {worst} is {pulls[worst]:+.2f}", stats)
    return Outcome(True, "", stats)


def replay(op: Op, tr: Tracer) -> dict:
    """The `fit-*` command of this op, reader and fit in separate spans."""
    fit = op.truth["fit"]
    argv = op.argvs[0]
    if fit in ("mono", "fss"):
        with tr.span("wavepacket.read_lifetime_csv"):
            t, c = read_lifetime_csv(argv[1])
        trace = LifetimeTrace(t, c, float(argv[-1]))
        model = LifetimeModel.MONO_EXP if fit == "mono" else LifetimeModel.FSS_BEATING
        with tr.span(f"estimation.fit_lifetime_{fit}"):
            result = fit_lifetime(trace, model)
    elif fit == "reflectivity":
        with tr.span("estimation.read_reflectivity_csv"):
            wl, refl = read_reflectivity_csv(argv[1])
        with tr.span("estimation.fit_reflectivity"):
            result = fit_reflectivity(wl, refl)
    else:
        with tr.span("spectral_noise.read_delay_csv"):
            filtered = DelayVisibilitySeries.from_csv(argv[1], filtered=True)
        with tr.span("spectral_noise.read_delay_csv"):
            unfiltered = DelayVisibilitySeries.from_csv(argv[2], filtered=False)
        with tr.span("estimation.fit_delay"):
            result = fit_delay_visibility(filtered, unfiltered,
                                          Rate(1000.0 / op.truth["t1_ps_input"]))
    return {"params": result.params, "sigmas": result.sigmas,
            "converged": result.converged, "n_iter": result.n_iter}


def cleanup(op: Op) -> None:
    shutil.rmtree(op.workdir, ignore_errors=True)
