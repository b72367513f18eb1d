"""Nonlinear least-squares fitting for lifetime traces, cavity reflectivity
dips, and delay-visibility series.

The engine is a damped Gauss-Newton (Levenberg-Marquardt) iteration with
analytic Jacobians for every model in this module, box bounds (a
parameter on a bound that the gradient pushes against is held there and
the step solved over the others, which is then clipped to the box), and
covariance from the Jacobian at the optimum. Convergence
means the scaled gradient dropped below `GTOL` (1e-10) within `MAX_ITER`
(500) iterations: either the infinity norm of J^T r outright, or its
cosine against the column and residual norms, which is the scale-free
criterion that survives large count values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .units_core import HBAR_UEV_NS, Rate, read_csv_columns
from .wavepacket import read_lifetime_csv
from .spectral_noise import DelayVisibilitySeries

__all__ = [
    "FitResult",
    "LifetimeTrace",
    "LifetimeModel",
    "RankDeficiencyError",
    "FitModel",
    "least_squares",
    "mono_exp_model",
    "fss_beating_model",
    "lorentzian_dip_model",
    "delay_visibility_model",
    "fit_lifetime",
    "fit_reflectivity",
    "fit_delay_visibility",
    "read_reflectivity_csv",
]

HBAR_UEV_PS = HBAR_UEV_NS * 1000.0  # 658.2119 ueV ps

GTOL = 1e-10
MAX_ITER = 500


class RankDeficiencyError(np.linalg.LinAlgError):
    """Raised when the Jacobian has (numerically) deficient rank."""


@dataclass(frozen=True)
class FitResult:
    """Outcome of one least-squares fit."""

    params: dict[str, float]
    sigmas: dict[str, float]
    covariance: np.ndarray
    residual_norm: float
    converged: bool
    n_iter: int

    def to_dict(self) -> dict:
        """The serialized form: everything but the covariance matrix."""
        return {"params": self.params, "sigmas": self.sigmas,
                "residual_norm": self.residual_norm,
                "converged": self.converged, "n_iter": self.n_iter}

    def with_derived(self, name: str, value: float, sigma: float) -> "FitResult":
        """This result with one derived parameter and its uncertainty added."""
        return replace(self, params=dict(self.params, **{name: value}),
                       sigmas=dict(self.sigmas, **{name: sigma}))


@dataclass(frozen=True)
class LifetimeTrace:
    """A time-resolved emission trace: times (ps), counts, known background."""

    time_ps: np.ndarray
    counts: np.ndarray
    background: float = 0.0

    def __post_init__(self) -> None:
        t = np.asarray(self.time_ps, dtype=float)
        c = np.asarray(self.counts, dtype=float)
        object.__setattr__(self, "time_ps", t)
        object.__setattr__(self, "counts", c)
        if t.shape != c.shape or t.ndim != 1:
            raise ValueError("time and counts arrays must be matching 1-d arrays")
        if not (np.isfinite(t).all() and np.isfinite(c).all() and math.isfinite(self.background)):
            raise ValueError("time, counts and background must be finite")
        if np.any(c < 0):
            raise ValueError("counts must be non-negative")

    @classmethod
    def from_csv(cls, path: str | Path, background: float = 0.0) -> "LifetimeTrace":
        t, c = read_lifetime_csv(path)
        return cls(t, c, background)


class LifetimeModel(Enum):
    MONO_EXP = "mono_exp"
    FSS_BEATING = "fss_beating"


@dataclass(frozen=True)
class FitModel:
    """A parametric model: named parameters, prediction, analytic Jacobian."""

    names: tuple[str, ...]
    fn: Callable
    jac: Callable


# ---------------------------------------------------------------------------
# Engine

def least_squares(model: FitModel, x, y: np.ndarray, init: Sequence[float], *,
                  sigma: Optional[np.ndarray] = None,
                  bounds: Optional[Sequence[tuple[Optional[float], Optional[float]]]] = None
                  ) -> FitResult:
    """Minimize the (optionally inverse-variance weighted) sum of squares.

    Non-convergence is reported through `converged=False`, not raised; a
    numerically rank-deficient Jacobian raises RankDeficiencyError.
    """
    y = np.asarray(y, dtype=float)
    p = np.asarray(init, dtype=float).copy()
    n_par = p.size
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)
        if np.any(sigma <= 0):
            raise ValueError("all provided uncertainties must be > 0")
        w = 1.0 / sigma
    else:
        w = np.ones_like(y)
    lo = np.full(n_par, -np.inf)
    hi = np.full(n_par, np.inf)
    if bounds is not None:
        for j, (a, b) in enumerate(bounds):
            lo[j] = -np.inf if a is None else a
            hi[j] = np.inf if b is None else b
    if np.any(p < lo) or np.any(p > hi):
        raise ValueError("initial guess must lie within the bounds")

    def residual(pv: np.ndarray) -> np.ndarray:
        return (y - np.asarray(model.fn(pv, x), dtype=float)) * w

    def jac(pv: np.ndarray) -> np.ndarray:
        return np.asarray(model.jac(pv, x), dtype=float) * w[:, None]

    def held(p_: np.ndarray, g: np.ndarray) -> np.ndarray:
        # a parameter on its bound whose gradient points out of the box: g
        # points along -grad(ssr)/2, so at a lower bound only g > 0 is usable
        return ((p_ <= lo) & (g < 0)) | ((p_ >= hi) & (g > 0))

    def grad_ok(jm_: np.ndarray, r_: np.ndarray, p_: np.ndarray) -> bool:
        g = jm_.T @ r_
        g = np.where(held(p_, g), 0.0, g)  # the held components cannot move
        g_inf = float(np.max(np.abs(g))) if g.size else 0.0
        if g_inf <= GTOL:
            return True
        col = np.linalg.norm(jm_, axis=0)
        denom = col * np.linalg.norm(r_)
        scaled = np.abs(g) / np.where(denom > 0, denom, 1.0)
        return float(np.max(scaled)) <= GTOL

    r = residual(p)
    ssr = float(r @ r)
    # near-zero initial damping: the first step is effectively Gauss-Newton,
    # so a quadratic residual surface converges immediately; rejections
    # escalate the damping fast enough for hostile starts
    lam = 1e-8
    n_iter = 0
    converged = False
    for n_iter in range(1, MAX_ITER + 1):
        jm = jac(p)
        if not np.all(np.isfinite(jm)):
            raise RankDeficiencyError("Jacobian contains non-finite entries")
        if grad_ok(jm, r, p):
            converged = True
            break
        g = jm.T @ r
        # the step is solved over the free parameters only: a full step
        # clipped afterwards would move the free ones as if a held one could
        # still move, and stall along the bound
        free = ~held(p, g)
        jf = jm[:, free]
        a = jf.T @ jf  # one operand: numpy's symmetric product, as for jm.T @ jm
        step = np.zeros(n_par)
        accepted = False
        for _ in range(60):
            try:
                step[free] = np.linalg.solve(a + lam * np.diag(np.diag(a)), g[free])
            except np.linalg.LinAlgError as exc:
                raise RankDeficiencyError("singular Jacobian in normal equations") from exc
            trial = np.clip(p + step, lo, hi)
            r_trial = residual(trial)
            ssr_trial = float(r_trial @ r_trial)
            # ulp-level non-increases are accepted so the iterate can keep
            # polishing the gradient once the cost has hit float precision
            if ssr_trial <= ssr * (1.0 + 1e-13) and (ssr_trial < ssr or bool(np.any(trial != p))):
                p, r, ssr = trial, r_trial, ssr_trial
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                break
            lam = max(lam * 10.0, 1e-4)
            if lam > 1e13:
                break
        if not accepted:
            break
    if not converged:  # stalled damping or MAX_ITER: judge the final iterate
        jm = jac(p)
        converged = grad_ok(jm, r, p)

    a = jm.T @ jm
    try:
        cov = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError("singular Jacobian at the optimum") from exc
    if sigma is None:
        dof = max(y.size - n_par, 1)
        cov = cov * (ssr / dof)
    sig = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return FitResult(
        params=dict(zip(model.names, map(float, p))),
        sigmas=dict(zip(model.names, map(float, sig))),
        covariance=cov,
        residual_norm=math.sqrt(ssr),
        converged=converged,
        n_iter=n_iter,
    )


# ---------------------------------------------------------------------------
# Models

def mono_exp_model() -> FitModel:
    """y = amplitude * exp(-t / t1_ps) + background, t in ps."""

    def fn(p, t):
        amp, t1, bg = p
        return amp * np.exp(-t / t1) + bg

    def jac(p, t):
        amp, t1, bg = p
        e = np.exp(-t / t1)
        return np.stack([e, amp * e * t / t1**2, np.ones_like(t)], axis=1)

    return FitModel(("amplitude", "t1_ps", "background"), fn, jac)


def fss_beating_model() -> FitModel:
    """y = amplitude * sin^2(fss (t-t0) / 2 hbar) exp(-(t-t0)/t1) + background.

    Zero (plus background) before t0. The dipole-angle projection is not
    separable from the amplitude and is therefore absorbed into it.
    """

    def parts(p, t):
        amp, t1, fss, t0, bg = p
        dt = t - t0
        live = dt > 0
        dt = np.where(live, dt, 0.0)
        u = fss * dt / (2.0 * HBAR_UEV_PS)
        e = np.exp(-dt / t1)
        return amp, t1, fss, bg, dt, live, u, e

    def fn(p, t):
        amp, t1, fss, bg, dt, live, u, e = parts(p, t)
        return np.where(live, amp * np.sin(u) ** 2 * e, 0.0) + bg

    def jac(p, t):
        amp, t1, fss, bg, dt, live, u, e = parts(p, t)
        s2, sin2u = np.sin(u) ** 2, np.sin(2.0 * u)
        base = np.where(live, s2 * e, 0.0)
        d_amp = base
        d_t1 = amp * base * dt / t1**2
        d_fss = np.where(live, amp * sin2u * dt / (2.0 * HBAR_UEV_PS) * e, 0.0)
        d_t0 = np.where(live, amp * e * (s2 / t1 - sin2u * fss / (2.0 * HBAR_UEV_PS)), 0.0)
        d_bg = np.ones_like(t)
        return np.stack([d_amp, d_t1, d_fss, d_t0, d_bg], axis=1)

    return FitModel(("amplitude", "t1_ps", "fss_uev", "t0_ps", "background"), fn, jac)


def lorentzian_dip_model() -> FitModel:
    """Reflectivity dip: y = baseline - depth * hw^2 / ((x - center)^2 + hw^2)."""

    def fn(p, x):
        c, fwhm, depth, base = p
        hw = fwhm / 2.0
        return base - depth * hw**2 / ((x - c) ** 2 + hw**2)

    def jac(p, x):
        c, fwhm, depth, base = p
        hw = fwhm / 2.0
        d = x - c
        den = d * d + hw * hw
        d_c = -depth * 2.0 * d * hw**2 / den**2
        d_fwhm = -depth * hw * d * d / den**2
        d_depth = -(hw**2) / den
        d_base = np.ones_like(x)
        return np.stack([d_c, d_fwhm, d_depth, d_base], axis=1)

    return FitModel(("center_nm", "fwhm_nm", "depth", "baseline"), fn, jac)


def delay_visibility_model(gamma: Rate) -> FitModel:
    """Joint delay-visibility law for one source's filtered + unfiltered data.

    x is a tuple (delay_ns, is_filtered) of equal-length arrays; the model
    is V(d) = g G / (G^2 + 2 dw^2 (1 - exp(-d/tau_c))) with G = g + g*
    shared between the two series and an independent dw per series.
    """
    g = gamma.value
    if g <= 0:
        raise ValueError("radiative rate must be > 0")

    def split(p, x):
        gs, dw_f, dw_u, tau = p
        delay, is_filt = x
        dw = np.where(is_filt, dw_f, dw_u)
        big_g = g + gs
        growth = 1.0 - np.exp(-delay / tau)
        var = 2.0 * dw * dw * growth
        den = big_g * big_g + var
        return gs, dw, tau, delay, is_filt, big_g, growth, var, den

    def fn(p, x):
        *_, big_g, growth, var, den = split(p, x)
        return g * big_g / den

    def jac(p, x):
        gs, dw, tau, delay, is_filt, big_g, growth, var, den = split(p, x)
        d_gs = g * (var - big_g * big_g) / den**2
        d_dw_common = -g * big_g * 4.0 * dw * growth / den**2
        d_dw_f = np.where(is_filt, d_dw_common, 0.0)
        d_dw_u = np.where(is_filt, 0.0, d_dw_common)
        d_growth_d_tau = -delay * np.exp(-delay / tau) / tau**2
        d_tau = -g * big_g * 2.0 * dw * dw * d_growth_d_tau / den**2
        return np.stack([d_gs, d_dw_f, d_dw_u, d_tau], axis=1)

    return FitModel(("gamma_star", "delta_omega_filtered", "delta_omega_unfiltered",
                     "tau_c_ns"), fn, jac)


# ---------------------------------------------------------------------------
# High-level fits

def _tail_t1_estimate(t: np.ndarray, c: np.ndarray, bg: float) -> float:
    peak_idx = int(np.argmax(c))
    peak = c[peak_idx]
    floor = max(0.02 * peak, bg + 1.0)
    tail = slice(peak_idx, None)
    usable = (c[tail] > floor)
    tt, cc = t[tail][usable], c[tail][usable]
    if tt.size < 3:
        return max((t[-1] - t[0]) / 5.0, 1.0)
    slope = np.polyfit(tt, np.log(cc - min(bg, cc.min() - 1e-9)), 1)[0]
    if slope >= 0:
        return max((t[-1] - t[0]) / 5.0, 1.0)
    return -1.0 / slope


def _first_minimum_after_peak(t: np.ndarray, c: np.ndarray) -> Optional[float]:
    peak_idx = int(np.argmax(c))
    interior = np.arange(peak_idx + 1, t.size - 1)
    for i in interior:
        if c[i] <= c[i - 1] and c[i] < c[i + 1]:
            return float(t[i])
    return None


def fit_lifetime(trace: LifetimeTrace, model: LifetimeModel) -> FitResult:
    """Fit a decay trace with a mono-exponential or beating model.

    Requires at least 100 samples spanning at least three lifetimes.
    Initial guesses are data-driven: T1 from a log-linear tail
    regression, the splitting from the first post-peak minimum.
    """
    t, c = trace.time_ps, trace.counts
    if t.size < 100:
        raise ValueError(f"need >= 100 samples, got {t.size}")
    bg0 = trace.background if trace.background > 0 else float(np.percentile(c, 2))
    t1_0 = _tail_t1_estimate(t, c, bg0)
    span = float(t[-1] - t[0])
    if span < 3.0 * t1_0:
        raise ValueError(f"trace spans {span:.3g} ps < 3 estimated lifetimes")
    peak = float(c.max())
    if model is LifetimeModel.MONO_EXP:
        m = mono_exp_model()
        init = [max(peak - bg0, 1e-6), t1_0, bg0]
        bounds = [(0.0, None), (1e-6, None), (0.0, None)]
        return least_squares(m, t, c, init, bounds=bounds)
    m = fss_beating_model()
    t0_0 = float(t[np.argmax(c > 0.02 * peak)]) if np.any(c > 0.02 * peak) else float(t[0])
    t_min = _first_minimum_after_peak(t, c)
    if t_min is not None and t_min > t0_0:
        fss_0 = 2.0 * math.pi * HBAR_UEV_PS / (t_min - t0_0)
    else:
        fss_0 = 2.0 * math.pi * HBAR_UEV_PS / max(span / 4.0, 1.0)
    shape = m.fn([1.0, t1_0, fss_0, t0_0, 0.0], t)
    amp_0 = (peak - bg0) / max(float(shape.max()), 1e-9)
    init = [amp_0, t1_0, fss_0, t0_0, bg0]
    bounds = [(0.0, None), (1e-6, None), (1e-6, None), (None, None), (0.0, None)]
    return least_squares(m, t, c, init, bounds=bounds)


def read_reflectivity_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a reflectivity spectrum CSV with header `wavelength_nm,reflectivity`."""
    return read_csv_columns(path, ("wavelength_nm", "reflectivity"))


def fit_reflectivity(wavelength_nm: np.ndarray, reflectivity: np.ndarray) -> FitResult:
    """Fit a Lorentzian dip to a cavity reflectivity spectrum.

    Returns center, FWHM, depth and baseline, plus the derived quality
    factor q = center/FWHM with its propagated uncertainty. The spectrum
    must cover at least three linewidths.
    """
    x = np.asarray(wavelength_nm, dtype=float)
    y = np.asarray(reflectivity, dtype=float)
    if x.size < 8:
        raise ValueError("need at least 8 spectral points")
    c0 = float(x[np.argmin(y)])
    base0 = float(np.median(np.concatenate([y[: max(x.size // 10, 2)],
                                            y[-max(x.size // 10, 2):]])))
    depth0 = max(base0 - float(y.min()), 1e-9)
    below = x[y < base0 - depth0 / 2.0]
    fwhm0 = float(below.max() - below.min()) if below.size >= 2 else (x[-1] - x[0]) / 10.0
    fwhm0 = max(fwhm0, float(np.min(np.diff(np.sort(x)))))
    if (x.max() - x.min()) < 3.0 * fwhm0:
        raise ValueError("spectrum must span at least three linewidths")
    result = least_squares(
        lorentzian_dip_model(), x, y, [c0, fwhm0, depth0, base0],
        bounds=[(None, None), (1e-12, None), (0.0, None), (None, None)])
    c, fwhm = result.params["center_nm"], result.params["fwhm_nm"]
    q = c / fwhm
    jq = np.zeros(4)
    jq[0] = 1.0 / fwhm
    jq[1] = -c / fwhm**2
    var_q = float(jq @ result.covariance @ jq)
    return result.with_derived("q", q, math.sqrt(max(var_q, 0.0)))


def fit_delay_visibility(filtered: DelayVisibilitySeries, unfiltered: DelayVisibilitySeries,
                         gamma: Rate, *,
                         sigma_overrides: Optional[Sequence[tuple[str, float, float]]] = None
                         ) -> FitResult:
    """Jointly fit the delay-visibility law to filtered + unfiltered series.

    The intrinsic visibility (through the shared dephasing rate) and the
    wandering timescale are common to both series; each series gets its
    own wandering width. `sigma_overrides` entries
    ("filtered"|"unfiltered", delay_ns, sigma) inflate individual
    uncertainties, e.g. to down-weight a suspected outlier.
    """
    for name, series in (("filtered", filtered), ("unfiltered", unfiltered)):
        if len(series) < 3:
            raise ValueError(f"{name} series has {len(series)} points; need >= 3")
    delay = np.concatenate([filtered.delay_ns, unfiltered.delay_ns])
    vis = np.concatenate([filtered.visibility, unfiltered.visibility])
    sig = np.concatenate([filtered.sigma_v, unfiltered.sigma_v]).copy()
    is_filt = np.concatenate([np.ones(len(filtered), bool), np.zeros(len(unfiltered), bool)])
    if sigma_overrides:
        for which, d, new_sig in sigma_overrides:
            mask = (is_filt == (which == "filtered")) & np.isclose(delay, d)
            if not mask.any():
                raise ValueError(f"no {which} point at delay {d} ns to override")
            sig[mask] = new_sig
    if np.all(sig == 0):
        sigma = None
    elif np.any(sig <= 0) or not np.all(np.isfinite(sig)):
        raise ValueError("uncertainties must be finite and all positive or all zero")
    else:
        sigma = sig

    g = gamma.value
    v0_0 = min(float(vis.max()), 1.0 - 1e-9)
    gs_0 = g * (1.0 - v0_0) / v0_0
    big_g0 = g + gs_0

    def dw_guess(series: DelayVisibilitySeries) -> float:
        v_first, v_last = float(series.visibility[0]), float(series.visibility[-1])
        if v_last <= 0 or v_last >= v0_0:
            return 0.1 * big_g0
        ratio = v0_0 / v_last - 1.0
        return big_g0 * math.sqrt(max(ratio, 1e-6) / 2.0)

    init = [gs_0, dw_guess(filtered), dw_guess(unfiltered), 1000.0]
    bounds = [(0.0, None), (0.0, None), (0.0, None), (1e-3, None)]
    result = least_squares(delay_visibility_model(gamma), (delay, is_filt), vis,
                           init, sigma=sigma, bounds=bounds)
    gs = result.params["gamma_star"]
    return result.with_derived("v0", g / (g + gs), g / (g + gs) ** 2 * result.sigmas["gamma_star"])
