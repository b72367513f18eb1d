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
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(c < 0):
            raise ValueError("counts must be non-negative")


class LifetimeModel(Enum):
    MONO_EXP = "mono_exp"
    FSS_BEATING = "fss_beating"


@dataclass(frozen=True)
class FitModel:
    """A parametric model: named parameters and one evaluation function.

    `evaluate(p, x)` returns the prediction at x and a Jacobian thunk: a
    function of no arguments that returns the analytic Jacobian, shape
    (points, parameters), from the intermediates of that same evaluation.
    The fit loop evaluates each trial point once and calls the thunk only
    for the points it accepts. `fn` and `jac` read either half alone.
    """

    names: tuple[str, ...]
    evaluate: Callable

    def fn(self, p, x):
        """The prediction at x."""
        return self.evaluate(p, x)[0]

    def jac(self, p, x):
        """The analytic Jacobian at x."""
        return self.evaluate(p, x)[1]()


# ---------------------------------------------------------------------------
# Engine

def least_squares(model: FitModel, x, y: np.ndarray, init: Sequence[float], *,
                  sigma: Optional[np.ndarray] = None,
                  bounds: Optional[Sequence[tuple[Optional[float], Optional[float]]]] = None
                  ) -> FitResult:
    """Minimize the (optionally inverse-variance weighted) sum of squares.

    Non-convergence is reported through `converged=False`, not raised; a
    numerically rank-deficient Jacobian raises RankDeficiencyError, and a
    cost that is not finite at `init` raises FloatingPointError. The
    loop's arithmetic is pinned bit for bit by the plain reference loop in
    `tests/reference.py`.
    """
    y = np.asarray(y, dtype=float)
    p = np.asarray(init, dtype=float).copy()
    if not np.isfinite(y).all():
        raise ValueError("y must be finite")
    if not np.isfinite(p).all():
        raise ValueError("init must be finite")
    n_par = p.size
    w = None  # unweighted: multiplying by ones would change no bit, so skip it
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)
        if not (sigma > 0).all():  # a NaN fails too
            raise ValueError("every sigma must be > 0")
        w = 1.0 / sigma
    lo = np.full(n_par, -np.inf)
    hi = np.full(n_par, np.inf)
    if bounds is not None:
        for j, (a, b) in enumerate(bounds):
            lo[j] = -np.inf if a is None else a
            hi[j] = np.inf if b is None else b
    if (p < lo).any() or (p > hi).any():
        raise ValueError("initial guess must lie within the bounds")
    box = list(zip(lo.tolist(), hi.tolist()))

    def evaluate(pv: np.ndarray) -> tuple[np.ndarray, Callable]:
        """Residual at pv and the model's Jacobian thunk there."""
        f, jac = model.evaluate(pv, x)
        rv = y - f
        return (rv if w is None else rv * w), jac

    def judge(pv: np.ndarray, rv: np.ndarray, jac: Callable
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray | slice, bool]:
        """Jacobian, gradient J^T r, free-parameter selector and convergence at pv."""
        jm = np.asarray(jac(), dtype=float)
        if w is not None:
            jm = jm * w[:, None]
        if not np.isfinite(jm).all():
            raise RankDeficiencyError("Jacobian contains non-finite entries")
        g = jm.T @ rv
        # the tests below run on a few Python floats, which compare faster
        # than numpy arrays; `all` of `<=` fails on a NaN component, as the
        # comparison of numpy's NaN-propagating max does
        gl = g.tolist()
        # a parameter on its bound whose gradient points out of the box is
        # held: g points along -grad(ssr)/2, so at a lower bound only g > 0
        # is usable
        held = [(q <= a and d < 0) or (q >= b and d > 0)
                for q, d, (a, b) in zip(pv.tolist(), gl, box)]
        if any(held):  # held ones cannot move
            free, gl = ~np.array(held), [0.0 if h else d for h, d in zip(held, gl)]
        else:  # the common case: a slice selects every parameter without a copy
            free = slice(None)
        if all(abs(d) <= GTOL for d in gl):
            return jm, g, free, True
        rn = math.sqrt(rv.dot(rv))
        # no column norm exceeds the Frobenius norm of jm, so a component with
        # |g| > GTOL |jm| |r| fails the cosine test below whatever the columns
        # hold, and an iterate far from the optimum skips their sequential sums.
        # The 1e-6 margin covers the rounding of both norms, which stays
        # relative where that test can pass: some GTOL < |g| <= GTOL col |r|
        # there, so col > 1 / |r| > 7e-155, the cost being finite
        bound = GTOL * (1.0 + 1e-6) * math.sqrt(np.vdot(jm, jm)) * rn
        if any(abs(d) > bound for d in gl):
            return jm, g, free, False
        col = np.sqrt(np.add.reduce(jm * jm, axis=0)).tolist()  # np.linalg.norm's arithmetic
        return jm, g, free, all(abs(d) / (c * rn if c * rn > 0 else 1.0) <= GTOL
                                for d, c in zip(gl, col))

    # a trial step can overflow the model, and its non-finite cost is rejected
    # below; at the optimum, J^T J can overflow
    with np.errstate(over="ignore", invalid="ignore"):
        r, jac = evaluate(p)
        ssr = float(r @ r)
        # an overflowing cost compares with no trial, and the cosine test would
        # divide by an infinite |r| and pass
        if not math.isfinite(ssr):
            raise FloatingPointError("cost at the start point is not finite")
        # near-zero initial damping: the first step is effectively Gauss-Newton,
        # so a quadratic residual surface converges immediately; rejections
        # escalate the damping fast enough for hostile starts
        lam = 1e-8
        for n_iter in range(1, MAX_ITER + 1):
            jm, g, free, converged = judge(p, r, jac)
            if converged:
                break
            # the step is solved over the free parameters only: a full step
            # clipped afterwards would move the free ones as if a held one could
            # still move, and stall along the bound
            jf = jm[:, free]
            a = jf.T @ jf  # one operand: numpy's symmetric product, as for jm.T @ jm
            damp = np.zeros(a.shape)
            damp.flat[::a.shape[0] + 1] = a.diagonal()
            step = np.zeros(n_par)
            accepted = False
            for _ in range(60):
                try:
                    step[free] = np.linalg.solve(a + lam * damp, g[free])
                except np.linalg.LinAlgError as exc:
                    raise RankDeficiencyError("singular Jacobian in normal equations") from exc
                trial = np.minimum(np.maximum(p + step, lo), hi)
                r_trial, jac_trial = evaluate(trial)
                ssr_trial = float(r_trial @ r_trial)
                # ulp-level non-increases are accepted so the iterate can keep
                # polishing the gradient once the cost has hit float precision
                if math.isfinite(ssr_trial) and ssr_trial <= ssr * (1.0 + 1e-13) \
                        and (ssr_trial < ssr or bool(np.any(trial != p))):
                    p, r, ssr, jac = trial, r_trial, ssr_trial, jac_trial
                    lam = max(lam / 3.0, 1e-12)
                    accepted = True
                    break
                lam = max(lam * 10.0, 1e-4)
                if lam > 1e13:
                    break
            if not accepted:  # stalled damping: p is the iterate just judged
                break
        else:  # MAX_ITER steps taken: judge the last one
            jm, _, _, converged = judge(p, r, jac)

        a = jm.T @ jm  # may overflow: inv then raises, or returns non-finite entries
        try:
            cov = np.linalg.inv(a)
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError("singular Jacobian at the optimum") from exc
        if not np.isfinite(cov).all():  # a numerically singular a inverts to inf or nan
            raise RankDeficiencyError("singular Jacobian at the optimum")
        if sigma is None:
            dof = max(y.size - n_par, 1)
            cov = cov * (ssr / dof)
    sig = np.sqrt(np.maximum(cov.diagonal(), 0.0))  # what np.clip(d, 0.0, None) computes
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

def _columns(n: int, *columns) -> np.ndarray:
    """A Jacobian as one C-contiguous (n, k) array; a scalar fills its column."""
    out = np.empty((n, len(columns)))
    for j, col in enumerate(columns):
        out[:, j] = col
    return out


def mono_exp_model() -> FitModel:
    """y = amplitude * exp(-t / t1_ps) + background, t in ps."""

    def evaluate(p, t):
        amp, t1, bg = p
        e = np.exp(-t / t1)
        return amp * e + bg, lambda: _columns(t.size, e, amp * e * t / t1**2, 1.0)

    return FitModel(("amplitude", "t1_ps", "background"), evaluate)


def fss_beating_model() -> FitModel:
    """y = amplitude * sin^2(fss (t-t0) / 2 hbar) exp(-(t-t0)/t1) + background.

    Zero (plus background) before t0. The dipole-angle projection is not
    separable from the amplitude and is therefore absorbed into it.
    """

    def evaluate(p, t):
        amp, t1, fss, t0, bg = p
        # dt = 0 before t0, where sin(u) = 0 zeroes the beat and every derivative
        dt = np.maximum(t - t0, 0.0)
        u = fss * dt / (2.0 * HBAR_UEV_PS)
        e = np.exp(-dt / t1)
        s2 = np.sin(u) ** 2

        def jac():
            sin2u = np.sin(2.0 * u)
            base = s2 * e
            d_t1 = amp * base * (dt / t1) / t1  # no t1**2: it overflows for a runaway t1
            d_fss = amp * sin2u * dt / (2.0 * HBAR_UEV_PS) * e
            d_t0 = amp * e * (s2 / t1 - sin2u * fss / (2.0 * HBAR_UEV_PS))
            return _columns(t.size, base, d_t1, d_fss, d_t0, 1.0)

        return amp * s2 * e + bg, jac

    return FitModel(("amplitude", "t1_ps", "fss_uev", "t0_ps", "background"), evaluate)


def lorentzian_dip_model() -> FitModel:
    """Reflectivity dip: y = baseline - depth * hw^2 / ((x - center)^2 + hw^2)."""

    def evaluate(p, x):
        c, fwhm, depth, base = p
        hw = fwhm / 2.0
        d = x - c
        dd = d * d

        def jac():
            den = dd + hw * hw  # the value squares hw by pow(), which may round apart
            den2 = den**2
            d_c = -depth * 2.0 * d * hw**2 / den2
            d_fwhm = -depth * hw * d * d / den2
            d_depth = -(hw**2) / den
            return _columns(x.size, d_c, d_fwhm, d_depth, 1.0)

        return base - depth * hw**2 / (dd + hw**2), jac

    return FitModel(("center_nm", "fwhm_nm", "depth", "baseline"), evaluate)


def delay_visibility_model(gamma: Rate) -> FitModel:
    """Joint delay-visibility law for one source's filtered + unfiltered data.

    x is a tuple (delay_ns, is_filtered) of equal-length arrays; the model
    is V(d) = g G / (G^2 + 2 dw^2 (1 - exp(-d/tau_c))) with G = g + g*
    shared between the two series and an independent dw per series.
    """
    g = gamma.value
    if g <= 0:
        raise ValueError("radiative rate must be > 0")

    def evaluate(p, x):
        gs, dw_f, dw_u, tau = p
        delay, is_filt = x
        dw = np.where(is_filt, dw_f, dw_u)
        big_g = g + gs
        decay = np.exp(-delay / tau)
        growth = 1.0 - decay
        var = 2.0 * dw * dw * growth
        den = big_g * big_g + var

        def jac():
            den2 = den**2
            d_gs = g * (var - big_g * big_g) / den2
            d_dw_common = -g * big_g * 4.0 * dw * growth / den2
            d_dw_f = np.where(is_filt, d_dw_common, 0.0)
            d_dw_u = np.where(is_filt, 0.0, d_dw_common)
            d_growth_d_tau = -delay * decay / tau**2
            d_tau = -g * big_g * 2.0 * dw * dw * d_growth_d_tau / den2
            return _columns(delay.size, d_gs, d_dw_f, d_dw_u, d_tau)

        return g * big_g / den, jac

    return FitModel(("gamma_star", "delta_omega_filtered", "delta_omega_unfiltered",
                     "tau_c_ns"), evaluate)


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


def _beat_scan(tau: np.ndarray, y: np.ndarray, w: np.ndarray,
               t1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Variable projection of the beating model over a (t1, w) grid.

    For a fixed beat frequency w (rad/ps) and lifetime t1 the model
    e^(-tau/t1) (c1 + c2 cos w tau + c3 sin w tau) + bg is linear in
    (c1, c2, c3, bg) (Golub & Pereyra, SIAM J. Numer. Anal. 10 (1973) 413).
    Returns each cell's least-squares cost less y^T y, shape (t1, w), and
    its coefficients, shape (t1, w, 4).
    """
    e = np.exp(-tau / t1[:, None])
    # float32 trig is ten times faster than float64; the scan only ranks cells
    phase = (w[:, None] * tau).astype(np.float32)
    cs, sn = np.cos(phase).astype(float), np.sin(phase).astype(float)
    e2, ey = e * e, e * y
    g = np.empty((t1.size, w.size, 4, 4))
    g[..., 0, 0] = e2.sum(axis=1)[:, None]
    g[..., 0, 1] = g[..., 1, 0] = e2 @ cs.T
    g[..., 0, 2] = g[..., 2, 0] = e2 @ sn.T
    g[..., 0, 3] = g[..., 3, 0] = e.sum(axis=1)[:, None]
    g[..., 1, 1] = e2 @ (cs * cs).T
    g[..., 1, 2] = g[..., 2, 1] = e2 @ (cs * sn).T
    g[..., 1, 3] = g[..., 3, 1] = e @ cs.T
    g[..., 2, 2] = e2 @ (sn * sn).T
    g[..., 2, 3] = g[..., 3, 2] = e @ sn.T
    g[..., 3, 3] = tau.size
    b = np.empty((t1.size, w.size, 4))
    b[..., 0] = ey.sum(axis=1)[:, None]
    b[..., 1] = ey @ cs.T
    b[..., 2] = ey @ sn.T
    b[..., 3] = y.sum()
    # unit-diagonal scaling plus a 1e-10 ridge: a cell whose columns are
    # degenerate (e underflowed, or w tau ~ 0) solves instead of raising
    d = np.sqrt(np.diagonal(g, axis1=-2, axis2=-1))
    d = np.where(d > 0, d, 1.0)
    scaled = g / (d[..., :, None] * d[..., None, :]) + 1e-10 * np.eye(4)
    # b with a trailing axis: a stack of vectors, as numpy 2.0 reads it
    coef = np.linalg.solve(scaled, (b / d)[..., None])[..., 0] / d
    return -np.sum(b * coef, axis=-1), coef


def _finite_start(init: list[float]) -> list[float]:
    """`init` as it is. A fit derives its start from finite data, so a start
    that is not finite has overflowed: a numerical failure, which
    `least_squares`' own check would report as bad input."""
    if not all(math.isfinite(v) for v in init):
        raise FloatingPointError("start point is not finite")
    return init


def _fss_seed(t: np.ndarray, c: np.ndarray, t1_0: float) -> list[float]:
    """Start of the beating fit: (amplitude, t1, fss, t0, background).

    A coarse scan of log-spaced beat frequencies (a period from twice the
    span down to four bins) against lifetimes within 2x of `t1_0`, then a
    finer scan one coarse step around the best cell. The scan runs from the
    first bin above 2 % of the peak, the onset, over 6 `t1_0`, after which
    the envelope has sunk into the background. The best cell's phase gives
    t0 within half a period of the onset, and c1 the amplitude.
    """
    on = int(np.argmax(c > 0.02 * c.max()))
    tau = t[on:] - t[on]
    keep = tau <= 6.0 * t1_0
    tau, y = tau[keep], c[on:][keep]

    def best(w: np.ndarray, t1: np.ndarray) -> tuple[float, float, np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore"):  # counts near the float range
            cost, coef = _beat_scan(tau, y, w, t1)
        # np.argmin would pick the first NaN: a cell without a finite cost ranks last
        cost = np.where(np.isfinite(cost), cost, np.inf)
        i, j = np.unravel_index(np.argmin(cost), cost.shape)
        return float(w[j]), float(t1[i]), coef[i, j]

    w_lo, step_w = math.pi / float(t[-1] - t[0]), ((t.size - 1) / 2.0) ** (1 / 23)
    step_t1 = 2.0 ** (1 / 3)
    w_c, t1_c, _ = best(w_lo * step_w ** np.arange(24.0), t1_0 * step_t1 ** np.arange(-3.0, 4.0))
    w_best, t1_best, (c1, c2, c3, bg) = best(w_c * step_w ** np.linspace(-1.0, 1.0, 12),
                                             t1_c * step_t1 ** np.linspace(-1.0, 1.0, 5))
    lag = math.atan2(-c3, -c2) / w_best  # t0 - t_onset, within half a period
    # a lag of many lifetimes only arises on degenerate data; cap its factor
    amp = 2.0 * c1 * math.exp(min(-lag / t1_best, 10.0))
    return [max(amp, 1e-6), max(t1_best, 1e-6), max(w_best * HBAR_UEV_PS, 1e-6),
            float(t[on]) + lag, max(float(bg), 0.0)]


def fit_lifetime(trace: LifetimeTrace, model: LifetimeModel) -> FitResult:
    """Fit a decay trace with a mono-exponential or beating model.

    Requires at least 100 samples spanning at least three lifetimes, and
    at least three non-zero bins from the peak on.
    T1 is seeded from a log-linear tail regression. The beating fit
    starts from a variable-projection scan over beat frequency and T1
    (`_fss_seed`), which also yields t0, amplitude and background.
    """
    t, c = trace.time_ps, trace.counts
    if t.size < 100:
        raise ValueError(f"need >= 100 samples, got {t.size}")
    decay_bins = np.count_nonzero(c[np.argmax(c):])
    if decay_bins < 3:  # a lone spike holds no decay to fit
        raise ValueError(f"need >= 3 non-zero bins from the peak on, got {decay_bins}")
    bg0 = trace.background if trace.background > 0 else float(np.percentile(c, 2))
    t1_0 = _tail_t1_estimate(t, c, bg0)
    span = float(t[-1] - t[0])
    if span < 3.0 * t1_0:
        raise ValueError(f"trace spans {span:.3g} ps < 3 estimated lifetimes")
    if model is LifetimeModel.MONO_EXP:
        init = [max(float(c.max()) - bg0, 1e-6), t1_0, bg0]
        bounds = [(0.0, None), (1e-6, None), (0.0, None)]
        return least_squares(mono_exp_model(), t, c, _finite_start(init), bounds=bounds)
    bounds = [(0.0, None), (1e-6, None), (1e-6, None), (None, None), (0.0, None)]
    return least_squares(fss_beating_model(), t, c, _finite_start(_fss_seed(t, c, t1_0)),
                         bounds=bounds)


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
    with np.errstate(over="ignore"):  # the median's mean of two values near the float range
        base0 = float(np.median(np.concatenate([y[: max(x.size // 10, 2)],
                                                y[-max(x.size // 10, 2):]])))
    depth0 = max(base0 - float(y.min()), 1e-9)
    below = x[y < base0 - depth0 / 2.0]
    fwhm0 = float(below.max() - below.min()) if below.size >= 2 else (x[-1] - x[0]) / 10.0
    fwhm0 = max(fwhm0, float(np.min(np.diff(np.sort(x)))))
    if (x.max() - x.min()) < 3.0 * fwhm0:
        raise ValueError("spectrum must span at least three linewidths")
    result = least_squares(
        lorentzian_dip_model(), x, y, _finite_start([c0, fwhm0, depth0, base0]),
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
        v_last = float(series.visibility[-1])
        if v_last <= 0 or v_last >= v0_0:
            return 0.1 * big_g0
        ratio = v0_0 / v_last - 1.0
        return big_g0 * math.sqrt(max(ratio, 1e-6) / 2.0)

    init = _finite_start([gs_0, dw_guess(filtered), dw_guess(unfiltered), 1000.0])
    bounds = [(0.0, None), (0.0, None), (0.0, None), (1e-3, None)]
    result = least_squares(delay_visibility_model(gamma), (delay, is_filt), vis,
                           init, sigma=sigma, bounds=bounds)
    gs = result.params["gamma_star"]
    return result.with_derived("v0", g / (g + gs), g / (g + gs) ** 2 * result.sigmas["gamma_star"])
