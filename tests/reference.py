"""Independent references that the tests check the package against.

None is needed at run time: `closed_form_temporal_overlap` is the
closed form that `classical_overlap` must reproduce for mono-exponential
profiles, `beating_overlap_quadrature` the piecewise adaptive quadrature it
must reproduce for beating ones, `delay_law` the scalar delay law that
`individual_indistinguishability` must reproduce, `voigt_quadrature` the
Lorentzian-Gaussian convolution by `quad` that `voigt` must reproduce,
`ou_inflated_sigma` the counting error of a Monte-Carlo visibility widened by
the wandering's correlation across the pulse train, `finite_difference_jacobian`
the numerical derivative that every analytic Jacobian in
`remotehom.estimation` must match,
`csv_float_columns` the `csv` module and `float()` reading of a CSV that
`read_csv_columns` must reproduce, and `dense_delay_bin_probs` the full
(2W + 1) x (n_bins + 1) delay table whose rows the banded
`_delay_bin_probs` must hold, and `least_squares` the plain
Levenberg-Marquardt loop whose every result bit the package's leaner
`estimation.least_squares` must reproduce.
"""

import csv
import math
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad

from remotehom.estimation import GTOL, MAX_ITER, FitModel, FitResult, RankDeficiencyError
from remotehom.units_core import Rate


def closed_form_temporal_overlap(gamma_i: Rate, gamma_j: Rate) -> float:
    """Closed-form overlap 4*g_i*g_j/(g_i+g_j)^2 of two mono-exponential decays."""
    gi, gj = gamma_i.value, gamma_j.value
    if gi <= 0 or gj <= 0:
        raise ValueError("both rates must be > 0")
    return 4.0 * gi * gj / (gi + gj) ** 2


def delay_law(v0: float, dw_r: float, tau_c_ns: float, delay_ns: float) -> float:
    """V(d) = v0 / [1 + 2 dw_r^2 (1 - exp(-d / tau_c))], one scalar delay, by `math`."""
    return v0 / (1.0 + 2.0 * dw_r**2 * (1.0 - math.exp(-delay_ns / tau_c_ns)))


def voigt_quadrature(x: float, gl: float, sig: float) -> float:
    """Voigt profile at x (Lorentzian HWHM gl, Gaussian sigma sig) by convolution quadrature."""
    lorentz = lambda u: gl / math.pi / (u * u + gl * gl)
    gauss = lambda u: math.exp(-u * u / (2 * sig * sig)) / (sig * math.sqrt(2 * math.pi))
    span = 40.0 * max(gl, sig)
    val, _ = quad(lambda u: lorentz(x - u) * gauss(u), -span, span,
                  points=[0.0, x], limit=800, epsabs=1e-13, epsrel=1e-10)
    return val


def ou_inflated_sigma(pair, cfg, est_sigma: float, seed: int) -> float:
    """Counting error `est_sigma` inflated by var(m) * 2 tau_c / T_total, with the
    longer tau_c: the wandering's residual correlation across the pulse train.
    var(m) is taken over 200,000 Gaussian detunings drawn on `default_rng(seed)`."""
    deltas = np.random.default_rng(seed).normal(pair.mean_detuning.value,
                                                pair.combined_wandering.value, size=200_000)
    gsum = pair.a.gamma.value + pair.b.gamma.value
    big_gsum = pair.a.total_linewidth.value + pair.b.total_linewidth.value
    m = big_gsum * gsum / (big_gsum**2 + 4.0 * deltas**2)
    t_total = cfg.n_pulses * cfg.rep_period_ns
    tau_c = max(pair.a.tau_c_ns, pair.b.tau_c_ns)
    return math.hypot(est_sigma, math.sqrt(m.var() * 2.0 * tau_c / t_total))


def finite_difference_jacobian(fn: Callable, p: np.ndarray, x, rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of fn(p, x) with a relative step."""
    p = np.asarray(p, dtype=float)
    cols = []
    for j in range(p.size):
        h = rel_step * max(abs(p[j]), 1e-8)
        up, dn = p.copy(), p.copy()
        up[j] += h
        dn[j] -= h
        cols.append((np.asarray(fn(up, x)) - np.asarray(fn(dn, x))) / (2.0 * h))
    return np.stack(cols, axis=1)


def csv_float_columns(path: str | Path, names: Sequence[str]) -> tuple[np.ndarray, ...]:
    """`read_csv_columns` by the `csv` module and one `float()` per cell.

    The same contract, except that `float()` also reads what numpy's parser
    rejects (underscore literals such as `1_000`, non-ASCII digits) and that
    a quoted first cell starting with `#` makes the line a comment.
    """
    path, n = Path(path), len(names)
    with path.open(newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise ValueError(f"{path}: empty file")
    if [c.strip() for c in rows[0][:n]] != list(names):
        raise ValueError(f"{path}: expected header '{','.join(names)}', got {rows[0]}")
    if len(rows) == 1 or min(map(len, rows[1:])) < n:
        raise ValueError(f"{path}: no data rows, or a row with fewer than {n} cells")
    data = np.array([float(c) for r in rows[1:] for c in r[:n]]).reshape(-1, n)
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: every value must be finite")
    return tuple(data.T)


def dense_delay_bin_probs(pair, cfg) -> tuple[np.ndarray, np.ndarray]:
    """Bin edges and the full table of bin probabilities of t_b - t_a + k*T,
    one row per peak offset k in [-W, W], each with a last overflow cell.

    The delay shape of `hom_montecarlo._delay_bin_probs` with every bin of
    every row stored: the cross-correlation of the two profiles' cell
    masses, times the jitter's transfer function, read as a CDF at
    `edges - k*T`.
    """
    half_span = (cfg.window_peaks + 0.5) * cfg.rep_period_ns
    n_bins = max(1, int(round(2.0 * half_span / (cfg.bin_width_ps / 1000.0))))
    edges = np.linspace(-half_span, half_span, n_bins + 1)
    m_a, m_b = (np.diff(p.intensity_cdf()) for p in pair.profiles)
    grid = pair.profiles[0].t_grid
    dt = float(grid[1] - grid[0])
    sig = math.sqrt(2.0) * cfg.jitter_sigma_ps / 1000.0
    lag0 = m_a.size - 1 + int(math.ceil(8.0 * sig / dt))
    n_fft = 1 << (2 * lag0).bit_length()
    spec = np.fft.rfft(m_b, n_fft) * np.conj(np.fft.rfft(m_a, n_fft)) \
        * np.exp(-2.0 * (math.pi * sig * np.fft.rfftfreq(n_fft, dt)) ** 2)
    dens = np.roll(np.fft.irfft(spec, n_fft), lag0)[:2 * lag0 + 1]
    cdf_x = dt * (np.arange(dens.size + 1) - lag0 - 0.5)
    cdf = np.concatenate([[0.0], np.cumsum(dens)])
    ks = np.arange(-cfg.window_peaks, cfg.window_peaks + 1)
    p = np.clip(np.diff(np.interp(edges - ks[:, None] * cfg.rep_period_ns, cdf_x, cdf)), 0.0, None)
    return edges, np.column_stack([p, np.maximum(1.0 - p.sum(axis=1), 0.0)])


def beating_overlap_quadrature(a: tuple[float, float], b: tuple[float, float],
                               t_end: float) -> float:
    """Classical overlap of two ideal beating decays (T1 ps, fss ueV) on [0, t_end] ns.

    Independent oracle: each intensity sin^2(fss t / 2 hbar) exp(-t / T1)
    is integrated with `quad` piecewise between the zeros of both sine
    factors, where |sin| is smooth. Uses no package code.
    """
    hbar = 0.6582119569  # ueV ns (CODATA)
    (t1a, fss_a), (t1b, fss_b) = a, b
    wa, wb = fss_a / (2 * hbar), fss_b / (2 * hbar)
    ga, gb = 1000.0 / t1a, 1000.0 / t1b
    zeros = {k * math.pi / w for w in (wa, wb) for k in range(1, int(t_end * w / math.pi) + 1)}
    edges = [0.0, *sorted(z for z in zeros if z < t_end), t_end]

    def integral(fn) -> float:
        return math.fsum(quad(fn, lo, hi, epsabs=0.0, epsrel=1e-12)[0]
                         for lo, hi in zip(edges, edges[1:]))

    na = integral(lambda t: math.sin(wa * t) ** 2 * math.exp(-ga * t))
    nb = integral(lambda t: math.sin(wb * t) ** 2 * math.exp(-gb * t))
    c = integral(lambda t: abs(math.sin(wa * t) * math.sin(wb * t)) * math.exp(-0.5 * (ga + gb) * t))
    return c * c / (na * nb)


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

    def judge(pv: np.ndarray, rv: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
        """Jacobian, gradient J^T r, free-parameter mask and convergence at pv."""
        jm = jac(pv)
        if not np.all(np.isfinite(jm)):
            raise RankDeficiencyError("Jacobian contains non-finite entries")
        g = jm.T @ rv
        # a parameter on its bound whose gradient points out of the box is
        # held: g points along -grad(ssr)/2, so at a lower bound only g > 0
        # is usable
        free = ~(((pv <= lo) & (g < 0)) | ((pv >= hi) & (g > 0)))
        g_free = np.where(free, g, 0.0)  # the held components cannot move
        g_inf = float(np.max(np.abs(g_free))) if g.size else 0.0
        if g_inf <= GTOL:
            return jm, g, free, True
        col = np.linalg.norm(jm, axis=0)
        denom = col * np.linalg.norm(rv)
        scaled = np.abs(g_free) / np.where(denom > 0, denom, 1.0)
        return jm, g, free, float(np.max(scaled)) <= GTOL

    # a trial step can overflow the model; its non-finite cost is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        r = residual(p)
        ssr = float(r @ r)
        # near-zero initial damping: the first step is effectively Gauss-Newton,
        # so a quadratic residual surface converges immediately; rejections
        # escalate the damping fast enough for hostile starts
        lam = 1e-8
        for n_iter in range(1, MAX_ITER + 1):
            jm, g, free, converged = judge(p, r)
            if converged:
                break
            # the step is solved over the free parameters only: a full step
            # clipped afterwards would move the free ones as if a held one could
            # still move, and stall along the bound
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
                if math.isfinite(ssr_trial) and ssr_trial <= ssr * (1.0 + 1e-13) \
                        and (ssr_trial < ssr or bool(np.any(trial != p))):
                    p, r, ssr = trial, r_trial, ssr_trial
                    lam = max(lam / 3.0, 1e-12)
                    accepted = True
                    break
                lam = max(lam * 10.0, 1e-4)
                if lam > 1e13:
                    break
            if not accepted:  # stalled damping: p is the iterate just judged
                break
        else:  # MAX_ITER steps taken: judge the last one
            jm, _, _, converged = judge(p, r)

    a = jm.T @ jm
    try:
        cov = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError("singular Jacobian at the optimum") from exc
    if not np.all(np.isfinite(cov)):  # a numerically singular a inverts to inf or nan
        raise RankDeficiencyError("singular Jacobian at the optimum")
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
