"""Independent reference values for checking the program's outputs.

Nothing here imports `remotehom`: every formula is written out again from
the physics, on top of scipy's special functions, so a defect in the
package cannot hide by agreeing with itself.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfcx, voigt_profile

C_NM_PER_NS = 2.99792458e8


def rate_from_t1(t1_ps: float) -> float:
    return 1000.0 / t1_ps


def fwhm_pm_to_rate(fwhm_pm: float, center_nm: float) -> float:
    """Filter FWHM in rad/ns: |d omega / d lambda| = 2 pi c / lambda^2."""
    return 2.0 * math.pi * C_NM_PER_NS * fwhm_pm * 1e-3 / center_nm ** 2


def filter_transmission(sigma: float, hw: float) -> float:
    """Mean Lorentzian transmission over Gaussian wandering: sqrt(pi) a erfcx(a)."""
    if sigma == 0.0:
        return 1.0
    a = hw / (sigma * math.sqrt(2.0))
    return math.sqrt(math.pi) * a * float(erfcx(a))


def filtered_sigma(sigma: float, hw: float) -> float:
    """Width of the transmitted wandering: sigma_f^2 = hw^2 (1 - t) / t.

    Follows from d^2 T(d) = hw^2 (1 - T(d)) for T(d) = hw^2 / (d^2 + hw^2).
    """
    if sigma == 0.0:
        return 0.0
    t = filter_transmission(sigma, hw)
    return hw * math.sqrt(max(1.0 - t, 0.0) / t)


def cx_overlap(g_i: float, g_j: float) -> float:
    """Classical temporal overlap of two mono-exponential decays."""
    return 4.0 * g_i * g_j / (g_i + g_j) ** 2


def m_averaged(s: float, g_a: float, g_b: float, big_g_a: float, big_g_b: float,
               dbar: float, dw: float) -> float:
    """Wandering-averaged overlap (pi/2) s^2 (g_a + g_b) V(dbar; Gbar, dw), clamped."""
    g_bar = 0.5 * (big_g_a + big_g_b)
    val = 0.5 * math.pi * s * s * (g_a + g_b) * float(voigt_profile(dbar, dw, g_bar))
    return min(max(val, 0.0), 1.0)


def delay_curve(g: float, gamma_star: float, dw: float, tau_c: float,
                delays: np.ndarray) -> np.ndarray:
    """Single-source indistinguishability vs photon separation."""
    big_g = g + gamma_star
    return (g / big_g) / (1.0 + 2.0 * (dw / big_g) ** 2 * (1.0 - np.exp(-delays / tau_c)))


def mc_visibility(m_avg: float, s: float, sidebands: tuple[float, float],
                  g2: float) -> float:
    """Expected Monte-Carlo visibility of a simulated pair.

    Per pulse the parallel central peak keeps (1 - m)/2 of the pairs with
    m = s (G_a+G_b)(g_a+g_b) / ((G_a+G_b)^2 + 4 d^2), zeroed when either
    photon is in the sideband. Its Gaussian average is m_avg / s times
    (1 - p_a)(1 - p_b). The g2 injections add g2/2 per pulse to both
    central peaks, so V = E[m] / (1 + g2). At s = 1, g2 = 0 this is the
    package's `analytic_prediction`.
    """
    p_a, p_b = sidebands
    return (1.0 - p_a) * (1.0 - p_b) * m_avg / s / (1.0 + g2)


def mc_sigma(est_sigma: float, v_expected: float, *, s: float, sidebands: tuple[float, float],
             g_sum: float, big_g_sum: float, dbar: float, dw: float, tau_c: float,
             n_pulses: int, rep_period: float, p_on: float, dwell: float) -> float:
    """Counting error inflated for the correlated noise in one simulated run.

    Two terms are added in quadrature to the Poisson error the package
    reports. The first is criterion 07's: wandering that stays correlated
    over tau_c adds var(m) 2 tau_c / T_total. The second covers blinking,
    which criterion 07 switches off: the both-sources-on pulse count of
    each polarization is a sum of products of two telegraph chains with
    correlation lam = 1 - T / dwell per pulse, and its relative variance
    enters the ratio A_par / A_perp once per polarization.
    """
    p_a, p_b = sidebands
    x = np.linspace(dbar - 12.0 * dw, dbar + 12.0 * dw, 4001) if dw > 0 else np.array([dbar])
    m = big_g_sum * g_sum / (big_g_sum ** 2 + 4.0 * x ** 2)
    if dw > 0:
        w = np.exp(-0.5 * ((x - dbar) / dw) ** 2)
        w /= w.sum()
        var_m = float(np.sum(w * m * m) - np.sum(w * m) ** 2)
    else:
        var_m = 0.0
    var_m *= (s * (1.0 - p_a) * (1.0 - p_b)) ** 2
    t_total = n_pulses * rep_period
    ou = var_m * 2.0 * tau_c / t_total
    blink = 0.0
    if p_on < 1.0:
        lam = 1.0 - rep_period / dwell
        c0 = p_on * (1.0 - p_on)
        s_cov = (2.0 * p_on ** 2 * c0 * (1.0 + lam) / (1.0 - lam)
                 + c0 ** 2 * (1.0 + lam ** 2) / (1.0 - lam ** 2))
        rel_var = s_cov / (n_pulses * p_on ** 4)
        blink = (1.0 - v_expected) ** 2 * 2.0 * rel_var
    return math.sqrt(est_sigma ** 2 + ou + blink)


def pulls(params: dict, sigmas: dict, truth: dict) -> dict[str, float]:
    """(fitted - true) / fitted sigma for every parameter with a known truth."""
    out = {}
    for name, true in truth.items():
        sig = sigmas[name]
        out[name] = (params[name] - true) / sig if sig > 0 else math.inf
    return out


def rel_err(value: float, reference: float) -> float:
    if reference == 0.0:
        return abs(value)
    return abs(value - reference) / abs(reference)
