"""Closed-form mean wavepacket overlaps, the Voigt evaluator, bounds, and the
spectral-filter model.

Three overlap formulas are exposed, in increasing order of included noise:

- :func:`mwo_no_dephasing` - radiative decay and a static detuning only.
- :func:`mwo_with_dephasing` - adds pure dephasing through the total
  homogeneous linewidths, scaled by the classical temporal overlap s.
- :func:`mwo_voigt_averaged` - additionally averages the detuning over the
  Gaussian wandering distributions of both sources, giving a Voigt profile.

The averaged closed form is implemented exactly as published, carrying s^2
where the un-averaged formula carries s; the two therefore disagree by a
factor s even in the limit of zero wandering. Both are exposed unmodified
and the discrepancy is documented here rather than silently corrected.
The direct Gaussian average of :func:`mwo_with_dephasing` equals the
averaged closed form divided by s; callers comparing the two routes must
apply that bridge factor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

from scipy.special import erfcx, voigt_profile

from .units_core import Frequency, Rate, Wavelength, fwhm_pm_to_angular_rate
from .wavepacket import EmitterParams, classical_overlap, default_grid, emission_profile

__all__ = [
    "FilterParams",
    "FilterRegimeError",
    "SourcePair",
    "make_source_pair",
    "mwo_no_dephasing",
    "mwo_with_dephasing",
    "voigt",
    "mwo_voigt_averaged",
    "remote_upper_bound",
    "indistinguishability_from_hom",
    "filtered_wandering",
    "apply_filter",
    "calibrate_sideband_fraction",
]


class FilterRegimeError(ValueError):
    """Raised when a spectral filter is narrower than the homogeneous line."""


@dataclass(frozen=True)
class FilterParams:
    """A Lorentzian spectral filter: center wavelength (nm) and FWHM (pm)."""

    center: Wavelength
    fwhm_pm: float

    def __post_init__(self) -> None:
        if not self.fwhm_pm > 0:
            raise ValueError(f"filter FWHM must be > 0 pm, got {self.fwhm_pm}")

    @property
    def fwhm_rate(self) -> Rate:
        """Filter FWHM converted to rad/ns at the filter center."""
        return fwhm_pm_to_angular_rate(self.fwhm_pm, self.center)


@dataclass(frozen=True)
class SourcePair:
    """Two configured sources with their mutual detuning and filter settings.

    `mean_detuning` is the mean difference of the two center frequencies
    (rad/ns) and `s_classical` the classical temporal overlap of the two
    emission profiles. When `filter` is set, both sources are taken to be
    behind matched spectral filters: sideband fractions no longer
    contribute (see :func:`apply_filter` for the wandering reweighting).
    """

    a: EmitterParams
    b: EmitterParams
    mean_detuning: Frequency = Frequency(0.0)
    s_classical: float = 1.0
    filter: Optional[FilterParams] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.s_classical <= 1.0:
            raise ValueError(f"s_classical must be in [0, 1], got {self.s_classical}")

    @property
    def combined_wandering(self) -> Rate:
        """Std. dev. of the detuning fluctuation: sqrt(dw_a^2 + dw_b^2)."""
        return Rate(math.hypot(self.a.delta_omega.value, self.b.delta_omega.value))

    @property
    def effective_sidebands(self) -> tuple[float, float]:
        """Per-source sideband fractions after the (optional) filter."""
        if self.filter is not None:
            return 0.0, 0.0
        return self.a.sideband_fraction, self.b.sideband_fraction


def make_source_pair(a: EmitterParams, b: EmitterParams,
                     mean_detuning: Frequency = Frequency(0.0),
                     filt: Optional[FilterParams] = None,
                     s_classical: Optional[float] = None) -> SourcePair:
    """Build a pair, computing s from the emission profiles unless given."""
    if s_classical is None:
        # one grid for both profiles, spanning the slower emitter: separate
        # grids would zero-fill the faster profile's tail and bias s low
        grid = default_grid(a.t1_ps, b.t1_ps)
        s_classical = classical_overlap(emission_profile(a, grid),
                                        emission_profile(b, grid))
    return SourcePair(a=a, b=b, mean_detuning=mean_detuning,
                      s_classical=s_classical, filter=filt)


def mwo_no_dephasing(gamma_i: Rate, gamma_j: Rate, delta: Frequency) -> float:
    """Mean wavepacket overlap of two mono-exponential photons, no dephasing.

    M = 4 g_i g_j / [ (g_i + g_j)^2 + delta^2 ]. Symmetric in the rates
    and even in the detuning.
    """
    gi, gj = gamma_i.value, gamma_j.value
    if gi <= 0 or gj <= 0:
        raise ValueError("both radiative rates must be > 0")
    return 4.0 * gi * gj / ((gi + gj) ** 2 + delta.value ** 2)


def mwo_with_dephasing(pair: SourcePair) -> float:
    """Dephasing-broadened overlap at the pair's mean detuning.

    M = s * (G_i + G_j)(g_i + g_j) / [ (G_i + G_j)^2 + 4 dbar^2 ]
    with G = g + g* the total homogeneous linewidth of each source.
    """
    gi, gj = pair.a.gamma.value, pair.b.gamma.value
    Gi, Gj = pair.a.total_linewidth.value, pair.b.total_linewidth.value
    if Gi <= 0 or Gj <= 0:
        raise ValueError("total linewidths must be > 0")
    dbar = pair.mean_detuning.value
    return pair.s_classical * (Gi + Gj) * (gi + gj) / ((Gi + Gj) ** 2 + 4.0 * dbar ** 2)


def voigt(x: float, lorentz_hwhm: Rate, gauss_sigma: Rate) -> float:
    """Normalized Voigt density at x (all arguments in rad/ns, result in ns).

    The convolution of a Lorentzian of HWHM `lorentz_hwhm` with a Gaussian
    of std `gauss_sigma` (scipy's `voigt_profile`), which reduces to either
    limit when one width is zero. Raises ValueError when both widths are zero.
    """
    gl, sig = lorentz_hwhm.value, gauss_sigma.value
    if gl == 0.0 and sig == 0.0:
        raise ValueError("Voigt profile needs at least one non-zero width")
    return float(voigt_profile(x, sig, gl))


def mwo_voigt_averaged(pair: SourcePair) -> float:
    """Wandering-averaged overlap: (pi/2) s^2 (g_i + g_j) V(dbar; Gbar, dw).

    Gbar is the mean of the two total linewidths and dw the combined
    wandering width of the pair. Implemented exactly as published with
    the s^2 prefactor (see the module docstring for the factor-s bridge
    to the direct average of :func:`mwo_with_dephasing`). The output is
    clamped to [0, 1]; excursions beyond 1e-9 above 1 raise a warning.
    """
    gi, gj = pair.a.gamma.value, pair.b.gamma.value
    g_bar = Rate(0.5 * (pair.a.total_linewidth.value + pair.b.total_linewidth.value))
    val = (math.pi / 2.0) * pair.s_classical ** 2 * (gi + gj) * voigt(
        pair.mean_detuning.value, g_bar, pair.combined_wandering)
    if val > 1.0 + 1e-9:
        warnings.warn(f"averaged overlap {val} exceeds 1; clamping", stacklevel=2)
    return min(max(val, 0.0), 1.0)


def remote_upper_bound(s: float, m_i: float, m_j: float) -> float:
    """Upper bound min(s, sqrt(m_i * m_j)) on the remote overlap."""
    for name, v in (("s", s), ("m_i", m_i), ("m_j", m_j)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {v}")
    return min(s, math.sqrt(m_i * m_j))


def indistinguishability_from_hom(v_hom: float, g2: float) -> float:
    """Mean wavepacket overlap from a HOM visibility and a g2(0) value.

    M = (V + g2) / (1 - g2). A result above 1 signals inconsistent inputs
    and is returned unclamped with a warning.
    """
    if not 0.0 <= g2 < 1.0:
        raise ValueError(f"g2 must be in [0, 1), got {g2}")
    m = (v_hom + g2) / (1.0 - g2)
    if m > 1.0:
        warnings.warn(f"inferred overlap {m} exceeds 1; inputs inconsistent", stacklevel=2)
    return m


def filtered_wandering(sigma: Rate, filter_hwhm: Rate) -> tuple[float, Rate]:
    """Average transmission and reweighted wandering width behind a filter.

    The filter is a Lorentzian in frequency, centered on the source's mean
    frequency, with transmission T(d) = hw^2 / (d^2 + hw^2). Treating the
    wandering as static during one emission (tau_c much longer than T1),
    the filter post-selects the Gaussian wandering distribution. Returns
    the mean transmission and the standard deviation of the transmitted
    (reweighted) detuning distribution, both in closed form: with
    a = hw / (sigma sqrt 2), t_bar = sqrt(pi) a erfcx(a), and since
    d^2 T(d) = hw^2 (1 - T(d)), the width is hw sqrt((1 - t_bar) / t_bar).
    For a > 1e3, where 1 - t_bar would cancel, the series in u = 1 / (2 a^2)
    gives t_bar = 1 - u + 3 u^2 and the width sigma (1 - u), to O(u^2).
    """
    sig, hw = sigma.value, filter_hwhm.value
    if hw <= 0:
        raise ValueError("filter half width must be > 0")
    if sig == 0.0:
        return 1.0, Rate(0.0)
    a = hw / (sig * math.sqrt(2.0))
    if a > 1e3:
        u = 0.5 / (a * a)
        return 1.0 - u + 3.0 * u * u, Rate(sig * (1.0 - u))
    t_bar = float(math.sqrt(math.pi) * a * erfcx(a))
    return t_bar, Rate(hw * math.sqrt(max(0.0, 1.0 - t_bar) / t_bar))


def apply_filter(params: EmitterParams, filt: FilterParams) -> tuple[EmitterParams, float]:
    """Source parameters behind a Lorentzian filter plus the brightness factor.

    The filter must be wider than the homogeneous line (it only acts on
    slow wandering and the sideband, leaving the temporal decay alone).
    Returns the modified parameters (sideband removed, wandering width
    reweighted, brightness scaled) and the overall transmission factor
    (1 - sideband_fraction) * mean zero-phonon-line transmission.
    """
    fwhm = filt.fwhm_rate.value
    if fwhm <= params.gamma.value:
        raise FilterRegimeError(
            f"filter FWHM {fwhm:.3g} rad/ns is narrower than the radiative "
            f"linewidth {params.gamma.value:.3g} rad/ns; this regime would "
            "reshape the temporal decay and is not supported")
    t_bar, new_sigma = filtered_wandering(params.delta_omega, Rate(fwhm / 2.0))
    factor = (1.0 - params.sideband_fraction) * t_bar
    new_params = replace(params, delta_omega=new_sigma, sideband_fraction=0.0,
                         brightness=params.brightness * factor)
    return new_params, factor


def calibrate_sideband_fraction(params: EmitterParams, filt: FilterParams,
                                target_ratio: float = 0.5) -> float:
    """Sideband fraction that makes the filter transmit `target_ratio` overall.

    Solves (1 - p) * t_bar = target for p, where t_bar is the mean
    zero-phonon-line transmission of the filter over the source's
    wandering distribution. Raises ValueError when the target is not
    reachable for any p in [0, 1].
    """
    if not 0.0 < target_ratio <= 1.0:
        raise ValueError("target_ratio must be in (0, 1]")
    t_bar, _ = filtered_wandering(params.delta_omega, Rate(filt.fwhm_rate.value / 2.0))
    p = 1.0 - target_ratio / t_bar
    if not 0.0 <= p <= 1.0:
        raise ValueError(
            f"target ratio {target_ratio} unreachable: mean transmission is {t_bar:.4f}")
    return p
