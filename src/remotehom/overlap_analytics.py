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

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .units_core import Frequency, Rate, Wavelength, fwhm_pm_to_angular_rate
from .wavepacket import (EmitterParams, WavepacketProfile, classical_overlap, default_grid,
                         emission_profile)

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
    "filtered_wandering",
    "apply_filter",
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
    (rad/ns) and `s_given` a given classical temporal overlap s, if any.
    `filter` records the matched spectral filter both sources sit behind; it
    changes nothing by itself. The emitters of a filtered pair are those
    returned by :func:`apply_filter`, which removes the sideband and
    reweights the wandering.
    """

    a: EmitterParams
    b: EmitterParams
    mean_detuning: Frequency = Frequency(0.0)
    s_given: Optional[float] = None
    filter: Optional[FilterParams] = None

    def __post_init__(self) -> None:
        if self.s_given is not None and not 0.0 <= self.s_given <= 1.0:
            raise ValueError(f"s_classical must be in [0, 1], got {self.s_given}")

    @functools.cached_property
    def s_classical(self) -> float:
        """The given s, or else the classical overlap of the `profiles`, on first read."""
        return classical_overlap(*self.profiles) if self.s_given is None else self.s_given

    @functools.cached_property
    def profiles(self) -> tuple[WavepacketProfile, WavepacketProfile]:
        """The emission profiles of a and b, built on first read, both on one grid
        that `default_grid` makes uniform (the delay model's single dt relies on
        it). Separate grids would zero-fill the faster profile's tail, biasing s low."""
        grid = default_grid(self.a.t1_ps, self.b.t1_ps)
        return emission_profile(self.a, grid), emission_profile(self.b, grid)

    @property
    def combined_wandering(self) -> Rate:
        """Std. dev. of the detuning fluctuation: sqrt(dw_a^2 + dw_b^2)."""
        return Rate(math.hypot(self.a.delta_omega.value, self.b.delta_omega.value))


def make_source_pair(a: EmitterParams, b: EmitterParams,
                     mean_detuning: Frequency = Frequency(0.0),
                     filt: Optional[FilterParams] = None,
                     s_classical: Optional[float] = None) -> SourcePair:
    """Build a pair, computing s from the emission profiles unless given."""
    return SourcePair(a=a, b=b, mean_detuning=mean_detuning, s_given=s_classical, filter=filt)


def _scale_free(ratio: Callable, *rates, out: Optional[np.ndarray] = None):
    """num / den for `(num, den) = ratio(*rates)`, both of degree 2 in the rates. Where den is
    not a normal float, both come from the rates over the largest of them: the same quotient.
    `ratio(*rates, out=out)` builds den in `out`, if given, and the quotient goes there too;
    `out` must share no memory with the rates, which that re-evaluation reads again."""
    rates = [np.asarray(r, dtype=float)[()] for r in rates]  # a float64 ** overflows to inf
    with np.errstate(over="ignore", invalid="ignore"):
        num, den = ratio(*rates, out=out)
        redo = ~((den >= np.finfo(float).tiny) & (den < np.inf))
        if redo.any():
            largest = np.max(np.abs(np.broadcast_arrays(*rates)), axis=0)
            num, den = [np.where(redo, x_1, x) for x_1, x in
                        zip(ratio(*(r / largest for r in rates)), (num, den))]
        return np.divide(num, den, out=out)


def mwo_no_dephasing(gamma_i: Rate, gamma_j: Rate, delta: Frequency) -> float:
    """Mean wavepacket overlap of two mono-exponential photons, no dephasing.

    M = 4 g_i g_j / [ (g_i + g_j)^2 + delta^2 ]. Symmetric in the rates
    and even in the detuning.
    """
    return _scale_free(lambda gi, gj, d, out=None: (4.0 * gi * gj, (gi + gj) ** 2 + d * d),
                       gamma_i.value, gamma_j.value, delta.value)


def mwo_with_dephasing(pair: SourcePair, detuning: Optional[float] = None,
                       out: Optional[np.ndarray] = None) -> float:
    """Dephasing-broadened overlap at `detuning` (rad/ns), by default the
    pair's mean detuning; an array of detunings gives one overlap each.

    M = s * (G_i + G_j)(g_i + g_j) / [ (G_i + G_j)^2 + 4 delta^2 ]
    with G = g + g* the total homogeneous linewidth of each source.
    Given `out`, a float64 array the shape of an array `detuning`, the
    denominator is built and divided in `out`, which is returned: no
    temporary array of that size is made. `out` must not share memory
    with `detuning`, which a non-normal denominator reads again.
    """
    gi, gj = pair.a.gamma.value, pair.b.gamma.value
    Gi, Gj = pair.a.total_linewidth.value, pair.b.total_linewidth.value
    d = pair.mean_detuning.value if detuning is None else detuning

    def ratio(Gi, Gj, gi, gj, d, out=None):
        # d * d rounds a scalar as an array (d ** 2 calls pow() on a scalar only);
        # *= and += work in place on an array and rebind a scalar
        den = np.multiply(d, d, out=out)
        den *= 4.0
        den += (Gi + Gj) ** 2
        return pair.s_classical * (Gi + Gj) * (gi + gj), den

    return _scale_free(ratio, Gi, Gj, gi, gj, d, out=out)


def voigt(x: float, lorentz_hwhm: Rate, gauss_sigma: Rate) -> float:
    """Normalized Voigt density at x (all arguments in rad/ns, result in ns).

    The convolution of a Lorentzian of HWHM `lorentz_hwhm` with a Gaussian
    of std `gauss_sigma` (scipy's `voigt_profile`), which reduces to either
    limit when one width is zero.
    """
    # imported on first use: scipy.special is about half of a fresh CLI start,
    # and the fits, match-pairs and an unfiltered predict-delay never call it
    from scipy.special import voigt_profile

    gl, sig = lorentz_hwhm.value, gauss_sigma.value
    # scipy loses precision on widths below about 1e-154 and returns 0 above 1e154:
    # there, V(x; sig, gl) = V(x/L; sig/L, gl/L) / L with L the larger width
    scale = 1.0 if 1e-150 < max(gl, sig) < 1e150 else max(gl, sig)
    return float(voigt_profile(x / scale, sig / scale, gl / scale)) / scale


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
    if sig == 0.0:
        return 1.0, Rate(0.0)
    a = hw / (sig * math.sqrt(2.0))
    if a > 1e3:
        u = 0.5 / (a * a)
        return 1.0 - u + 3.0 * u * u, Rate(sig * (1.0 - u))
    from scipy.special import erfcx  # imported on first use, as in voigt()

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
