"""Independent references that the tests check the package against.

Neither is needed at run time: `closed_form_temporal_overlap` is the
closed form that `classical_overlap` must reproduce for mono-exponential
profiles, and `finite_difference_jacobian` the numerical derivative that
every analytic Jacobian in `remotehom.estimation` must match.
"""

from typing import Callable

import numpy as np

from remotehom.units_core import Rate


def closed_form_temporal_overlap(gamma_i: Rate, gamma_j: Rate) -> float:
    """Closed-form overlap 4*g_i*g_j/(g_i+g_j)^2 of two mono-exponential decays."""
    gi, gj = gamma_i.value, gamma_j.value
    if gi <= 0 or gj <= 0:
        raise ValueError("both rates must be > 0")
    return 4.0 * gi * gj / (gi + gj) ** 2


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
