"""Independent references that the tests check the package against.

None is needed at run time: `closed_form_temporal_overlap` is the
closed form that `classical_overlap` must reproduce for mono-exponential
profiles, `finite_difference_jacobian` the numerical derivative that
every analytic Jacobian in `remotehom.estimation` must match, and
`csv_float_columns` the `csv` module and `float()` reading of a CSV that
`read_csv_columns` must reproduce.
"""

import csv
from pathlib import Path
from typing import Callable, Sequence

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
