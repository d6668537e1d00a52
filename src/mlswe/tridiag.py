"""The tridiagonal solves of the semi-implicit step.

An IMEX step freezes its stage matrix for both implicit stages, so each
tridiagonal in it is eliminated once per step and every solve after that
does only the forward and back substitution of its right-hand side. There
are two, both given as three (M,) diagonals (sub, diag, sup): the
free-surface system along the domain (`factor`, `solve_banded`) and the
vertical system of every column (`thomas_factor`, `thomas`, vectorized over
the columns). Both are strictly diagonally dominant by rows, so elimination
without row interchanges never meets a vanishing pivot.

The free-surface matrix is 1 + fac (W_i + W_{i+1}) on the diagonal and
-fac W off it, with W >= 0. Its operations are those of LAPACK's dgtsv, in
its order: multiplier l/piv, pivot d - f u, right-hand side b - f b_prev,
back substitution by division (Anderson et al., LAPACK Users' Guide, 3rd
ed., 1999). dgtsv interchanges rows only where a pivot is smaller than the
entry below it, which a matrix that is also dominant by columns (a uniform
fac) never has, so there the results equal `scipy.linalg.solve_banded`'s
bit for bit; on a strongly graded mesh they may differ at round-off. The
recurrences are sequential and run on Python floats, IEEE doubles like
numpy's, which is faster than indexing numpy scalars. On a periodic grid
the matrix is cyclic; `factor` splits off its corners as a rank-one update
and `solve_banded` applies the Sherman-Morrison correction for it (Press et
al., Numerical Recipes, 3rd ed., 2007, section 2.7.2).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Factors(NamedTuple):
    """The elimination of a tridiagonal matrix, as Python floats, and for a
    cyclic one the pieces of its Sherman-Morrison correction."""

    mult: list   # (M-1,) multipliers sub_i / piv_i
    piv: list    # (M,) pivots
    upper: list  # (M-1,) superdiagonal
    z: np.ndarray | None = None  # cyclic: the response to the update's column
    r: float = 0.0               # cyclic: its row v = e_0 + r e_{M-1}
    v_z: float = 0.0             # cyclic: v . z


def factor(sub, diag, sup, cyclic: bool = False) -> Factors:
    """Eliminate the tridiagonal matrix of the (M,) diagonals without row
    interchanges (sub[k] couples row k to row k-1, sup[k] row k to row k+1).
    Unless `cyclic`, sub[0] and sup[-1] are unused; if it is, they are the
    corners (0, M-1) and (M-1, 0)."""
    diag = diag.tolist()
    upper = sup[:-1].tolist()
    if cyclic:
        # the corners as the rank-one update (gamma e_0 + beta e_{M-1}) v^T
        alpha, beta, gamma = float(sub[0]), float(sup[-1]), -diag[0]
        diag[0] -= gamma
        diag[-1] -= alpha * beta / gamma
    p = diag[0]
    piv, mult = [p], []
    for s, up, d in zip(sub[1:].tolist(), upper, diag[1:]):
        f = s / p
        p = d - f * up
        mult.append(f)
        piv.append(p)
    factors = Factors(mult, piv, upper)
    if not cyclic:
        return factors
    corner = np.zeros(len(diag))
    corner[0], corner[-1] = gamma, beta
    z = solve_banded(factors, corner)
    r = alpha / gamma
    return factors._replace(z=z, r=r, v_z=z[0] + r * z[-1])


def solve_banded(factors: Factors, rhs: np.ndarray) -> np.ndarray:
    """Solve the factored system, cyclic or not, for the (M,) right-hand side."""
    mult, piv, upper, z = factors[:4]
    b = rhs.tolist()
    y = b[0]
    ys = [y]
    for f, bi in zip(mult, b[1:]):
        y = bi - f * y
        ys.append(y)
    pivots = reversed(piv)
    x = ys.pop() / next(pivots)
    xs = [x]
    for yi, up, p in zip(reversed(ys), reversed(upper), pivots):
        x = (yi - up * x) / p
        xs.append(x)
    x = np.fromiter(reversed(xs), float, len(xs))
    if z is None:
        return x
    return x - z * ((x[0] + factors.r * x[-1]) / (1.0 + factors.v_z))


class Columns(NamedTuple):
    """The elimination of tridiagonal systems along axis 0, one per column:
    what the substitutions read."""

    sub: np.ndarray   # sub[k] couples row k to row k-1 (sub[0] unused)
    c: np.ndarray     # sup / pivot
    piv: np.ndarray   # pivots


def thomas_factor(sub, diag, sup) -> Columns:
    """Eliminate the tridiagonals along axis 0 without pivoting (sup[k]
    couples row k to row k+1; sup[-1] unused)."""
    c = np.empty_like(diag)
    piv = np.empty_like(diag)
    piv[0] = diag[0]
    c[0] = sup[0] / diag[0]
    for k in range(1, diag.shape[0]):
        piv[k] = diag[k] - sub[k] * c[k - 1]
        c[k] = sup[k] / piv[k]
    return Columns(sub, c, piv)


def thomas(cols: Columns, rhs: np.ndarray) -> np.ndarray:
    """Solve the eliminated column systems for `rhs` (same shape as their
    diagonal): forward and back substitution only."""
    sub, c, piv = cols.sub, cols.c, cols.piv
    x = np.empty_like(rhs)
    x[0] = rhs[0] / piv[0]
    for k in range(1, piv.shape[0]):
        x[k] = (rhs[k] - sub[k] * x[k - 1]) / piv[k]
    for k in range(piv.shape[0] - 2, -1, -1):
        x[k] -= c[k] * x[k + 1]
    return x
