"""The tridiagonal solves of the semi-implicit step.

An IMEX step freezes its stage matrix for both implicit stages, so each
tridiagonal in it is eliminated once per step and every solve after that
does only the forward and back substitution of its right-hand side. There
are two: the free-surface system along the domain (`factor`,
`solve_banded`; on a periodic grid also solved for the Sherman-Morrison
response) and the vertical system of every column (`thomas_factor`,
`thomas`, vectorized over the columns). Both are strictly diagonally
dominant by rows, so elimination without row interchanges never meets a
vanishing pivot.

The free-surface matrix is 1 + fac (W_i + W_{i+1}) on the diagonal and
-fac W off it, with W >= 0. Its operations are those of LAPACK's dgtsv, in
its order: multiplier l/piv, pivot d - f u, right-hand side b - f b_prev,
back substitution by division (Anderson et al., LAPACK Users' Guide, 3rd
ed., 1999). dgtsv interchanges rows only where a pivot is smaller than the
entry below it, which a matrix that is also dominant by columns (a uniform
fac) never has, so there the results equal `scipy.linalg.solve_banded`'s
bit for bit; on a strongly graded mesh they may differ at round-off. The
recurrences are sequential and run on Python floats, IEEE doubles like
numpy's, which is faster than indexing numpy scalars.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Factors(NamedTuple):
    """The elimination of a tridiagonal matrix, as Python floats."""

    mult: list   # (M-1,) multipliers sub_i / piv_i
    piv: list    # (M,) pivots
    upper: list  # (M-1,) superdiagonal


def factor(ab: np.ndarray) -> Factors:
    """Eliminate the (3, M) banded matrix `ab` (`scipy.linalg.solve_banded`'s
    (1, 1) layout: superdiagonal in ab[0, 1:], diagonal in ab[1], subdiagonal
    in ab[2, :-1]) without row interchanges."""
    upper = ab[0, 1:].tolist()
    diag = ab[1].tolist()
    p = diag[0]
    piv, mult = [p], []
    for sub, up, d in zip(ab[2, :-1].tolist(), upper, diag[1:]):
        f = sub / p
        p = d - f * up
        mult.append(f)
        piv.append(p)
    return Factors(mult, piv, upper)


def solve_banded(factors: Factors, rhs: np.ndarray) -> np.ndarray:
    """Solve the factored system for the (M,) right-hand side `rhs`."""
    mult, piv, upper = factors
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
    return np.fromiter(reversed(xs), float, len(xs))


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
