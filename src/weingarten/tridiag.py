"""Batched real tridiagonal solves by odd-even cyclic reduction.

A system of n rows

    a_i x_{i-1} + b_i x_i + c_i x_{i+1} = d_i      (a_0 and c_{n-1} unused)

is solved for every column of d at once, each column with its own
coefficients or all with one set.  One level of the reduction adds to every odd row i its even
neighbours,

    row_i + alpha_i row_{i-1} + gamma_i row_{i+1},
    alpha_i = -a_i / b_{i-1},  gamma_i = -c_i / b_{i+1},

which removes x_{i-1} and x_{i+1} and leaves a tridiagonal system in the odd
unknowns alone, of n // 2 rows.  After the last level one row is left; the
back substitution then recovers each level's even unknowns from their odd
neighbours (Hockney, J. ACM 12, 1965; Buzbee, Golub & Nielson, SIAM J.
Numer. Anal. 7, 1970).  A level is a few whole-array numpy operations, so
the Python overhead grows with log2 n, not with n, and no BLAS routine is
called.

The elimination pivots on the diagonal without row exchanges, as Gaussian
elimination without pivoting on a reordered system does: it is stable for
diagonally dominant systems, which both callers build (the radial Laplace
systems of :mod:`solver` and the [1, 4, 1] spline system of :mod:`problem`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["CyclicReduction"]


class CyclicReduction:
    """A plan for right-hand sides of shape (n, ``columns``), column j with
    the tridiagonal matrix whose sub-, main and super-diagonals are column j
    of ``lower``, ``main`` and ``upper``.  These broadcast to (n, columns) or
    to (n, 1), one matrix for every column; lower[0] and upper[-1] are not
    used.  The per-level coefficients are computed here, once, with the work
    buffer that :meth:`solve` reduces in place, so one plan serves one solve
    at a time.
    """

    def __init__(self, lower, main, upper, columns: int):
        a, b, c = (np.array(v, dtype=float) for v in np.broadcast_arrays(lower, main, upper))
        n = b.shape[0]
        a[0] = 0.0
        c[-1] = 0.0
        # Rows 1..n of the buffer hold d, and then x.  Level l works on every
        # 2^l-th row: its rows 1..n_l are the odd rows of level l - 1, its row
        # 0 and row n_l + 1 are zero rows, the missing neighbours of its end
        # rows.  So every level takes the same slices, and the rows a level
        # reduces are the next level's rows.
        self._buffer = np.zeros((2 * n + 2, columns))
        self._data = self._buffer[1:n + 1]
        work = np.empty(((n + 1) // 2, columns))
        self._forward, self._backward = [], []
        step = 1
        while n > 1:
            k, e = n // 2, n - n // 2  # odd rows 1, 3, .., 2k - 1; even rows 0, 2, ..
            rows = self._buffer[::step]
            # a neighbour past the end is a zero row: coefficients 0, 1, 0
            a_p, b_p, c_p = (np.concatenate((v, np.full((1, v.shape[1]), f)))
                             for v, f in ((a, 0.0), (b, 1.0), (c, 0.0)))
            alpha = -a[1::2] / b[0:2 * k:2]
            gamma = -c[1::2] / b_p[2:2 * k + 1:2]
            self._forward.append((alpha, gamma, rows[1:2 * k:2], rows[2:2 * k + 1:2],
                                  rows[3:2 * k + 2:2], work[:k]))
            inv_even = 1.0 / b[0::2]
            self._backward.append((inv_even, a[0::2] * inv_even, c[0::2] * inv_even,
                                   rows[1:2 * e:2], rows[0:2 * e - 1:2], rows[2:2 * e + 1:2],
                                   work[:e]))
            a, b, c = (alpha * a[0:2 * k:2],
                       b[1::2] + alpha * c[0:2 * k:2] + gamma * a_p[2:2 * k + 1:2],
                       gamma * c_p[2:2 * k + 1:2])
            n, step = k, 2 * step
        self._backward.reverse()
        self._last = self._buffer[step]
        self._inv_last = 1.0 / b[0]

    def solve(self, d: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write x with A x = d to ``out`` (which may be d itself) and return
        it; d and out of shape (n, columns)."""
        np.copyto(self._data, d)
        for alpha, gamma, left, odd, right, work in self._forward:
            np.multiply(alpha, left, out=work)
            odd += work
            np.multiply(gamma, right, out=work)
            odd += work
        self._last *= self._inv_last
        for inv, lower, upper, even, left, right, work in self._backward:
            even *= inv
            np.multiply(lower, left, out=work)
            even -= work
            np.multiply(upper, right, out=work)
            even -= work
        np.copyto(out, self._data)
        return out
