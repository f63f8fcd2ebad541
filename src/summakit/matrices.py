"""Truncated normal-matrix algebra.

A *normal* matrix here is a lower triangular matrix with nonzero diagonal
entries, truncated to its leading (N+1) x (N+1) section.  Triangularity
makes the truncation lossless: every output with row index <= N is exact.

The module also builds the two semimatrices associated with a normal
matrix A: the series-to-sequence matrix ``bar_of(A)`` whose (n, v) entry is
the row tail-sum  sum_{i=v..n} a_ni,  and the series-to-series matrix
``hat_of(A)`` obtained by differencing consecutive bar rows.  The hat
matrix inherits A's diagonal, hence stays normal and invertible by forward
substitution.  For a weighted mean the inverse is known in closed form and
is bidiagonal; ``hat_inverse`` uses it, so entries that vanish exactly stay
exactly zero.  Both are computed once per matrix and kept on it.
"""

from __future__ import annotations

import logging
import time
from fractions import Fraction

import numpy as np

from ._util import as_vector, is_exact
from .errors import LengthMismatchError, ShapeMismatchError, WeightOverflowError, ZeroDiagonalError

log = logging.getLogger("summakit")


class NormalMatrix:
    """Dense lower-triangular matrix with a nonzero diagonal.

    ``entries`` is a read-only square ndarray (float64 or object dtype for
    exact rational work); everything above the diagonal is identically zero.
    ``weights`` is the WeightSequence of a weighted-mean matrix built by
    :func:`riesz_matrix` (it may run past the order), None for any other.
    """

    __slots__ = ("entries", "weights", "_hat", "_hat_inverse")

    def __init__(self, entries: np.ndarray, weights: WeightSequence | None = None):
        entries = np.asarray(entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ShapeMismatchError(f"expected a square array, got shape {entries.shape}")
        for n in range(entries.shape[0]):
            if entries[n, n] == 0:
                raise ZeroDiagonalError(n)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "weights", weights)

    def __setattr__(self, name, value):
        raise AttributeError("NormalMatrix is immutable")

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @property
    def order(self) -> int:
        return self.entries.shape[0] - 1

    @property
    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.entries)

    @property
    def exact(self) -> bool:
        return is_exact(self.entries)

    def __repr__(self):
        return f"NormalMatrix(order={self.order}, exact={self.exact})"


class WeightSequence:
    """Positive weights p_0..p_N with cached cumulative sums P_n.

    The convention P_{-1} = 0 is honored by :meth:`cum_before`.  Float
    weights that overflow raise a :class:`~summakit.errors.WeightOverflowError`.
    """

    __slots__ = ("weights", "cumulative")

    def __init__(self, weights):
        w = as_vector(weights)
        if w.ndim != 1 or w.size == 0:
            raise ShapeMismatchError("weights must be a nonempty 1-D sequence")
        for n, p in enumerate(w):
            if not p > 0:
                raise ValueError(f"weight p_{n} = {p} is not positive")
        with np.errstate(over="ignore"):
            c = np.cumsum(w)
        if not is_exact(w) and not np.isfinite(c[-1]):  # the sums grow: the first inf is an inf weight or an overflow
            n = int(np.argmin(np.isfinite(c)))
            quantity = "weight" if np.isinf(w[n]) else "cumulative weight sum"
            raise WeightOverflowError(f"the {quantity} at n = {n} is not finite (float overflow)")
        w.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "cumulative", c)

    def __setattr__(self, name, value):
        raise AttributeError("WeightSequence is immutable")

    def __len__(self) -> int:
        return self.weights.size

    @property
    def order(self) -> int:
        return self.weights.size - 1

    def cum_before(self, n: int):
        """P_{n-1}, with P_{-1} = 0."""
        if n <= 0:
            return 0 if is_exact(self.weights) else 0.0
        return self.cumulative[n - 1]


def make_normal(entries, order: int | None = None) -> NormalMatrix:
    """Validate raw entries into a NormalMatrix.

    Accepts either a ragged list of rows (row n holding the n+1 entries
    a_n0..a_nn) or a full square array whose upper triangle is discarded.
    """
    if isinstance(entries, np.ndarray) and entries.ndim == 2:
        square = entries.copy() if entries.dtype == object else entries.astype(float)
    else:
        rows = list(entries)
        if any(np.ndim(r) == 0 for r in rows):
            raise ShapeMismatchError("entries must be a sequence of rows")
        widths = [len(r) for r in rows]
        if all(w == len(rows) for w in widths):
            square = np.asarray([as_vector(r) for r in rows])
        elif all(w == n + 1 for n, w in enumerate(widths)):
            vals = [x for r in rows for x in r]
            exact = as_vector(vals).dtype == object
            square = np.zeros((len(rows), len(rows)), dtype=object if exact else float)
            for n, r in enumerate(rows):
                square[n, : n + 1] = as_vector(r)
        else:
            raise ShapeMismatchError(f"row lengths {widths} fit neither a triangle nor a square")
    if order is not None and square.shape[0] != order + 1:
        raise ShapeMismatchError(f"got {square.shape[0]} rows for order {order}")
    return NormalMatrix(np.tril(square))


def identity_matrix(order: int, exact: bool = False) -> NormalMatrix:
    return NormalMatrix(np.eye(order + 1, dtype=object if exact else float))


def riesz_matrix(w: WeightSequence, order: int | None = None) -> NormalMatrix:
    """Weighted-mean matrix a_nv = p_v / P_n for v <= n.

    Every row sums to one, so the associated bar matrix has a leading
    column of ones.
    """
    if order is None:
        order = w.order
    if w.order < order:
        raise LengthMismatchError(f"need {order + 1} weights, have {len(w)}")
    p = w.weights[: order + 1]
    P = w.cumulative[: order + 1]
    return NormalMatrix(np.tril(p[None, :] / P[:, None]), w)


def cesaro_matrix(order: int, exact: bool = False) -> NormalMatrix:
    """Arithmetic-mean matrix: the unit-weight Riesz matrix."""
    return riesz_matrix(WeightSequence(np.full(order + 1, Fraction(1) if exact else 1.0)))


def bar_columns(A: NormalMatrix, v_hi: int) -> np.ndarray:
    """Leading columns 0..v_hi of the bar matrix, over all rows of A.

    bar[n, v] = sum_{i=v..n} a_ni, zero for v > n.  Computed from row
    prefix sums so only O(size * v_hi) memory is touched, which matters
    when A is built out to a long tail cutoff.
    """
    E = A.entries
    size = E.shape[0]
    v_hi = min(v_hi, size - 1)
    rowsum = E.sum(axis=1)
    bar = np.empty((size, v_hi + 1), dtype=E.dtype)
    bar[:, 0] = rowsum
    if v_hi >= 1:
        prefix = np.cumsum(E[:, :v_hi], axis=1)
        bar[:, 1:] = rowsum[:, None] - prefix
    bar = np.tril(bar)
    # the (n, n) entry is a single-term tail sum; pin it so no rounding from
    # the prefix subtraction leaks into the diagonal
    idx = np.arange(v_hi + 1)
    bar[idx, idx] = np.diagonal(E)[: v_hi + 1]
    return bar


def bar_of(A: NormalMatrix) -> np.ndarray:
    """Full series-to-sequence semimatrix as a plain lower-triangular array.

    Not promoted to NormalMatrix: its diagonal equals A's, but nothing else
    about it is needed as an operator in its own right.
    """
    return bar_columns(A, A.order)


def hat_columns(A: NormalMatrix, v_hi: int) -> np.ndarray:
    """Leading columns 0..v_hi of the hat matrix, over all rows of A.

    A weighted mean's hat matrix is read from its weights p:
    hat_nv = p_n P_{v-1} / (P_n P_{n-1}) for 1 <= v < n, with the diagonal
    p_n / P_n of A itself and column 0 exactly zero below row 0.  Other
    matrices difference the rows of :func:`bar_columns`.
    """
    if A.weights is not None:
        size = A.size
        v_hi = min(v_hi, size - 1)
        p = A.weights.weights[:size]
        P = A.weights.cumulative[:size]
        coef = np.concatenate(([0], p[1:] / (P[1:] * P[:-1])))  # row 0 is its diagonal alone
        hat = np.tril(coef[:, None] * np.concatenate(([0], P[:v_hi]))[None, :])
        idx = np.arange(v_hi + 1)
        hat[idx, idx] = p[: v_hi + 1] / P[: v_hi + 1]
        return hat
    bar = bar_columns(A, v_hi)
    hat = bar.copy()
    hat[1:] -= bar[:-1]
    return np.tril(hat)


def _kept(A: NormalMatrix, slot: str, name: str, build) -> NormalMatrix:
    """The matrix in A's private ``slot``, computed by ``build()`` on first use; each computation is logged with its time."""
    M = getattr(A, slot, None)
    if M is None:
        start = time.perf_counter()
        M = build()
        log.debug("computed the %s of order %d in %.6f s", name, A.order, time.perf_counter() - start)
        object.__setattr__(A, slot, M)
    return M


def hat_of(A: NormalMatrix) -> NormalMatrix:
    """Series-to-series semimatrix; row 0 copies bar, later rows difference it.

    Its diagonal equals A's diagonal, so the result is again normal.  It is
    computed once per A: later calls return the same read-only matrix.
    """
    return _kept(A, "_hat", "hat matrix", lambda: NormalMatrix(hat_columns(A, A.order)))


def invert_hat(H: NormalMatrix) -> NormalMatrix:
    """Two-sided inverse of a normal matrix by columnwise forward substitution.

    No pivoting is needed: the diagonal is nonzero by the type invariant.
    O(size^3) worst case, BLAS-backed inner products on the float path.
    """
    L = H.entries
    size = L.shape[0]
    X = np.zeros((size, size), dtype=L.dtype)
    for v in range(size):
        X[v, v] = 1 / L[v, v]
        for n in range(v + 1, size):
            X[n, v] = -np.dot(L[n, v:n], X[v:n, v]) / L[n, n]
    return NormalMatrix(X)


def hat_inverse(A: NormalMatrix) -> NormalMatrix:
    """Inverse of ``hat_of(A)``, in closed form when A is a weighted mean.

    With weights p and cumulative sums P the inverse is bidiagonal:
    diagonal P_n / p_n, subdiagonal entry (n+1, n) equal to -P_{n-1} / p_n
    (zero at n = 0), and exact zeros everywhere else, on the float path
    as well as the exact one.  Other matrices go through :func:`invert_hat`.
    It is computed once per A, like the hat matrix.
    """
    if A.weights is None:
        hat = hat_of(A)  # kept, and timed, on its own
        return _kept(A, "_hat_inverse", "hat inverse", lambda: invert_hat(hat))
    return _kept(A, "_hat_inverse", "hat inverse", lambda: _bidiagonal_inverse(A.weights, A.size))


def _bidiagonal_inverse(w: WeightSequence, size: int) -> NormalMatrix:
    p = w.weights[:size]
    P = w.cumulative[:size]
    X = np.zeros((size, size), dtype=p.dtype)
    idx = np.arange(size)
    X[idx, idx] = P / p
    X[idx[2:], idx[1:-1]] = -P[:-2] / p[1:-1]
    return NormalMatrix(X)


def apply_lower(M, x) -> np.ndarray:
    """result_n = sum_{v=0..n} M_nv x_v for a lower-triangular M."""
    E = M.entries if isinstance(M, NormalMatrix) else np.asarray(M)
    xs = as_vector(x)
    if xs.size < E.shape[0]:
        raise LengthMismatchError(f"need {E.shape[0]} values, have {xs.size}")
    return np.dot(E, xs[: E.shape[0]])
