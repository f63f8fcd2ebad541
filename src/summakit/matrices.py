"""Truncated normal-matrix algebra.

A *normal* matrix here is a lower triangular matrix with nonzero diagonal
entries, truncated to its leading (N+1) x (N+1) section.  Triangularity
makes the truncation lossless: every output with row index <= N is exact.

The module also builds the series-to-series matrix ``hat_of(A)`` of a
normal matrix A: the first difference in n of the series-to-sequence matrix
whose (n, v) entry is the row tail sum  sum_{i=v..n} a_ni,  of which only the
leading column, A's row sums, is read on its own.  Entry (n, v) of the hat
matrix is the tail sum of row n of A less row n - 1, so it is built by
differencing rows of A first and then summing each row from its diagonal
down: no entry is the difference of two larger sums.  The hat matrix
inherits A's diagonal, hence stays normal and invertible; ``invert_hat``
inverts it by halves, with forward substitution on blocks of 64 rows or
fewer.  For a weighted mean the inverse is known in closed form and
is bidiagonal; ``hat_inverse`` uses it, so entries that vanish exactly stay
exactly zero.  Both are computed once per matrix and kept on it, and
``invert_hat`` keeps the inverse it computes on the matrix it inverts.  A
weighted mean's hat matrix is read from its weights: ``apply_hat`` multiplies
by it and ``hat_inverse_bands`` gives its inverse's two bands in O(N).
On exact (object) arrays, int and Fraction entries alone, the hat sums and
the products run their float code on the integer numerators of the lower
triangle (:mod:`summakit._util`), and the hat inverse is fraction free: all
read the integers an exact matrix converts once and keeps (:meth:`NormalMatrix.numerators`).
"""

from __future__ import annotations

import itertools
import logging
import math
import operator
import time
from fractions import Fraction

import numpy as np

from ._util import as_float, as_vector, fractions_over, is_exact, named_overflow, numerators
from ._util import on_numerators, quotients, same_arithmetic, suffix_sums
from .errors import LengthMismatchError, ShapeMismatchError, WeightOverflowError, ZeroDiagonalError

log = logging.getLogger("summakit")


class NormalMatrix:
    """Lower-triangular matrix with a nonzero diagonal, held as dense ``entries``
    (float64, or object dtype for exact rational work), as the WeightSequence
    ``weights`` of a weighted mean (it may run past the order), or as its order
    alone (the identity).  The last two compute ``entries`` on first read and
    keep them; the diagonal, subdiagonal, row sums and gap factor read the structure in O(N).
    """

    __slots__ = ("size", "exact", "weights", "_entries", "_built", "_hat", "_hat_inverse", "_inverse", "_gap", "_ints")

    def __init__(self, entries: np.ndarray):
        entries = np.asarray(entries)
        entries = entries if is_exact(entries) else entries.astype(float, copy=False)  # the one float conversion
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ShapeMismatchError(f"expected a square array, got shape {entries.shape}")
        self._hold(entries.shape[0], is_exact(entries), None, entries)
        entries.setflags(write=False)

    def _hold(self, *values) -> NormalMatrix:
        """Set size, exact, weights and entries, and check the diagonal; a structure skips ``__init__`` for this."""
        for name, value in zip(("size", "exact", "weights", "_entries"), values):
            object.__setattr__(self, name, value)
        zeros = np.flatnonzero(self.diagonal == 0)
        if zeros.size:
            raise ZeroDiagonalError(int(zeros[0]))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("NormalMatrix is immutable")

    @property
    def order(self) -> int:
        return self.size - 1

    @property
    def is_identity(self) -> bool:
        """True for a matrix built by :func:`identity_matrix`, which holds only its order."""
        return self._entries is None and self.weights is None

    @property
    def reach(self) -> int:
        """The last row the matrix can be read to: its weights' order on a weighted mean, else its order."""
        return self.order if self.weights is None else self.weights.order

    @property
    def entries(self) -> np.ndarray:
        """The (N+1) x (N+1) array; when computed from a structure it is kept beside it, and no other read uses it."""
        return self._entries if self._entries is not None else _kept(self, "_built", "entries", self._dense)

    def _weights(self):
        return self.weights.weights[: self.size], self.weights.cumulative[: self.size]

    def _dense(self) -> np.ndarray:
        if self.weights is None:
            return np.eye(self.size, dtype=object if self.exact else float)
        p, P = self._weights()
        return np.tril(p[None, :] / P[:, None])

    def _band(self, offset: int) -> np.ndarray:
        """a_{n+offset,n} for n = 0..N-offset."""
        if self._entries is not None:
            return np.diagonal(self._entries, -offset)
        if self.weights is None:
            return np.full(self.size - offset, 1 - offset, dtype=object if self.exact else float)
        p, P = self._weights()
        return p[: self.size - offset] / P[offset:]

    diagonal = property(lambda self: self._band(0), doc="a_nn for n = 0..N.")
    subdiagonal = property(lambda self: self._band(1), doc="a_{n+1,n} for n = 0..N-1.")

    @property
    def row_sums(self) -> np.ndarray:
        """sum_v a_nv for n = 0..N, the leading bar column: exactly one on a weighted mean and the identity."""
        E = self._entries
        if E is not None and self.exact:  # the rows' integer sums over the one denominator
            nums, den = self.numerators()
            return fractions_over(nums.sum(axis=1), den)
        return np.ones(self.size, dtype=object if self.exact else float) if E is None else E.sum(axis=1)

    def numerators(self) -> tuple[np.ndarray, int]:
        """:func:`~summakit._util.numerators` of an exact matrix's lower triangle, converted and checked once and kept."""
        return _kept(self, "_ints", "integer numerators", lambda: on_numerators(np.asarray, np.tril(self.entries)))

    def gap(self, v=None):
        """(a_vv - a_{v+1,v}) / (a_vv a_{v+1,v+1}) for v < N, or at ``v``: exactly 1 on a weighted mean and the identity,
        on dense entries evaluated once, in O(N), and kept read-only."""
        if self._entries is None:
            g = np.ones(self.order, dtype=object if self.exact else float)
        else:
            g = _kept(self, "_gap", "gap factor", self._dense_gap)
        return g if v is None else g[v]

    def _dense_gap(self) -> np.ndarray:
        """The gap factor of dense entries; one past float range raises a PowerOverflowError naming its v."""
        d, sub = self.diagonal, self.subdiagonal
        quantity = "the gap factor (a_vv - a_{v+1,v}) / (a_vv a_{v+1,v+1})"
        return named_overflow(lambda: (d[:-1] - sub) / (d[:-1] * d[1:]), np.stack((d[:-1], sub, d[1:])), quantity)

    def rises(self) -> np.ndarray:
        """max_v max(a_nv - a_{n-1,v}, 0) for n = 1..N, C12's violations: exactly zero on the identity and on a
        weighted mean, where a_{n-1,v} - a_nv = p_v (1/P_{n-1} - 1/P_n) >= 0 holds in floats too."""
        if self._entries is None:
            return np.zeros(self.order)
        E = as_float(self._entries)
        return np.tril(np.maximum(E[1:] - E[:-1], 0.0)).max(axis=1)

    def __repr__(self):
        return f"NormalMatrix(order={self.order}, exact={self.exact})"


class WeightSequence:
    """Positive weights p_0..p_N with cached cumulative sums P_n.

    Float weights that overflow raise a :class:`~summakit.errors.WeightOverflowError`.
    The W tails of :meth:`tail` are kept on the sequence once computed.
    """

    __slots__ = ("weights", "cumulative", "_tails")

    def __init__(self, weights):
        w = as_vector(weights)
        if w.ndim != 1 or w.size == 0:
            raise ShapeMismatchError("weights must be a nonempty 1-D sequence")
        if not np.all(w > 0):  # a NaN is not positive either
            n = int(np.argmin(w > 0))
            raise ValueError(f"weight p_{n} = {w[n]} is not positive")
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
        object.__setattr__(self, "_tails", {})

    def __setattr__(self, name, value):
        raise AttributeError("WeightSequence is immutable")

    def __len__(self) -> int:
        return self.weights.size

    @property
    def order(self) -> int:
        return self.weights.size - 1

    def tail(self, k, rows: int, count: int, index_power=None):
        """W tails T_v = sum_{n=v+1..rows} n**e (p_n / (P_n P_{n-1}))**k for v < count, and their last term.

        The index power e is ``index_power``, k - 1 unless given.  The sums come from one
        :func:`~summakit._util.suffix_sums` sweep, exact for exact weights when
        k and the index power are integers.  A float term past float range
        raises a :class:`~summakit.errors.PowerOverflowError` naming its n.
        Each argument tuple is swept once per sequence: later calls return the
        same read-only sums.
        """
        if index_power is None:
            index_power = k - 1
        key = (k, rows, count, index_power)
        if key not in self._tails:
            p, P = self.weights, self.cumulative
            if is_exact(p) and float(k).is_integer() and float(index_power).is_integer():
                idx = np.arange(1, rows + 1, dtype=object)
                terms = idx ** int(index_power) * (p[1 : rows + 1] / (P[1 : rows + 1] * P[:rows])) ** int(k)
            else:
                ratio = as_float(p[1 : rows + 1]) / (as_float(P[1 : rows + 1]) * as_float(P[:rows]))
                terms = named_overflow(
                    lambda: np.arange(1, rows + 1, dtype=float) ** float(index_power) * ratio ** float(k),
                    ratio, "the W-tail term n**e (p_n / (P_n P_{n-1}))**k", "n", 1,
                )
            sums = suffix_sums(terms, count)
            sums.setflags(write=False)
            self._tails[key] = sums, terms[-1] if rows else 0
        return self._tails[key]

    def hat_rows(self, count: int) -> np.ndarray:
        """c_n = p_n / (P_n P_{n-1}) for n = 0..count-1, and 0 at n = 0.

        Row n of the weighted mean's hat matrix is c_n P_{v-1} for 1 <= v <= n
        (at v = n that is its diagonal p_n / P_n) and 0 at v = 0 below row 0.
        """
        p, P = self.weights[:count], self.cumulative[:count]
        return np.concatenate(([0], p[1:] / (P[1:] * P[:-1])))

    def delta(self, lv, count: int):
        """P_v lam_{v+1} - P_{v-1} lam_v for v = 0..count-1, with P_{-1} = 0.

        Evaluated as p_v lam_{v+1} + P_{v-1} (lam_{v+1} - lam_v): the literal
        difference of two products of size P_v |lam| can cancel to a value
        smaller by a factor of order v**2 (lam_n = 1/(n+1), unit weights), and
        its relative error grows by that factor.
        """
        P_prev = np.concatenate(([0], self.cumulative[:count]))[:count]
        lam_next = lv[1 : count + 1]
        return self.weights[:count] * lam_next + P_prev * (lam_next - lv[:count])


def make_normal(entries, order: int | None = None) -> NormalMatrix:
    """Validate raw entries into a NormalMatrix.

    Accepts either a ragged list of rows (row n holding the n+1 entries
    a_n0..a_nn) or a full square array whose upper triangle is discarded.
    """
    if isinstance(entries, np.ndarray) and entries.ndim == 2:
        square = entries  # np.tril below copies it
    else:
        rows = list(entries)
        if any(np.ndim(r) == 0 for r in rows):
            raise ShapeMismatchError("entries must be a sequence of rows")
        widths = [len(r) for r in rows]
        if all(w == len(rows) for w in widths):
            square = np.asarray([as_vector(r) for r in rows])
        elif all(w == n + 1 for n, w in enumerate(widths)):
            rows = [as_vector(r) for r in rows]
            exact = any(is_exact(r) for r in rows)
            square = np.zeros((len(rows), len(rows)), dtype=object if exact else float)
            for n, r in enumerate(rows):
                square[n, : n + 1] = r
        else:
            raise ShapeMismatchError(f"row lengths {widths} fit neither a triangle nor a square")
    if order is not None and square.shape[0] != order + 1:
        raise ShapeMismatchError(f"got {square.shape[0]} rows for order {order}")
    return NormalMatrix(np.tril(square))


def identity_matrix(order: int, exact: bool = False) -> NormalMatrix:
    return NormalMatrix.__new__(NormalMatrix)._hold(order + 1, exact, None, None)


def riesz_matrix(w: WeightSequence, order: int | None = None) -> NormalMatrix:
    """Weighted-mean matrix a_nv = p_v / P_n for v <= n.

    Every row sums to one, so the associated bar matrix has a leading
    column of ones.  The matrix holds ``w``, not its entries.
    """
    if order is None:
        order = w.order
    if w.order < order:
        raise LengthMismatchError(f"need {order + 1} weights, have {len(w)}")
    return NormalMatrix.__new__(NormalMatrix)._hold(order + 1, is_exact(w.weights), w, None)


def cesaro_matrix(order: int, exact: bool = False) -> NormalMatrix:
    """Arithmetic-mean matrix: the unit-weight Riesz matrix."""
    return riesz_matrix(WeightSequence(np.full(order + 1, Fraction(1) if exact else 1.0)))


def leading_section(M: NormalMatrix, order: int) -> NormalMatrix:
    """M's leading (order+1) x (order+1) section, held as M is: M itself at M's order, a weighted mean keeps all
    its weights, and dense entries are a view of M's."""
    if order == M.order:
        return M
    if M._entries is None:
        return NormalMatrix.__new__(NormalMatrix)._hold(order + 1, M.exact, M.weights, None)
    return NormalMatrix(M._entries[: order + 1, : order + 1])


def _tail_sums(E: np.ndarray, v_hi: int) -> np.ndarray:
    """Columns 0..v_hi of the row tail sums sum_{i=v..n} T[n, i] of T, E with each row less the row above, zero for v > n.

    Row 0 is E's own.  Each row is summed from its diagonal down to v by one
    ``cumsum``, so no sum is a difference of two larger ones.
    """
    size = E.shape[0]
    v_hi = min(v_hi, size - 1)
    T = np.diff(E, axis=0, prepend=0)
    sums = np.empty(T.shape, dtype=T.dtype)
    np.cumsum(T[:, ::-1], axis=1, out=sums[:, ::-1])
    return sums if v_hi == size - 1 else sums[:, : v_hi + 1].copy()


def hat_columns(A: NormalMatrix, v_hi: int) -> np.ndarray:
    """Leading columns 0..v_hi of the hat matrix, over all rows of A.

    A weighted mean's hat matrix is read from its weights p:
    hat_nv = p_n P_{v-1} / (P_n P_{n-1}) for 1 <= v < n, with the diagonal
    p_n / P_n of A itself and column 0 exactly zero below row 0.  For other
    matrices hat_nv = bar_nv - bar_{n-1,v} = sum_{i=v..n} (a_ni - a_{n-1,i}):
    the rows of A are differenced first and then summed from the diagonal
    down, so the diagonal is A's own and no entry cancels two row sums; exact
    entries on the integer numerators of A's lower triangle (``on_numerators``).
    """
    if A.weights is not None:
        v_hi = min(v_hi, A.size - 1)
        p, P = A._weights()
        coef = A.weights.hat_rows(A.size)  # row 0 is its diagonal alone
        hat = np.tril(coef[:, None] * np.concatenate(([0], P[:v_hi]))[None, :])
        idx = np.arange(v_hi + 1)
        hat[idx, idx] = p[: v_hi + 1] / P[: v_hi + 1]
        return hat
    if A.exact:
        nums, den = A.numerators()
        return fractions_over(_tail_sums(nums, v_hi), den)
    return _tail_sums(A.entries, v_hi)


def _kept(A: NormalMatrix, slot: str, name: str, build) -> NormalMatrix:
    """The value in A's private ``slot``, computed by ``build()`` on first use and kept read-only; each is logged with its time."""
    M = getattr(A, slot, None)
    if M is None:
        start = time.perf_counter()
        M = build()
        for x in M if isinstance(M, tuple) else (M,):
            if isinstance(x, np.ndarray):
                x.setflags(write=False)
        log.debug("computed the %s of order %d in %.6f s", name, A.order, time.perf_counter() - start)
        object.__setattr__(A, slot, M)
    return M


def hat_of(A: NormalMatrix) -> NormalMatrix:
    """Series-to-series semimatrix: row n holds the tail sums of row n of A less row n - 1 (:func:`hat_columns`).

    Its diagonal equals A's diagonal, so the result is again normal.  It is
    computed once per A: later calls return the same read-only matrix.  The
    identity is its own hat matrix.
    """
    if A.is_identity:
        return A
    return _kept(A, "_hat", "hat matrix", lambda: NormalMatrix(hat_columns(A, A.order)))


_BLOCK = 64


def invert_hat(H: NormalMatrix) -> NormalMatrix:
    """Two-sided inverse of a normal matrix, by halves down to blocks of 64 rows or fewer.

    With H = [[L11, 0], [L21, L22]] the inverse is [[X11, 0], [-X22 L21 X11, X22]]:
    the inverses of the two diagonal blocks and two matrix products, BLAS-3
    on the float path.  A block of :data:`_BLOCK` rows or fewer is inverted
    by forward substitution, and so is a matrix of int and Fraction entries,
    fraction free and unsplit: no product over the zeros of a block.  No
    pivoting is needed: the diagonal is nonzero by the type invariant.  It is
    computed once per H: later calls return the same read-only matrix.  A float
    entry past float range, on finite entries of H, raises a PowerOverflowError naming its row.
    """

    def inverse():  # an exact H from its kept integer numerators
        if H.exact:
            return NormalMatrix(_fraction_free_inverse(*H.numerators()))
        return NormalMatrix(named_overflow(lambda: _lower_inverse(H.entries), H.entries, "the hat inverse", "row n"))

    return _kept(H, "_inverse", "hat inverse", inverse)


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    size = L.shape[0]
    X = np.zeros((size, size), dtype=L.dtype)
    if size <= _BLOCK:  # forward substitution, one row product at a time
        for n in range(size):
            X[n, :n] = -(L[n, :n] @ X[:n, :n]) / L[n, n]
            X[n, n] = 1 / L[n, n]
        return X
    h = size // 2
    X[:h, :h] = X11 = _lower_inverse(L[:h, :h])
    X[h:, h:] = X22 = _lower_inverse(L[h:, h:])
    X[h:, :h] = -(X22 @ (L[h:, :h] @ X11))
    return X


def _fraction_free_inverse(nums: np.ndarray, den: int) -> np.ndarray:
    """The inverse of the lower triangle nums / den of integers, each row n first written as R_n / d_n in lowest terms:
    column v solves R x = d_v e_v, its entries through row n numerators over R_v[v] ... R_n[n], the running product of
    the scaled diagonal."""
    rows = [row[: n + 1] for n, row in enumerate(nums.tolist())]
    rows = [([x // g for x in R], den // g) for R in rows for g in [math.gcd(den, *R)]]  # each row in lowest terms
    X = np.zeros((len(rows), len(rows)), dtype=object)
    for v in range(len(rows)):
        ys, D = [rows[v][1]], rows[v][0][v]
        for R, _ in rows[v + 1 :]:
            r = R[v + len(ys)]
            ys = [y * r for y in ys] + [-sum(map(operator.mul, R[v:], ys))]
            D *= r
        X[v:, v] = [Fraction(y, D) for y in ys]
    return X


def hat_inverse(A: NormalMatrix) -> NormalMatrix:
    """Inverse of ``hat_of(A)``, in closed form when A is a weighted mean.

    With weights p and cumulative sums P the inverse is bidiagonal:
    diagonal P_n / p_n, subdiagonal entry (n+1, n) equal to -P_{n-1} / p_n
    (zero at n = 0), and exact zeros everywhere else, on the float path
    as well as the exact one.  Other matrices go through :func:`invert_hat`.
    It is computed once per A, like the hat matrix; :func:`invert_hat`
    keeps its result on the hat matrix.  The identity is its own hat inverse.
    """
    if A.is_identity:
        return A
    if A.weights is None:
        return invert_hat(hat_of(A))
    return _kept(A, "_hat_inverse", "hat inverse", lambda: _bidiagonal_inverse(A))


def far_inverse(A: NormalMatrix) -> np.ndarray | None:
    """``hat_inverse(A)`` below its subdiagonal (entries (n, r), r <= n - 2), or None when that inverse is
    bidiagonal, on a weighted mean and on the identity: every sum over it is then empty or a sum of zeros."""
    return None if A._entries is None else np.tril(hat_inverse(A).entries, -2)


def hat_inverse_bands(A: NormalMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal (n, n) for n = 0..N and subdiagonal (n+1, n) for n = 0..N-1 of ``hat_inverse(A)``.

    A weighted mean's are P_n / p_n and -P_{n-1} / p_n (0 at n = 0), read
    from its weights with no matrix formed; other matrices' are read off
    their hat inverse.
    """
    if A.weights is None:
        X = hat_inverse(A)
        return X.diagonal, X.subdiagonal
    p, P = A._weights()
    return P / p, np.concatenate(([0], -P[:-2] / p[1:-1]))[: A.order]


def _bidiagonal_inverse(A: NormalMatrix) -> NormalMatrix:
    diag, sub = hat_inverse_bands(A)
    X = np.zeros((A.size, A.size), dtype=diag.dtype)
    idx = np.arange(A.size)
    X[idx, idx] = diag
    X[idx[1:], idx[:-1]] = sub
    return NormalMatrix(X)


def apply_hat(A: NormalMatrix, x) -> np.ndarray:
    """``hat_of(A)`` applied to x: result_n = sum_{v=0..n} hat_nv x_v.

    For a weighted mean no matrix is formed: row n of its hat matrix is
    c_n P_{v-1} (:meth:`WeightSequence.hat_rows`) below the diagonal, so the
    product is c_n times one prefix sum of P_{v-1} x_v, plus the diagonal
    term a_nn x_n.  Other matrices multiply their hat matrix by :func:`apply_lower`:
    the identity is its own, so its product is x itself, O(N) too.
    """
    if A.weights is None:
        return apply_lower(hat_of(A), x)
    xs = as_vector(x)
    if xs.size < A.size:
        raise LengthMismatchError(f"need {A.size} values, have {xs.size}")
    same_arithmetic(A.exact, xs, "apply_hat")
    xs = xs[: A.size]
    terms = np.concatenate(([0], A.weights.cumulative[: A.order])) * xs
    below = np.concatenate(([0], np.cumsum(terms[:-1])))  # below_n = sum_{v<n} terms_v
    return A.weights.hat_rows(A.size) * below + A.diagonal * xs


def apply_lower(M, x) -> np.ndarray:
    """result_n = sum_{v=0..n} M_nv x_v for a lower-triangular M: an array, or a NormalMatrix read as it is stored.

    A structure forms no matrix and is O(N): the identity gives x itself, a weighted mean (1/P_n) sum_{v<=n} p_v x_v,
    on floats its numerator summed exactly as integers and divided by P_n in one correctly rounded division.  Float
    entries are one ``np.dot``; on exact entries each row is an integer dot product over its lower triangle only.  An
    exact matrix takes exact values and a float one floats: a mixed call raises a MixedArithmeticError.
    """
    E = M._entries if isinstance(M, NormalMatrix) else np.asarray(M)
    size = M.size if E is None else E.shape[0]
    xs = as_vector(x)
    if xs.size < size:
        raise LengthMismatchError(f"need {size} values, have {xs.size}")
    same_arithmetic(M.exact if E is None else is_exact(E), xs, "apply_lower")
    xs = xs[:size]
    if E is None and M.weights is None:
        return xs.copy()
    if E is None:
        p, P = M._weights()
        if M.exact:
            return suffix_sums((p * xs)[::-1], size)[::-1] / P
        (a, da), (b, db), (c, dc) = (numerators(y) for y in (p, xs, P))
        up = dc.bit_length() - da.bit_length() - db.bit_length() + 1  # powers of two: dc / (da db) = 2**up
        sums = itertools.accumulate(map(operator.mul, a, b))
        out = quotients(map(operator.lshift, sums, itertools.repeat(max(up, 0))), map(operator.lshift, c, itertools.repeat(max(-up, 0))))
        finite = np.isfinite(xs)  # a non-finite term reaches every later mean as in the float sum
        return out + (0 if finite.all() else np.cumsum(np.where(finite, 0.0, p * xs)) / P)
    if is_exact(E):
        nums, den = M.numerators() if isinstance(M, NormalMatrix) else on_numerators(np.asarray, np.tril(E))
        x, x_den = on_numerators(np.asarray, xs)
        return np.asarray([Fraction(s, den * x_den) for s in np.dot(nums, x).tolist()], dtype=object)
    return np.dot(E, xs)
