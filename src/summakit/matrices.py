"""Truncated normal-matrix algebra.

A *normal* matrix here is a lower triangular matrix with nonzero diagonal
entries, truncated to its leading (N+1) x (N+1) section.  Triangularity
makes the truncation lossless: every output with row index <= N is exact.

A matrix is held in one of three forms, one class each, and the class is how
it is stored: :class:`NormalMatrix`, the general form, holds dense entries (or, exact, their carrier); a
:class:`WeightedMean` holds its :class:`WeightSequence`, and an
:class:`IdentityMatrix` its order alone.  Every form gives the same reads
(``size``, ``exact``, ``weights``, ``entries``, ``order``, ``reach``,
``diagonal``, ``subdiagonal``, ``row_sums``, ``numerators``, ``gap`` and
``rises``).  The module functions a structure computes otherwise
(``leading_section``, ``hat_columns``, ``hat_of``, ``hat_inverse``,
``far_inverse``, ``hat_inverse_bands``, ``apply_hat`` and ``apply_lower``)
are :func:`functools.singledispatch` functions: their own body is the dense
form's, and a structure's body is registered on them.  A new form is one
class with its ``_dense`` and ``_band``, its registrations and the function
that makes it.

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
the products run their float code on the integers of the lower triangle's
carrier (:class:`~summakit._util.Rational`, :meth:`NormalMatrix.numerators`),
and the hat inverse is fraction free: each reads one, and makes one.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import operator
import time
from fractions import Fraction

import numpy as np

from ._util import Rational, as_float, as_vector, is_exact, named_overflow, numerators, power, quotients, same_arithmetic
from ._util import suffix_sums
from .errors import LengthMismatchError, ShapeMismatchError, WeightOverflowError, ZeroDiagonalError

log = logging.getLogger("summakit")


class NormalMatrix:
    """Lower-triangular matrix with a nonzero diagonal, held as dense ``entries`` (float64, or object dtype for exact
    rational work): the general form and the public constructor.  A structure is a subclass that holds less, a
    :class:`WeightedMean` its weight sequence and an :class:`IdentityMatrix` its order; every form gives the same
    reads, and each module function that a form computes otherwise has that form's body registered on it.  An exact
    kernel's result is given as its :class:`~summakit._util.Rational`, kept in lowest terms as :meth:`numerators`, and
    its entries are formed when read (``lower``: every entry on and below the diagonal a Fraction, zero too).
    """

    __slots__ = ("size", "exact", "weights", "_entries", "_hat", "_inverse", "_gap", "_ints", "_lower", "_diagonal")

    def __init__(self, entries: np.ndarray, lower: bool = False):
        if isinstance(entries, Rational):  # a kernel's result on a normal matrix, so normal too
            ints = entries.lowest()
            ints.nums.setflags(write=False)
            for name, value in zip(("size", "exact", "weights", "_entries", "_ints", "_lower"), (ints.shape[0], True, None, None, ints, lower)):
                object.__setattr__(self, name, value)
            return
        entries = np.asarray(entries)
        entries = entries if is_exact(entries) else entries.astype(float, copy=False)  # the one float conversion
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ShapeMismatchError(f"expected a square array, got shape {entries.shape}")
        object.__setattr__(self, "_entries", entries)
        self._hold(entries.shape[0], is_exact(entries))
        entries.setflags(write=False)

    def _hold(self, size: int, exact: bool, weights=None) -> None:
        """Set size, exact and weights (None but on a weighted mean), and check the diagonal: a structure's constructor."""
        for name, value in zip(("size", "exact", "weights"), (size, exact, weights)):
            object.__setattr__(self, name, value)
        zeros = np.flatnonzero(self._band(0) == 0)
        if zeros.size:
            raise ZeroDiagonalError(int(zeros[0]))

    entries = property(lambda self: _kept(self, "_entries", "entries", self._dense), doc="The (N+1) x (N+1) array.")

    def _dense(self) -> np.ndarray:  # of a matrix given as its carrier
        return self._ints.fractions(self._lower)

    def __setattr__(self, name, value):
        raise AttributeError("NormalMatrix is immutable")

    @property
    def order(self) -> int:
        return self.size - 1

    @property
    def reach(self) -> int:
        """The last row the matrix can be read to: its weights' order on a weighted mean, else its order."""
        return self.order

    def _band(self, offset: int) -> np.ndarray:
        """a_{n+offset,n} for n = 0..N-offset."""
        return np.diagonal(self.entries, -offset)

    @property
    def diagonal(self) -> np.ndarray:
        """a_nn for n = 0..N; exact, kept, with an int as a Fraction: int / int is a float."""
        if not self.exact:
            return self._band(0)
        fractions = lambda: np.asarray([Fraction(x) if isinstance(x, int) else x for x in self._band(0).tolist()], dtype=object)  # noqa: E731
        return _kept(self, "_diagonal", "exact diagonal", fractions)

    subdiagonal = property(lambda self: self._band(1), doc="a_{n+1,n} for n = 0..N-1.")

    @property
    def row_sums(self) -> np.ndarray:
        """sum_v a_nv for n = 0..N, the leading bar column; exact, the rows' integer sums over the one denominator."""
        if self.exact:
            return (self.numerators() @ Rational(np.ones(self.size, dtype=object))).fractions()
        return self.entries.sum(axis=1)

    def numerators(self) -> Rational:
        """An exact matrix's lower triangle as its :class:`~summakit._util.Rational`, converted and checked once and kept."""
        return _kept(self, "_ints", "integer numerators", lambda: Rational.of(np.tril(self.entries)))

    def gap(self, v=None):
        """(a_vv - a_{v+1,v}) / (a_vv a_{v+1,v+1}) for v < N, or at ``v``: evaluated once, in O(N), and kept read-only."""
        g = _kept(self, "_gap", "gap factor", self._dense_gap)
        return g if v is None else g[v]

    def _dense_gap(self) -> np.ndarray:
        """The gap factor of dense entries; one past float range raises a PowerOverflowError naming its v."""
        d, sub = self.diagonal, self.subdiagonal
        quantity = "the gap factor (a_vv - a_{v+1,v}) / (a_vv a_{v+1,v+1})"
        return named_overflow(lambda: (d[:-1] - sub) / (d[:-1] * d[1:]), np.stack((d[:-1], sub, d[1:])), quantity)

    def rises(self) -> np.ndarray:
        """max_v max(a_nv - a_{n-1,v}, 0) for n = 1..N, C12's violations."""
        E = as_float(self.entries)
        return np.tril(np.maximum(E[1:] - E[:-1], 0.0)).max(axis=1)

    def __repr__(self):
        return f"NormalMatrix(order={self.order}, exact={self.exact})"


class _Structured(NormalMatrix):
    """What the weighted mean and the identity share: ``entries`` computed on first read and kept beside the
    structure, which no other read uses; rows that sum to one, a gap factor of one and no rises, exactly; and a
    bidiagonal hat inverse, so no far inverse."""

    __slots__ = ()
    __init__ = NormalMatrix._hold  # a structure holds its order, its arithmetic and its weights alone

    row_sums = property(lambda self: np.ones(self.size, dtype=object if self.exact else float))

    def gap(self, v=None):
        g = np.ones(self.order, dtype=object if self.exact else float)
        return g if v is None else g[v]

    def rises(self) -> np.ndarray:
        """Zero: on a weighted mean a_{n-1,v} - a_nv = p_v (1/P_{n-1} - 1/P_n) >= 0 holds in floats too."""
        return np.zeros(self.order)


class WeightedMean(_Structured):
    """The weighted mean a_nv = p_v / P_n, held as the WeightSequence ``weights``, which may run past its order."""

    __slots__ = ("_hat_inverse",)
    reach = property(lambda self: self.weights.order)

    def _weights(self):
        return self.weights.weights[: self.size], self.weights.cumulative[: self.size]

    def _dense(self) -> np.ndarray:
        p, P = self._weights()
        return np.tril(p[None, :] / P[:, None])

    def _band(self, offset: int) -> np.ndarray:
        p, P = self._weights()
        return p[: self.size - offset] / P[offset:]


class IdentityMatrix(_Structured):
    """The identity, held as its order and arithmetic: its own hat matrix and hat inverse."""

    __slots__ = ()

    def _dense(self) -> np.ndarray:
        return np.eye(self.size, dtype=object if self.exact else float)

    def _band(self, offset: int) -> np.ndarray:
        return np.full(self.size - offset, 1 - offset, dtype=object if self.exact else float)


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
        if is_exact(w):  # an int / int quotient is a float, a Fraction one is not
            w = np.asarray([Fraction(x) if isinstance(x, int) else x for x in w.tolist()], dtype=object)
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
            exact = is_exact(self.weights) and float(k).is_integer() and float(index_power).is_integer()
            p, P = (self.weights, self.cumulative) if exact else (as_float(self.weights), as_float(self.cumulative))
            ratio, dtype = p[1 : rows + 1] / (P[1 : rows + 1] * P[:rows]), object if exact else float
            quantity = "the W-tail term n**e (p_n / (P_n P_{n-1}))**k"
            # the index is formed in the lambda and freed once powered: ratio, n**e and ratio**k are the peak's arrays
            terms = named_overflow(lambda: power(np.arange(1, rows + 1, dtype=dtype), index_power) * power(ratio, k), ratio, quantity, "n", 1)
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
    return IdentityMatrix(order + 1, exact)


def riesz_matrix(w: WeightSequence, order: int | None = None) -> NormalMatrix:
    """Weighted-mean matrix a_nv = p_v / P_n for v <= n.

    Every row sums to one, so the associated bar matrix has a leading
    column of ones.  The matrix holds ``w``, not its entries.
    """
    if order is None:
        order = w.order
    if w.order < order:
        raise LengthMismatchError(f"need {order + 1} weights, have {len(w)}")
    return WeightedMean(order + 1, is_exact(w.weights), w)


def cesaro_matrix(order: int, exact: bool = False) -> NormalMatrix:
    """Arithmetic-mean matrix: the unit-weight Riesz matrix."""
    return riesz_matrix(WeightSequence(np.full(order + 1, Fraction(1) if exact else 1.0)))


@functools.singledispatch
def leading_section(M: NormalMatrix, order: int) -> NormalMatrix:
    """M's leading (order+1) x (order+1) section, held as M is: M itself at M's order, a structure of its own form
    (a weighted mean keeps all its weights), and dense entries are a view of M's."""
    return M if order == M.order else NormalMatrix(M.entries[: order + 1, : order + 1])


@leading_section.register(_Structured)
def _(M, order: int) -> NormalMatrix:
    return M if order == M.order else type(M)(order + 1, M.exact, M.weights)


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


@functools.singledispatch
def hat_columns(A: NormalMatrix, v_hi: int) -> np.ndarray:
    """Leading columns 0..v_hi of the hat matrix, over all rows of A.

    A weighted mean's hat matrix is read from its weights p:
    hat_nv = p_n P_{v-1} / (P_n P_{n-1}) for 1 <= v < n, with the diagonal
    p_n / P_n of A itself and column 0 exactly zero below row 0.  For other
    matrices hat_nv = bar_nv - bar_{n-1,v} = sum_{i=v..n} (a_ni - a_{n-1,i}):
    the rows of A are differenced first and then summed from the diagonal
    down, so the diagonal is A's own and no entry cancels two row sums; on an
    exact A, on its carrier (:meth:`NormalMatrix.numerators`), into a :class:`~summakit._util.Rational`.
    """
    if A.exact:
        ints = A.numerators()
        return Rational(_tail_sums(ints.nums, v_hi), ints.den)
    return _tail_sums(A.entries, v_hi)


@hat_columns.register(WeightedMean)
def _(A, v_hi: int) -> np.ndarray:
    v_hi = min(v_hi, A.size - 1)
    p, P = A._weights()
    coef = A.weights.hat_rows(A.size)  # row 0 is its diagonal alone
    hat = np.tril(coef[:, None] * np.concatenate(([0], P[:v_hi]))[None, :])
    idx = np.arange(v_hi + 1)
    hat[idx, idx] = p[: v_hi + 1] / P[: v_hi + 1]
    return hat


def _kept(A: NormalMatrix, slot: str, name: str, build) -> NormalMatrix:
    """The value in A's private ``slot``, computed by ``build()`` on first use and kept read-only; each is logged with its time."""
    M = getattr(A, slot, None)
    if M is None:
        start = time.perf_counter()
        M = build()
        for x in (M, getattr(M, "nums", None)):  # an array, or a carrier's
            if isinstance(x, np.ndarray):
                x.setflags(write=False)
        log.debug("computed the %s of order %d in %.6f s", name, A.order, time.perf_counter() - start)
        object.__setattr__(A, slot, M)
    return M


@functools.singledispatch
def hat_of(A: NormalMatrix) -> NormalMatrix:
    """Series-to-series semimatrix: row n holds the tail sums of row n of A less row n - 1 (:func:`hat_columns`).

    Its diagonal equals A's diagonal, so the result is again normal.  It is
    computed once per A: later calls return the same read-only matrix.  The
    identity is its own hat matrix.
    """
    return _kept(A, "_hat", "hat matrix", lambda: NormalMatrix(hat_columns(A, A.order)))


hat_of.register(IdentityMatrix, lambda A: A)


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

    def inverse():  # an exact H from and to its carrier
        if H.exact:
            return NormalMatrix(_fraction_free_inverse(H.numerators()), lower=True)
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


def _fraction_free_inverse(L: Rational) -> Rational:
    """The inverse of the lower triangle L, its integers over one denominator, each row n first written as R_n / d_n
    in lowest terms: column v solves R x = d_v e_v, its entries through row n numerators over R_v[v] ... R_n[n], the
    running product of the scaled diagonal, so over R_0[0] ... R_N[N] times R_0[0] ... R_{v-1}[v-1]."""
    rows = [row[: n + 1] for n, row in enumerate(L.nums.tolist())]
    rows = [([x // g for x in R], L.den // g) for R in rows for g in [math.gcd(L.den, *R)]]  # each row in lowest terms
    X, head = np.zeros((len(rows), len(rows)), dtype=object), 1
    for v in range(len(rows)):
        ys = [rows[v][1]]
        for R, _ in rows[v + 1 :]:
            r = R[v + len(ys)]
            ys = [y * r for y in ys] + [-sum(map(operator.mul, R[v:], ys))]
        X[v:, v] = [y * head for y in ys]
        head *= rows[v][0][v]
    return Rational(X, head)


@functools.singledispatch
def hat_inverse(A: NormalMatrix) -> NormalMatrix:
    """Inverse of ``hat_of(A)``, in closed form when A is a weighted mean.

    With weights p and cumulative sums P the inverse is bidiagonal:
    diagonal P_n / p_n, subdiagonal entry (n+1, n) equal to -P_{n-1} / p_n
    (zero at n = 0), and exact zeros everywhere else, on the float path
    as well as the exact one.  Other matrices go through :func:`invert_hat`.
    It is computed once per A, like the hat matrix; :func:`invert_hat`
    keeps its result on the hat matrix.  The identity is its own hat inverse.
    """
    return invert_hat(hat_of(A))


hat_inverse.register(IdentityMatrix, lambda A: A)
hat_inverse.register(WeightedMean, lambda A: _kept(A, "_hat_inverse", "hat inverse", lambda: _bidiagonal_inverse(A)))


@functools.singledispatch
def far_inverse(A: NormalMatrix) -> np.ndarray | Rational | None:
    """``hat_inverse(A)`` below its subdiagonal (entries (n, r), r <= n - 2), exact as a part of its carrier, or None
    when that inverse is bidiagonal, on a weighted mean and on the identity: every sum over it is empty or zero."""
    X = hat_inverse(A)
    return X.numerators().tril(-2) if A.exact else np.tril(X.entries, -2)


far_inverse.register(_Structured, lambda A: None)


@functools.singledispatch
def hat_inverse_bands(A: NormalMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal (n, n) for n = 0..N and subdiagonal (n+1, n) for n = 0..N-1 of ``hat_inverse(A)``.

    A weighted mean's are P_n / p_n and -P_{n-1} / p_n (0 at n = 0), read
    from its weights with no matrix formed; other matrices' are read off
    their hat inverse, exact ones off its carrier.
    """
    X = hat_inverse(A)
    if A.exact:
        ints, n = X.numerators(), np.arange(A.size)
        return ints[n, n].fractions(True), ints[n[1:], n[:-1]].fractions(True)
    return X.diagonal, X.subdiagonal


hat_inverse_bands.register(IdentityMatrix, lambda A: (A.diagonal, A.subdiagonal))


@hat_inverse_bands.register(WeightedMean)
def _(A) -> tuple[np.ndarray, np.ndarray]:
    p, P = A._weights()
    return P / p, np.concatenate(([0], -P[:-2] / p[1:-1]))[: A.order]


def _bidiagonal_inverse(A: NormalMatrix) -> NormalMatrix:
    diag, sub = hat_inverse_bands(A)
    X = np.zeros((A.size, A.size), dtype=diag.dtype)
    idx = np.arange(A.size)
    X[idx, idx] = diag
    X[idx[1:], idx[:-1]] = sub
    return NormalMatrix(X)


@functools.singledispatch
def apply_hat(A: NormalMatrix, x) -> np.ndarray:
    """``hat_of(A)`` applied to x: result_n = sum_{v=0..n} hat_nv x_v.

    For a weighted mean no matrix is formed: row n of its hat matrix is
    c_n P_{v-1} (:meth:`WeightSequence.hat_rows`) below the diagonal, so the
    product is c_n times one prefix sum of P_{v-1} x_v, plus the diagonal
    term a_nn x_n.  Other matrices multiply their hat matrix by :func:`apply_lower`:
    the identity is its own, so its product is x itself, O(N) too.
    """
    return apply_lower(hat_of(A), x)


@apply_hat.register(WeightedMean)
def _(A, x) -> np.ndarray:
    xs = _operand(x, A.size, A.exact, "apply_hat")
    terms = np.concatenate(([0], A.weights.cumulative[: A.order])) * xs
    below = np.concatenate(([0], np.cumsum(terms[:-1])))  # below_n = sum_{v<n} terms_v
    return A.weights.hat_rows(A.size) * below + A.diagonal * xs


@functools.singledispatch
def apply_lower(M, x) -> np.ndarray:
    """result_n = sum_{v=0..n} M_nv x_v for a lower-triangular M: an array, or a NormalMatrix read as it is stored.

    A structure forms no matrix and is O(N): the identity gives x itself, a weighted mean (1/P_n) sum_{v<=n} p_v x_v,
    on floats its numerator summed exactly as integers and divided by P_n in one correctly rounded division.  Float
    entries are one ``np.dot``; exact ones are read as the carrier of their lower triangle (:func:`far_inverse`'s comes
    as one), one integer dot product per row and one Fraction per result entry.  An exact matrix takes exact values
    and a float one floats: a mixed call raises a MixedArithmeticError.
    """
    return apply_lower(M.numerators(), x) if M.exact else np.dot(M.entries, _operand(x, M.size, False, "apply_lower"))


@apply_lower.register(np.ndarray)
def _(M, x) -> np.ndarray:
    return apply_lower(Rational.of(np.tril(M)), x) if is_exact(M) else np.dot(M, _operand(x, M.shape[0], False, "apply_lower"))


@apply_lower.register(Rational)
def _(M, x) -> np.ndarray:
    return (M @ Rational.of(_operand(x, M.shape[0], True, "apply_lower"))).fractions(lower=True)


apply_lower.register(IdentityMatrix, lambda M, x: _operand(x, M.size, M.exact, "apply_lower").copy())


@apply_lower.register(WeightedMean)
def _(M, x) -> np.ndarray:
    xs = _operand(x, M.size, M.exact, "apply_lower")
    p, P = M._weights()
    if M.exact:
        return suffix_sums((p * xs)[::-1], M.size)[::-1] / P
    (a, da), (b, db), (c, dc) = (numerators(y) for y in (p, xs, P))
    up = dc.bit_length() - da.bit_length() - db.bit_length() + 1  # powers of two: dc / (da db) = 2**up
    sums = itertools.accumulate(map(operator.mul, a, b))
    out = quotients(map(operator.lshift, sums, itertools.repeat(max(up, 0))), map(operator.lshift, c, itertools.repeat(max(-up, 0))))
    finite = np.isfinite(xs)  # a non-finite term reaches every later mean as in the float sum
    return out + (0 if finite.all() else np.cumsum(np.where(finite, 0.0, p * xs)) / P)


def _operand(x, size: int, exact: bool, where: str) -> np.ndarray:
    """The first ``size`` values of x, which must hold that many, in the arithmetic of the matrix ``where`` applies."""
    xs = as_vector(x)
    if xs.size < size:
        raise LengthMismatchError(f"need {size} values, have {xs.size}")
    same_arithmetic(exact, xs, where)
    return xs[:size]
