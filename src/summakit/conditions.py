"""Boundedness diagnostics for the summability factor conditions.

Each checker evaluates one hypothesis of the factor theorem as a ratio
sequence: the tested quantity divided by the bound it is supposed to stay
within.  Reports never assert asymptotics; they record the ratios, their
running supremum, and a trend verdict that is evidence only.

Infinite sums are truncated at an explicit cutoff carried by a
:class:`TailSpec`; a report is flagged whenever the truncation looks
unresolved (last term still material) or the inputs could not reach the
requested cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._util import abs_pow, accurate_sum, as_float, check_exponent, check_pair, floats_over, fractions_over, index_pow
from ._util import is_exact, named_overflow, nan_max, norm_weights, numerators, on_numerators, quotients, same_arithmetic
from ._util import scalar_pow
from .errors import (
    LengthMismatchError,
    PowerOverflowError,
    SizeMismatchError,
    TailUnavailableError,
)
from .matrices import IdentityMatrix, NormalMatrix, WeightedMean, far_inverse, hat_columns, hat_of
from .series import FactorSequence

TREND_BOUNDED = "bounded-looking"
TREND_GROWING = "growing"
TREND_INCONCLUSIVE = "inconclusive"

#: Conditions whose ratios are violation magnitudes rather than asymptotic
#: ratios; they are "bounded-looking" iff every entry is (numerically) zero.
_EXACT_STYLE = frozenset({"C12", "C13", "C14"})

_EXACT_TOL = 1e-12
_DOUBLING_MARGIN = 1.0 - 1e-9


@dataclass(frozen=True)
class TailSpec:
    """Finite surrogate for the infinite tails: cutoff index and warn level."""

    cutoff: int
    warn_threshold: float = 1e-6

    def __post_init__(self):
        if not isinstance(self.cutoff, (int, np.integer)) or self.cutoff < 1:
            raise ValueError(f"tail cutoff must be a positive index, got {self.cutoff!r}")
        if not 0.0 < self.warn_threshold < 1.0:
            raise ValueError(f"warn_threshold must lie in (0, 1), got {self.warn_threshold!r}")


@dataclass(frozen=True)
class ConditionReport:
    condition_id: str
    indices: np.ndarray
    ratios: np.ndarray
    running_sup: np.ndarray
    sup_ratio: float
    trend: str
    tail_cutoff: int | None = None
    tail_warning: bool = False


def classify_trend(indices, ratios, exact_style: bool = False) -> str:
    """Heuristic verdict on a ratio sequence.

    Exact-style conditions are bounded-looking iff all entries are within
    1e-12 of zero.  Otherwise: bounded-looking when the last quartile has
    nonpositive least-squares slope against log-index; growing when the
    final ratio has (at least) doubled since the half or quarter position;
    inconclusive in between.  Non-finite ratios force "growing".
    """
    r = as_float(ratios)
    if r.size == 0:
        return TREND_INCONCLUSIVE
    if not np.all(np.isfinite(r)):
        return TREND_GROWING
    if exact_style:
        return TREND_BOUNDED if np.max(np.abs(r)) <= _EXACT_TOL else TREND_GROWING
    if r.size < 8:
        return TREND_BOUNDED if np.max(np.abs(r)) <= _EXACT_TOL else TREND_INCONCLUSIVE
    q = 3 * r.size // 4
    x = np.log(np.asarray(indices, dtype=float)[q:])
    x -= x.mean()
    # the tail scaled by 2**-e to at most 1 in size, so that no sum overflows; the test's right side is scaled alike
    e = max(int(np.frexp(np.max(np.abs(r[q:])))[1]), 0)
    tail = np.ldexp(r[q:], -e)
    slope = np.sum(x * (tail - tail.mean())) / np.sum(x * x)  # the least-squares slope against log-index, centered
    if slope <= 1e-9 * max(math.ldexp(1.0, -e), float(np.mean(np.abs(tail)))):
        return TREND_BOUNDED
    r_end = r[-1]
    if r_end >= 2.0 * r[r.size // 2 - 1] * _DOUBLING_MARGIN:
        return TREND_GROWING
    if r_end >= 2.0 * r[r.size // 4 - 1] * _DOUBLING_MARGIN:
        return TREND_GROWING
    return TREND_INCONCLUSIVE


def _report(cid, indices, ratios, tail_cutoff=None, tail_warning=False) -> ConditionReport:
    idx = np.asarray(indices, dtype=int)
    r = as_float(ratios).copy()  # owned: it is set read-only below
    if np.any(np.isnan(r)):
        raise ValueError(f"{cid}: NaN ratio produced from invalid upstream input")
    running = np.maximum.accumulate(r) if r.size else r
    sup = float(running[-1]) if r.size else 0.0
    trend = classify_trend(idx, r, exact_style=cid in _EXACT_STYLE)
    idx.setflags(write=False)
    r.setflags(write=False)
    running.setflags(write=False)
    return ConditionReport(cid, idx, r, running, sup, trend, tail_cutoff, tail_warning)


def check_c9(A: NormalMatrix, B: NormalMatrix, lam: FactorSequence, k) -> ConditionReport:
    """|lambda_n| against n**(1/k-1) * a_nn / b_nn, for n = 1..N."""
    check_exponent(k)
    check_pair(A, B, lam, A.size)
    n = np.arange(1, A.size)
    da = as_float(A.diagonal[1:])
    db = as_float(B.diagonal[1:])
    lv = as_float(lam.values[1 : A.size])
    denom = n.astype(float) ** (1.0 / float(k) - 1.0) * np.abs(da / db)
    return _report("C9", n, np.abs(lv) / denom)


def _tail_report(cid, B: NormalMatrix, lam: FactorSequence, k, tail: TailSpec, v_max: int, denominators):
    """ratio_v = sum_{n=v+1..cutoff} n**(k-1) |M_nv|**k / denominators[v].

    M is the difference (C10) or shift (C11) probe matrix of B-hat and the
    factors, and the sums are the :meth:`~DenseProbes.tails` of B's probe
    columns (:func:`probe_columns`), read through B's tail carrier: its rows
    through :attr:`~summakit.matrices.NormalMatrix.reach`.  A carrier
    shorter than the cutoff clamps the sums to its order, and v stops one
    short of the cutoff; either clamp sets the tail warning, as does a last
    term that is still material.
    """
    if len(lam) < v_max + 2:
        raise LengthMismatchError(f"need {v_max + 2} factors, have {len(lam)}")
    cutoff_eff = min(tail.cutoff, B.reach)
    if cutoff_eff < 1:
        raise TailUnavailableError(f"carrier of order {B.reach} has no tail rows at all")
    warned = cutoff_eff < tail.cutoff or v_max > cutoff_eff - 1
    v_max = min(v_max, cutoff_eff - 1)
    totals, last = probe_columns(B, lam.values, v_max + 1).tails(PROBE_KINDS[cid == "C11"], k, cutoff_eff)
    warned = warned or bool(np.any(last > tail.warn_threshold * totals))
    den = as_float(denominators[: v_max + 1])
    if not den.all():  # C10's |a_vv|**k with a_vv nonzero: it underflowed, and the ratio would be inf or NaN
        raise PowerOverflowError(f"the C10 denominator |a_vv|**k at v = {int(np.argmin(den != 0))} is zero (float underflow)")
    ratios = as_float(totals) / den
    return _report(cid, np.arange(v_max + 1), ratios, tail.cutoff, warned)


def check_c10(
    A: NormalMatrix, B: NormalMatrix, lam: FactorSequence, k, tail: TailSpec, v_max: int | None = None
) -> ConditionReport:
    """Column-difference tails of B-hat times factors, against a_vv**k.

    ratio_v = sum_{n=v+1..cutoff} n**(k-1) |bhat_nv lam_v - bhat_{n,v+1} lam_{v+1}|**k
              / |a_vv|**k
    """
    check_exponent(k)
    if v_max is None:
        v_max = min(A.order, B.order, len(lam) - 2)
    if A.order < v_max:
        raise SizeMismatchError(f"diagonal source of order {A.order} cannot cover v <= {v_max}")
    diagonal = as_float(A.diagonal[: v_max + 1]).tolist()
    denominators = [scalar_pow(abs(a), float(k), "the C10 denominator |a_vv|**k", v) for v, a in enumerate(diagonal)]
    return _tail_report("C10", B, lam, k, tail, v_max, denominators)


def check_c11(B: NormalMatrix, lam: FactorSequence, k, tail: TailSpec, v_max: int | None = None) -> ConditionReport:
    """Shifted-column tails of B-hat times factors, against the constant 1.

    ratio_v = sum_{n=v+1..cutoff} n**(k-1) |bhat_{n,v+1} lam_{v+1}|**k
    """
    check_exponent(k)
    if v_max is None:
        v_max = min(B.order, len(lam) - 2)
    return _tail_report("C11", B, lam, k, tail, v_max, np.ones(v_max + 1))


def check_c12(A: NormalMatrix) -> ConditionReport:
    """Column monotonicity a_{n-1,v} >= a_nv; ratios are violation sizes (:meth:`~summakit.matrices.NormalMatrix.rises`)."""
    return _report("C12", np.arange(1, A.order + 1), A.rises())


def _leading_bar_report(cid, M: NormalMatrix) -> ConditionReport:
    """|bar_n0 - 1| for every row n of M: zero iff each row of M sums to one."""
    return _report(cid, np.arange(M.size), np.abs(as_float(M.row_sums) - 1.0))


def check_c13(A: NormalMatrix) -> ConditionReport:
    """Leading bar column all ones; ratios are |bar_n0 - 1|."""
    return _leading_bar_report("C13", A)


def check_c14(B: NormalMatrix) -> ConditionReport:
    """Same as check_c13 but for the second matrix of a pair."""
    return _leading_bar_report("C14", B)


def check_c15(A: NormalMatrix) -> ConditionReport:
    """Diagonal-to-subdiagonal gap against the diagonal product.

    ratio_n = |a_nn - a_{n+1,n}| / |a_nn a_{n+1,n+1}| for n = 0..N-1, the gap
    factor :meth:`~summakit.matrices.NormalMatrix.gap`: exactly 1 on a weighted mean.
    """
    return _report("C15", np.arange(A.order), np.abs(as_float(A.gap())))


PROBE_DIFFERENCE = "difference"
PROBE_SHIFT = "shift"
PROBE_KINDS = (PROBE_DIFFERENCE, PROBE_SHIFT)


def probe_deltas(H: np.ndarray, lv) -> tuple[np.ndarray, np.ndarray]:
    """Every probe's transform through the hat columns ``H``, one column per v.

    With BL = H diag(lv), column v of D = BL[:, v] - BL[:, v+1] is the
    transform of the difference probe e_v - e_{v+1} scaled by the factors
    ``lv``, and column v of S = BL[:, v+1] that of the shift probe e_{v+1}.
    Below row v these are the columns that C10 and C11 sum.  ``lv`` None
    stands for unit factors: BL is H.  Exact ones are formed on integer numerators, one Fraction per nonzero entry.
    """
    arrays = _probe_arrays(H, lv)
    return tuple(fractions_over(*pair) for pair in arrays) if is_exact(H) else arrays


def _probe_arrays(H, lv) -> tuple:
    """:func:`probe_deltas`, exact ones as (integer numerators, their one denominator): no Fraction is formed.  An
    exact ``H`` may come as its own (integer numerators, denominator)."""
    if isinstance(H, tuple) or is_exact(H):
        BL, den = _scaled_numerators(H, lv)
        return (BL[:, :-1] - BL[:, 1:], den), (BL[:, 1:], den)
    BL = _scaled_columns(H, lv)
    return BL[:, :-1] - BL[:, 1:], BL[:, 1:]


def _scaled_numerators(H, lv) -> tuple[np.ndarray, int]:
    """H diag(lv) as (integer numerators, one denominator) (:func:`~summakit._util.on_numerators`) for exact hat columns
    ``H``, or H's own (integer numerators, denominator), and the factors ``lv``, unit factors when None."""
    BL, den = H if isinstance(H, tuple) else on_numerators(np.asarray, H)
    if lv is None:
        return BL, den
    f, f_den = on_numerators(np.asarray, lv[: BL.shape[1]])
    return BL * f, den * f_den


def _scaled_columns(H: np.ndarray, lv) -> np.ndarray:
    """H diag(lv) for the lower-triangular hat columns ``H``; exact, one Fraction per nonzero entry of its integer
    numerators (:func:`~summakit._util.on_numerators`), so the zeros above the diagonal stay plain ints."""
    if lv is None:
        return H
    lv = lv[: H.shape[1]]
    return fractions_over(*_scaled_numerators(H, lv)) if is_exact(H) else H * lv


def column_sums(M, k, w=None, lower: bool = False, quantity: str = "the column k-power sum") -> np.ndarray:
    """accurate_sum(w * |M[:, j]|**k) for every column j; no weights when ``w`` is None or all ones.

    With ``lower`` column j is zero above row j, and only rows j.. are read.
    Exact entries, or (integer numerators, one denominator), are summed as integers into one Fraction (0: an int)
    per column over den**k when k is an integer and the weights exact; else each, and each weight, is rounded to
    float64 once, first.
    A float sum past float range over a column of finite entries raises a
    :class:`~summakit.errors.PowerOverflowError` naming ``quantity`` and v = j.
    """
    if w is not None and np.all(w == 1):
        w = None
    if isinstance(M, tuple) or is_exact(M):
        nums, den = M if isinstance(M, tuple) else on_numerators(np.asarray, M)
        if float(k).is_integer() and (w is None or is_exact(w)):  # w |num|**k, column j from row j on with ``lower``
            (ws, scale), k = numerators(w) if w is not None else ([1] * len(nums), 1), int(k)
            sums = [sum(a * abs(x) ** k for a, x in zip(ws[lower * j :], col[lower * j :])) for j, col in enumerate(nums.T.tolist())]
            return fractions_over(np.asarray(sums, dtype=object), scale * den**k)
        M, w = floats_over(nums, den), None if w is None else as_float(w)

    def sums():
        out = []
        for j, col in enumerate(M.T):
            lo = j if lower else 0
            terms = abs_pow(col[lo:], k)
            out.append(accurate_sum(terms if w is None else w[lo:] * terms))
        return np.asarray(out)

    return named_overflow(sums, M, quantity)


def _index_weights(count: int, k, exact: bool) -> np.ndarray:
    """:func:`~summakit._util.norm_weights`; one past float range raises a PowerOverflowError naming its n."""
    return named_overflow(lambda: norm_weights(count, k, exact), 0.0, "the index weight n**(k-1)", "n")


_ROWS = 256  # rows of the key-identity triangle evaluated at once on a dense B


class DenseProbes(dict):
    """The probes at v = 0..m-1 through M's hat columns and the factors ``lv`` (:func:`probe_deltas`).

    The hat columns 0..m are formed on first read: M's kept hat matrix when
    m is M's order, else :func:`~summakit.matrices.hat_columns`, so a long
    tail carrier keeps no hat matrix.  Keyed by probe kind, the arrays D
    and S are formed when read and not kept, exact ones as integer numerators
    over one denominator, so each norm, tail sum and c_nv entry is formed or
    rounded once; an array set on the mapping stands in for the one it would
    form.  Column v is the probe at v.
    """

    def __init__(self, M: NormalMatrix, lv, m: int):
        super().__init__()
        self.M, self.lv, self.m = M, lv, m

    @cached_property
    def H(self) -> np.ndarray:
        return hat_of(self.M).entries if self.m == self.M.order else hat_columns(self.M, self.m)

    def _hat(self):
        """:attr:`H`, an exact one as (integer numerators, denominator): the ones M's hat matrix keeps when H is all of it
        (:meth:`~summakit.matrices.NormalMatrix.numerators`), so no norm or c_nv array converts it again."""
        return hat_of(self.M).numerators() if self.M.exact and self.m == self.M.order else self.H

    def __missing__(self, kind: str) -> np.ndarray:
        return dict(zip(PROBE_KINDS, probe_deltas(self.H, self.lv)))[kind]

    def pows(self, k) -> dict:
        """Each probe's sum_n n**(k-1) |delta_nv|**k, weight one at n = 0."""
        w = _index_weights(self.M.size, k, self.M.exact)
        arrays = {**dict(zip(PROBE_KINDS, _probe_arrays(self._hat(), self.lv))), **self}
        return {kind: column_sums(d, k, w, True, f"the {kind} probe's norm sum_n n**(k-1) |delta_nv|**k") for kind, d in arrays.items()}

    def tails(self, kind: str, k, rows: int):
        """The C10/C11 sums sum_{n=v+1..rows} n**(k-1) |delta_nv|**k of probe ``kind``, and their last terms."""
        quantity = f"the {kind} probe's tail sum_n n**(k-1) |delta_nv|**k"
        D, exact = _probe_arrays(self.H[: rows + 1], self.lv)[kind == PROBE_SHIFT], self.M.exact
        D = (np.tril(D[0], -1), D[1]) if exact else np.tril(D, -1)
        w = _index_weights(rows + 1, k, exact)
        last = fractions_over(D[0][-1], D[1]) if exact else D[-1]
        return column_sums(D, k, w, lower=True, quantity=quantity), w[-1] * abs_pow(last, k)

    def factored_rows(self):
        """Blocks (F, n) of the key-identity triangle, F[i, v] = bhat_nv lam_v at row n[i], over rows 2..N; exact ones
        as integer numerators over one positive denominator per block, which no relative gap reads."""
        N = self.M.order
        for lo in range(2, N + 1, _ROWS):  # a block of rows at a time bounds the temporaries
            H = self.H[lo : lo + _ROWS]
            F = _scaled_numerators(H, self.lv)[0] if self.M.exact else _scaled_columns(H, self.lv)
            yield F, np.arange(lo, lo + F.shape[0])

    def cnv(self, A: NormalMatrix, fac, diag) -> np.ndarray:
        """The c_nv array: fac_n times the middle summand D / a_vv + S gap_v (A's gap) at 1 <= v < n, diag_n at v = n >= 1;
        only 1 <= v < n is formed, so no arithmetic touches the zeros around it.  On an exact pair each summand is one
        quotient of integers (:func:`_probe_arrays`), rounded once where ``fac`` is float."""
        out = np.zeros((A.size, A.size), dtype=diag.dtype)
        if self.M.exact and A.exact:  # (D / b) / (dn / dd) + (S / b) (gn / gd) over b gd |dn|, dn's sign in the numerator
            n, v = np.nonzero(np.tri(A.size, k=-1) * (np.arange(A.size) > 0))
            (D, b), (S, _) = _probe_arrays(self._hat(), self.lv)
            (dn, dd), (gn, gd) = (on_numerators(lambda x: x[v], x) for x in (A.diagonal, A.gap()))
            nums = ((D[n, v] * (dd * gd) + S[n, v] * gn * dn) * np.sign(dn)).tolist()
            dens, f = (np.abs(dn) * (b * gd)).tolist(), fac[n]
            out[n, v] = [Fraction(x * g, y) for x, y, g in zip(nums, dens, f.tolist())] if is_exact(fac) else quotients(nums, dens) * f
        else:
            BL, d, gap = _scaled_columns(self.H, self.lv), A.diagonal, A.gap()
            for n in range(2, A.size):
                S = BL[n, 2 : n + 1]
                out[n, 1:n] = ((BL[n, 1:n] - S) / d[1:n] + S * gap[1:n]) * fac[n]
        idx = np.arange(1, A.size)
        out[idx, idx] = diag[1:]
        return out

    def cnv_sums(self, A: NormalMatrix, k, fac, diag, power) -> np.ndarray:
        return column_sums(self.cnv(A, fac, diag), k, lower=True, quantity="the c_nv column sum")  # power is the weighted form's

    def definition_gap(self) -> float:
        """Largest gap between the unit-factor deltas and their definition, over every v < m and row n.

        By definition a probe's x-side deltas are the first difference in n of
        M applied to its partial sums: e_v for the difference probe, so column
        v of M, and the step 1_{n > v} for the shift probe, so M's reversed row
        cumulative sum.
        """
        E, m = self.M.entries, self.m
        steps = np.cumsum(E[:, ::-1], axis=1)[:, ::-1]
        return nan_max(
            (
                np.max(np.abs(self[PROBE_DIFFERENCE] - np.diff(E, axis=0, prepend=0.0)[:, :m])),
                np.max(np.abs(self[PROBE_SHIFT] - np.diff(steps, axis=0, prepend=0.0)[:, 1 : m + 1])),
            )
        )


class IdentityProbes(DenseProbes):
    """:class:`DenseProbes` through the identity, whose C10/C11 tails are a closed form."""

    def tails(self, kind: str, k, rows: int):
        """:meth:`DenseProbes.tails`: column v is -lam_{v+1} (difference) or lam_{v+1} (shift) in row v + 1 alone,
        so the sum is (v+1)**(k-1) |lam_{v+1}|**k."""
        lv, quantity = self.lv[1 : self.m + 1], f"the {kind} probe's tail sum_n n**(k-1) |delta_nv|**k"
        totals = named_overflow(lambda: _index_weights(self.m + 1, k, self.M.exact)[1:] * abs_pow(lv, k), lv, quantity)
        return totals, np.where(np.arange(self.m) == rows - 1, totals, 0)


class WeightedProbes:
    """Both probe kinds at v = 0..m-1 through the weighted mean M, weights q, no column formed.

    Column v is ``diag[kind][v]`` at row v and ``rows[n] * scalars[kind][v]``
    at rows n > v: ``rows``, formed on first read, holds q_n / (Q_n Q_{n-1})
    (:meth:`~summakit.matrices.WeightSequence.hat_rows`), and the scalars are
    -Delta_v (difference) and Q_v lam_{v+1} (shift).  Below row v these are
    the columns C10 and C11 sum, so a probe's y-norm**k is its diagonal term
    plus its C10/C11 numerator: |scalar|**k times the W tail T_v (:meth:`tails`).
    The row factor comes out of every sum over the columns, so each is O(N).
    """

    def __init__(self, M: NormalMatrix, lv, m: int):
        w = self.weights = M.weights
        lv = np.ones(M.size, dtype=object if M.exact else float) if lv is None else lv
        self.M, self.lv, self.m = M, lv, m
        shift = w.cumulative[:m] * lv[1 : m + 1]
        self.scalars = {PROBE_DIFFERENCE: -w.delta(lv, m), PROBE_SHIFT: shift}
        self.diag = {PROBE_DIFFERENCE: w.weights[:m] / w.cumulative[:m] * lv[:m], PROBE_SHIFT: np.zeros_like(shift)}

    rows = cached_property(lambda self: self.weights.hat_rows(self.M.size))

    def tails(self, kind, k, rows: int, scalars=None, index_power=None):
        """|s_v|**k T_v for every v, and |s_v|**k times T_v's last term.

        s is the scalars of probe ``kind``, or ``scalars`` when given; T_v is
        the W tail through row ``rows`` (:meth:`~summakit.matrices.WeightSequence.tail`).
        """
        s = self.scalars[kind] if scalars is None else scalars
        T, last = self.weights.tail(k, rows, s.size, index_power)
        quantity = f"the {kind} probe's |s_v|**k T_v" if scalars is None else "the c_nv tail |m_v|**k T_v"
        coef = named_overflow(lambda: abs_pow(s, k), s, quantity)
        return named_overflow(lambda: coef * T, s, quantity), coef * last

    def pows(self, k) -> dict:
        """Each probe's sum_n n**(k-1) |delta_nv|**k: the diagonal term plus its tail through the last row."""
        pows = {}
        for kind in PROBE_KINDS:
            t, d = self.tails(kind, k, self.M.order)[0], self.diag[kind]
            own = named_overflow(
                lambda: norm_weights(t.size, k, is_exact(t)) * abs_pow(d, k), d, f"the {kind} probe's diagonal term"
            )
            pows[kind] = own + t
        return pows

    def factored_rows(self):
        """:meth:`DenseProbes.factored_rows` in one row standing for every row n > v.

        bhat_nv lam_v is ``rows[n]`` times Q_{v-1} lam_v, the shift scalar at
        v - 1, so the factor of row n cancels from every relative gap.
        """
        F = np.concatenate(([0], self.scalars[PROBE_SHIFT]))[None, :]
        yield on_numerators(np.asarray, F)[0] if self.M.exact else F, np.array([self.m])

    def cnv_sums(self, A: NormalMatrix, k, fac, diag, power) -> np.ndarray:
        """The column k-power sums of :meth:`DenseProbes.cnv`'s array, which is not formed, nor ``fac`` and ``diag`` read.

        Below the diagonal column v is n**e rows[n] m_v, the middle summand with
        m_v = -Delta_v / a_vv + Q_v lam_{v+1} gap_v, so column v >= 1 sums to
        v**power |b_vv lam_v / a_vv|**k + |m_v|**k T_v, T_v the W tail through
        row N with index power ``power`` = e k.
        """
        middle = self.scalars[PROBE_DIFFERENCE] / A.diagonal[:-1] + self.scalars[PROBE_SHIFT] * A.gap()
        below = self.tails(None, k, A.order, middle, power)[0]
        ratio = self.M.diagonal * self.lv[: A.size] / A.diagonal
        own = named_overflow(
            lambda: index_pow(np.arange(A.size), power, is_exact(below)) * abs_pow(ratio, k), ratio, "the c_nv diagonal term"
        )
        sums = own + np.concatenate((below, [0]))
        sums[0] = 0
        return sums

    def definition_gap(self) -> float:
        """:meth:`DenseProbes.definition_gap` in O(N).

        On a weighted mean, weights p, the definition is -p_v d_n (difference)
        and P_v d_n (shift) at rows n > v, with d_n = 1/P_{n-1} - 1/P_n, and
        p_v / P_v and 0 at row v.  Against rows[n] * s_v the gap at (n, v) is
        at most |rows[n] - d_n| |s_v| + |d_n| |s_v - t_v|, t_v the defined
        scalar: its largest value over n > v is two suffix maxima.
        """
        m, size = self.m, self.rows.size
        p, P = self.weights.weights[:size], self.weights.cumulative[:size]
        d = np.concatenate(([0], 1 / P[:-1] - 1 / P[1:]))
        # the suffix maxima max(|r_j|, j >= n); a NaN reaches every n at or before it
        rows_gap, rows_size = (np.maximum.accumulate(np.abs(r)[::-1])[::-1][1 : m + 1] for r in (self.rows - d, d))
        defined = {PROBE_DIFFERENCE: (-p[:m], p[:m] / P[:m]), PROBE_SHIFT: (P[:m], 0)}
        gaps = []
        for kind, (t, diag) in defined.items():
            s = self.scalars[kind]
            gaps += [np.max(np.abs(s) * rows_gap + np.abs(s - t) * rows_size), np.max(np.abs(self.diag[kind] - diag))]
        return nan_max(gaps)


_PROBES = {NormalMatrix: DenseProbes, WeightedMean: WeightedProbes, IdentityMatrix: IdentityProbes}


def probe_columns(M: NormalMatrix, lv, m: int | None = None):
    """M's probes at v = 0..m-1 (m is M's order when None) with the factors ``lv`` (unit factors when None), of the
    probe class of M's form (:data:`_PROBES`): a weighted mean's are read from its weights, any other matrix's from
    its hat columns.  An exact M takes exact factors and a float one floats (:func:`~summakit._util.same_arithmetic`)."""
    if lv is not None:
        same_arithmetic(M.exact, lv, "probe_columns")
    return _PROBES[type(M)](M, lv, M.order if m is None else m)


def inner_sums(BL: np.ndarray, W: np.ndarray) -> np.ndarray:
    """All inner sums sum_{v=r+2..n} BL[n, v] W[v, r], indexed [n, r].

    ``BL`` is lower triangular.  The product runs over the part of W below
    its subdiagonal only, so no diagonal or subdiagonal term is added and
    then subtracted: a sum whose terms are all zero comes out as exactly
    zero, and entries with r > n - 2 are empty sums.  It runs over columns
    v >= 2 of BL only, the ones some inner sum reads, so a non-finite
    BL[n, 0] or BL[n, 1] reaches no sum through a product with zero.
    """
    return BL[:, 2:] @ np.tril(W, -2)[2:]


def check_c16(A: NormalMatrix, B: NormalMatrix, lam: FactorSequence) -> ConditionReport:
    """Inner sums of |bhat| |ahat-inverse| factors against b_nn |lam_n| / a_nn.

    For each n the worst ratio over r <= n-2 of
    sum_{v=r+2..n} |bhat_nv| |ahat'_vr lam_v|  /  (|b_nn / a_nn| |lam_n|).
    A zero denominator with a positive numerator is reported as an infinite
    ratio and forces the "growing" verdict.  When A is a weighted mean or
    the identity its hat inverse is bidiagonal (``far_inverse`` is None),
    so every inner sum is empty or a sum of zeros: the numerators are
    exactly 0, read in O(N) with no matrix formed.
    """
    check_pair(A, B, lam, A.size)
    N = A.order
    lv = lam.values[: N + 1]
    nums = np.zeros(N + 1)
    W = far_inverse(A)
    if W is not None:
        hat = hat_of(B)  # exact, its kept integer numerators; a mixed pair is rounded on entry, as C9 and TA round theirs
        exact = hat.exact and is_exact(lv)
        BL = np.abs(floats_over(*_scaled_numerators(hat.numerators(), lv)) if exact else as_float(hat.entries) * as_float(lv))
        inner = inner_sums(BL, np.abs(as_float(W)))
        nums[2:] = [inner[n, : n - 1].max() for n in range(2, N + 1)]
    den = np.abs(as_float(B.diagonal) / as_float(A.diagonal)) * np.abs(as_float(lv))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero denominator is resolved by np.where
        ratios = np.where(den == 0.0, np.where(nums == 0.0, 0.0, np.inf), nums / den)
    return _report("C16", np.arange(1, N + 1), ratios[1:])


def check_theorem_a(c9: ConditionReport, c10: ConditionReport, c11: ConditionReport, k):
    """Riesz-pair specialization: the three factor conditions TA_a/TA_b/TA_c, read from C9, C10 and C11.

    On weighted means A and B, weights p and q, bhat_nv = Q_{v-1} q_n / (Q_n Q_{n-1}), so with
    W_n**k the W tail T_n and Delta_n = Q_{n-1} lam_n - Q_n lam_{n+1} the conditions are

    (a)  |lam_n| against n**(1/k-1) p_n Q_n / (P_n q_n): C9 with a_nn = p_n/P_n and
         b_nn = q_n/Q_n, so C9's report under the id TA_a;
    (b)  |W_n Delta_n| against p_n / P_n: C10_n = (W_n |Delta_n| P_n / p_n)**k;
    (c)  Q_n |lam_{n+1}| W_n against 1: C11_n = (Q_n |lam_{n+1}| W_n)**k.

    TA_b and TA_c are the k-th roots of C10's and C11's ratios at n >= 1, each by Python's ``**``, with their
    report's tail cutoff and warning.
    """
    check_exponent(k)
    root = 1.0 / float(k)

    def rooted(cid: str, rep: ConditionReport) -> ConditionReport:
        return _report(cid, rep.indices[1:], [x**root for x in rep.ratios[1:].tolist()], rep.tail_cutoff, rep.tail_warning)

    return replace(c9, condition_id="TA_a"), rooted("TA_b", c10), rooted("TA_c", c11)


class L1LkBound(NamedTuple):
    sup: float
    column_sums: np.ndarray


def l1_lk_bound(C, k) -> L1LkBound:
    """Columnwise k-power sums and their supremum.

    This is the quantity characterizing when a triangular array maps
    absolutely summable sequences into k-power summable ones.
    """
    check_exponent(k)
    sums = column_sums(C.entries if isinstance(C, NormalMatrix) else np.asarray(C), k)
    return L1LkBound(float(nan_max(as_float(sums))), sums)
