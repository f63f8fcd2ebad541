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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._util import abs_pow, accurate_sum, as_float, check_exponent, check_pair, is_exact
from .errors import (
    LengthMismatchError,
    SizeMismatchError,
    TailUnavailableError,
)
from .matrices import (
    NormalMatrix,
    WeightSequence,
    bar_columns,
    hat_columns,
    hat_inverse,
    hat_of,
)
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


def default_tail(order: int) -> TailSpec:
    """Default tail: sixteen times the working order."""
    return TailSpec(cutoff=16 * max(order, 1))


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


def classify_trend(indices, ratios, exact_style: bool = False, tol: float = _EXACT_TOL) -> str:
    """Heuristic verdict on a ratio sequence.

    Exact-style conditions are bounded-looking iff all entries are within
    ``tol`` of zero.  Otherwise: bounded-looking when the last quartile has
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
        return TREND_BOUNDED if np.max(np.abs(r)) <= tol else TREND_GROWING
    if r.size < 8:
        return TREND_BOUNDED if np.max(np.abs(r)) <= tol else TREND_INCONCLUSIVE
    q = 3 * r.size // 4
    logidx = np.log(np.asarray(indices, dtype=float)[q:])
    tail = r[q:]
    slope = np.polyfit(logidx, tail, 1)[0]
    if slope <= 1e-9 * max(1.0, float(np.mean(np.abs(tail)))):
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


def _tail_report(cid, B: NormalMatrix, lam: FactorSequence, k, tail: TailSpec, v_max: int, column, denominators):
    """ratio_v = sum_{n=v+1..cutoff} n**(k-1) |column(bh, lv, v)|**k / denominators[v].

    ``column`` maps rows v+1..cutoff of B-hat's leading columns (``bh``),
    the factor values (``lv``) and v to the tested column over those rows.
    A carrier B shorter than the cutoff clamps the sums to its order, and v
    stops one short of the cutoff; either clamp sets the tail warning.
    """
    if len(lam) < v_max + 2:
        raise LengthMismatchError(f"need {v_max + 2} factors, have {len(lam)}")
    cutoff_eff = min(tail.cutoff, B.order)
    if cutoff_eff < 1:
        raise TailUnavailableError(f"carrier of order {B.order} has no tail rows at all")
    warned = cutoff_eff < tail.cutoff or v_max > cutoff_eff - 1
    v_max = min(v_max, cutoff_eff - 1)
    bh = hat_columns(B, v_max + 1)
    weights = np.arange(cutoff_eff + 1, dtype=float) ** (float(k) - 1.0)
    ratios = []
    for v in range(v_max + 1):
        rows = slice(v + 1, cutoff_eff + 1)
        terms = weights[rows] * as_float(abs_pow(column(bh[rows], lam.values, v), k))
        total = accurate_sum(terms)
        if terms.size and terms[-1] > tail.warn_threshold * total:
            warned = True
        ratios.append(total / denominators[v])
    return _report(cid, np.arange(v_max + 1), ratios, tail.cutoff, warned)


def check_c10(
    A: NormalMatrix,
    B: NormalMatrix,
    lam: FactorSequence,
    k,
    tail: TailSpec,
    v_max: int | None = None,
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
    # scalar powers: numpy's vectorized power can differ in the last digit
    denominators = [abs(a) ** float(k) for a in as_float(A.diagonal[: v_max + 1]).tolist()]
    return _tail_report(
        "C10", B, lam, k, tail, v_max, lambda bh, lv, v: bh[:, v] * lv[v] - bh[:, v + 1] * lv[v + 1], denominators
    )


def check_c11(
    B: NormalMatrix,
    lam: FactorSequence,
    k,
    tail: TailSpec,
    v_max: int | None = None,
) -> ConditionReport:
    """Shifted-column tails of B-hat times factors, against the constant 1.

    ratio_v = sum_{n=v+1..cutoff} n**(k-1) |bhat_{n,v+1} lam_{v+1}|**k
    """
    check_exponent(k)
    if v_max is None:
        v_max = min(B.order, len(lam) - 2)
    return _tail_report("C11", B, lam, k, tail, v_max, lambda bh, lv, v: bh[:, v + 1] * lv[v + 1], np.ones(v_max + 1))


def check_c12(A: NormalMatrix) -> ConditionReport:
    """Column monotonicity a_{n-1,v} >= a_nv; ratios are violation sizes."""
    E = as_float(A.entries)
    N = A.order
    if N == 0:
        return _report("C12", np.arange(0), [])
    diff = E[1:] - E[:-1]
    allowed = np.tril(np.ones((N, N + 1), dtype=bool), 0)
    viol = np.where(allowed, np.maximum(diff, 0.0), 0.0)
    return _report("C12", np.arange(1, N + 1), viol.max(axis=1))


def _leading_bar_report(cid, M: NormalMatrix) -> ConditionReport:
    """|bar_n0 - 1| for every row n of M: zero iff each row of M sums to one."""
    return _report(cid, np.arange(M.size), np.abs(as_float(bar_columns(M, 0)[:, 0]) - 1.0))


def check_c13(A: NormalMatrix) -> ConditionReport:
    """Leading bar column all ones; ratios are |bar_n0 - 1|."""
    return _leading_bar_report("C13", A)


def check_c14(B: NormalMatrix) -> ConditionReport:
    """Same as check_c13 but for the second matrix of a pair."""
    return _leading_bar_report("C14", B)


def check_c15(A: NormalMatrix) -> ConditionReport:
    """Diagonal-to-subdiagonal gap against the diagonal product.

    ratio_n = |a_nn - a_{n+1,n}| / |a_nn a_{n+1,n+1}| for n = 0..N-1.
    """
    d = as_float(A.diagonal)
    sub = as_float(np.diagonal(A.entries, -1))
    ratios = np.abs(d[:-1] - sub) / np.abs(d[:-1] * d[1:])
    return _report("C15", np.arange(A.order), ratios)


def inner_sums(BL: np.ndarray, W: np.ndarray) -> np.ndarray:
    """All inner sums sum_{v=r+2..n} BL[n, v] W[v, r], indexed [n, r].

    ``BL`` is lower triangular.  The product runs over the part of W below
    its subdiagonal only, so no diagonal or subdiagonal term is added and
    then subtracted: a sum whose terms are all zero comes out as exactly
    zero, and entries with r > n - 2 are empty sums.
    """
    return BL @ np.tril(W, -2)


def check_c16(A: NormalMatrix, B: NormalMatrix, lam: FactorSequence) -> ConditionReport:
    """Inner sums of |bhat| |ahat-inverse| factors against b_nn |lam_n| / a_nn.

    For each n the worst ratio over r <= n-2 of
    sum_{v=r+2..n} |bhat_nv| |ahat'_vr lam_v|  /  (|b_nn / a_nn| |lam_n|).
    A zero denominator with a positive numerator is reported as an infinite
    ratio and forces the "growing" verdict.
    """
    check_pair(A, B, lam, A.size)
    N = A.order
    lv = lam.values[: N + 1]
    BL = as_float(np.abs(hat_of(B).entries * lv[None, :]))
    W = as_float(np.abs(hat_inverse(A).entries))
    inner = inner_sums(BL, W)
    da = as_float(A.diagonal)
    db = as_float(B.diagonal)
    lvf = as_float(lv)
    ratios = []
    for n in range(1, N + 1):
        num = inner[n, : max(n - 1, 0)].max() if n >= 2 else 0.0
        den = abs(db[n] / da[n]) * abs(lvf[n])
        if den == 0.0:
            ratios.append(0.0 if num == 0.0 else np.inf)
        else:
            ratios.append(num / den)
    return _report("C16", np.arange(1, N + 1), ratios)


def w_sequence(
    q: WeightSequence,
    k,
    tail: TailSpec,
    n_max: int | None = None,
    with_warnings: bool = False,
):
    """Tail quantity W_n = {sum_{v>n} v**(k-1) (q_v/(Q_v Q_{v-1}))**k}**(1/k).

    Truncated at ``tail.cutoff``; per-n warning flags mark tails whose last
    term still exceeds ``warn_threshold`` times the accumulated sum.
    """
    check_exponent(k)
    cutoff = tail.cutoff
    if q.order < cutoff:
        raise TailUnavailableError(f"need weights through index {cutoff}, have order {q.order}")
    if n_max is None:
        n_max = cutoff - 1
    if n_max > cutoff - 1:
        raise TailUnavailableError(f"W_{n_max} has no terms below cutoff {cutoff}")
    exact = is_exact(q.weights)
    qv = q.weights
    Q = q.cumulative
    if exact and float(k).is_integer():
        idx = np.arange(1, cutoff + 1, dtype=object)
        terms = idx ** int(k - 1) * (qv[1 : cutoff + 1] / (Q[1 : cutoff + 1] * Q[:cutoff])) ** int(k)
    else:
        idx = np.arange(1, cutoff + 1, dtype=float)
        ratio = as_float(qv[1 : cutoff + 1]) / (as_float(Q[1 : cutoff + 1]) * as_float(Q[:cutoff]))
        terms = idx ** (float(k) - 1.0) * ratio**float(k)
        exact = False
    values = []
    warns = []
    last = terms[-1]
    for n in range(n_max + 1):
        total = accurate_sum(terms[n:])
        warns.append(bool(last > tail.warn_threshold * total))
        if exact and k == 1:
            values.append(total)
        else:
            values.append(float(total) ** (1.0 / float(k)))
    w = np.asarray(values, dtype=object if (exact and k == 1) else float)
    if with_warnings:
        return w, np.asarray(warns, dtype=bool)
    return w


def check_theorem_a(
    p: WeightSequence,
    q: WeightSequence,
    lam: FactorSequence,
    k,
    tail: TailSpec,
    n_max: int | None = None,
    delta_mode: str = "forward",
) -> tuple[ConditionReport, ConditionReport, ConditionReport]:
    """Riesz-pair specialization: the three factor conditions TA_a/TA_b/TA_c.

    (a)  |lam_n| against n**(1/k-1) p_n Q_n / (P_n q_n), which is exactly
         the general diagonal bound with a_nn = p_n/P_n and b_nn = q_n/Q_n
         substituted (so TA_a ratios coincide with check_c9 ratios on the
         corresponding weighted-mean matrices);
    (b)  |W_n * delta(Q_{n-1} lam_n)| against p_n / P_n;
    (c)  Q_n |lam_{n+1}| W_n against 1.

    ``delta_mode`` picks the difference convention for (b): "forward" is
    Q_{n-1} lam_n - Q_n lam_{n+1}; "backward" is Q_{n-1} lam_n -
    Q_{n-2} lam_{n-1}.
    """
    check_exponent(k)
    if delta_mode not in ("forward", "backward"):
        raise ValueError(f"delta_mode must be 'forward' or 'backward', got {delta_mode!r}")
    if n_max is None:
        n_max = min(p.order, len(lam) - 2)
    if p.order < n_max:
        raise LengthMismatchError(f"need {n_max + 1} p-weights, have {len(p)}")
    if len(lam) < n_max + 2:
        raise LengthMismatchError(f"need {n_max + 2} factors, have {len(lam)}")
    if q.order < n_max + 1:
        raise LengthMismatchError(f"need {n_max + 2} q-weights, have {len(q)}")
    W, warns = w_sequence(q, k, tail, n_max=n_max, with_warnings=True)
    Wf = as_float(W)
    pv = as_float(p.weights[: n_max + 1])
    P = as_float(p.cumulative[: n_max + 1])
    qv = as_float(q.weights[: n_max + 2])
    Q = as_float(q.cumulative[: n_max + 2])
    lv = as_float(lam.values[: n_max + 2])

    n = np.arange(1, n_max + 1)
    denom_a = n.astype(float) ** (1.0 / float(k) - 1.0) * np.abs(pv[1:] * Q[1:-1] / (P[1:] * qv[1:-1]))
    rep_a = _report("TA_a", n, np.abs(lv[1:-1]) / denom_a)

    if delta_mode == "forward":
        delta = Q[:-2] * lv[1:-1] - Q[1:-1] * lv[2:]
    else:
        qprev2 = np.concatenate([[0.0], Q[: n_max - 1]])
        delta = Q[:-2] * lv[1:-1] - qprev2 * lv[:n_max]
    ratios_b = np.abs(Wf[1:] * delta) * P[1:] / pv[1:]
    warned = bool(np.any(warns[1:]))
    rep_b = _report("TA_b", n, ratios_b, tail.cutoff, warned)

    ratios_c = Q[1:-1] * np.abs(lv[2:]) * Wf[1:]
    rep_c = _report("TA_c", n, ratios_c, tail.cutoff, warned)
    return rep_a, rep_b, rep_c


class L1LkBound(NamedTuple):
    sup: float
    column_sums: np.ndarray


def l1_lk_bound(C, k) -> L1LkBound:
    """Columnwise k-power sums and their supremum.

    This is the quantity characterizing when a triangular array maps
    absolutely summable sequences into k-power summable ones.
    """
    check_exponent(k)
    E = C.entries if isinstance(C, NormalMatrix) else np.asarray(C)
    powered = abs_pow(E, k)
    sums = np.asarray([accurate_sum(powered[:, v]) for v in range(E.shape[1])])
    return L1LkBound(float(max(as_float(sums))), sums)
