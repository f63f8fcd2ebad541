"""Brute-force oracles in exact rational arithmetic, and 40-digit ones at production orders.

Everything here is written as naive loops over plain Python lists of
Fractions, deliberately independent of the library's vectorized kernels,
so it can serve as the reference side of every comparison.  The ``mp_``
oracles of a weighted-mean pair run in O(N) at 40 significant digits
(mpmath), from the definitions rather than the library's factored forms: a
float input is converted exactly, so their values differ from the exact
ones by about 1e-40 relative, far below float64 round-off.  ``polyfit_trend``
is the reference side of the trend verdict, and ``report_text`` that of the
report writer.
"""

import csv
import io
import itertools
import json
import math
from fractions import Fraction

import mpmath
import numpy as np

MP_DIGITS = 40


def to_rows(mat):
    """Full square list-of-lists view of a NormalMatrix or 2-D array."""
    entries = getattr(mat, "entries", mat)
    return [[entries[n][v] for v in range(len(entries))] for n in range(len(entries))]


def identity_rows(size):
    return [[Fraction(1) if n == v else Fraction(0) for v in range(size)] for n in range(size)]


def bar_rows(rows):
    size = len(rows)
    return [
        [sum((rows[n][i] for i in range(v, n + 1)), Fraction(0)) if v <= n else Fraction(0) for v in range(size)]
        for n in range(size)
    ]


def hat_rows(rows):
    size = len(rows)
    bar = bar_rows(rows)
    hat = [list(bar[0])]
    for n in range(1, size):
        hat.append([bar[n][v] - bar[n - 1][v] for v in range(size)])
    return hat


def matvec(rows, x):
    return [sum((rows[n][v] * x[v] for v in range(n + 1)), Fraction(0)) for n in range(len(rows))]


def matmul(a, b):
    size = len(a)
    return [
        [sum((a[n][i] * b[i][v] for i in range(size)), Fraction(0)) for v in range(size)]
        for n in range(size)
    ]


def partial_sums(coeffs):
    out = []
    total = Fraction(0)
    for c in coeffs:
        total += c
        out.append(total)
    return out


def seq_transform(rows, coeffs):
    """Partial-sum transform by its definition: sum of a_nv s_v."""
    s = partial_sums(coeffs)
    return [sum((rows[n][v] * s[v] for v in range(n + 1)), Fraction(0)) for n in range(len(rows))]


def first_differences(values):
    return [values[0]] + [values[n] - values[n - 1] for n in range(1, len(values))]


def x_abs_norm(deltas):
    return sum((abs(d) for d in deltas), Fraction(0))


def y_pow_norm(deltas, k):
    """Weighted k-power sum; index 0 enters at weight one."""
    total = abs(deltas[0]) ** k
    for n in range(1, len(deltas)):
        total += n ** (k - 1) * abs(deltas[n]) ** k
    return total


def probe_rows(bh, lam=None):
    """(D, S) from their definition, v = 0..N-1: D_nv = bh_nv lam_v - bh_{n,v+1} lam_{v+1} (the difference probe)
    and S_nv = bh_{n,v+1} lam_{v+1} (the shift probe); unit factors when ``lam`` is None."""
    size = len(bh)
    lam = [Fraction(1)] * size if lam is None else lam
    D = [[bh[n][v] * lam[v] - bh[n][v + 1] * lam[v + 1] for v in range(size - 1)] for n in range(size)]
    S = [[bh[n][v + 1] * lam[v + 1] for v in range(size - 1)] for n in range(size)]
    return D, S


def column_pow_sums(rows, k, w=None, lower=False):
    """sum_n w_n |rows[n][v]|**k for every column v, from row v on when ``lower``; unit weights when ``w`` is None."""
    out = []
    for v in range(len(rows[0])):
        total = Fraction(0)
        for n in range(v if lower else 0, len(rows)):
            total += (1 if w is None else w[n]) * abs(rows[n][v]) ** k
        out.append(total)
    return out


def c10_tail(bh, lam, k, v, cutoff):
    total = Fraction(0)
    for n in range(v + 1, cutoff + 1):
        diff = bh[n][v] * lam[v] - bh[n][v + 1] * lam[v + 1]
        total += n ** (k - 1) * abs(diff) ** k
    return total


def c11_tail(bh, lam, k, v, cutoff):
    total = Fraction(0)
    for n in range(v + 1, cutoff + 1):
        total += n ** (k - 1) * abs(bh[n][v + 1] * lam[v + 1]) ** k
    return total


def weighted_mean_hat_columns(weights, v_lo, v_hi, cutoff):
    """Hat columns v_lo..v_hi of the weighted mean a_ni = q_i / Q_n, rows 0..cutoff.

    From the definitions alone: bar_nv = sum_{i=v..n} q_i / Q_n and
    hat_nv = bar_nv - bar_{n-1,v}.  Row n is a dict keyed by column, which
    is all :func:`c10_tail` and :func:`c11_tail` read of it.
    """
    Q = partial_sums(weights)
    rows = [dict() for _ in range(cutoff + 1)]
    for v in range(v_lo, v_hi + 1):
        prev = Fraction(0)
        tail = Fraction(0)
        for n in range(cutoff + 1):
            if n >= v:
                tail += weights[n]
            bar = tail / Q[n]
            rows[n][v] = bar - prev if n >= 1 else bar
            prev = bar
    return rows


def lower_inverse(rows):
    """Inverse of a lower-triangular matrix with nonzero diagonal, by forward substitution over its entries."""
    size = len(rows)
    inv = [[Fraction(0)] * size for _ in range(size)]
    for v in range(size):
        inv[v][v] = 1 / rows[v][v]
        for n in range(v + 1, size):
            inv[n][v] = -sum((rows[n][i] * inv[i][v] for i in range(v, n)), Fraction(0)) / rows[n][n]
    return inv


def key_gap(a_rows, bh, inv, lam, n, v):
    """The relative gap of the adjacent-inverse rearrangement at (n, v), one Fraction per operation.

    lhs = f_v inv_vv + f_{v+1} inv_{v+1,v} and rhs = (f_v - f_{v+1}) / a_vv + f_{v+1} gap_v, with
    f_v = bh_nv lam_v and gap_v = (a_vv - a_{v+1,v}) / (a_vv a_{v+1,v+1}): |lhs - rhs| over the sum of
    the absolute values of the terms the two sides add, (f_v - f_{v+1}) / a_vv counted as its two
    terms, and 0 (a Fraction) where lhs == rhs.  ``inv`` is the inverse of hat(A), or a stand-in.
    """
    f_v, f_v1 = Fraction(bh[n][v]) * lam[v], Fraction(bh[n][v + 1]) * lam[v + 1]
    d = Fraction(a_rows[v][v])
    lhs = f_v * inv[v][v], f_v1 * inv[v + 1][v]
    shift = f_v1 * ((d - a_rows[v + 1][v]) / (d * a_rows[v + 1][v + 1]))
    gap = abs(lhs[0] + lhs[1] - ((f_v - f_v1) / d + shift))
    if gap == 0:
        return gap
    return gap / (abs(lhs[0]) + abs(lhs[1]) + (abs(f_v) + abs(f_v1)) / abs(d) + abs(shift))


def decompose_parts(a_rows, b_rows, lam, coeffs):
    """(dx, dy, t1, t2) of the two-part split, every sum from its definition.

    dx = hat(A) a and dy = hat(B) (lam a); t1_n = b_nn lam_n / a_nn dx_n plus
    the middle summands at v < n times dx_v; t2_n = sum over r <= n - 2 and
    v = r+2..n of bhat_nv lam_v ahat'_vr dx_r, ahat' the inverse of A's hat matrix.
    """
    size = len(a_rows)
    ah, bh = hat_rows(a_rows), hat_rows(b_rows)
    inv = lower_inverse(ah)
    dx = matvec(ah, coeffs)
    dy = matvec(bh, [c * f for c, f in zip(coeffs, lam)])
    t1, t2 = [], []
    for n in range(size):
        mid = sum((_middle_summand(a_rows, bh, lam, n, v) * dx[v] for v in range(n)), Fraction(0))
        t1.append(b_rows[n][n] * lam[n] / a_rows[n][n] * dx[n] + mid)
        t2.append(sum((bh[n][v] * lam[v] * inv[v][r] * dx[r] for r in range(n - 1) for v in range(r + 2, n + 1)), Fraction(0)))
    return dx, dy, t1, t2


def c16_inner(bh, ahp, lam, n, r):
    total = Fraction(0)
    for v in range(r + 2, n + 1):
        total += abs(bh[n][v]) * abs(ahp[v][r] * lam[v])
    return total


def w_tail_pow(weights, k, n, cutoff):
    """sum_{v=n+1..cutoff} v**(k-1) (q_v / (Q_v Q_{v-1}))**k for exact weights."""
    Q = partial_sums(weights)
    total = Fraction(0)
    for v in range(n + 1, cutoff + 1):
        total += v ** (k - 1) * (weights[v] / (Q[v] * Q[v - 1])) ** k
    return total


def _middle_summand(a_rows, bh, lam, n, v):
    dv = bh[n][v] * lam[v] - bh[n][v + 1] * lam[v + 1]
    gap = (a_rows[v][v] - a_rows[v + 1][v]) / (a_rows[v][v] * a_rows[v + 1][v + 1])
    return dv / a_rows[v][v] + bh[n][v + 1] * lam[v + 1] * gap


def cnv_rows(a_rows, b_rows, lam):
    """The first part's array at k = 1: the middle summand at 1 <= v < n, b_nn lam_n / a_nn at v = n >= 1, zero elsewhere."""
    size = len(a_rows)
    bh = hat_rows(b_rows)
    rows = [[Fraction(0)] * size for _ in range(size)]
    for n in range(1, size):
        rows[n][n] = b_rows[n][n] * lam[n] / a_rows[n][n]
        for v in range(1, n):
            rows[n][v] = _middle_summand(a_rows, bh, lam, n, v)
    return rows


def cnv_colsum_pow(a_rows, b_rows, lam, k, v):
    """Column v sum of n**(k-1) |.|**k over the first-part array, k integer."""
    size = len(a_rows)
    bh = hat_rows(b_rows)
    total = Fraction(0)
    if v >= 1:
        total += v ** (k - 1) * abs(b_rows[v][v] * lam[v] / a_rows[v][v]) ** k
        for n in range(v + 1, size):
            total += n ** (k - 1) * abs(_middle_summand(a_rows, bh, lam, n, v)) ** k
    return total


def dnr_colsum_pow(a_rows, b_rows, lam, k, r):
    size = len(a_rows)
    total = Fraction(0)
    for n in range(r + 2, size):
        total += n ** (k - 1) * abs(b_rows[n][n] * lam[n] / a_rows[n][n]) ** k
    return total


# ---------------------------------------------------------------------------
# 40-digit oracles of a weighted-mean pair (weights p of A, q of B)
# ---------------------------------------------------------------------------


def mp_list(values):
    """mpf values: a float exactly, a Fraction as its 40-digit quotient."""
    with mpmath.workdps(MP_DIGITS):
        return [mpmath.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else mpmath.mpf(x) for x in values]


def mp_row_factors(weights):
    """(c_n, d_n) for n = 1..N: c_n = p_n / (P_n P_{n-1}) and d_n = 1/P_{n-1} - 1/P_n, equal in exact arithmetic.

    d_n is the factor of row n in the first difference of the weighted mean,
    a_nv - a_{n-1,v} = -p_v d_n for v < n.
    """
    with mpmath.workdps(MP_DIGITS):
        p = mp_list(weights)
        P = partial_sums(p)
        return [p[n] / (P[n] * P[n - 1]) for n in range(1, len(p))], [1 / P[n - 1] - 1 / P[n] for n in range(1, len(p))]


def mp_weighted_mean(weights, s):
    """The weighted mean applied to the sequence s: sum_{v<=n} p_v s_v / P_n."""
    with mpmath.workdps(MP_DIGITS):
        out, total, weight = [], mpmath.mpf(0), mpmath.mpf(0)
        for p, x in zip(mp_list(weights), mp_list(s)):
            total += p * x
            weight += p
            out.append(total / weight)
        return out


def mp_delta_transform(weights, x):
    """First difference in n of the weighted mean applied to the partial sums of x: hat(A) x by definition."""
    with mpmath.workdps(MP_DIGITS):
        return first_differences(mp_weighted_mean(weights, itertools.accumulate(mp_list(x))))


def mp_first_part(p_weights, q_weights, lam, dx):
    """t1_n = b_nn lam_n / a_nn dx_n + sum_{v<n} (D_nv / a_vv + S_nv g_v) dx_v, in O(N).

    bhat_nv = Q_{v-1} e_n below the diagonal, e_n = 1/Q_{n-1} - 1/Q_n, so
    D_nv = e_n (Q_{v-1} lam_v - Q_v lam_{v+1}) and S_nv = e_n Q_v lam_{v+1} at n > v;
    g_v = (a_vv - a_{v+1,v}) / (a_vv a_{v+1,v+1}) from A's entries p_v / P_n.
    """
    with mpmath.workdps(MP_DIGITS):
        p, q, lam, dx = mp_list(p_weights), mp_list(q_weights), mp_list(lam), mp_list(dx)
        P, Q = partial_sums(p), partial_sums(q)
        out, acc = [], mpmath.mpf(0)
        for n in range(len(dx)):
            e_n = 1 / Q[n - 1] - 1 / Q[n] if n else 0
            out.append(q[n] / Q[n] * lam[n] / (p[n] / P[n]) * dx[n] + e_n * acc)
            if n + 1 < len(dx):
                a_vv, a_next, a_sub = p[n] / P[n], p[n + 1] / P[n + 1], p[n] / P[n + 1]
                Q_prev = Q[n - 1] if n else 0
                mid = (Q_prev * lam[n] - Q[n] * lam[n + 1]) / a_vv + Q[n] * lam[n + 1] * (a_vv - a_sub) / (a_vv * a_next)
                acc += mid * dx[n]
        return out


def mp_key_gaps(p_weights, q_weights, lam):
    """|lhs - rhs| / (size of the two sides) of the adjacent-inverse identity at every v = 1..N-1.

    The row factor e_n of bhat cancels, so column v reads f_v = Q_{v-1} lam_v
    and f_{v+1} = Q_v lam_{v+1}.  The hat inverse's entries come from A-hat by
    forward substitution: 1 / ahat_vv and -ahat_{v+1,v} / (ahat_vv ahat_{v+1,v+1}),
    with ahat_{v+1,v} = P_{v-1} (1/P_v - 1/P_{v+1}).
    """
    with mpmath.workdps(MP_DIGITS):
        p, q, lam = mp_list(p_weights), mp_list(q_weights), mp_list(lam)
        P, Q = partial_sums(p), partial_sums(q)
        out = []
        for v in range(1, len(p) - 1):
            d, d1, sub = p[v] / P[v], p[v + 1] / P[v + 1], p[v] / P[v + 1]
            inv_d, inv_s = 1 / d, -(P[v - 1] * (1 / P[v] - 1 / P[v + 1])) / (d * d1)
            f_v, f_v1 = Q[v - 1] * lam[v], Q[v] * lam[v + 1]
            lhs = (f_v * inv_d, f_v1 * inv_s)
            shift = f_v1 * (d - sub) / (d * d1)
            size = abs(lhs[0]) + abs(lhs[1]) + (abs(f_v) + abs(f_v1)) / d + abs(shift)
            out.append(abs(lhs[0] + lhs[1] - ((f_v - f_v1) / d + shift)) / size)
        return out


def mp_w_tail(weights, k, rows, count):
    """W tails T_v = sum_{n=v+1..rows} n**(k-1) (q_n / (Q_n Q_{n-1}))**k for v = 0..count-1, in O(rows).

    Q holds the 40-digit cumulative sums of the weights, not the float ones
    the library reads; one backward sweep from row ``rows`` gives every T_v.
    """
    with mpmath.workdps(MP_DIGITS):
        q = mp_list(weights[: rows + 1])
        Q = partial_sums(q)
        k = int(k) if float(k).is_integer() else mp_list([k])[0]  # an integer power is a product: the same value, sooner
        tails, total = [], mpmath.mpf(0)
        for n in range(rows, 0, -1):
            total += n ** (k - 1) * (q[n] / (Q[n] * Q[n - 1])) ** k  # now T_{n-1}
            if n <= count:
                tails.append(total)
        return tails[::-1]


def mp_probe_pows(weights, lam, k, strict=False):
    """Each probe kind's sum_n n**(k-1) |delta_nv|**k (weight one at n = 0) through the weighted mean of ``weights``
    with the factors ``lam``, at v = 0..N-1, in O(N).

    By definition the deltas of a probe are the hat matrix applied to its
    factored coefficients, lam_v e_v - lam_{v+1} e_{v+1} (difference) or
    lam_{v+1} e_{v+1} (shift).  Row n of the hat matrix is bar_n - bar_{n-1},
    bar_nv = sum_{i=v..n} p_i / P_n = 1 - P_{v-1} / P_n, so hat_nv = P_{v-1} d_n
    at 1 <= v <= n with d_n = 1/P_{n-1} - 1/P_n (hat_00 = 1): the difference
    probe is p_v / P_v lam_v at row v and (P_{v-1} lam_v - P_v lam_{v+1}) d_n
    below it, the shift probe P_v lam_{v+1} d_n below row v.  ``strict``
    swaps the difference probe's |p_v / P_v lam_v|**k for p_v / P_v |lam_v|**k.
    """
    with mpmath.workdps(MP_DIGITS):
        p, lam, k = mp_list(weights), mp_list(lam), mp_list([k])[0]
        P = partial_sums(p)
        out = {"difference": [], "shift": []}
        tail = mpmath.mpf(0)  # sum_{n=v+1..N} n**(k-1) |d_n|**k
        for v in range(len(p) - 2, -1, -1):
            tail += mpmath.mpf(v + 1) ** (k - 1) * abs(1 / P[v] - 1 / P[v + 1]) ** k
            own = p[v] / P[v] * abs(lam[v]) ** k if strict else abs(p[v] / P[v] * lam[v]) ** k
            below = abs((P[v - 1] if v else 0) * lam[v] - P[v] * lam[v + 1]) ** k * tail
            out["difference"].append((mpmath.mpf(v) ** (k - 1) if v else 1) * own + below)
            out["shift"].append(abs(P[v] * lam[v + 1]) ** k * tail)
        return {kind: values[::-1] for kind, values in out.items()}


def mp_dnr_column_sums(p_weights, q_weights, lam, k):
    """sum_{n=r+2..N} |d_nr|**k for r = 0..N, d_nr = n**(1-1/k) b_nn lam_n / a_nn with b_nn = q_n / Q_n and
    a_nn = p_n / P_n, in one backward sweep: the last two columns are empty sums."""
    with mpmath.workdps(MP_DIGITS):
        p, q, lam, k = mp_list(p_weights), mp_list(q_weights), mp_list(lam), mp_list([k])[0]
        P, Q = partial_sums(p), partial_sums(q)
        sums, total = [mpmath.mpf(0)] * 2, mpmath.mpf(0)
        for n in range(len(p) - 1, 1, -1):
            total += abs(mpmath.mpf(n) ** (1 - 1 / k) * (q[n] / Q[n]) * lam[n] / (p[n] / P[n])) ** k
            sums.append(total)  # column r = n - 2
        return sums[::-1]


def mp_weighted_mean_bands(weights):
    """Diagonal p_v / P_v and subdiagonal p_v / P_{v+1} of the weighted mean of ``weights``."""
    with mpmath.workdps(MP_DIGITS):
        p = mp_list(weights)
        P = partial_sums(p)
        return [p[v] / P[v] for v in range(len(p))], [p[v] / P[v + 1] for v in range(len(p) - 1)]


def mp_cnv_column_sums(a_bands, q_weights, lam, k, index_powers):
    """Column k-power sums of the first part's array c_nv at v = 0..N for a weighted-mean B, in O(N).

    One list of sums per index power e in ``index_powers`` (k - 1 plain,
    (k - 1) / k strict).  A enters through its diagonal and subdiagonal
    ``a_bands`` alone.  Column v >= 1 holds v**(e/k) b_vv lam_v / a_vv at
    row v and n**(e/k) (D_nv / a_vv + S_nv g_v) at rows n > v, with
    g_v = (a_vv - a_{v+1,v}) / (a_vv a_{v+1,v+1}) and D, S as in
    :func:`mp_first_part`: that summand is e_n times
    m_v = (Q_{v-1} lam_v - Q_v lam_{v+1}) / a_vv + Q_v lam_{v+1} g_v, so the
    column sums to v**e |b_vv lam_v / a_vv|**k + |m_v|**k sum_{n>v} n**e |e_n|**k.
    """
    with mpmath.workdps(MP_DIGITS):
        d, sub = (mp_list(band) for band in a_bands)
        q, lam = mp_list(q_weights), mp_list(lam)
        inv_Q = [1 / Q for Q in partial_sums(q)]
        N = len(d) - 1
        k = mp_list([k])[0]
        row = [abs(inv_Q[n - 1] - inv_Q[n]) ** k for n in range(1, N + 1)]  # |e_n|**k at n = 1..N
        diag = [abs(q[v] * inv_Q[v] * lam[v] / d[v]) ** k for v in range(1, N + 1)]
        mid = []
        for v in range(1, N):
            shift = lam[v + 1] / inv_Q[v]
            g = (d[v] - sub[v]) / (d[v] * d[v + 1])
            mid.append(abs((lam[v] / inv_Q[v - 1] - shift) / d[v] + shift * g) ** k)
        out = []
        for e in mp_list(index_powers):
            sums, tail = [], mpmath.mpf(0)  # tail = sum_{n > v} n**e |e_n|**k
            for v in range(N, 0, -1):
                index = mpmath.mpf(v) ** e
                sums.append(index * diag[v - 1] + (mid[v - 1] * tail if v < N else 0))
                tail += index * row[v - 1]
            out.append([mpmath.mpf(0)] + sums[::-1])
        return out


# ---------------------------------------------------------------------------
# Sarigol's Riesz-pair conditions from the weights
# ---------------------------------------------------------------------------


def w_sequence(q, k, cutoff, count):
    """W_n = T_n**(1/k) for n < count, T_n = sum_{v=n+1..cutoff} v**(k-1) (q_v / (Q_v Q_{v-1}))**k, from the weights
    ``q`` (floats or Fractions): each float T_n by ``math.fsum`` and rooted by Python's ``**``, a Fraction one exact
    and, at k = 1, not rooted.  The formula the TA rows were computed by before they were read from C10 and C11."""
    Q = partial_sums(q)
    k = int(k) if float(k).is_integer() else k
    terms = [v ** (k - 1) * (q[v] / (Q[v] * Q[v - 1])) ** k for v in range(1, cutoff + 1)]
    if not isinstance(terms[0], Fraction):
        return [math.fsum(terms[n:]) ** (1 / k) for n in range(count)]
    tails = list(itertools.accumulate(reversed(terms)))[::-1][:count]
    return tails if k == 1 else [float(t) ** (1 / k) for t in tails]


def theorem_a(p, q, lam, k, cutoff, n_max):
    """The TA_a, TA_b and TA_c ratios at n = 1..n_max of the Riesz pair of weights p (A) and q (B, through ``cutoff``)
    and the factors ``lam``, by Sarigol's formulas with W from :func:`w_sequence`:

    (a)  |lam_n| / (n**(1/k-1) p_n Q_n / (P_n q_n));
    (b)  |W_n Delta_n| P_n / p_n, Delta_n = Q_n lam_{n+1} - Q_{n-1} lam_n taken as
         q_n lam_{n+1} + Q_{n-1} (lam_{n+1} - lam_n), which does not cancel;
    (c)  Q_n |lam_{n+1}| W_n.

    Exact on Fractions at k = 1.
    """
    P, Q, W = partial_sums(p), partial_sums(q), w_sequence(q, k, cutoff, n_max + 1)
    n = range(1, n_max + 1)
    ta = [abs(lam[i]) / ((1 if k == 1 else i ** (1 / k - 1)) * abs(p[i] * Q[i] / (P[i] * q[i]))) for i in n]
    tb = [abs(W[i] * (q[i] * lam[i + 1] + Q[i - 1] * (lam[i + 1] - lam[i]))) * P[i] / p[i] for i in n]
    tc = [Q[i] * abs(lam[i + 1]) * W[i] for i in n]
    return ta, tb, tc


# ---------------------------------------------------------------------------
# the trend verdict through np.polyfit
# ---------------------------------------------------------------------------


def polyfit_trend(indices, ratios, exact_style=False):
    """``classify_trend`` with the last quartile's slope fitted by ``np.polyfit`` (LAPACK least squares), as it was
    computed before the closed form."""
    r = np.asarray(ratios, dtype=float)
    if r.size == 0:
        return "inconclusive"
    if not np.all(np.isfinite(r)):
        return "growing"
    if exact_style:
        return "bounded-looking" if np.max(np.abs(r)) <= 1e-12 else "growing"
    if r.size < 8:
        return "bounded-looking" if np.max(np.abs(r)) <= 1e-12 else "inconclusive"
    q = 3 * r.size // 4
    logidx = np.log(np.asarray(indices, dtype=float)[q:])
    tail = r[q:]
    slope = np.polyfit(logidx, tail, 1)[0]
    if slope <= 1e-9 * max(1.0, float(np.mean(np.abs(tail)))):
        return "bounded-looking"
    r_end = r[-1]
    if r_end >= 2.0 * r[r.size // 2 - 1] * (1.0 - 1e-9) or r_end >= 2.0 * r[r.size // 4 - 1] * (1.0 - 1e-9):
        return "growing"
    return "inconclusive"


# ---------------------------------------------------------------------------
# the report writer: every row zipped into one list, printed by csv.writer or json.dumps
# ---------------------------------------------------------------------------

FLOAT_COLUMNS = frozenset(("ratio", "running_sup", "transform", "delta", "term", "running_total", "value", "tolerance"))


def _cells(column, values):
    """One CSV column in one pass: floats with 17 significant digits, flags as true/false, None as ''."""
    if column in FLOAT_COLUMNS:
        return ["" if x is None else "%.17g" % x for x in values]
    if column == "tail_warning":
        return ["true" if x else "false" for x in values]
    return ["" if x is None else str(x) for x in values]


def report_text(columns, blocks, meta, fmt):
    """The text ``cli.write_rows`` writes for these blocks.

    Cells are spelled by column name: a ``FLOAT_COLUMNS`` column with
    ``'%.17g'``, ``tail_warning`` as true/false, any other with ``str``.  The
    reports' schemas keep floats, flags and the other values in those columns.
    """
    rows = []
    for block in blocks:
        block = [v.tolist() if isinstance(v, np.ndarray) else v for v in block]
        size = next(len(v) for v in block if isinstance(v, list))
        if fmt == "csv":
            block = [_cells(c, v) if isinstance(v, list) else _cells(c, [v])[0] for c, v in zip(columns, block)]
        rows += zip(*(v if isinstance(v, list) else [v] * size for v in block))
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        return buf.getvalue()
    rows = [dict(zip(columns, row)) for row in rows]
    return json.dumps({"meta": meta, "rows": rows}, indent=2, allow_nan=True) + "\n"


# ---------------------------------------------------------------------------
# verify's sweep draws: SplitMix64 one output at a time, in Python integers
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64_next(state):
    """(new state, output) of one step of Vigna's ``splitmix64.c``: add gamma, then mix."""
    state = (state + _GAMMA) & _MASK64
    z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def splitmix_uniform(seed, stream, size):
    """``size`` floats in [-1, 1): the generator started from ``seed`` jumps to the state before its output number
    stream + 1, whose output seeds the stream; each of the stream's outputs keeps its 53 high bits m, as m / 2**52 - 1."""
    start = _splitmix64_next((seed + stream * _GAMMA) & _MASK64)[1]
    out = []
    for _ in range(size):
        start, z = _splitmix64_next(start)
        out.append(math.ldexp(z >> 11, -52) - 1.0)
    return out
