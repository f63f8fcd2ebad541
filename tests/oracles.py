"""Brute-force oracles in exact rational arithmetic.

Everything here is written as naive loops over plain Python lists of
Fractions, deliberately independent of the library's vectorized kernels,
so it can serve as the reference side of every comparison.
"""

from fractions import Fraction


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
