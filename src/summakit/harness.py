"""Identity-level verification machinery for the factor theorem.

This module replays the constructive steps of the theorem numerically:
coordinate probes that isolate single hat-matrix columns, the bound
constant linking the two probe norms, the two-part decomposition of the
transformed factored series, the adjacent-inverse algebraic identity, and
the two triangular arrays whose columnwise k-power sums control each part.
Everything here is a finite, checkable computation; nothing asserts the
infinite statements themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._util import abs_pow, check_exponent, check_pair, index_pow, is_exact, nan_max, prefix_sums, suffix_sums
from .errors import (
    DegenerateProbeError,
    IndexOutOfRangeError,
    LengthMismatchError,
)
from .conditions import PROBE_DIFFERENCE, PROBE_KINDS, PROBE_SHIFT, WeightedProbes, column_sums, probe_columns, probe_deltas
from .matrices import NormalMatrix, apply_hat, hat_inverse, hat_inverse_bands, hat_of
from .series import FactorSequence, SeriesSample

_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ProbeResult:
    """Deltas and norms produced by one coordinate probe."""

    probe_kind: str
    v: int
    delta_x: np.ndarray
    delta_y: np.ndarray
    x_norm: float
    y_norm: float


@dataclass(frozen=True)
class Decomposition:
    """Two-part split of the transformed factored series.

    ``residual`` is the largest absolute gap between the independently
    transformed deltas and t1 + t2; it vanishes identically in exact
    arithmetic.
    """

    t1: np.ndarray
    t2: np.ndarray
    delta_y: np.ndarray
    residual: float
    v0_retained: bool


def probe_series(kind: str, v: int, size: int, exact: bool = False) -> SeriesSample:
    """Coefficient sequence e_v - e_{v+1} (difference) or e_{v+1} (shift)."""
    if kind not in PROBE_KINDS:
        raise ValueError(f"unknown probe kind {kind!r}")
    if not 0 <= v <= size - 2:
        raise IndexOutOfRangeError(f"probe at v={v} needs v+1 within size {size}")
    coeffs = np.zeros(size, dtype=object if exact else float)
    one = 1 if exact else 1.0
    if kind == PROBE_DIFFERENCE:
        coeffs[v] = one
        coeffs[v + 1] = -one
    else:
        coeffs[v + 1] = one
    return SeriesSample(coeffs)


def _check_probe_args(A: NormalMatrix, B: NormalMatrix, lam: FactorSequence, v: int, k) -> None:
    check_exponent(k)
    if not 0 <= v <= A.order - 1:
        raise IndexOutOfRangeError(f"probe index v={v} needs v+1 <= {A.order}")
    check_pair(A, B, lam, A.size)


def _suffix_max(values) -> np.ndarray:
    """max(values[j:]) for every j; a NaN reaches every j at or before it."""
    return np.maximum.accumulate(values[::-1])[::-1]


class ProbePass:
    """Both probe kinds at every v = 0..N-1, through A and B.

    ``delta_x`` and ``delta_y`` are :func:`~summakit.conditions.probe_columns`
    of A (unit factors) and of B: a weighted-mean side reads its weights in
    O(N) and forms no column, any other side holds the deltas over its kept
    hat matrix, column v for the probe at v.  ``x_norm[kind]`` and ``y_pow[kind]`` hold each
    probe's x-norm and y-norm**k, reduced on first read; :meth:`probe` reduces a dense side's columns at v alone.
    """

    def __init__(self, A: NormalMatrix, B: NormalMatrix, lam: FactorSequence, k):
        unit = np.ones(A.size, dtype=object if A.exact and B.exact else float)
        self.A, self.k, self.b_diag, self.lv = A, k, B.diagonal, lam.values
        self.delta_x = probe_columns(A, unit)
        self.delta_y = probe_columns(B, lam.values)

    x_norm = cached_property(lambda self: self.delta_x.pows(1))
    y_pow = cached_property(lambda self: self.delta_y.pows(self.k))

    def _y_norm(self, kind: str, v: int, strict_paper: bool, ypow):
        kf = float(self.k)
        if strict_paper and kind == PROBE_DIFFERENCE:
            w_v = 1.0 if v == 0 else float(v) ** (kf - 1.0)
            b, f = float(self.b_diag[v]), float(self.lv[v])
            ypow = float(ypow) - w_v * abs(b * f) ** kf + w_v * abs(b) * abs(f) ** kf
        return ypow if self.k == 1 else float(ypow) ** (1.0 / kf)

    def probe(self, kind: str, v: int, strict_paper: bool = False) -> ProbeResult:
        """The probe at v; ``strict_paper`` swaps the difference probe's |b_vv lam_v|**k for b_vv |lam_v|**k."""
        dx, dy = self.delta_x.column(kind, v), self.delta_y.column(kind, v)
        y_norm = self._y_norm(kind, v, strict_paper, self.delta_y.pow(kind, v, self.k))
        return ProbeResult(kind, v, dx, dy, self.delta_x.pow(kind, v, 1), y_norm)

    def constant(self, strict_paper: bool = False):
        """(largest ratio, records (kind, v, ratio)) over v = 1..m-1 and both kinds, read from the norms alone."""
        records = [
            (kind, v, _ratio(kind, v, self._y_norm(kind, v, strict_paper, self.y_pow[kind][v]), x))
            for kind in PROBE_KINDS
            for v, x in enumerate(self.x_norm[kind].tolist()[1:], 1)
        ]
        return nan_max(r for _, _, r in records), records

    def definition_gap(self) -> float:
        """Largest gap between the x-side deltas and their definition, over every v < m and row n.

        By definition a probe's x-side deltas are the first difference in n of
        A applied to its partial sums: e_v for the difference probe, so column v
        of A, and the step 1_{n > v} for the shift probe, so A's reversed row
        cumulative sum.  On a weighted mean, weights p, that difference is
        -p_v d_n (difference) and P_v d_n (shift) at rows n > v, with
        d_n = 1/P_{n-1} - 1/P_n, and p_v / P_v and 0 at row v.  Against
        rows[n] * s_v the gap at (n, v) is at most
        |rows[n] - d_n| |s_v| + |d_n| |s_v - t_v|, t_v the defined scalar: its
        largest value over n > v is two suffix maxima, O(N) for all of them.
        """
        x = self.delta_x
        m = self.A.order
        if self.A.weights is None:
            E = self.A.entries
            steps = np.cumsum(E[:, ::-1], axis=1)[:, ::-1]
            return nan_max(
                (
                    np.max(np.abs(x[PROBE_DIFFERENCE] - np.diff(E, axis=0, prepend=0.0)[:, :m])),
                    np.max(np.abs(x[PROBE_SHIFT] - np.diff(steps, axis=0, prepend=0.0)[:, 1 : m + 1])),
                )
            )
        p, P = x.weights.weights[: x.rows.size], x.weights.cumulative[: x.rows.size]
        d = np.concatenate(([0], 1 / P[:-1] - 1 / P[1:]))
        rows_gap, rows_size = (_suffix_max(np.abs(r))[1 : m + 1] for r in (x.rows - d, d))
        defined = {PROBE_DIFFERENCE: (-p[:m], p[:m] / P[:m]), PROBE_SHIFT: (P[:m], 0)}
        gaps = []
        for kind, (t, diag) in defined.items():
            s = x.scalars[kind]
            gaps += [np.max(np.abs(s) * rows_gap + np.abs(s - t) * rows_size), np.max(np.abs(x.diag[kind] - diag))]
        return nan_max(gaps)


def run_probe(
    A: NormalMatrix, B: NormalMatrix, lam: FactorSequence, v: int, kind: str, k, strict_paper: bool = False
) -> ProbeResult:
    """Apply one coordinate probe through both matrices and take the norms.

    The probe at v of one :class:`ProbePass`; ``cli verify`` checks its
    columns against the definition, the first difference of A applied to
    the probe's partial sums, in its probe-consistency row.  ``strict_paper``
    switches the difference-probe y-norm diagonal term from |b_vv lam_v|**k
    to b_vv |lam_v|**k (first power on b_vv) for side-by-side comparison of
    the two published readings.
    """
    _check_probe_args(A, B, lam, v, k)
    return ProbePass(A, B, lam, k).probe(kind, v, strict_paper)


def inequality20_ratio(probe: ProbeResult) -> float:
    """Ratio of the probe's y-norm to its x-norm."""
    return _ratio(probe.probe_kind, probe.v, probe.y_norm, probe.x_norm)


def _ratio(kind: str, v: int, y_norm, x_norm) -> float:
    if x_norm == 0:
        raise DegenerateProbeError(f"probe {kind} at v={v} has zero x-norm")
    return float(y_norm) / float(x_norm)


def empirical_constant(A: NormalMatrix, B: NormalMatrix, lam: FactorSequence, k, strict_paper: bool = False):
    """Largest probe-norm ratio over v = 1..N-1 and both probe kinds.

    Returns (max ratio, records) where each record is (kind, v, ratio).
    The value is reported evidence for the bound constant; it is never
    asserted to converge.  Every probe is one column of the probe
    matrices of the two full hat matrices; a weighted mean's norms are read
    from its weights.
    """
    if A.order < 2:
        return 0.0, []
    _check_probe_args(A, B, lam, A.order - 1, k)
    return ProbePass(A, B, lam, k).constant(strict_paper)


def _middle_summands(A: NormalMatrix, B: NormalMatrix, lv) -> np.ndarray:
    """D / a_vv + S gap_v, v < N, gap_v A's :meth:`~summakit.matrices.NormalMatrix.gap`.

    D and S are the difference and shift probe matrices of B-hat and the
    factors ``lv``; the result is the first part's middle summand, shared by
    :func:`decompose` and :func:`build_cnv`.
    """
    D, S = probe_deltas(hat_of(B).entries, lv)
    D = D / A.diagonal[None, :-1]  # a new array: the differences are freed before S * gap is formed
    D += S * A.gap()[None, :]
    return D


def _middle_scalars(A: NormalMatrix, y: WeightedProbes) -> np.ndarray:
    """m_v = -Delta_v / a_vv + Q_v lam_{v+1} gap_v, v < N, from a weighted-mean B's :class:`~summakit.conditions.WeightedProbes`
    ``y``: the middle summand at n > v is m_v times their row factor q_n / (Q_n Q_{n-1}).
    """
    return y.scalars[PROBE_DIFFERENCE] / A.diagonal[:-1] + y.scalars[PROBE_SHIFT] * A.gap()


def _middle_sums(A: NormalMatrix, B: NormalMatrix, lv, x) -> np.ndarray:
    """sum_{v<n} (middle summand at (n, v)) x_v for n = 0..N; on a weighted-mean B one prefix sum of m_v x_v."""
    if B.weights is None:
        return np.tril(_middle_summands(A, B, lv), -1) @ x
    y = WeightedProbes.of(B.weights, B.size, A.order, lv)
    return y.rows * prefix_sums(_middle_scalars(A, y) * x)


def decompose(A: NormalMatrix, B: NormalMatrix, lam: FactorSequence, a: SeriesSample) -> Decomposition:
    """Split the B-transformed factored deltas into the two bounded parts.

    t1 carries the diagonal term plus the columnwise-difference and
    gap-correction sums; t2 carries the double sum over the inverted hat
    matrix.  The middle sums run from v = 0: when the second matrix has
    unit leading bar column the v = 0 contribution reduces to the term the
    classical display keeps implicit (and vanishes when the first matrix
    does too), otherwise it is exactly the retained first-column term and
    ``v0_retained`` is set.  The hat matrices and A's hat inverse are the
    ones the matrices keep, so decompositions of several series share them.

    A weighted mean forms none of them, and each part is O(N): its hat
    products dx, dy are one prefix sum each (:func:`~summakit.matrices.apply_hat`),
    on a weighted-mean B t1's middle sums are one prefix sum of m_v dx_v
    (:func:`_middle_sums`), and on a weighted-mean A the hat inverse is
    bidiagonal, so t2 is exactly 0.
    """
    check_pair(A, B, lam, A.size)
    N = A.order
    if len(a) < N + 1:
        raise LengthMismatchError(f"need {N + 1} coefficients, have {len(a)}")
    exact = A.exact and B.exact
    coeffs = a.coefficients[: N + 1]
    lamv = lam.values[: N + 1]

    dx = apply_hat(A, coeffs)
    dy = apply_hat(B, coeffs * lamv)

    bar0 = B.row_sums  # the leading bar column
    if exact:
        v0_retained = any(x != 1 for x in bar0.tolist())
    else:
        v0_retained = bool(np.max(np.abs(bar0 - 1.0)) > _ROW_SUM_TOL)

    t1 = B.diagonal * lamv / A.diagonal * dx
    if N:
        t1 = t1 + _middle_sums(A, B, lamv, dx[:N])

    if A.weights is None:  # the inner sums of C16 applied to dx, as two matrix-vector products
        t2 = (hat_of(B).entries * lamv[None, :]) @ (np.tril(hat_inverse(A).entries, -2) @ dx)
    else:
        t2 = np.zeros_like(dx)

    residual = nan_max(abs(x) for x in (dy - t1 - t2).tolist())
    return Decomposition(t1=t1, t2=t2, delta_y=dy, residual=residual, v0_retained=v0_retained)


def key_identity_check(
    A: NormalMatrix,
    B: NormalMatrix,
    lam: FactorSequence,
    n: int,
    v: int,
    hat_b: NormalMatrix | None = None,
    inv_hat_a: NormalMatrix | None = None,
):
    """Relative gap in the adjacent-inverse rearrangement at one (n, v).

    Left side uses entries of the computed hat inverse; right side uses only
    A's diagonal and gap factor at v (and the B-hat factors shared by both).  The
    two are algebraically identical, so the return value is pure numerical
    error: |lhs - rhs| divided by the size of the two sides, the sum of the
    absolute values of the terms each one adds (see :func:`_key_gaps`).
    ``v`` may also be an integer array, giving the gaps of row n at each
    of its entries.  ``hat_b`` / ``inv_hat_a``, when given, stand in for
    the hat matrix B keeps and the hat inverse A keeps.
    """
    v_lo, v_hi = (np.min(v), np.max(v)) if np.ndim(v) else (v, v)
    if not (1 <= v_lo and v_hi <= n - 1 and n <= A.order):
        raise IndexOutOfRangeError(f"need 1 <= v <= n-1 and n <= {A.order}, got n={n}, v={v}")
    check_pair(A, B, lam, v_hi + 2)
    bh = (hat_b or hat_of(B)).entries
    f = lam.values
    inv_d, inv_s = (inv_hat_a.diagonal, inv_hat_a.subdiagonal) if inv_hat_a else hat_inverse_bands(A)
    return _key_gaps(bh[n, v] * f[v], bh[n, v + 1] * f[v + 1], inv_d[v], inv_s[v], A, v)


def key_identity_gaps(A: NormalMatrix, B: NormalMatrix, lam: FactorSequence) -> np.ndarray:
    """The largest gap of :func:`key_identity_check` in each column of the triangle.

    Entry v - 1 is the largest gap at (n, v) over n = v+1..N, for v = 1..N-1.
    An explicit B evaluates the whole triangle, with the same bits as the
    scalar and row calls.  On a weighted-mean B, F[n, v] = bhat_nv lam_v is
    q_n / (Q_n Q_{n-1}) times Q_{v-1} lam_v, the shift probe's scalar at
    v - 1, at every (n, v) it reads, so the factor of row n cancels from the
    relative gap: one evaluation on those scalars gives the gap at every
    n > v, in O(N).  A weighted-mean A's hat inverse is read as its two bands.
    """
    N = A.order
    check_pair(A, B, lam, N + 1)
    v = np.arange(1, N)
    inv_d, inv_s = (band[v] for band in hat_inverse_bands(A))
    if B.weights is not None:
        F = WeightedProbes.of(B.weights, B.size, N, lam.values).scalars[PROBE_SHIFT]
        return _key_gaps(F[:-1], F[1:], inv_d, inv_s, A, v)
    F = hat_of(B).entries * lam.values[None, : N + 1]
    gaps = _key_gaps(F[:, 1:N], F[:, 2:], inv_d, inv_s, A, v)
    return np.where(np.tri(N + 1, max(N - 1, 0), -2, dtype=bool), gaps, 0).max(axis=0)


def _key_gaps(f_v, f_v1, inv_d, inv_s, A: NormalMatrix, v):
    """|lhs - rhs| of the adjacent-inverse rearrangement at column(s) v, relative to the size of the two sides.

    ``f_v`` and ``f_v1`` are the factored B-hat entries at v and v + 1 of one
    row, or of every row, column j holding v[j]; ``inv_d`` and ``inv_s`` are
    the A-hat inverse's entries (v, v) and (v + 1, v).  The size is the sum
    of the absolute values of the terms the two sides add, with
    (f_v - f_v1) / a_vv counted as its two terms: the scale of their
    round-off.  A gap whose terms are all zero is 0.
    """
    d = A.diagonal[v]
    lhs = f_v * inv_d, f_v1 * inv_s
    shift = f_v1 * A.gap(v)
    gap = abs(lhs[0] + lhs[1] - ((f_v - f_v1) / d + shift))
    size = abs(lhs[0]) + abs(lhs[1]) + (abs(f_v) + abs(f_v1)) / abs(d) + abs(shift)
    if np.ndim(size):
        return gap / np.where(size == 0, 1, size)
    return gap / size if size else gap


def _row_scaled(A: NormalMatrix, B: NormalMatrix, lam: FactorSequence, expo: float):
    """Row factors n**expo and the diagonal terms n**expo b_nn lam_n / a_nn.

    The shared set-up of :func:`build_cnv` and :func:`build_dnr`; the terms
    are exact only when both matrices are and the row factors are all one.
    """
    check_pair(A, B, lam, A.size)
    exact = A.exact and B.exact
    fac = index_pow(np.arange(A.size), expo, exact)
    diag = fac * B.diagonal * lam.values[: A.size] / A.diagonal
    return fac, diag if exact and expo == 0.0 else np.asarray(diag, dtype=float)


def build_cnv(
    A: NormalMatrix,
    B: NormalMatrix,
    lam: FactorSequence,
    k,
    strict_paper: bool = False,
) -> np.ndarray:
    """Triangular array whose column k-power sums bound the first part.

    c_nv = n**(1-1/k) * (middle summand) for 1 <= v <= n-1, and
    c_nn = n**(1-1/k) * b_nn lam_n / a_nn, rows n >= 1; zero elsewhere.
    ``strict_paper`` moves the row factor to n**((k-1)/k**2) so that the
    k-th powers carry n**(1-1/k), the literal published weighting.
    """
    check_exponent(k)
    kf = float(k)
    fac, diag = _row_scaled(A, B, lam, (kf - 1.0) / kf**2 if strict_paper else (kf - 1.0) / kf)
    out = np.zeros((A.size, A.size), dtype=diag.dtype)
    N = A.order
    if N:
        mid = np.tril(_middle_summands(A, B, lam.values), -1) * fac[:, None]
        out[:, 1:N] = mid[:, 1:]
    idx = np.arange(1, N + 1)
    out[idx, idx] = diag[1:]
    return out


def build_dnr(A: NormalMatrix, B: NormalMatrix, lam: FactorSequence, k) -> np.ndarray:
    """Constant-row triangular array bounding the second part.

    d_nr = n**(1-1/k) * b_nn lam_n / a_nn for 0 <= r <= n-2, zero elsewhere.
    """
    check_exponent(k)
    kf = float(k)
    _, diag = _row_scaled(A, B, lam, (kf - 1.0) / kf)
    return np.where(np.tri(A.size, k=-2, dtype=bool), diag[:, None], 0)


def cnv_column_sums(A: NormalMatrix, B: NormalMatrix, lam: FactorSequence, k, strict_paper: bool = False) -> np.ndarray:
    """Column k-power sums of :func:`build_cnv`'s array, v = 0..N.

    For a weighted-mean B, weights q, the array is not formed.  Below the
    diagonal column v is n**e q_n / (Q_n Q_{n-1}) m_v, with n**e the row
    factor and m_v of :func:`_middle_scalars`, so column v >= 1 sums to
    v**(e k) |b_vv lam_v / a_vv|**k + |m_v|**k T_v: T_v is the W tail through
    row N with index power e k, which is k - 1, or (k - 1) / k with ``strict_paper``.
    """
    check_exponent(k)
    if B.weights is None:
        return column_sums(build_cnv(A, B, lam, k, strict_paper), k)
    check_pair(A, B, lam, A.size)
    N, size = A.order, A.size
    power = (float(k) - 1.0) / float(k) if strict_paper else k - 1
    y = WeightedProbes.of(B.weights, size, N, lam.values)
    below = y.tails(None, k, N, _middle_scalars(A, y), power)[0]
    diag = index_pow(np.arange(size), power, is_exact(below)) * abs_pow(B.diagonal * lam.values[:size] / A.diagonal, k)
    sums = diag + np.concatenate((below, [0]))
    sums[0] = 0
    return sums


def dnr_column_sums(A: NormalMatrix, B: NormalMatrix, lam: FactorSequence, k) -> np.ndarray:
    """Column k-power sums of :func:`build_dnr`'s array, r = 0..N, from one suffix sweep.

    Column r holds the row value d_n at rows n >= r + 2, so it sums to the
    suffix sum of |d_n|**k from n = r + 2: the same bits as summing the column.
    """
    check_exponent(k)
    kf = float(k)
    _, diag = _row_scaled(A, B, lam, (kf - 1.0) / kf)
    return np.concatenate((suffix_sums(abs_pow(diag, k), A.size), [0, 0]))[2:]
