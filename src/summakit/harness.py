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

import numpy as np

from ._util import abs_pow, check_exponent, check_pair, index_pow, is_exact, nan_max, norm_weights
from .errors import (
    DegenerateProbeError,
    IndexOutOfRangeError,
    LengthMismatchError,
)
from .conditions import _delta, _suffix_sums, _w_terms, column_sums, probe_deltas
from .matrices import NormalMatrix, WeightSequence, apply_lower, hat_columns, hat_inverse, hat_of
from .series import FactorSequence, SeriesSample

PROBE_DIFFERENCE = "difference"
PROBE_SHIFT = "shift"
PROBE_KINDS = (PROBE_DIFFERENCE, PROBE_SHIFT)

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
    check_pair(A, B, lam, v + 2)


def _probe_pows(deltas: dict, k, w: WeightSequence | None, lv) -> dict:
    """Each probe's sum_n n**(k-1) |delta_nv|**k (weight one at n = 0), for both kinds.

    Read from the columns of ``deltas``, or, when the matrix is the weighted
    mean of ``w``, from its weights in O(rows): over rows n > v both probe
    columns are w_n / (W_n W_{n-1}) times -Delta_v (difference) or
    W_v lam_{v+1} (shift), the columns C10 and C11 sum, so each sum is the
    diagonal term plus that factor**k times the W tail T_v through the last row.
    """
    if w is None:
        return {kind: column_sums(d, k, norm_weights(d.shape[0], k, is_exact(d))) for kind, d in deltas.items()}
    last, m = deltas[PROBE_SHIFT].shape[0] - 1, deltas[PROBE_SHIFT].shape[1]
    tail = _suffix_sums(_w_terms(w, k, last), m)
    diag = norm_weights(m, k, is_exact(tail)) * abs_pow(w.weights[:m] / w.cumulative[:m] * lv[:m], k)
    return {
        PROBE_DIFFERENCE: diag + abs_pow(_delta(w, lv, m), k) * tail,
        PROBE_SHIFT: abs_pow(w.cumulative[:m] * lv[1 : m + 1], k) * tail,
    }


class ProbePass:
    """Both probe kinds at every v = 0..m-1, read off hat columns 0..m of A and B.

    ``hat_a`` and ``hat_b`` are those hat columns, all of them when not
    given.  ``delta_x[kind]`` and ``delta_y[kind]`` hold the deltas through A
    and B, column v for the probe at v (see
    :func:`~summakit.conditions.probe_deltas`); ``x_norm[kind]`` and
    ``y_pow[kind]`` hold each probe's x-norm and y-norm**k, read from the
    weights of a matrix that carries them (:func:`_probe_pows`).
    """

    def __init__(
        self,
        A: NormalMatrix,
        B: NormalMatrix,
        lam: FactorSequence,
        k,
        hat_a: np.ndarray | None = None,
        hat_b: np.ndarray | None = None,
    ):
        hat_a = hat_of(A).entries if hat_a is None else hat_a
        hat_b = hat_of(B).entries if hat_b is None else hat_b
        unit = np.ones(hat_a.shape[1], dtype=object if is_exact(hat_a) and is_exact(hat_b) else float)
        self.k, self.b_diag, self.lv = k, np.diagonal(hat_b), lam.values
        self.delta_x = dict(zip(PROBE_KINDS, probe_deltas(hat_a, unit)))
        self.delta_y = dict(zip(PROBE_KINDS, probe_deltas(hat_b, lam.values)))
        self.x_norm = _probe_pows(self.delta_x, 1, A.weights, unit)
        self.y_pow = _probe_pows(self.delta_y, k, B.weights, lam.values)

    def probe(self, kind: str, v: int, strict_paper: bool = False) -> ProbeResult:
        """The probe at v; ``strict_paper`` swaps the difference probe's |b_vv lam_v|**k for b_vv |lam_v|**k."""
        kf = float(self.k)
        ypow = self.y_pow[kind][v]
        if strict_paper and kind == PROBE_DIFFERENCE:
            w_v = 1.0 if v == 0 else float(v) ** (kf - 1.0)
            b, f = float(self.b_diag[v]), float(self.lv[v])
            ypow = float(ypow) - w_v * abs(b * f) ** kf + w_v * abs(b) * abs(f) ** kf
        yn = ypow if self.k == 1 else float(ypow) ** (1.0 / kf)
        return ProbeResult(kind, v, self.delta_x[kind][:, v], self.delta_y[kind][:, v], self.x_norm[kind][v], yn)

    def constant(self, strict_paper: bool = False):
        """(largest ratio, records (kind, v, ratio)) over v = 1..m-1 and both kinds."""
        records = [
            (kind, v, inequality20_ratio(self.probe(kind, v, strict_paper)))
            for kind in PROBE_KINDS
            for v in range(1, self.x_norm[kind].size)
        ]
        return nan_max(r for _, _, r in records), records


def run_probe(
    A: NormalMatrix, B: NormalMatrix, lam: FactorSequence, v: int, kind: str, k, strict_paper: bool = False
) -> ProbeResult:
    """Apply one coordinate probe through both matrices and take the norms.

    The deltas are column v of the probe matrices of hat columns 0..v+1;
    ``cli verify`` checks those columns against the definition, the first
    difference of A applied to the probe's partial sums, in its
    probe-consistency row.  ``strict_paper`` switches the difference-probe
    y-norm diagonal term from |b_vv lam_v|**k to b_vv |lam_v|**k (first
    power on b_vv) for side-by-side comparison of the two published
    readings.
    """
    _check_probe_args(A, B, lam, v, k)
    return ProbePass(A, B, lam, k, hat_columns(A, v + 1), hat_columns(B, v + 1)).probe(kind, v, strict_paper)


def inequality20_ratio(probe: ProbeResult) -> float:
    """Ratio of the probe's y-norm to its x-norm."""
    if probe.x_norm == 0:
        raise DegenerateProbeError(f"probe {probe.probe_kind} at v={probe.v} has zero x-norm")
    return float(probe.y_norm) / float(probe.x_norm)


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
    """D / a_vv + S (a_vv - a_{v+1,v}) / (a_vv a_{v+1,v+1}), v < N.

    D and S are the difference and shift probe matrices of B-hat and the
    factors ``lv``; the result is the first part's middle summand, shared by
    :func:`decompose` and :func:`build_cnv`.
    """
    Ad = A.diagonal
    gap = (Ad[:-1] - np.diagonal(A.entries, -1)) / (Ad[:-1] * Ad[1:])
    D, S = probe_deltas(hat_of(B).entries, lv)
    D = D / Ad[:-1][None, :]  # a new array: the differences are freed before S * gap is formed
    D += S * gap[None, :]
    return D


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
    """
    check_pair(A, B, lam, A.size)
    N = A.order
    if len(a) < N + 1:
        raise LengthMismatchError(f"need {N + 1} coefficients, have {len(a)}")
    exact = A.exact and B.exact
    coeffs = a.coefficients[: N + 1]
    lamv = lam.values[: N + 1]

    bh = hat_of(B).entries
    dx = apply_lower(hat_of(A), coeffs)
    dy = apply_lower(bh, coeffs * lamv)

    bar0 = B.entries.sum(axis=1)  # the leading bar column
    if exact:
        v0_retained = any(x != 1 for x in bar0.tolist())
    else:
        v0_retained = bool(np.max(np.abs(bar0 - 1.0)) > _ROW_SUM_TOL)

    t1 = B.diagonal * lamv / A.diagonal * dx
    if N:
        t1 = t1 + np.tril(_middle_summands(A, B, lamv), -1) @ dx[:N]

    # the inner sums of C16 applied to dx, as two matrix-vector products
    t2 = (bh * lamv[None, :]) @ (np.tril(hat_inverse(A).entries, -2) @ dx)

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
    """Absolute gap in the adjacent-inverse rearrangement at one (n, v).

    Left side uses entries of the computed hat inverse; right side uses
    only entries of A (and the B-hat factors shared by both).  The two are
    algebraically identical, so the return value is pure numerical error.
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
    return _key_gaps(bh[n, v] * f[v], bh[n, v + 1] * f[v + 1], (inv_hat_a or hat_inverse(A)).entries, A.entries, v)


def key_identity_gaps(A: NormalMatrix, B: NormalMatrix, lam: FactorSequence) -> np.ndarray:
    """Every gap of :func:`key_identity_check` in one evaluation over the triangle.

    Entry [n, v - 1] is the gap at (n, v) for 1 <= v <= n - 1 <= N - 1, with
    the same bits as the scalar and row calls, and zero outside that range.
    """
    N = A.order
    check_pair(A, B, lam, N + 1)
    F = hat_of(B).entries * lam.values[None, : N + 1]
    gaps = _key_gaps(F[:, 1:N], F[:, 2:], hat_inverse(A).entries, A.entries, np.arange(1, N))
    return np.where(np.tri(N + 1, max(N - 1, 0), -2, dtype=bool), gaps, 0)


def _key_gaps(f_v, f_v1, ahp, E, v):
    """|lhs - rhs| of the adjacent-inverse rearrangement at column(s) v.

    ``f_v`` and ``f_v1`` are the factored B-hat entries at v and v + 1 of one
    row, or of every row, column j holding v[j]; ``ahp`` is the A-hat inverse.
    """
    lhs = f_v * ahp[v, v] + f_v1 * ahp[v + 1, v]
    rhs = (f_v - f_v1) / E[v, v] + f_v1 * (E[v, v] - E[v + 1, v]) / (E[v, v] * E[v + 1, v + 1])
    return abs(lhs - rhs)


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

    For a weighted-mean pair, weights p of A and q of B, the array is not
    formed.  The gap factor of a weighted mean is exactly 1, so below the
    diagonal column v is n**e q_n / (Q_n Q_{n-1}) (Q_v lam_{v+1} -
    Delta_v P_v / p_v), with n**e the row factor, and column v >= 1 sums to
    v**(e k) |b_vv lam_v / a_vv|**k + |Q_v lam_{v+1} - Delta_v P_v / p_v|**k T_v:
    T_v is the W tail through row N with index power e k, which is k - 1, or
    (k - 1) / k with ``strict_paper``.
    """
    check_exponent(k)
    if A.weights is None or B.weights is None:
        return column_sums(build_cnv(A, B, lam, k, strict_paper), k)
    check_pair(A, B, lam, A.size)
    N, size = A.order, A.size
    power = (float(k) - 1.0) / float(k) if strict_paper else k - 1
    p, q, lv = A.weights, B.weights, lam.values
    tail = _suffix_sums(_w_terms(q, k, N, power), N)
    ratio = q.weights[:size] / q.cumulative[:size] * lv[:size] / (p.weights[:size] / p.cumulative[:size])
    diag = index_pow(np.arange(size), power, is_exact(tail)) * abs_pow(ratio, k)
    mid = q.cumulative[:N] * lv[1:size] - _delta(q, lv, N) * p.cumulative[:N] / p.weights[:N]
    sums = diag + np.concatenate((abs_pow(mid, k) * tail, [0]))
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
    return np.concatenate((_suffix_sums(abs_pow(diag, k), A.size), [0, 0]))[2:]
