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

from ._util import check_exponent, check_pair, index_pow, is_exact
from .errors import (
    DegenerateProbeError,
    IndexOutOfRangeError,
    LengthMismatchError,
)
from .conditions import inner_sums
from .matrices import NormalMatrix, apply_lower, hat_columns, hat_inverse, hat_of
from .series import FactorSequence, SeriesSample, x_norm, y_norm_pow

PROBE_DIFFERENCE = "difference"
PROBE_SHIFT = "shift"

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
    if kind not in (PROBE_DIFFERENCE, PROBE_SHIFT):
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


def _piecewise_probe_deltas(hat_cols: np.ndarray, v: int, kind: str, f_v, f_v1) -> np.ndarray:
    """Closed-form probe deltas from two hat columns scaled by f_v, f_{v+1}."""
    size = hat_cols.shape[0]
    exact = is_exact(hat_cols)
    out = np.zeros(size, dtype=object if exact else float)
    if kind == PROBE_DIFFERENCE:
        out[v] = hat_cols[v, v] * f_v
        out[v + 1 :] = hat_cols[v + 1 :, v] * f_v - hat_cols[v + 1 :, v + 1] * f_v1
    else:
        out[v + 1 :] = hat_cols[v + 1 :, v + 1] * f_v1
    return out


def _check_probe_args(A: NormalMatrix, B: NormalMatrix, lam: FactorSequence, v: int, k) -> None:
    check_exponent(k)
    if not 0 <= v <= A.order - 1:
        raise IndexOutOfRangeError(f"probe index v={v} needs v+1 <= {A.order}")
    check_pair(A, B, lam, v + 2)


def _probe(ah, bh, lam: FactorSequence, v: int, kind: str, k, strict_paper: bool) -> ProbeResult:
    """One probe from hat columns of A (``ah``) and B (``bh``) through v+1."""
    one = 1 if is_exact(ah) and is_exact(bh) else 1.0
    dx = _piecewise_probe_deltas(ah, v, kind, one, one)
    dy = _piecewise_probe_deltas(bh, v, kind, lam.values[v], lam.values[v + 1])
    xn = x_norm(dx)
    ypow = y_norm_pow(dy, k)
    if strict_paper and kind == PROBE_DIFFERENCE:
        w_v = 1.0 if v == 0 else float(v) ** (float(k) - 1.0)
        diag_term = w_v * abs(float(bh[v, v]) * float(lam.values[v])) ** float(k)
        strict_term = w_v * abs(float(bh[v, v])) * abs(float(lam.values[v])) ** float(k)
        ypow = float(ypow) - diag_term + strict_term
    if k == 1:
        yn = ypow
    else:
        yn = float(ypow) ** (1.0 / float(k))
    return ProbeResult(kind, v, dx, dy, xn, yn)


def run_probe(
    A: NormalMatrix,
    B: NormalMatrix,
    lam: FactorSequence,
    v: int,
    kind: str,
    k,
    strict_paper: bool = False,
) -> ProbeResult:
    """Apply one coordinate probe through both matrices and take the norms.

    The deltas come from the piecewise closed forms on hat columns v and
    v+1; ``cli verify`` checks those closed forms against the generic hat
    transform once per run, in its probe-consistency row.  ``strict_paper``
    switches the difference-probe y-norm diagonal term from
    |b_vv lam_v|**k to b_vv |lam_v|**k (first power on b_vv) for
    side-by-side comparison of the two published readings.
    """
    _check_probe_args(A, B, lam, v, k)
    return _probe(hat_columns(A, v + 1), hat_columns(B, v + 1), lam, v, kind, k, strict_paper)


def inequality20_ratio(probe: ProbeResult) -> float:
    """Ratio of the probe's y-norm to its x-norm."""
    if probe.x_norm == 0:
        raise DegenerateProbeError(f"probe {probe.probe_kind} at v={probe.v} has zero x-norm")
    return float(probe.y_norm) / float(probe.x_norm)


def empirical_constant(
    A: NormalMatrix,
    B: NormalMatrix,
    lam: FactorSequence,
    k,
    kinds: tuple = (PROBE_DIFFERENCE, PROBE_SHIFT),
    strict_paper: bool = False,
):
    """Largest probe-norm ratio over v = 1..N-1 and both probe kinds.

    Returns (max ratio, records) where each record is (kind, v, ratio).
    The value is reported evidence for the bound constant; it is never
    asserted to converge.  Both hat matrices are built once and every
    probe reads its two columns from them.
    """
    records = []
    if A.order < 2:
        return 0.0, records
    _check_probe_args(A, B, lam, A.order - 1, k)
    ah = hat_of(A).entries
    bh = hat_of(B).entries
    for kind in kinds:
        for v in range(1, A.order):
            probe = _probe(ah, bh, lam, v, kind, k, strict_paper)
            records.append((kind, v, inequality20_ratio(probe)))
    best = max((r for _, _, r in records), default=0.0)
    return best, records


def _middle_summands(A: NormalMatrix, BL: np.ndarray) -> np.ndarray:
    """(BL[n,v] - BL[n,v+1]) / a_vv + BL[n,v+1] (a_vv - a_{v+1,v}) / (a_vv a_{v+1,v+1}), v < N.

    ``BL`` is the B hat matrix with column v scaled by lam_v; the result is
    the first part's middle summand, shared by :func:`decompose` and
    :func:`build_cnv`.
    """
    Ad = A.diagonal
    gap = (Ad[:-1] - np.diagonal(A.entries, -1)) / (Ad[:-1] * Ad[1:])
    return (BL[:, :-1] - BL[:, 1:]) / Ad[:-1][None, :] + BL[:, 1:] * gap[None, :]


def decompose(
    A: NormalMatrix,
    B: NormalMatrix,
    lam: FactorSequence,
    a: SeriesSample,
    hat_a: NormalMatrix | None = None,
    hat_b: NormalMatrix | None = None,
    inv_hat_a: NormalMatrix | None = None,
) -> Decomposition:
    """Split the B-transformed factored deltas into the two bounded parts.

    t1 carries the diagonal term plus the columnwise-difference and
    gap-correction sums; t2 carries the double sum over the inverted hat
    matrix.  The middle sums run from v = 0: when the second matrix has
    unit leading bar column the v = 0 contribution reduces to the term the
    classical display keeps implicit (and vanishes when the first matrix
    does too), otherwise it is exactly the retained first-column term and
    ``v0_retained`` is set.  Pass ``hat_a`` / ``hat_b`` / ``inv_hat_a`` to
    share them between decompositions of several series.
    """
    check_pair(A, B, lam, A.size)
    N = A.order
    if len(a) < N + 1:
        raise LengthMismatchError(f"need {N + 1} coefficients, have {len(a)}")
    exact = A.exact and B.exact
    coeffs = a.coefficients[: N + 1]
    lamv = lam.values[: N + 1]

    bh = (hat_b or hat_of(B)).entries
    dx = apply_lower(hat_a or hat_of(A), coeffs)
    dy = apply_lower(bh, coeffs * lamv)

    bar0 = B.entries.sum(axis=1)  # the leading bar column
    if exact:
        v0_retained = any(x != 1 for x in bar0.tolist())
    else:
        v0_retained = bool(np.max(np.abs(bar0 - 1.0)) > _ROW_SUM_TOL)

    BL = bh * lamv[None, :]
    t1 = B.diagonal * lamv / A.diagonal * dx
    if N:
        t1 = t1 + np.tril(_middle_summands(A, BL), -1) @ dx[:N]

    t2 = inner_sums(BL, (inv_hat_a or hat_inverse(A)).entries) @ dx

    residual = max(abs(x) for x in (dy - t1 - t2).tolist())
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
    of its entries.  Pass ``hat_b`` / ``inv_hat_a`` to amortize the
    inversion over sweeps.
    """
    v_lo, v_hi = (np.min(v), np.max(v)) if np.ndim(v) else (v, v)
    if not (1 <= v_lo and v_hi <= n - 1 and n <= A.order):
        raise IndexOutOfRangeError(f"need 1 <= v <= n-1 and n <= {A.order}, got n={n}, v={v}")
    check_pair(A, B, lam, v_hi + 2)
    bh = (hat_b or hat_of(B)).entries
    ahp = (inv_hat_a or hat_inverse(A)).entries
    E = A.entries
    f_v = bh[n, v] * lam.values[v]
    f_v1 = bh[n, v + 1] * lam.values[v + 1]
    lhs = f_v * ahp[v, v] + f_v1 * ahp[v + 1, v]
    rhs = (f_v - f_v1) / E[v, v] + f_v1 * (E[v, v] - E[v + 1, v]) / (E[v, v] * E[v + 1, v + 1])
    return abs(lhs - rhs)


def _row_scaled(A: NormalMatrix, B: NormalMatrix, lam: FactorSequence, expo: float):
    """Row factors n**expo, the diagonal terms n**expo b_nn lam_n / a_nn, and a zero array.

    The shared set-up of :func:`build_cnv` and :func:`build_dnr`; the array
    is exact only when both matrices are and the row factors are all one.
    """
    check_pair(A, B, lam, A.size)
    exact = A.exact and B.exact
    fac = index_pow(np.arange(A.size), expo, exact)
    diag = fac * B.diagonal * lam.values[: A.size] / A.diagonal
    return fac, diag, np.zeros((A.size, A.size), dtype=object if exact and expo == 0.0 else float)


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
    fac, diag, out = _row_scaled(A, B, lam, (kf - 1.0) / kf**2 if strict_paper else (kf - 1.0) / kf)
    N = A.order
    if N:
        BL = hat_of(B).entries * lam.values[: N + 1][None, :]
        mid = np.tril(_middle_summands(A, BL), -1) * fac[:, None]
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
    _, diag, out = _row_scaled(A, B, lam, (kf - 1.0) / kf)
    for n in range(2, A.size):
        out[n, : n - 1] = diag[n]
    return out
