"""Identity-level verification machinery for the factor theorem.

This module replays the constructive steps of the theorem numerically:
coordinate probes that isolate single hat-matrix columns, the bound
constant linking the two probe norms, the two-part decomposition of the
transformed factored series, the adjacent-inverse algebraic identity, and
the two triangular arrays whose columnwise k-power sums control each part.
Everything here is a finite, checkable computation; nothing asserts the
infinite statements themselves.  On exact inputs each gap of the identity is
one integer expression over its terms' numerators, a Fraction only where nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._util import abs_pow, check_exponent, check_pair, index_pow, named_overflow, nan_max, on_numerators, same_arithmetic, scalar_pow, suffix_sums
from .errors import (
    DegenerateProbeError,
    IndexOutOfRangeError,
    LengthMismatchError,
)
from .conditions import PROBE_DIFFERENCE, PROBE_KINDS, DenseProbes, probe_columns
from .matrices import NormalMatrix, apply_hat, apply_lower, far_inverse, hat_inverse_bands, hat_of
from .series import FactorSequence, SeriesSample

_ROW_SUM_TOL = 1e-12
_ZERO = Fraction(0)  # every zero exact key-identity gap


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


class ProbePass:
    """Both probe kinds at every v = 0..N-1, through A and B, and every reading ``verify`` takes of them.

    The constructor checks once that k >= 1, that A and B have one order
    and that lam holds at least N + 1 factors; no reading checks again.
    ``delta_x`` and ``delta_y`` are :func:`~summakit.conditions.probe_columns`
    of A (unit factors: no column is multiplied) and of B, column v for the
    probe at v.  ``x_norm[kind]`` and ``y_pow[kind]`` hold each probe's
    x-norm and y-norm**k, reduced on first read.  The bound constant
    (:meth:`constant`), the key-identity gaps and the column k-power sums of
    the c_nv and d_nr arrays are reductions of ``delta_y`` with A's bands.
    """

    def __init__(self, A: NormalMatrix, B: NormalMatrix, lam: FactorSequence, k):
        check_exponent(k)
        check_pair(A, B, lam, A.size)
        self.A, self.B, self.k, self.b_diag, self.lv = A, B, k, B.diagonal, lam.values
        self.delta_x = probe_columns(A, None)
        self.delta_y = probe_columns(B, lam.values)

    x_norm = cached_property(lambda self: self.delta_x.pows(1))
    y_pow = cached_property(lambda self: self.delta_y.pows(self.k))

    def _y_norm(self, kind: str, v: int, strict_paper: bool, ypow):
        kf = float(self.k)
        if strict_paper and kind == PROBE_DIFFERENCE:
            w_v = scalar_pow(float(v), kf - 1.0, "the index weight v**(k-1)", v)
            b, f = float(self.b_diag[v]), float(self.lv[v])
            literal = scalar_pow(abs(b * f), kf, "|b_vv lam_v|**k", v)
            ypow = float(ypow) - w_v * literal + w_v * abs(b) * scalar_pow(abs(f), kf, "|lam_v|**k", v)
        return ypow if self.k == 1 else float(ypow) ** (1.0 / kf)

    def constant(self, strict_paper: bool = False):
        """(largest ratio, {kind: float array of the ratios y-norm / x-norm at v = 1..N-1}), read from the norms alone.

        ``strict_paper`` swaps the difference probe's |b_vv lam_v|**k for b_vv |lam_v|**k.
        """
        ratios = {}
        for kind in PROBE_KINDS:
            norms = enumerate(zip(self.x_norm[kind].tolist()[1:], self.y_pow[kind].tolist()[1:]), 1)
            ratios[kind] = np.asarray([_ratio(kind, v, self._y_norm(kind, v, strict_paper, y), x) for v, (x, y) in norms])
        return nan_max(r for kind in PROBE_KINDS for r in ratios[kind].tolist()), ratios

    def definition_gap(self) -> float:
        """The largest gap between A's probe deltas and their definition (:meth:`~summakit.conditions.DenseProbes.definition_gap`)."""
        return self.delta_x.definition_gap()

    def key_identity_gaps(self) -> np.ndarray:
        """The largest gap of :func:`key_identity_check` in each column of the triangle.

        Entry v - 1 is the largest gap at (n, v) over n = v+1..N, for v = 1..N-1,
        read from the ``factored_rows`` of ``delta_y``: blocks of the whole
        triangle, with the same values as the scalar and row calls, or on a
        weighted-mean B one row standing for every row, O(N).  A's bands take
        B's arithmetic (:func:`~summakit._util.same_arithmetic`).
        """
        A, N = self.A, self.A.order
        v = np.arange(1, N)
        bands = np.array([*(band[v] for band in hat_inverse_bands(A)), A.diagonal[v], A.gap(v)], dtype=object if self.B.exact else None)
        same_arithmetic(self.B.exact, bands, "key_identity_gaps")
        bands = on_numerators(np.asarray, bands) if self.B.exact else (bands, None)
        worst = np.zeros(max(N - 1, 0))
        for F, n in self.delta_y.factored_rows():
            gaps = _key_gaps(F[:, 1:N], F[:, 2:], *bands[0], bands[1])
            worst = np.maximum(worst, np.where(n[:, None] > v[None, :], gaps, 0).max(axis=0))  # (n, v) with v <= n - 1
        return worst

    def cnv_column_sums(self, strict_paper: bool = False) -> np.ndarray:
        """Column k-power sums of :func:`build_cnv`'s array, v = 0..N: the ``cnv_sums`` of ``delta_y``.

        On a weighted-mean B the array is not formed: its column sums are W tails
        with index power k - 1, or (k - 1) / k with ``strict_paper``.
        """
        k = self.k
        fac, diag = self._row_scaled(strict_paper)
        return self.delta_y.cnv_sums(self.A, k, fac, diag, (float(k) - 1.0) / float(k) if strict_paper else k - 1)

    def dnr_column_sums(self) -> np.ndarray:
        """Column k-power sums of :func:`build_dnr`'s array, r = 0..N, from one suffix sweep.

        Column r holds the row value d_n at rows n >= r + 2, so it sums to the
        suffix sum of |d_n|**k from n = r + 2: the same bits as summing the column.
        """
        _, diag = self._row_scaled()
        terms = named_overflow(lambda: abs_pow(diag, self.k), diag, "the d_nr row term |d_n|**k", "n")
        return np.concatenate((suffix_sums(terms, self.A.size), [0, 0]))[2:]

    def _row_scaled(self, strict_paper: bool = False):
        """Row factors n**e and the diagonal terms n**e b_nn lam_n / a_nn, e = (k-1)/k, or (k-1)/k**2 with ``strict_paper``.

        The shared set-up of the two column sums, :func:`build_cnv` and
        :func:`build_dnr`; the terms are exact only when both matrices are and
        the row factors are all one.
        """
        A, kf, exact = self.A, float(self.k), self.A.exact and self.B.exact
        expo = (kf - 1.0) / kf**2 if strict_paper else (kf - 1.0) / kf
        fac = index_pow(np.arange(A.size), expo, exact)
        diag = fac * self.b_diag * self.lv[: A.size] / A.diagonal
        return fac, diag if exact and expo == 0.0 else np.asarray(diag, dtype=float)


def _ratio(kind: str, v: int, y_norm, x_norm) -> float:
    if x_norm == 0:
        raise DegenerateProbeError(f"probe {kind} at v={v} has zero x-norm")
    return float(y_norm) / float(x_norm)


def empirical_constant(A: NormalMatrix, B: NormalMatrix, lam: FactorSequence, k, strict_paper: bool = False):
    """Largest probe-norm ratio over v = 1..N-1 and both probe kinds.

    Returns (max ratio, ratios), ``ratios[kind]`` the float array of the
    ratios y-norm / x-norm of that kind's probes at v = 1..N-1
    (:meth:`ProbePass.constant`).  The value is reported evidence for the
    bound constant; it is never asserted to converge.  Every probe is one
    column of the probe matrices of the two full hat matrices; a weighted
    mean's norms are read from its weights.
    """
    return ProbePass(A, B, lam, k).constant(strict_paper)


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

    Each part is B-hat applied to lam times a part of A's hat inverse applied
    to dx, by :func:`~summakit.matrices.apply_hat`, as are dx and dy.  With
    y_v = dx_v / a_vv and BL = B-hat diag(lam), the two parts of t1's middle
    summand, (BL_nv - BL_{n,v+1}) y_v and BL_{n,v+1} gap_v dx_v (A's
    :meth:`~summakit.matrices.NormalMatrix.gap`), regroup by B-hat column, so
    with the diagonal term t1 = hat(B) (lam near), where
    near_v = y_v + gap_{v-1} dx_{v-1} - y_{v-1} is the inverse's diagonal and
    subdiagonal applied to dx, written as in the key identity.  t2 takes the
    part below the subdiagonal (:func:`~summakit.matrices.far_inverse`),
    exactly 0 when it is bidiagonal.  Each part is O(N) on a weighted-mean pair.
    """
    check_pair(A, B, lam, A.size)
    N = A.order
    if len(a) < N + 1:
        raise LengthMismatchError(f"need {N + 1} coefficients, have {len(a)}")
    coeffs = a.coefficients[: N + 1]
    lamv = lam.values[: N + 1]

    dx = apply_hat(A, coeffs)
    dy = apply_hat(B, coeffs * lamv)

    bar0 = B.row_sums  # the leading bar column
    if B.exact:  # then A, the series and the factors are exact too: a mixed call is refused
        v0_retained = any(x != 1 for x in bar0.tolist())
    else:
        v0_retained = bool(np.max(np.abs(bar0 - 1.0)) > _ROW_SUM_TOL)

    y = dx / A.diagonal
    near = y + np.concatenate(([0], A.gap() * dx[:N] - y[:N]))
    t1 = apply_hat(B, lamv * near)
    W = far_inverse(A)  # the inner sums of C16 applied to dx, as two matrix-vector products
    t2 = np.zeros_like(dx) if W is None else apply_hat(B, lamv * apply_lower(W, dx))

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
    the hat matrix B keeps and the hat inverse A keeps.  Every value read
    takes A's arithmetic (:func:`~summakit._util.same_arithmetic`).
    """
    v_lo, v_hi = (np.min(v), np.max(v)) if np.ndim(v) else (v, v)
    if not (1 <= v_lo and v_hi <= n - 1 and n <= A.order):
        raise IndexOutOfRangeError(f"need 1 <= v <= n-1 and n <= {A.order}, got n={n}, v={v}")
    check_pair(A, B, lam, v_hi + 2)
    bh, f = (hat_b or hat_of(B)).entries, lam.values
    inv_d, inv_s = (inv_hat_a.diagonal, inv_hat_a.subdiagonal) if inv_hat_a else hat_inverse_bands(A)
    values = np.array([bh[n, v], f[v], bh[n, v + 1], f[v + 1], inv_d[v], inv_s[v], A.diagonal[v], A.gap(v)], dtype=object if A.exact else None)
    same_arithmetic(A.exact, values, "key_identity_check")
    (h_v, l_v, h_w, l_w, *bands), den = on_numerators(np.asarray, values) if A.exact else (values, None)
    return _key_gaps(h_v * l_v, h_w * l_w, *bands, den)


def _key_gaps(f_v, f_v1, inv_d, inv_s, d, g, den=None):
    """|lhs - rhs| of the adjacent-inverse rearrangement at column(s) v, relative to the size of the two sides.

    ``f_v`` and ``f_v1`` are the factored B-hat entries at v and v + 1 of one
    row, or of every row, column j holding v[j]; ``inv_d`` and ``inv_s`` are
    the A-hat inverse's entries (v, v) and (v + 1, v), ``d`` and ``g`` A's
    diagonal and gap factor at v.  The size is the sum of the absolute values
    of the terms the two sides add, with (f_v - f_v1) / a_vv counted as its
    two terms: the scale of their round-off.  A gap whose terms are all zero is 0.
    Exact, all six are integer numerators, f_v and f_v1 over one positive
    denominator and A's four over ``den``: times both denominators and d,
    lhs - rhs and the size are each one integer expression, and a Fraction is
    formed only where the first is nonzero.
    """
    if den is not None:
        c_d, c_s, c_q, c_g = inv_d * d, inv_s * d, den * den, g * d  # the terms' coefficients of f_v and f_v1
        gap = f_v * (c_d - c_q) + f_v1 * (c_s + c_q - c_g)
        size = lambda: abs(f_v) * (abs(c_d) + c_q) + abs(f_v1) * (abs(c_s) + c_q + abs(c_g))  # noqa: E731
        if not isinstance(gap, np.ndarray):
            return Fraction(abs(gap), size()) if gap else _ZERO
        out = np.full(gap.shape, _ZERO, dtype=object)
        hit = gap != 0
        out[hit] = [Fraction(abs(x), y) for x, y in zip(gap[hit].tolist(), size()[hit].tolist())]
        return out
    lhs = f_v * inv_d, f_v1 * inv_s
    shift = f_v1 * g
    gap = abs(lhs[0] + lhs[1] - ((f_v - f_v1) / d + shift))
    if not np.ndim(gap) and gap == 0:  # 0 / size is 0: the size is not needed
        return gap
    size = abs(lhs[0]) + abs(lhs[1]) + (abs(f_v) + abs(f_v1)) / abs(d) + abs(shift)
    if np.ndim(size):
        return gap / np.where(size == 0, 1, size)
    return gap / size if size else gap


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
    k-th powers carry n**(1-1/k), the literal published weighting.  It is
    formed through B-hat on every B: the reference :meth:`ProbePass.cnv_column_sums` is checked against.
    """
    return DenseProbes(B, lam.values, B.order).cnv(A, *ProbePass(A, B, lam, k)._row_scaled(strict_paper))


def build_dnr(A: NormalMatrix, B: NormalMatrix, lam: FactorSequence, k) -> np.ndarray:
    """Constant-row triangular array bounding the second part.

    d_nr = n**(1-1/k) * b_nn lam_n / a_nn for 0 <= r <= n-2, zero elsewhere.
    """
    _, diag = ProbePass(A, B, lam, k)._row_scaled()
    return np.where(np.tri(A.size, k=-2, dtype=bool), diag[:, None], 0)
