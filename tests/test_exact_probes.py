"""The exact probe kernels against per-entry Fraction oracles, on random rational pairs.

On an exact pair the probe arrays are carriers, integers over one
denominator (``_util.Rational``), and each probe norm, tail sum, column sum and c_nv entry is
formed from them once: one Fraction (or int) per result, or one correctly
rounded float.  Exact results must equal the oracles of ``tests/oracles.py``,
which form a Fraction per operation, and a float result must have the bits
of the float code run on the oracle's values, each rounded once.
"""

from fractions import Fraction as F

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import summakit as sk  # noqa: E402
from summakit import _util  # noqa: E402
from summakit._util import Rational  # noqa: E402
from summakit.conditions import DenseProbes, column_sums, inner_sums, probe_columns  # noqa: E402

import helpers  # noqa: E402
import oracles  # noqa: E402

KINDS = (sk.PROBE_DIFFERENCE, sk.PROBE_SHIFT)
PAIRS = dict(seed=st.integers(0, 2**32 - 1), order=st.integers(2, 7), stochastic=st.booleans())
KS = st.sampled_from([1, 2, 3])


def random_pair(seed, order, stochastic):
    """Rational A and B, row-stochastic or general, and rational factors through order + 1, with their oracle rows."""
    rng = np.random.default_rng(seed)
    make = helpers.random_rational_row_stochastic if stochastic else helpers.random_rational_matrix
    A, B = make(rng, order), make(rng, order)
    lam = sk.FactorSequence(helpers.random_rational_vector(rng, order + 2))
    return A, B, lam, oracles.to_rows(A), oracles.to_rows(B), list(lam.values)


def columns(rows):
    return [list(col) for col in zip(*rows)]


@settings(max_examples=20, deadline=None)
@given(k=KS, **PAIRS)
def test_probe_norms_equal_the_oracle(seed, order, stochastic, k):
    A, B, lam, a_rows, b_rows, lv = random_pair(seed, order, stochastic)
    probes = sk.ProbePass(A, B, lam, k)
    x_side = oracles.probe_rows(oracles.hat_rows(a_rows))
    y_side = oracles.probe_rows(oracles.hat_rows(b_rows), lv)
    for kind, dx, dy in zip(KINDS, x_side, y_side):
        assert probes.x_norm[kind].tolist() == [oracles.x_abs_norm(col) for col in columns(dx)]
        assert probes.y_pow[kind].tolist() == [oracles.y_pow_norm(col, k) for col in columns(dy)]


@settings(max_examples=20, deadline=None)
@given(k=KS, cut=st.integers(0, 7), **PAIRS)
def test_probe_tails_and_their_last_terms_equal_the_oracle(seed, order, stochastic, k, cut):
    A, B, lam, _, b_rows, lv = random_pair(seed, order, stochastic)
    rows = 1 + cut % order
    m = 1 + cut % rows
    bh = oracles.hat_rows(b_rows)
    for kind, tail in zip(KINDS, (oracles.c10_tail, oracles.c11_tail)):
        totals, last = probe_columns(B, lam.values, m).tails(kind, k, rows)
        assert totals.tolist() == [tail(bh, lv, k, v, rows) for v in range(m)]
        assert last.tolist() == [tail(bh, lv, k, v, rows) - tail(bh, lv, k, v, rows - 1) for v in range(m)]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 8), width=st.integers(2, 6), k=KS, lower=st.booleans())
def test_column_sums_equal_the_oracle(seed, size, width, k, lower):
    # column 0 is zeros and column 1 ints, whose sum is an integer; the weights are ints or Fractions
    rng = np.random.default_rng(seed)
    M = np.asarray([[helpers.random_rational(rng) for _ in range(width)] for _ in range(size)], dtype=object)
    M[:, 0] = 0
    M[:, 1] = rng.integers(-3, 4, size).tolist()
    rows = M.tolist()
    w = [int(x) for x in rng.integers(1, 9, size)]
    w = np.asarray(w if rng.random() < 0.5 else [F(x, 4) for x in w], dtype=object)
    for weights in (None, w):
        got = column_sums(M, k, weights, lower)
        assert got.tolist() == oracles.column_pow_sums(rows, k, None if weights is None else w.tolist(), lower)
        assert got[0] == 0 and (weights is not None or F(got[1]).denominator == 1)
        # the same values given as their carrier, integers over one denominator
        assert column_sums(Rational.of(M), k, weights, lower).tolist() == got.tolist()
    bound = sk.l1_lk_bound(M, k)
    assert bound.column_sums.tolist() == oracles.column_pow_sums(rows, k)
    assert bound.sup == float(max(oracles.column_pow_sums(rows, k)))
    # a non-integer k rounds each exact entry and each exact weight once, then sums as the float path does
    for weights, floats in ((None, None), (w, w.astype(float))):
        assert column_sums(M, 1.5, weights, lower).tobytes() == column_sums(M.astype(float), 1.5, floats, lower).tobytes()


@settings(max_examples=20, deadline=None)
@given(k=KS, strict=st.booleans(), **PAIRS)
def test_cnv_and_its_column_sums_equal_the_oracle(seed, order, stochastic, k, strict):
    A, B, lam, a_rows, b_rows, lv = random_pair(seed, order, stochastic)
    exact = oracles.cnv_rows(a_rows, b_rows, lv)
    C = sk.build_cnv(A, B, lam, k, strict)
    sums = sk.ProbePass(A, B, lam, k).cnv_column_sums(strict)
    if k == 1:  # the row factors are n**0 = 1: the array and its sums are exact
        assert C.tolist() == exact
        assert sums.tolist() == [oracles.cnv_colsum_pow(a_rows, b_rows, lv, 1, v) for v in range(order + 1)]
        assert sk.l1_lk_bound(C, 1).column_sums.tolist() == oracles.column_pow_sums(exact, 1)
        return
    fac = np.arange(order + 1, dtype=float) ** ((k - 1) / k**2 if strict else (k - 1) / k)
    want = np.zeros((order + 1, order + 1))
    for n in range(1, order + 1):
        want[n, n] = fac[n] * float(b_rows[n][n]) * float(lv[n]) / float(a_rows[n][n])
        want[n, 1:n] = [float(x) * fac[n] for x in exact[n][1:n]]
    assert C.tobytes() == want.tobytes()
    assert sums.tobytes() == column_sums(want, k, lower=True).tobytes()


@settings(max_examples=20, deadline=None)
@given(**PAIRS)
def test_c16_rounds_each_oracle_entry_once(seed, order, stochastic):
    A, B, lam, a_rows, b_rows, lv = random_pair(seed, order, stochastic)
    bh, inverse = oracles.hat_rows(b_rows), oracles.lower_inverse(oracles.hat_rows(a_rows))
    size = order + 1
    BL = np.array([[float(abs(bh[n][v] * lv[v])) for v in range(size)] for n in range(size)])
    W = np.array([[float(abs(inverse[n][r])) if r <= n - 2 else 0.0 for r in range(size)] for n in range(size)])
    inner = inner_sums(BL, W)
    nums = np.array([0.0, 0.0] + [inner[n, : n - 1].max() for n in range(2, size)])
    den = np.array([abs(float(b_rows[n][n]) / float(a_rows[n][n])) * abs(float(lv[n])) for n in range(size)])
    with np.errstate(divide="ignore", invalid="ignore"):
        want = np.where(den == 0.0, np.where(nums == 0.0, 0.0, np.inf), nums / den)[1:]
    assert sk.check_c16(A, B, lam).ratios.tobytes() == want.tobytes()


def test_the_probe_norms_and_cnv_form_no_fraction_per_entry(monkeypatch):
    # the exact-oracle inputs, with the hat matrices and A's gap factor already kept: the probe norms form one
    # Fraction per column of D and S on each side at most, and the c_nv array, on float row factors, none
    A, B, lam, _ = helpers.exact_oracle_inputs(seed=1, order=24)
    sk.hat_of(A), sk.hat_of(B), A.gap()
    made, new = [0], F.__new__

    def counted(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counted)
    sk.empirical_constant(A, B, lam, 2)
    norms, made[0] = made[0], 0
    C = sk.build_cnv(A, B, lam, 2)
    monkeypatch.undo()
    assert norms <= 4 * 24
    assert made[0] == 0 and C.dtype == float


def test_a_tail_carriers_hat_columns_are_summed_on_its_numerators(monkeypatch):
    # C10 on a 41-row exact carrier at v_max = 6: the carrier is converted to integers once, and its leading
    # hat columns are summed on them and read so, with no Fraction formed per entry and none converted back
    rng = np.random.default_rng(11)
    A, B = helpers.random_rational_matrix(rng, 6), helpers.random_rational_matrix(rng, 40)
    lam = sk.FactorSequence(helpers.random_rational_vector(rng, 41))
    want = sk.hat_columns(B, 7).fractions()
    B = sk.NormalMatrix(B.entries)  # nothing kept on it yet
    converted, real = [], _util.numerators

    def counted(values):
        converted.append(np.shape(values))
        return real(values)

    monkeypatch.setattr(_util, "numerators", counted)
    H = DenseProbes(B, lam.values, 7).H
    assert converted == [(41, 41)] and isinstance(H, Rational)
    sk.check_c10(A, B, lam, 2, sk.TailSpec(cutoff=40), v_max=6)
    assert [shape for shape in converted if len(shape) == 2 and shape[0] == 41] == [(41, 41)]
    monkeypatch.undo()
    assert H.fractions().tolist() == want.tolist()
