"""Weight-native probe norms and column sums against the rational oracles.

Random positive rational weights for A and B, rational factors and an
integer k: the weight-native path then runs in exact arithmetic, so every
value must equal its brute-force oracle exactly.
"""

from fractions import Fraction as F

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import summakit as sk  # noqa: E402

import oracles  # noqa: E402

POSITIVE = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9)
FACTORS = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_weight_native_sums_equal_the_rational_oracles(data):
    N = data.draw(st.integers(2, 7), label="N")
    k = data.draw(st.sampled_from([1, 2, 3]), label="k")
    p, q = (data.draw(st.lists(POSITIVE, min_size=N + 1, max_size=N + 1), label=name) for name in "pq")
    lam_vals = data.draw(st.lists(FACTORS, min_size=N + 2, max_size=N + 2), label="lam")
    A, B = (sk.riesz_matrix(sk.WeightSequence(np.asarray(w, dtype=object))) for w in (p, q))
    lam = sk.FactorSequence(np.asarray(lam_vals, dtype=object))

    probes = sk.ProbePass(A, B, lam, k)
    a_rows, b_rows = oracles.to_rows(A), oracles.to_rows(B)
    ah, bh = oracles.hat_rows(a_rows), oracles.hat_rows(b_rows)
    rows = range(N + 1)
    for v in range(N):
        dx = {
            sk.PROBE_DIFFERENCE: [ah[n][v] - ah[n][v + 1] for n in rows],
            sk.PROBE_SHIFT: [ah[n][v + 1] for n in rows],
        }
        dy = {
            sk.PROBE_DIFFERENCE: [bh[n][v] * lam_vals[v] - bh[n][v + 1] * lam_vals[v + 1] for n in rows],
            sk.PROBE_SHIFT: [bh[n][v + 1] * lam_vals[v + 1] for n in rows],
        }
        for kind in dx:
            assert probes.x_norm[kind][v] == oracles.x_abs_norm(dx[kind])
            assert probes.y_pow[kind][v] == oracles.y_pow_norm(dy[kind], k)

    cnv = sk.cnv_column_sums(A, B, lam, k)
    dnr = sk.dnr_column_sums(A, B, lam, k)
    for v in range(N + 1):
        assert cnv[v] == oracles.cnv_colsum_pow(a_rows, b_rows, lam_vals, k, v)
        expected = oracles.dnr_colsum_pow(a_rows, b_rows, lam_vals, k, v)
        if k == 1:  # the row factors n**(1-1/k) are irrational for k > 1
            assert dnr[v] == expected
        else:
            assert float(dnr[v]) == pytest.approx(float(expected), rel=1e-13, abs=1e-300)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_weight_native_verify_rows_equal_the_dense_rows_exactly(data):
    # decompose, the key-identity gaps and the probe pass read a weighted side from its weights;
    # in exact arithmetic every value equals the dense path's on the same matrices' entries
    N = data.draw(st.integers(2, 7), label="N")
    p, q = (data.draw(st.lists(POSITIVE, min_size=N + 1, max_size=N + 1), label=name) for name in "pq")
    lam = sk.FactorSequence(np.asarray(data.draw(st.lists(FACTORS, min_size=N + 2, max_size=N + 2), label="lam"), dtype=object))
    coeffs = np.asarray(data.draw(st.lists(FACTORS, min_size=N + 1, max_size=N + 1), label="a"), dtype=object)
    A, B = (sk.riesz_matrix(sk.WeightSequence(np.asarray(w, dtype=object))) for w in (p, q))
    dense_a, dense_b = sk.NormalMatrix(A.entries), sk.NormalMatrix(B.entries)
    series = sk.SeriesSample(coeffs)

    dense = sk.decompose(dense_a, dense_b, lam, series)
    dense_probes = sk.ProbePass(dense_a, dense_b, lam, 2)
    assert dense.residual == 0 and dense_probes.definition_gap() == 0
    for X, Y in ((A, B), (A, dense_b), (dense_a, B)):
        dec = sk.decompose(X, Y, lam, series)
        assert dec.residual == 0
        for part in ("t1", "t2", "delta_y"):
            assert list(getattr(dec, part)) == list(getattr(dense, part))
        gaps = sk.key_identity_gaps(X, Y, lam)
        assert len(gaps) == N - 1 and all(g == 0 for g in gaps)
        probes = sk.ProbePass(X, Y, lam, 2)
        assert probes.definition_gap() == 0
        for kind in (sk.PROBE_DIFFERENCE, sk.PROBE_SHIFT):
            for v in range(N):
                got, want = probes.probe(kind, v), dense_probes.probe(kind, v)
                assert list(got.delta_x) == list(want.delta_x) and list(got.delta_y) == list(want.delta_y)
                assert (got.x_norm, got.y_norm) == (want.x_norm, want.y_norm)
