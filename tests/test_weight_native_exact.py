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

import helpers  # noqa: E402
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

    a_rows, b_rows = oracles.to_rows(A), oracles.to_rows(B)
    ah, bh = oracles.hat_rows(a_rows), oracles.hat_rows(b_rows)
    rows = range(N + 1)
    # the weight-native pass, and the dense one over the same matrices' entries
    for probes in (sk.ProbePass(A, B, lam, k), sk.ProbePass(sk.NormalMatrix(A.entries), sk.NormalMatrix(B.entries), lam, k)):
        ratios = probes.constant()[1]
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
                x, y = oracles.x_abs_norm(dx[kind]), oracles.y_pow_norm(dy[kind], k)
                assert probes.x_norm[kind][v] == x
                assert probes.y_pow[kind][v] == y
                if k == 1 and v:  # the ratio is the exact y-norm over the exact x-norm, each rounded once
                    assert ratios[kind][v - 1] == float(y) / float(x)

    weighted = sk.ProbePass(A, B, lam, k)
    cnv = weighted.cnv_column_sums()
    dnr = weighted.dnr_column_sums()
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
    # decompose, the key-identity gaps, the c_nv sums and the probe pass's consistency read a weighted side
    # from its weights; in exact arithmetic every value equals the dense path's on the same matrices' entries
    N = data.draw(st.integers(2, 7), label="N")
    p, q = (data.draw(st.lists(POSITIVE, min_size=N + 1, max_size=N + 1), label=name) for name in "pq")
    lam = sk.FactorSequence(np.asarray(data.draw(st.lists(FACTORS, min_size=N + 2, max_size=N + 2), label="lam"), dtype=object))
    coeffs = np.asarray(data.draw(st.lists(FACTORS, min_size=N + 1, max_size=N + 1), label="a"), dtype=object)
    A, B = (sk.riesz_matrix(sk.WeightSequence(np.asarray(w, dtype=object))) for w in (p, q))
    dense_a, dense_b = sk.NormalMatrix(A.entries), sk.NormalMatrix(B.entries)
    series = sk.SeriesSample(coeffs)

    dense = sk.decompose(dense_a, dense_b, lam, series)
    assert dense.residual == 0 and sk.ProbePass(dense_a, dense_b, lam, 2).definition_gap() == 0
    for X, Y in ((A, B), (A, dense_b), (dense_a, B)):
        dec = sk.decompose(X, Y, lam, series)
        assert dec.residual == 0
        for part in ("t1", "t2", "delta_y"):
            assert list(getattr(dec, part)) == list(getattr(dense, part))
        for strict in (False, True):  # at k = 1 the row factors are one: a weighted-mean Y's O(N) sums are exact
            cnv = sk.l1_lk_bound(sk.build_cnv(X, Y, lam, 1, strict), 1).column_sums
            assert list(sk.ProbePass(X, Y, lam, 1).cnv_column_sums(strict)) == list(cnv)
        gaps = sk.ProbePass(X, Y, lam, 1).key_identity_gaps()
        assert len(gaps) == N - 1 and all(g == 0 for g in gaps)
        assert sk.ProbePass(X, Y, lam, 2).definition_gap() == 0


def test_int_weights_give_the_results_of_fraction_weights():
    # int / int is a float: int weights once made an "exact" weighted mean of float entries, whose C10 and C11 were
    # off in the last bit and whose decomposition was refused.  Every quotient of exact weights is a Fraction
    ints = [1, 2, 3, 5, 7, 11, 13]
    rng = np.random.default_rng(29)
    lam = sk.FactorSequence(helpers.random_rational_vector(rng, 8))
    series = sk.SeriesSample(helpers.random_rational_vector(rng, 7))
    tail = sk.TailSpec(6)

    def results(weights):
        A = sk.riesz_matrix(sk.WeightSequence(np.asarray(weights, dtype=object)))
        reads = (A.entries, A.diagonal, A.subdiagonal, A.row_sums, A.gap(), sk.hat_of(A).entries, sk.hat_inverse(A).entries)
        checks = (sk.check_c10(A, A, lam, 2, tail), sk.check_c11(A, lam, 1, tail), sk.decompose(A, A, lam, series))
        return A.exact, reads, checks, sk.ProbePass(A, A, lam, 2).key_identity_gaps(), A.weights.tail(2, 6, 6)

    exact, reads, *rest = results(ints)
    assert exact and {type(x) for read in reads for x in read.ravel().tolist()} <= {F, int}
    assert helpers.leaves(results(ints)) == helpers.leaves(results([F(x) for x in ints]))
    assert sk.WeightSequence(np.asarray([1.0, 2.0])).weights.dtype == float  # float weights are left as they are
