import math
import re
from fractions import Fraction as F

import numpy as np
import pytest

import summakit as sk
from summakit._util import _CHUNK, suffix_sums
from summakit.conditions import TREND_BOUNDED, TREND_GROWING, inner_sums
from summakit.errors import BadExponentError, LengthMismatchError, PowerOverflowError, SizeMismatchError, TailUnavailableError

import helpers
import oracles


def test_c9_equal_matrices_unit_factors():
    A = sk.cesaro_matrix(40)
    rep = sk.check_c9(A, A, helpers.ones_factors(42), 1)
    np.testing.assert_allclose(rep.ratios, np.ones(40))
    assert rep.trend == TREND_BOUNDED
    assert rep.sup_ratio == 1.0
    np.testing.assert_array_equal(rep.indices, np.arange(1, 41))


def test_c9_k2_matched_decay_is_flat():
    A = sk.cesaro_matrix(60)
    lam = sk.FactorSequence(np.concatenate([[1.0], np.arange(1, 62) ** -0.5]))
    rep = sk.check_c9(A, A, lam, 2)
    np.testing.assert_allclose(rep.ratios, np.ones(60), rtol=1e-13)
    assert rep.trend == TREND_BOUNDED


def test_c9_k2_constant_factors_grow():
    A = sk.cesaro_matrix(60)
    rep = sk.check_c9(A, A, helpers.ones_factors(62), 2)
    np.testing.assert_allclose(rep.ratios, np.sqrt(np.arange(1, 61)), rtol=1e-13)
    assert rep.trend == TREND_GROWING


def test_c9_size_mismatch():
    with pytest.raises(SizeMismatchError):
        sk.check_c9(sk.cesaro_matrix(4), sk.cesaro_matrix(5), helpers.ones_factors(10), 1)


def test_c10_zero_factors():
    A = sk.cesaro_matrix(8)
    B = sk.cesaro_matrix(64)
    rep = sk.check_c10(A, B, sk.FactorSequence(np.zeros(10)), 1, sk.TailSpec(64), v_max=8)
    assert np.all(rep.ratios == 0)


def test_c10_identity_closed_form():
    # identity hat is identity: only the n = v+1 term survives
    rng = np.random.default_rng(31)
    lam_vals = rng.uniform(-2, 2, 34)
    for k in (1, 2.0):
        rep = sk.check_c10(
            sk.identity_matrix(8),
            sk.identity_matrix(32),
            sk.FactorSequence(lam_vals),
            k,
            sk.TailSpec(32),
            v_max=8,
        )
        v = np.arange(9)
        expected = (v + 1.0) ** (float(k) - 1.0) * np.abs(lam_vals[1:10]) ** float(k)
        np.testing.assert_allclose(rep.ratios, expected, rtol=1e-13)


def test_c10_refuses_too_few_factors_a_carrier_with_no_tail_rows_and_a_short_a():
    A, lam, tail = sk.cesaro_matrix(6), sk.FactorSequence(np.ones(5)), sk.TailSpec(cutoff=40)
    with pytest.raises(LengthMismatchError, match=r"^need 8 factors, have 5$"):
        sk.check_c10(A, A, lam, 2, tail, v_max=6)
    with pytest.raises(TailUnavailableError, match=r"^carrier of order 0 has no tail rows at all$"):
        sk.check_c10(A, sk.cesaro_matrix(0), lam, 2, tail, v_max=0)
    with pytest.raises(SizeMismatchError, match=r"^diagonal source of order 3 cannot cover v <= 5$"):
        sk.check_c10(sk.cesaro_matrix(3), A, lam, 2, tail, v_max=5)


def test_tail_spec_refuses_a_bad_cutoff_and_warn_threshold():
    with pytest.raises(ValueError, match=r"^tail cutoff must be a positive index, got 0$"):
        sk.TailSpec(cutoff=0)
    with pytest.raises(ValueError, match=re.escape("warn_threshold must lie in (0, 1), got 1.5")):
        sk.TailSpec(cutoff=8, warn_threshold=1.5)


def test_c10_riesz_unit_weights_bounded():
    N, cutoff = 48, 768
    rep = sk.check_c10(
        sk.cesaro_matrix(N),
        sk.cesaro_matrix(cutoff),
        helpers.ones_factors(N + 2),
        1,
        sk.TailSpec(cutoff),
        v_max=N,
    )
    assert rep.trend == TREND_BOUNDED
    # unit-weight oracle: sum telescopes to (1 - (v+1)/(cutoff+1))
    v = np.arange(N + 1)
    np.testing.assert_allclose(rep.ratios, 1.0 - (v + 1.0) / (cutoff + 1.0), rtol=1e-12)


def test_c10_matches_rational_oracle():
    rng = np.random.default_rng(37)
    B = helpers.random_rational_matrix(rng, 12)
    A = helpers.random_rational_matrix(rng, 6)
    lam = sk.FactorSequence(helpers.random_rational_vector(rng, 8))
    k = 2
    rep = sk.check_c10(A, B, lam, k, sk.TailSpec(12), v_max=6)
    c11 = sk.check_c11(B, lam, k, sk.TailSpec(12), v_max=6)
    bh = oracles.hat_rows(oracles.to_rows(B))
    for v in range(7):
        total = oracles.c10_tail(bh, list(lam.values), k, v, 12)
        expected = float(total) / abs(float(A.diagonal[v])) ** k
        np.testing.assert_allclose(rep.ratios[v], expected, rtol=1e-12)
        np.testing.assert_allclose(c11.ratios[v], float(oracles.c11_tail(bh, list(lam.values), k, v, 12)), rtol=1e-12)


def test_c10_c11_riesz_fraction_weights_match_rational_oracle():
    # the exact path: Fraction hat columns and factors, rounded once per term
    rng = np.random.default_rng(79)
    N, cutoff = 5, 14
    for _ in range(3):
        A = sk.riesz_matrix(helpers.random_rational_weights(rng, N + 1))
        B = sk.riesz_matrix(helpers.random_rational_weights(rng, cutoff + 1))
        lam_vals = helpers.random_rational_vector(rng, N + 2)
        lam = sk.FactorSequence(lam_vals)
        bh = oracles.hat_rows(oracles.to_rows(B))
        for k in (1, 2, 3):
            c10 = sk.check_c10(A, B, lam, k, sk.TailSpec(cutoff), v_max=N)
            c11 = sk.check_c11(B, lam, k, sk.TailSpec(cutoff), v_max=N)
            for v in range(N + 1):
                want10 = oracles.c10_tail(bh, list(lam_vals), k, v, cutoff) / abs(A.diagonal[v]) ** k
                want11 = oracles.c11_tail(bh, list(lam_vals), k, v, cutoff)
                np.testing.assert_allclose(c10.ratios[v], float(want10), rtol=1e-12)
                np.testing.assert_allclose(c11.ratios[v], float(want11), rtol=1e-12)


def test_exact_c10_and_ta_b_are_the_exact_quotient_rounded_once():
    # on an exact pair at an integer k each C10 ratio is its tail sum divided by |a_vv|**k exactly, then rounded once,
    # and TA_b, its k-th root, reads it: rounding the sum and the denominator first is one ulp off in about a quarter
    w = sk.WeightSequence(np.asarray([F(x) for x in (1, 2, 3, 5, 7, 11)], dtype=object))
    lam = sk.FactorSequence(np.asarray([F(1), F(1, 3), F(2, 7), F(1, 5), F(3, 11)], dtype=object))
    A = sk.riesz_matrix(w)
    c10 = sk.check_c10(A, A, lam, 1, sk.TailSpec(5))
    assert c10.ratios[1] == 0.2348111658456486  # rounded twice, 0.23481116584564862
    rng = np.random.default_rng(97)
    for trial in range(40):
        p, q = (helpers.random_rational_weights(rng, 8) for _ in range(2))
        lam_vals = helpers.random_rational_vector(rng, 8)
        kinds = (sk.riesz_matrix(p), sk.riesz_matrix(q)), (helpers.random_rational_matrix(rng, 7), helpers.random_rational_matrix(rng, 7))
        A, B = kinds[trial % 2]
        bh = oracles.hat_rows(oracles.to_rows(B))
        lam = sk.FactorSequence(lam_vals)
        for k in (1, 2):
            c10 = sk.check_c10(A, B, lam, k, sk.TailSpec(7))
            want = [float(oracles.c10_tail(bh, list(lam_vals), k, v, 7) / abs(A.diagonal[v]) ** k) for v in range(7)]
            assert c10.ratios.tolist() == want
            ta_b = sk.check_theorem_a(sk.check_c9(A, B, lam, k), c10, sk.check_c11(B, lam, k, sk.TailSpec(7)), k)[1]
            assert ta_b.ratios.tolist() == [x ** (1.0 / k) for x in want[1:]]


def test_c10_caps_at_matrix_size_with_warning():
    A = sk.cesaro_matrix(8)
    B = sk.cesaro_matrix(16)
    rep = sk.check_c10(A, B, helpers.ones_factors(10), 1, sk.TailSpec(64), v_max=8)
    assert rep.tail_warning
    assert rep.tail_cutoff == 64  # requested cutoff is reported, capping flagged


def test_c11_identity_closed_form():
    lam_vals = np.linspace(-1.5, 1.5, 20)
    rep = sk.check_c11(sk.identity_matrix(16), sk.FactorSequence(lam_vals), 2, sk.TailSpec(16), v_max=8)
    v = np.arange(9)
    expected = (v + 1.0) ** 1.0 * np.abs(lam_vals[1:10]) ** 2
    np.testing.assert_allclose(rep.ratios, expected, rtol=1e-13)


def test_c11_riesz_equals_w_tail_product():
    # riesz hat column:  Q_v q_n / (Q_n Q_{n-1}), so the tail sum factors
    # into (Q_v lam_{v+1})**k times the k-th power of the W tail
    rng = np.random.default_rng(41)
    N, cutoff, k = 24, 384, 2
    q = helpers.random_positive_weights(rng, cutoff + 1)
    lam = sk.FactorSequence(1.0 / (np.arange(N + 2) + 1.0))
    tail = sk.TailSpec(cutoff)
    rep = sk.check_c11(sk.riesz_matrix(q), lam, k, tail, v_max=N)
    W = oracles.w_sequence(q.weights.tolist(), k, cutoff, N + 1)
    Q = q.cumulative
    for v in range(1, N + 1):
        expected = (Q[v] * abs(lam.values[v + 1])) ** k * W[v] ** k
        np.testing.assert_allclose(rep.ratios[v], expected, rtol=1e-13)


def test_suffix_sums_bit_equal_to_fsum():
    # one backward sweep of exact integer sums, rounded once per suffix
    rng = np.random.default_rng(83)
    wide = rng.choice([-1.0, 1.0], 400) * rng.uniform(1.0, 2.0, 400) * 2.0 ** rng.integers(-1000, 1000, 400)
    spread = rng.uniform(0.0, 1.0, 300) * 10.0 ** rng.integers(-20, 15, 300)
    with_zeros = np.where(rng.uniform(size=300) < 0.3, 0.0, spread)
    subnormal = np.concatenate([rng.integers(1, 2**20, 50) * 5e-324, [2.0**-1022, 2.0**-1000, 1e-310]])
    decades = 10.0 ** rng.uniform(-20, 15, 2000)
    for terms in (wide, with_zeros, subnormal, decades, np.array([0.1]), np.zeros(3)):
        got = suffix_sums(terms, terms.size)
        want = np.asarray([math.fsum(terms[j:]) for j in range(terms.size)])
        assert got.tobytes() == want.tobytes()
    assert suffix_sums(decades, 7).tobytes() == np.asarray([math.fsum(decades[j:]) for j in range(7)]).tobytes()
    special = np.array([1.0, np.nan, 2.0, np.inf, 3.0])
    np.testing.assert_array_equal(suffix_sums(special, 5), [math.fsum(special[j:]) for j in range(5)])
    # past one chunk: the terms beyond count are added per exponent, a chunk at a time; about 20 j per case
    size = 3 * _CHUNK + 7
    far = rng.choice([-1.0, 1.0], size) * rng.uniform(1.0, 2.0, size) * 2.0 ** rng.integers(-1074, 1000, size)
    # every m at its largest on one exponent, one sign a chunk and a half long: the bins at their largest, either sign
    one_exponent = np.where(np.arange(size) < size // 2, 1.0, -1.0) * (2.0 - 2.0**-52)
    at = sorted({0, _CHUNK - 2, _CHUNK - 1, _CHUNK, size - 1, *rng.integers(0, size, 15).tolist()})
    for terms in (far, one_exponent):
        want = {j: np.float64(math.fsum(terms[j:])).tobytes() for j in at}
        for count in (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, size):
            got = suffix_sums(terms, count)
            assert got.size == count
            assert all(got[j].tobytes() == want[j] for j in at if j < count), count
    for bad in (np.inf, np.nan):  # past count, in the last chunk
        terms = np.concatenate([np.ones(_CHUNK + 3), [bad], np.ones(5)])
        np.testing.assert_array_equal(suffix_sums(terms, 9), [math.fsum(terms[j:]) for j in range(9)])


def test_suffix_sums_exact_on_fractions():
    rng = np.random.default_rng(84)
    terms = helpers.random_rational_vector(rng, 60)
    got = suffix_sums(terms, 60)
    assert got.dtype == object
    assert got.tolist() == [sum(terms[j:].tolist(), F(0)) for j in range(60)]


def test_c10_c11_float_riesz_match_exact_oracle_at_long_cutoff():
    # float weights and factors taken as exact values; the oracle forms hat
    # columns from the definition and sums every term in rational arithmetic
    rng = np.random.default_rng(85)
    N, cutoff = 6, 400
    q_vals = rng.integers(1, 10, cutoff + 1).astype(float)
    B = sk.riesz_matrix(sk.WeightSequence(q_vals), order=N)
    A = sk.riesz_matrix(helpers.random_positive_weights(rng, N + 1))
    lam_vals = rng.uniform(-1.0, 1.0, N + 2)
    lam = [F(x) for x in lam_vals]
    q = [F(x) for x in q_vals]
    for k in (1, 2):
        c10 = sk.check_c10(A, B, sk.FactorSequence(lam_vals), k, sk.TailSpec(cutoff), v_max=N)
        c11 = sk.check_c11(B, sk.FactorSequence(lam_vals), k, sk.TailSpec(cutoff), v_max=N)
        for v in range(N + 1):
            bh = oracles.weighted_mean_hat_columns(q, v, v + 1, cutoff)
            want10 = oracles.c10_tail(bh, lam, k, v, cutoff) / abs(F(A.diagonal[v])) ** k
            want11 = oracles.c11_tail(bh, lam, k, v, cutoff)
            np.testing.assert_allclose(c10.ratios[v], float(want10), rtol=1e-13)
            np.testing.assert_allclose(c11.ratios[v], float(want11), rtol=1e-13)


def test_c10_is_theorem_a_condition_b_to_the_k():
    # riesz pair: C10_v = |Delta_v|**k T_v / a_vv**k and TA_b_v = |W_v Delta_v| P_v / p_v, W_v**k = T_v, by Sarigol's formula
    rng = np.random.default_rng(86)
    N, cutoff = 40, 640
    tail = sk.TailSpec(cutoff)
    for k in (1, 1.5, 2, 3.7):
        p = helpers.random_positive_weights(rng, N + 1)
        q = helpers.random_positive_weights(rng, cutoff + 1)
        lam = sk.FactorSequence(rng.uniform(-1.0, 1.0, N + 2))
        c10 = sk.check_c10(sk.riesz_matrix(p), sk.riesz_matrix(q, order=N), lam, k, tail, v_max=N)
        tb = oracles.theorem_a(p.weights.tolist(), q.weights.tolist(), lam.values.tolist(), k, cutoff, N)[1]
        np.testing.assert_allclose(c10.ratios[1:], np.asarray(tb) ** k, rtol=1e-13)


def test_c12_riesz_never_violates():
    rng = np.random.default_rng(43)
    w = helpers.random_positive_weights(rng, 30)
    rep = sk.check_c12(sk.riesz_matrix(w))
    assert np.all(rep.ratios == 0)
    assert rep.trend == TREND_BOUNDED


def test_c12_identity_passes():
    assert sk.check_c12(sk.identity_matrix(6)).trend == TREND_BOUNDED


def test_c12_flags_constructed_violation():
    m = sk.make_normal([[1.0], [2.0, 1.0], [0.0, 0.0, 1.0]])
    rep = sk.check_c12(m)
    assert rep.ratios[0] == 1.0  # a_10 exceeds a_00 by exactly one
    assert rep.trend == TREND_GROWING


def test_c13_c14_riesz_and_identity():
    rng = np.random.default_rng(47)
    riesz = sk.riesz_matrix(helpers.random_positive_weights(rng, 20))
    for rep in (sk.check_c13(riesz), sk.check_c14(riesz), sk.check_c13(sk.identity_matrix(19))):
        assert rep.trend == TREND_BOUNDED
        assert np.max(rep.ratios) <= 1e-12


def test_c13_detects_row_sum_gap():
    m = sk.make_normal([[1.0], [0.3, 0.5]])
    rep = sk.check_c13(m)
    np.testing.assert_allclose(rep.ratios, [0.0, 0.2])
    assert rep.trend == TREND_GROWING


def test_c15_identity():
    rep = sk.check_c15(sk.identity_matrix(10))
    np.testing.assert_allclose(rep.ratios, np.ones(10))
    assert rep.trend == TREND_BOUNDED


def test_c15_cesaro_exact_ones():
    rep = sk.check_c15(sk.cesaro_matrix(30))
    np.testing.assert_allclose(rep.ratios, np.ones(30), rtol=1e-12)


def test_c15_riesz_matches_rational_oracle():
    rng = np.random.default_rng(53)
    w = helpers.random_rational_weights(rng, 12)
    rep = sk.check_c15(sk.riesz_matrix(w))
    rows = oracles.to_rows(sk.riesz_matrix(w))
    for n in range(11):
        expected = abs(rows[n][n] - rows[n + 1][n]) / abs(rows[n][n] * rows[n + 1][n + 1])
        np.testing.assert_allclose(rep.ratios[n], float(expected), rtol=1e-12)


def test_c16_identity_all_zero():
    rep = sk.check_c16(sk.identity_matrix(12), sk.identity_matrix(12), helpers.ones_factors(13))
    assert np.all(rep.ratios == 0.0)
    assert rep.ratios[0] == 0.0  # n = 1 has an empty r-range


def test_c16_matches_rational_oracle():
    rng = np.random.default_rng(59)
    A = helpers.random_rational_matrix(rng, 12)
    B = helpers.random_rational_matrix(rng, 12)
    lam_vals = helpers.random_rational_vector(rng, 13)
    lam_vals[12] = F(3, 7)  # keep the reported denominators nonzero
    lam = sk.FactorSequence(lam_vals)
    rep = sk.check_c16(A, B, lam)
    bh = oracles.hat_rows(oracles.to_rows(B))
    ahp = oracles.to_rows(sk.invert_hat(sk.hat_of(A)))
    for n in range(1, 13):
        if lam_vals[n] == 0:
            continue
        best = max(
            (oracles.c16_inner(bh, ahp, list(lam_vals), n, r) for r in range(max(n - 1, 0))),
            default=F(0),
        )
        den = abs(F(B.entries[n, n]) / F(A.entries[n, n])) * abs(lam_vals[n])
        np.testing.assert_allclose(rep.ratios[n - 1], float(best / den), rtol=1e-12)


def test_c16_weighted_mean_pairs_exactly_zero():
    # a weighted-mean A has a bidiagonal hat inverse, so every inner sum is
    # an empty or all-zero sum: exactly 0.0 on every BLAS build; the report
    # reads this in O(N), the dense product over the closed-form inverse is the reference
    rng = np.random.default_rng(67)
    N = 200
    power = sk.WeightSequence((np.arange(N + 1) + 1.0) ** 0.5)
    pairs = [
        (sk.cesaro_matrix(N), sk.cesaro_matrix(N)),
        (sk.cesaro_matrix(N), sk.riesz_matrix(power)),
        (
            sk.riesz_matrix(helpers.random_positive_weights(rng, N + 1)),
            sk.riesz_matrix(helpers.random_positive_weights(rng, N + 1)),
        ),
    ]
    lam = sk.FactorSequence(rng.uniform(0.5, 2.0, N + 1))
    for A, B in pairs:
        rep = sk.check_c16(A, B, lam)
        assert np.all(rep.ratios == 0.0)
        assert rep.trend == TREND_BOUNDED
        BL = np.abs(sk.hat_of(B).entries * lam.values[None, :])
        assert not np.any(inner_sums(BL, np.abs(sk.hat_inverse(A).entries)))


def test_c16_weighted_mean_nan_factor_or_diagonal_still_raises():
    # the O(N) report divides by the dense path's denominators, so a NaN there still raises
    A = sk.cesaro_matrix(12)
    lam_vals = np.ones(13)
    lam_vals[5] = np.nan
    with pytest.raises(ValueError, match="C16: NaN"):
        sk.check_c16(A, A, sk.FactorSequence(lam_vals))
    B = np.tril(np.ones((13, 13)))
    B[4, 4] = np.nan
    with pytest.raises(ValueError, match="C16: NaN"):
        sk.check_c16(A, sk.NormalMatrix(B), helpers.ones_factors(13))


def test_c16_reads_no_lam_0_on_either_path():
    # no inner sum reads column 0 or 1 of B-hat Lambda, so a NaN lam_0 leaves the dense
    # report's bits as they are; lam_1 is the n = 1 denominator, so a NaN there raises
    N = 12
    B = sk.riesz_matrix(sk.WeightSequence((np.arange(N + 1) + 1.0) ** 0.5))
    dense, weighted = sk.NormalMatrix(sk.cesaro_matrix(N).entries), sk.cesaro_matrix(N)
    lam_vals = 1.0 / (np.arange(N + 1) + 1.0)
    want = sk.check_c16(dense, B, sk.FactorSequence(lam_vals))
    lam_vals[0] = np.nan
    got = sk.check_c16(dense, B, sk.FactorSequence(lam_vals))
    assert got.ratios.tobytes() == want.ratios.tobytes() and got.trend == want.trend
    assert np.all(sk.check_c16(weighted, B, sk.FactorSequence(lam_vals)).ratios == 0.0)
    lam_vals[:2] = 1.0, np.nan
    for A in (dense, weighted):
        with pytest.raises(ValueError, match="C16: NaN"):
            sk.check_c16(A, B, sk.FactorSequence(lam_vals))


def test_c16_weighted_mean_exact_path_is_zero():
    rng = np.random.default_rng(71)
    A = sk.riesz_matrix(helpers.random_rational_weights(rng, 13))
    B = helpers.random_rational_matrix(rng, 12)
    lam = sk.FactorSequence(helpers.random_rational_vector(rng, 13))
    rep = sk.check_c16(A, B, lam)
    assert np.all(rep.ratios == 0.0)
    rep = sk.check_c16(sk.cesaro_matrix(12, exact=True), sk.cesaro_matrix(12, exact=True), lam)
    assert np.all(rep.ratios == 0.0)


def test_c16_float_explicit_matches_rational_oracle():
    # the float path on non-weighted matrices against the same inputs read
    # exactly: Fraction(x) is the float's exact value
    rng = np.random.default_rng(73)
    N = 14
    for _ in range(3):
        A = helpers.random_normal_matrix(rng, N)
        B = helpers.random_normal_matrix(rng, N)
        lam_vals = rng.uniform(-1.0, 1.0, N + 1)
        rep = sk.check_c16(A, B, sk.FactorSequence(lam_vals))
        a_rows = [[F(x) for x in row] for row in oracles.to_rows(A)]
        b_rows = [[F(x) for x in row] for row in oracles.to_rows(B)]
        lam_x = [F(x) for x in lam_vals]
        bh = oracles.hat_rows(b_rows)
        exact_a = sk.NormalMatrix(np.asarray(a_rows, dtype=object))
        ahp = oracles.to_rows(sk.invert_hat(sk.hat_of(exact_a)))
        for n in range(1, N + 1):
            best = max((oracles.c16_inner(bh, ahp, lam_x, n, r) for r in range(max(n - 1, 0))), default=F(0))
            den = abs(b_rows[n][n] / a_rows[n][n]) * abs(lam_x[n])
            np.testing.assert_allclose(rep.ratios[n - 1], float(best / den), rtol=1e-12)


def test_c16_zero_denominator_reports_growing():
    lam_vals = np.ones(13)
    lam_vals[12] = 0.0
    rng = np.random.default_rng(61)
    A = helpers.random_positive_matrix(rng, 12)
    B = helpers.random_positive_matrix(rng, 12)
    rep = sk.check_c16(A, B, sk.FactorSequence(lam_vals))
    assert rep.trend == TREND_GROWING
    assert np.isinf(rep.sup_ratio)


def test_w_sequence_unit_weights_telescopes():
    # unit weights and k = 1 telescope: W_n = 1/(n+1) - 1/(cutoff+1), and with unit factors TA_c_n = Q_n W_n = (n+1) W_n
    N, cutoff = 50, 400
    q = sk.WeightSequence(np.ones(cutoff + 1))
    n = np.arange(N + 1)
    W = 1.0 / (n + 1.0) - 1.0 / (cutoff + 1.0)
    np.testing.assert_allclose(oracles.w_sequence(q.weights.tolist(), 1, cutoff, N + 1), W, atol=1e-15)
    tc = helpers.theorem_a_rows(q, q, helpers.ones_factors(N + 2), 1, sk.TailSpec(cutoff), N)[2]
    np.testing.assert_allclose(tc.ratios, (n[1:] + 1.0) * W[1:], atol=1e-14)


def test_w_sequence_geometric_matches_rational_oracle():
    # exact weights at k = 1: C11 and so TA_c = Q_n W_n are the exact value rounded once
    N, cutoff = 10, 40
    weights = [F(2) ** i for i in range(cutoff + 1)]
    q = sk.WeightSequence(np.asarray(weights, dtype=object))
    W = oracles.w_sequence(weights, 1, cutoff, N + 1)
    assert W == [oracles.w_tail_pow(weights, 1, n, cutoff) for n in range(N + 1)]
    tc = helpers.theorem_a_rows(q, q, helpers.ones_factors(N + 2, exact=True), 1, sk.TailSpec(cutoff), N)[2]
    Q = oracles.partial_sums(weights)
    assert tc.ratios.tolist() == [float(Q[n] * W[n]) for n in range(1, N + 1)]


def test_w_sequence_single_term():
    # at the last n before the cutoff, W_n and so TA_c_n / (Q_n |lam_{n+1}|) hold the one term at v = n + 1
    rng = np.random.default_rng(67)
    q = helpers.random_positive_weights(rng, 13)
    n = 11
    tail = sk.TailSpec(cutoff=n + 1)
    lam = sk.FactorSequence(rng.uniform(0.5, 1.0, n + 2))
    v = n + 1
    Q = q.cumulative
    expected = (v ** 1.0 * (q.weights[v] / (Q[v] * Q[v - 1])) ** 2) ** 0.5
    np.testing.assert_allclose(oracles.w_sequence(q.weights.tolist(), 2, n + 1, n + 1)[n], expected, rtol=1e-13)
    tc = helpers.theorem_a_rows(q, q, lam, 2, tail, n)[2]
    np.testing.assert_allclose(tc.ratios[-1], Q[n] * lam.values[n + 1] * expected, rtol=1e-13)


def test_w_sequence_tail_unavailable():
    # weights that stop short of the cutoff: C10 and C11 sum to their last row and warn, and TA_b and TA_c carry it
    q = sk.WeightSequence(np.ones(10))
    _, tb, tc = helpers.theorem_a_rows(q, q, helpers.ones_factors(11), 1, sk.TailSpec(cutoff=50), 8)
    assert tb.tail_warning and tc.tail_warning
    assert tb.tail_cutoff == tc.tail_cutoff == 50


def test_w_sequence_runs_to_one_short_of_the_cutoff_unless_told():
    # unit weights and k = 1 telescope: W_n = 1/(n+1) - 1/(cutoff+1), exactly on Fractions; the rows stop at cutoff - 1
    q = sk.WeightSequence(np.full(41, F(1)))
    assert oracles.w_sequence(q.weights.tolist(), 1, 40, 40) == [F(1, n + 1) - F(1, 41) for n in range(40)]
    _, tb, tc = helpers.theorem_a_rows(q, q, helpers.ones_factors(42, exact=True), 1, sk.TailSpec(cutoff=40), 40)
    for rep in (tb, tc):
        np.testing.assert_array_equal(rep.indices, np.arange(1, 40))
        assert rep.tail_warning  # v_max = 40 is past the cutoff's last row
    assert tc.ratios.tolist() == [float(F(n + 1) * (F(1, n + 1) - F(1, 41))) for n in range(1, 40)]


def test_theorem_a_reads_n_max_from_p_and_the_factors_unless_told():
    # TA_b and TA_c run over C10's and C11's v >= 1: by default the shorter of lam (less 2) and the matrices
    p, q = sk.WeightSequence(np.arange(1.0, 12.0)), sk.WeightSequence(np.ones(41))
    tail = sk.TailSpec(cutoff=40)
    A, B = sk.riesz_matrix(p), sk.riesz_matrix(q, order=10)
    for lam_size, n_max in ((9, 7), (20, 10)):
        lam = sk.FactorSequence(1.0 / np.arange(1.0, lam_size + 1.0))
        c9 = sk.check_c9(sk.riesz_matrix(p, order=n_max), sk.riesz_matrix(q, order=n_max), lam, 2)
        default = sk.check_theorem_a(c9, sk.check_c10(A, B, lam, 2, tail), sk.check_c11(B, lam, 2, tail), 2)
        told = sk.check_theorem_a(c9, sk.check_c10(A, B, lam, 2, tail, v_max=n_max), sk.check_c11(B, lam, 2, tail, v_max=n_max), 2)
        for got, want in zip(default, told):
            np.testing.assert_array_equal(got.indices, np.arange(1, n_max + 1))
            np.testing.assert_array_equal(got.ratios, want.ratios)


def test_theorem_a_refuses_short_inputs():
    # C10 refuses too few p-weights or factors, and TA with it; a k below 1 is refused before any row is read
    p, q, lam, tail = sk.WeightSequence(np.ones(11)), sk.WeightSequence(np.ones(41)), sk.FactorSequence(np.ones(12)), sk.TailSpec(40)
    with pytest.raises(SizeMismatchError, match=r"^diagonal source of order 5 cannot cover v <= 10$"):
        sk.check_c10(sk.riesz_matrix(sk.WeightSequence(np.ones(6))), sk.riesz_matrix(q, order=10), lam, 2, tail, v_max=10)
    with pytest.raises(LengthMismatchError, match=r"^need 12 factors, have 11$"):
        helpers.theorem_a_rows(p, q, sk.FactorSequence(np.ones(11)), 2, tail, 10)
    reports = [sk.check_c9(sk.riesz_matrix(p), sk.riesz_matrix(q, order=10), lam, 2)] * 3
    with pytest.raises(BadExponentError, match=r"^k must be a real exponent >= 1, got 0.5$"):
        sk.check_theorem_a(*reports, 0.5)


def test_theorem_a_matched_powers_flat():
    # p = q and lam_n = n**(1/k-1) cancel exactly in condition (a)
    rng = np.random.default_rng(71)
    cutoff = 320
    p = helpers.random_positive_weights(rng, cutoff + 1)
    k = 2
    lam_vals = np.ones(22)
    lam_vals[1:] = np.arange(1, 22) ** (1.0 / k - 1.0)
    ta, _tb, _tc = helpers.theorem_a_rows(p, p, sk.FactorSequence(lam_vals), k, sk.TailSpec(cutoff), 20)
    np.testing.assert_allclose(ta.ratios, np.ones(20), rtol=1e-12)


def test_theorem_a_unit_weights_harmonic_factors():
    N, cutoff = 60, 960
    p = sk.WeightSequence(np.ones(N + 1))
    q = sk.WeightSequence(np.ones(cutoff + 1))
    lam = sk.FactorSequence(1.0 / (np.arange(N + 2) + 1.0))
    ta, tb, tc = helpers.theorem_a_rows(p, q, lam, 1, sk.TailSpec(cutoff), N)
    n = np.arange(1, N + 1)
    W = 1.0 / (n + 1.0) - 1.0 / (cutoff + 1.0)
    # (c): Q_n lam_{n+1} W_n = (n+1)/(n+2) * W_n, about 1/(n+2)
    np.testing.assert_allclose(tc.ratios, (n + 1.0) / (n + 2.0) * W, rtol=1e-12)
    assert tc.trend == TREND_BOUNDED
    # (b): delta(Q_{n-1} lam_n) = n/(n+1) - (n+1)/(n+2), ratio vs 1/(n+1)
    delta = n / (n + 1.0) - (n + 1.0) / (n + 2.0)
    np.testing.assert_allclose(tb.ratios, np.abs(W * delta) * (n + 1.0), rtol=1e-12)
    assert tb.trend == TREND_BOUNDED
    assert ta.trend == TREND_BOUNDED


def test_riesz_reduction_c9_equals_theorem_a_condition_a():
    # TA_a is C9's report, and on a Riesz pair that is Sarigol's condition (a) from the weights
    rng = np.random.default_rng(73)
    N, cutoff, k = 40, 640, 1.5
    p = helpers.random_positive_weights(rng, cutoff + 1)
    q = helpers.random_positive_weights(rng, cutoff + 1)
    lam = sk.FactorSequence(rng.uniform(0.1, 2.0, N + 2))
    rep9 = sk.check_c9(sk.riesz_matrix(p, order=N), sk.riesz_matrix(q, order=N), lam, k)
    ta = helpers.theorem_a_rows(p, q, lam, k, sk.TailSpec(cutoff), N)[0]
    assert ta.condition_id == "TA_a" and (ta.trend, ta.sup_ratio) == (rep9.trend, rep9.sup_ratio)
    for field in ("indices", "ratios", "running_sup"):
        assert getattr(ta, field).tobytes() == getattr(rep9, field).tobytes()
    want = oracles.theorem_a(p.weights.tolist(), q.weights.tolist(), lam.values.tolist(), k, cutoff, N)[0]
    np.testing.assert_allclose(rep9.ratios, want, rtol=1e-12)


def ulps(got, want) -> float:
    """The largest |got - want| in units of the last place of want."""
    want = np.asarray([float(x) for x in want])
    return float(np.max(np.abs(np.asarray(got) - want) / np.spacing(np.abs(want))))


# the worst measured over the seeds below, in ulps of the formula's value, was 4 (TA_a), 8 (TA_b) and 5 (TA_c)
TA_ULPS = {"TA_a": 8, "TA_b": 16, "TA_c": 10}


def test_theorem_a_rows_are_the_corollary_of_c9_c10_and_c11():
    # on random Riesz pairs the rows read from C9, C10 and C11 are Sarigol's formulas from the weights, within TA_ULPS
    rng = np.random.default_rng(87)
    N, cutoff = 40, 640
    worst = dict.fromkeys(TA_ULPS, 0.0)
    for trial in range(8):
        for k in (1, 1.5, 2, 3.7):
            p = helpers.random_positive_weights(rng, N + 1)
            q = helpers.random_positive_weights(rng, cutoff + 1)
            lam = sk.FactorSequence(rng.uniform(-1.0, 1.0, N + 2))
            rows = helpers.theorem_a_rows(p, q, lam, k, sk.TailSpec(cutoff), N)
            want = oracles.theorem_a(p.weights.tolist(), q.weights.tolist(), lam.values.tolist(), k, cutoff, N)
            for rep, formula in zip(rows, want):
                worst[rep.condition_id] = max(worst[rep.condition_id], ulps(rep.ratios, formula))
    assert all(worst[cid] <= bound for cid, bound in TA_ULPS.items()), worst


def test_theorem_a_rows_equal_the_exact_formulas_at_k_1():
    # dyadic exact weights and factors: every value either side forms is a float, so the rows equal the formulas
    # evaluated in Fractions.  Each P_n is a power of two, so a_nn = 1 - 2**-m is too, and the sums stay within 53 bits
    rng = np.random.default_rng(88)
    N, cutoff = 12, 16
    for trial in range(6):
        steps = rng.integers(1, 3, cutoff + 1)
        weights = [F(1)] + [F(2) ** int(steps[1:n].sum()) * (2 ** int(steps[n]) - 1) for n in range(1, cutoff + 1)]
        lam = [F(int(x), 16) for x in rng.integers(-16, 17, N + 2)]
        q = sk.WeightSequence(np.asarray(weights, dtype=object))
        rows = helpers.theorem_a_rows(q, q, sk.FactorSequence(np.asarray(lam, dtype=object)), 1, sk.TailSpec(cutoff), N)
        want = oracles.theorem_a(weights, weights, lam, 1, cutoff, N)
        for rep, formula in zip(rows, want):
            assert rep.ratios.tolist() == [float(x) for x in formula], rep.condition_id


def test_scaling_laws():
    # |c| lambda scales c9 linearly, c10 by |c|**k, c16 not at all
    rng = np.random.default_rng(79)
    N, k, c = 12, 2, -3.5
    A = helpers.random_positive_matrix(rng, N)
    B = helpers.random_positive_matrix(rng, N)
    lam_vals = rng.uniform(0.2, 1.0, N + 2)
    lam = sk.FactorSequence(lam_vals)
    lam_scaled = sk.FactorSequence(c * lam_vals)
    tail = sk.TailSpec(2 * N)
    Bt = B  # finite matrix caps; same capping on both sides keeps the law exact

    r9 = sk.check_c9(A, B, lam, k)
    r9s = sk.check_c9(A, B, lam_scaled, k)
    np.testing.assert_allclose(r9s.ratios, abs(c) * r9.ratios, rtol=1e-12)

    r10 = sk.check_c10(A, Bt, lam, k, tail, v_max=N - 1)
    r10s = sk.check_c10(A, Bt, lam_scaled, k, tail, v_max=N - 1)
    np.testing.assert_allclose(r10s.ratios, abs(c) ** k * r10.ratios, rtol=1e-12)

    r16 = sk.check_c16(A, B, lam)
    r16s = sk.check_c16(A, B, lam_scaled)
    np.testing.assert_allclose(r16s.ratios, r16.ratios, rtol=1e-12)


def test_l1_lk_identity():
    for k in (1, 2, 3.5):
        bound = sk.l1_lk_bound(sk.identity_matrix(6), k)
        assert bound.sup == 1.0


def test_l1_lk_single_column():
    C = np.zeros((4, 4))
    C[0, 0] = 2.0
    bound = sk.l1_lk_bound(C, 2)
    assert bound.sup == 4.0
    np.testing.assert_allclose(bound.column_sums, [4.0, 0.0, 0.0, 0.0])


def test_a_column_sum_past_float_range_names_its_column_and_a_nan_entry_passes_through():
    with pytest.raises(PowerOverflowError, match=r"^the column k-power sum at v = 1 is not finite \(float overflow\)$"):
        sk.l1_lk_bound(np.array([[1.0, 0.0], [1.0, 1e200]]), 2)
    assert math.isnan(sk.l1_lk_bound(np.array([[1.0, 0.0], [np.nan, 1e200]]), 1).sup)


def test_l1_lk_sup_is_nan_when_a_column_sum_is():
    N = 12
    lam = np.ones(N + 2)
    lam[1:] = np.arange(1, N + 2) ** -0.5
    lam[5] = np.nan
    B = sk.riesz_matrix(sk.WeightSequence((np.arange(N + 1) + 1.0) ** 0.5))
    bound = sk.l1_lk_bound(sk.build_cnv(sk.cesaro_matrix(N), B, sk.FactorSequence(lam), 2), 2)
    assert np.isnan(bound.column_sums).any() and not np.isnan(bound.column_sums[-1])
    assert math.isnan(bound.sup)


def test_l1_lk_bad_exponent():
    with pytest.raises(BadExponentError):
        sk.l1_lk_bound(np.eye(3), 0.9)


def test_trend_classifier_shapes():
    n = np.arange(1, 201)
    assert sk.classify_trend(n, np.ones(200)) == TREND_BOUNDED
    assert sk.classify_trend(n, 1.0 / n) == TREND_BOUNDED
    assert sk.classify_trend(n, n.astype(float)) == TREND_GROWING
    assert sk.classify_trend(n, np.sqrt(n)) == TREND_GROWING
    assert sk.classify_trend(n, np.log(n + 1.0)) == "inconclusive"
    assert sk.classify_trend([], []) == "inconclusive"


def test_trend_verdicts_equal_the_polyfit_fit():
    # the closed-form slope against np.polyfit's, on seeded tails of every shape, constants and 1e306 magnitudes
    rng = np.random.default_rng(86)
    seen = set()
    for trial in range(600):
        n = int(rng.integers(8, 2000))
        x = np.arange(1.0, n + 1.0)
        shape = trial % 4
        if shape == 0:  # flat, with noise of any size
            r = rng.uniform(0.1, 10.0) + rng.normal(0.0, 10.0 ** rng.uniform(-15, 0), n)
        elif shape == 1:  # log-linear, either way
            r = rng.uniform(-2.0, 2.0) * np.log(x) + rng.uniform(-5.0, 5.0)
        elif shape == 2:  # power law, decaying to growing
            r = rng.uniform(0.1, 3.0) * x ** rng.uniform(-2.0, 2.0)
        else:  # alternating about a level
            r = rng.uniform(0.0, 2.0) + rng.uniform(0.0, 1.0) * (-1.0) ** x
        huge = [r * (1e306 / np.max(np.abs(r)))] if n <= 700 else []  # its last quartile adds up within float range
        for tail in (r, np.full(n, r[0]), *huge):
            verdict = sk.classify_trend(x, tail)
            assert verdict == oracles.polyfit_trend(x, tail), (trial, n)
            seen.add(verdict)
    assert seen == {TREND_BOUNDED, TREND_GROWING, "inconclusive"}
    # where the last quartile's |ratios| add up past float range, polyfit's test compared with an infinite bound
    grow = 1e306 * np.sqrt(np.arange(1.0, 401.0))
    with np.errstate(over="ignore"):
        assert oracles.polyfit_trend(np.arange(1, 401), grow) == TREND_BOUNDED
    assert sk.classify_trend(np.arange(1, 401), grow) == TREND_GROWING
