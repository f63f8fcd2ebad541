import math
from fractions import Fraction as F

import numpy as np
import pytest

import summakit as sk
from summakit.conditions import column_sums
from summakit.errors import (
    BadExponentError,
    DegenerateProbeError,
    IndexOutOfRangeError,
    LengthMismatchError,
    PowerOverflowError,
    SizeMismatchError,
)

import helpers
import oracles


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


def test_probe_series_shapes():
    diff = sk.probe_series(sk.PROBE_DIFFERENCE, 2, 6)
    np.testing.assert_array_equal(diff.coefficients, [0, 0, 1, -1, 0, 0])
    shift = sk.probe_series(sk.PROBE_SHIFT, 2, 6)
    np.testing.assert_array_equal(shift.coefficients, [0, 0, 0, 1, 0, 0])
    with pytest.raises(IndexOutOfRangeError):
        sk.probe_series(sk.PROBE_DIFFERENCE, 5, 6)
    with pytest.raises(ValueError, match=r"^unknown probe kind 'sideways'$"):
        sk.probe_series("sideways", 2, 6)


def test_difference_probe_identity_norms():
    # identity hats collapse the probe to two coordinates
    lam = helpers.ones_factors(12)
    for k in (1, 2.0, 3.0):
        probes = sk.ProbePass(sk.identity_matrix(10), sk.identity_matrix(10), lam, k)
        ratios = probes.constant()[1][sk.PROBE_DIFFERENCE]
        for v in (1, 4, 8):
            assert probes.x_norm[sk.PROBE_DIFFERENCE][v] == 2.0
            expected = (v ** (float(k) - 1.0) + (v + 1) ** (float(k) - 1.0)) ** (1.0 / float(k))
            np.testing.assert_allclose(ratios[v - 1], expected / 2.0, rtol=1e-13)


def test_shift_probe_identity_x_norm():
    probes = sk.ProbePass(sk.identity_matrix(10), sk.cesaro_matrix(10), helpers.ones_factors(12), 1)
    assert probes.x_norm[sk.PROBE_SHIFT][3] == 1.0


def test_difference_probe_piecewise_structure():
    rng = np.random.default_rng(3)
    A = helpers.random_normal_matrix(rng, 10)
    B = helpers.random_normal_matrix(rng, 10)
    lam = sk.FactorSequence(rng.uniform(-1, 1, 12))
    probes = sk.ProbePass(A, B, lam, 2)
    dx, dy = probes.delta_x[sk.PROBE_DIFFERENCE], probes.delta_y[sk.PROBE_DIFFERENCE]
    ah = sk.hat_of(A).entries
    bl = sk.hat_of(B).entries * lam.values[:11]
    # column v is zero above row v, a_vv at row v and the difference of two hat columns below it
    assert np.all(np.triu(dx, 1) == 0)
    assert np.array_equal(np.diagonal(dx), np.diagonal(ah)[:10])
    np.testing.assert_allclose(np.tril(dx, -1), np.tril(ah[:, :-1] - ah[:, 1:], -1), rtol=1e-15)
    np.testing.assert_allclose(np.tril(dy, -1), np.tril(bl[:, :-1] - bl[:, 1:], -1), rtol=1e-15)


def test_probe_matches_generic_transform_exactly_rational():
    rng = np.random.default_rng(5)
    A = helpers.random_rational_matrix(rng, 8)
    B = helpers.random_rational_matrix(rng, 8)
    lam = sk.FactorSequence(helpers.random_rational_vector(rng, 10))
    probes = sk.ProbePass(A, B, lam, 2)
    for kind in (sk.PROBE_DIFFERENCE, sk.PROBE_SHIFT):
        for v in range(8):
            series = sk.probe_series(kind, v, 9, exact=True)
            assert list(probes.delta_x[kind][:, v]) == list(sk.apply_hat(A, series.coefficients))
            assert list(probes.delta_y[kind][:, v]) == list(sk.apply_hat(B, series.coefficients * lam.values[:9]))


def test_probe_cesaro_exact_small():
    # a weighted mean's x-norms come from its weights, a dense twin's from its columns
    A = sk.cesaro_matrix(8, exact=True)
    lam = helpers.ones_factors(10, exact=True)
    dense = sk.NormalMatrix(A.entries)
    series = sk.probe_series(sk.PROBE_DIFFERENCE, 1, 9, exact=True)
    dx = sk.ProbePass(dense, dense, lam, 1).delta_x[sk.PROBE_DIFFERENCE]
    assert list(dx[:, 1]) == list(sk.apply_hat(A, series.coefficients))
    # x-norm telescopes: a_vv + sum_{n>v} p_v p_n / (P_n P_{n-1}) at v=1
    for M in (A, dense):
        assert sk.ProbePass(M, M, lam, 1).x_norm[sk.PROBE_DIFFERENCE][1] == F(1, 2) + (F(1, 2) - F(1, 9))


def test_probe_needs_a_factor_for_every_row():
    # the pass covers every v, which reads lam_0..lam_N
    rng = np.random.default_rng(7)
    for A in (helpers.random_normal_matrix(rng, 8), sk.cesaro_matrix(8)):
        with pytest.raises(LengthMismatchError):
            sk.empirical_constant(A, A, helpers.ones_factors(8), 1)


def test_probe_pass_refuses_matrices_of_two_orders():
    # no reading zips the two orders' norms to the shorter one
    with pytest.raises(SizeMismatchError, match="matrix orders differ: 10 vs 14"):
        sk.ProbePass(sk.cesaro_matrix(10), sk.cesaro_matrix(14), sk.FactorSequence(np.ones(16)), 2)


def test_probe_pass_refuses_too_few_factors():
    with pytest.raises(LengthMismatchError, match="need 11 factors, have 5"):
        sk.ProbePass(sk.cesaro_matrix(10), sk.cesaro_matrix(10), sk.FactorSequence(np.ones(5)), 2)


def test_probe_pass_refuses_an_exponent_below_one():
    with pytest.raises(BadExponentError):
        sk.ProbePass(sk.cesaro_matrix(10), sk.cesaro_matrix(10), sk.FactorSequence(np.ones(12)), 0.5)


def test_probe_pass_below_order_two_has_no_ratio():
    # v runs over 1..N-1: empty below N = 2, on every storage form
    lam = helpers.ones_factors(3)
    for order in (0, 1):
        for M in (sk.cesaro_matrix(order), sk.NormalMatrix(np.eye(order + 1)), sk.identity_matrix(order)):
            M_value, ratios = sk.empirical_constant(M, M, lam, 2)
            assert M_value == 0.0
            assert all(r.dtype == float and r.size == 0 for r in ratios.values())


def test_inequality20_zero_factors():
    M, ratios = sk.empirical_constant(sk.cesaro_matrix(8), sk.cesaro_matrix(8), sk.FactorSequence(np.zeros(10)), 1)
    assert M == 0.0
    assert all(np.all(r == 0.0) for r in ratios.values())


def test_inequality20_equal_matrices_k1():
    # k = 1 makes both norms the same absolute sum when A = B, lam = 1
    A = sk.cesaro_matrix(12)
    M, ratios = sk.empirical_constant(A, A, helpers.ones_factors(14), 1)
    for kind in (sk.PROBE_DIFFERENCE, sk.PROBE_SHIFT):
        np.testing.assert_allclose(ratios[kind], 1.0, rtol=1e-13)
    np.testing.assert_allclose(M, 1.0, rtol=1e-13)


def test_inequality20_degenerate():
    # a probe array set on the mapping stands in for the one it would form: all-zero shift columns have zero x-norm
    rng = np.random.default_rng(11)
    A = helpers.random_normal_matrix(rng, 6)
    probes = sk.ProbePass(A, A, helpers.ones_factors(8), 1)
    probes.delta_x[sk.PROBE_SHIFT] = np.zeros((7, 6))
    with pytest.raises(DegenerateProbeError, match="probe shift at v=1 has zero x-norm"):
        probes.constant()


def test_empirical_constant_cesaro_family():
    A = sk.cesaro_matrix(16)
    lam = sk.FactorSequence(1.0 / (np.arange(18) + 1.0))
    M, ratios = sk.empirical_constant(A, A, lam, 1)
    assert set(ratios) == {sk.PROBE_DIFFERENCE, sk.PROBE_SHIFT}
    assert all(r.dtype == float and r.shape == (15,) for r in ratios.values())
    values = np.concatenate(list(ratios.values()))
    assert M == values.max()
    assert np.isfinite(M) and M > 0


def test_empirical_constant_ratios_are_the_generic_transforms_norms():
    # entry v - 1 of ratios[kind] is the probe at v's y-norm / x-norm, the norms of the generic transforms
    # of the probe series; strict mode swaps the difference probe's |b_vv lam_v|**k for b_vv |lam_v|**k
    rng = np.random.default_rng(67)
    N, k = 14, 2
    lam = sk.FactorSequence(rng.uniform(-1, 1, N + 2))
    pairs = [
        (helpers.random_normal_matrix(rng, N), helpers.random_normal_matrix(rng, N)),
        (sk.cesaro_matrix(N), sk.riesz_matrix(helpers.random_positive_weights(rng, N + 1, 0.5, 2.0))),
    ]
    for A, B in pairs:
        for strict in (False, True):
            _, ratios = sk.empirical_constant(A, B, lam, k, strict_paper=strict)
            for kind in (sk.PROBE_DIFFERENCE, sk.PROBE_SHIFT):
                want = []
                for v in range(1, N):
                    series = sk.probe_series(kind, v, N + 1)
                    dx = sk.apply_hat(A, series.coefficients)
                    ypow = oracles.y_pow_norm(sk.apply_hat(B, series.coefficients * lam.values[: N + 1]), k)
                    if strict and kind == sk.PROBE_DIFFERENCE:
                        b, f = abs(B.diagonal[v]), abs(lam.values[v])
                        ypow += v ** (k - 1) * (b * f**k - (b * f) ** k)
                    want.append(ypow ** (1 / k) / oracles.x_abs_norm(dx))
                np.testing.assert_allclose(ratios[kind], want, rtol=1e-12)


def test_probe_pass_is_the_definition_exactly_rational():
    # the x-side deltas are the first difference in n of A applied to the partial
    # sums: column v of A for e_v - e_{v+1}, A's reversed row cumulative sum for e_{v+1}
    rng = np.random.default_rng(83)
    A = helpers.random_rational_matrix(rng, 9)
    B = helpers.random_rational_matrix(rng, 9)
    lam = sk.FactorSequence(helpers.random_rational_vector(rng, 11))
    probes = sk.ProbePass(A, B, lam, 2)
    E = A.entries
    steps = np.cumsum(E[:, ::-1], axis=1)[:, ::-1]
    assert (probes.delta_x[sk.PROBE_DIFFERENCE] == np.diff(E, axis=0, prepend=0)[:, :-1]).all()
    assert (probes.delta_x[sk.PROBE_SHIFT] == np.diff(steps, axis=0, prepend=0)[:, 1:]).all()
    for strict in (False, True):
        M, ratios = probes.constant(strict_paper=strict)
        M_lib, ratios_lib = sk.empirical_constant(A, B, lam, 2, strict_paper=strict)
        assert M == M_lib and all(np.array_equal(ratios[kind], ratios_lib[kind]) for kind in ratios)


def test_strict_paper_probe_differs_only_for_k_above_one():
    rng = np.random.default_rng(7)
    A = helpers.random_positive_matrix(rng, 10)
    B = helpers.random_positive_matrix(rng, 10)
    lam = sk.FactorSequence(rng.uniform(0.5, 1.5, 12))
    probes = {k: sk.ProbePass(A, B, lam, k) for k in (1, 2)}
    plain_k1, strict_k1 = (probes[1].constant(strict_paper=strict)[1] for strict in (False, True))
    np.testing.assert_allclose(plain_k1[sk.PROBE_DIFFERENCE], strict_k1[sk.PROBE_DIFFERENCE], rtol=1e-15)
    plain_k2, strict_k2 = (probes[2].constant(strict_paper=strict)[1] for strict in (False, True))
    assert abs(plain_k2[sk.PROBE_DIFFERENCE][2] - strict_k2[sk.PROBE_DIFFERENCE][2]) > 1e-12  # b_vv != 1 generically
    assert np.array_equal(plain_k2[sk.PROBE_SHIFT], strict_k2[sk.PROBE_SHIFT])


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def riesz_pair_with_nan_factor(N, index):
    # the benchmark's cesaro / riesz-0.5 pair, lambda_n = n**-0.5 but one NaN factor
    A = sk.cesaro_matrix(N)
    B = sk.riesz_matrix(sk.WeightSequence((np.arange(N + 1) + 1.0) ** 0.5))
    values = np.ones(N + 2)
    values[1:] = np.arange(1, N + 2) ** -0.5
    values[index] = np.nan
    return A, B, sk.FactorSequence(values)


def test_empirical_constant_is_nan_when_a_probe_ratio_is():
    A, B, lam = riesz_pair_with_nan_factor(12, 5)
    M, ratios = sk.empirical_constant(A, B, lam, 2)
    assert any(np.isnan(r).any() for r in ratios.values())
    assert math.isnan(M)


def test_decompose_residual_is_nan_when_a_gap_is():
    # a NaN in one entry of B below row 0 reaches B-hat rows 6 and 7 only;
    # a NaN factor would reach every row through the matrix products
    A, B, lam = riesz_pair_with_nan_factor(12, 0)
    lam = helpers.ones_factors(14)
    poisoned = B.entries.copy()
    poisoned[6, 2] = np.nan
    dec = sk.decompose(A, sk.NormalMatrix(poisoned), lam, sk.SeriesSample(np.linspace(1.0, -1.0, 13)))
    gaps = dec.delta_y - dec.t1 - dec.t2
    assert not math.isnan(gaps[0]) and math.isnan(gaps[6])
    assert math.isnan(dec.residual)


def test_each_matrix_computes_its_hat_and_hat_inverse_once(monkeypatch):
    # on an explicit pair every one of these reads the hat matrices and A's hat inverse;
    # invert_hat may be called again, but it inverts the hat entries once
    import summakit.conditions
    import summakit.harness
    import summakit.matrices

    calls = []
    for name in ("hat_columns", "_lower_inverse"):
        real = getattr(summakit.matrices, name)

        def counting(M, *args, _name=name, _real=real):
            calls.append((_name, M))
            return _real(M, *args)

        for module in (summakit.matrices, summakit.conditions, summakit.harness):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    rng = np.random.default_rng(29)
    A, B = helpers.random_normal_matrix(rng, 10), helpers.random_normal_matrix(rng, 10)
    lam = sk.FactorSequence(rng.uniform(0.5, 1.5, 12))
    sk.check_c16(A, B, lam)
    for _ in range(2):
        sk.decompose(A, B, lam, sk.SeriesSample(rng.uniform(-1.0, 1.0, 11)))
    sk.empirical_constant(A, B, lam, 2)
    probes = sk.ProbePass(A, B, lam, 2)
    probes.key_identity_gaps()
    probes.cnv_column_sums()
    built = [M for name, M in calls if name == "hat_columns"]
    assert len(built) == 2 and {id(M) for M in built} == {id(A), id(B)}
    assert [id(M) for name, M in calls if name == "_lower_inverse"] == [id(sk.hat_of(A).entries)]


def test_decompose_refuses_too_few_coefficients():
    A, lam = sk.cesaro_matrix(6), sk.FactorSequence(np.ones(8))
    with pytest.raises(LengthMismatchError, match=r"^need 7 coefficients, have 3$"):
        sk.decompose(A, A, lam, sk.SeriesSample(np.ones(3)))


def test_decompose_identity_matrices():
    rng = np.random.default_rng(11)
    coeffs = rng.uniform(-1, 1, 9)
    dec = sk.decompose(sk.identity_matrix(8), sk.identity_matrix(8), helpers.ones_factors(9), sk.SeriesSample(coeffs))
    np.testing.assert_allclose(dec.t1, coeffs, atol=1e-15)
    np.testing.assert_array_equal(dec.t2, np.zeros(9))
    assert dec.residual <= 1e-15
    assert not dec.v0_retained  # identity rows sum to one


def test_decompose_cesaro_exact_zero_residual():
    rng = np.random.default_rng(13)
    A = sk.cesaro_matrix(10, exact=True)
    coeffs = helpers.random_rational_vector(rng, 11)
    dec = sk.decompose(A, A, helpers.ones_factors(11, exact=True), sk.SeriesSample(coeffs))
    assert dec.residual == 0
    assert not dec.v0_retained


def test_decompose_random_rational_row_stochastic_exact():
    rng = np.random.default_rng(17)
    for _ in range(5):
        A = helpers.random_rational_row_stochastic(rng, 10)
        B = helpers.random_rational_row_stochastic(rng, 10)
        lam = sk.FactorSequence(helpers.random_rational_vector(rng, 11))
        coeffs = helpers.random_rational_vector(rng, 11)
        dec = sk.decompose(A, B, lam, sk.SeriesSample(coeffs))
        assert dec.residual == 0
        assert not dec.v0_retained


def test_decompose_arbitrary_normal_matrices_exact_and_flagged():
    # the identity holds for any normal pair; non-unit leading bar column
    # only sets the retained-term flag
    rng = np.random.default_rng(19)
    A = helpers.random_rational_matrix(rng, 9)
    B = helpers.random_rational_matrix(rng, 9)
    lam = sk.FactorSequence(helpers.random_rational_vector(rng, 10))
    coeffs = helpers.random_rational_vector(rng, 10)
    dec = sk.decompose(A, B, lam, sk.SeriesSample(coeffs))
    assert dec.residual == 0
    assert dec.v0_retained


def test_decompose_delta_y_is_independent_of_the_split():
    rng = np.random.default_rng(23)
    A = helpers.random_rational_row_stochastic(rng, 8)
    B = helpers.random_rational_row_stochastic(rng, 8)
    lam = sk.FactorSequence(helpers.random_rational_vector(rng, 9))
    coeffs = helpers.random_rational_vector(rng, 9)
    dec = sk.decompose(A, B, lam, sk.SeriesSample(coeffs))
    factored = [coeffs[i] * lam.values[i] for i in range(9)]
    seq = oracles.seq_transform(oracles.to_rows(B), factored)
    assert list(dec.delta_y) == oracles.first_differences(seq)


def test_decompose_float_row_stochastic_tolerance():
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(20):
        A = helpers.random_row_stochastic(rng, 16)
        B = helpers.random_row_stochastic(rng, 16)
        lam = sk.FactorSequence(rng.uniform(-1, 1, 17))
        series = sk.SeriesSample(rng.uniform(-1, 1, 17))
        dec = sk.decompose(A, B, lam, series)
        scale = max(1.0, np.max(np.abs(series.partial_sums)))
        worst = max(worst, float(dec.residual) / scale)
    assert worst <= 1e-10


def test_decompose_weighted_mean_second_part_exactly_zero():
    # the bidiagonal hat inverse of a weighted mean leaves t2 no terms at all
    rng = np.random.default_rng(31)
    N = 200
    B = sk.riesz_matrix(sk.WeightSequence((np.arange(N + 1) + 1.0) ** 0.5))
    for A in (sk.cesaro_matrix(N), sk.riesz_matrix(helpers.random_positive_weights(rng, N + 1))):
        lam = sk.FactorSequence(rng.uniform(-1, 1, N + 1))
        series = sk.SeriesSample(rng.uniform(-1, 1, N + 1))
        dec = sk.decompose(A, B, lam, series)
        assert np.all(dec.t2 == 0.0)
        assert dec.residual <= 1e-10 * max(1.0, float(np.max(np.abs(series.partial_sums))))


# ---------------------------------------------------------------------------
# key identity and companion arrays
# ---------------------------------------------------------------------------


def test_key_identity_identity_matrix():
    rng = np.random.default_rng(31)
    B = helpers.random_rational_matrix(rng, 8)
    lam = sk.FactorSequence(helpers.random_rational_vector(rng, 9))
    A = sk.identity_matrix(8, exact=True)
    for n in range(2, 9):
        for v in range(1, n):
            assert sk.key_identity_check(A, B, lam, n, v) == 0


def test_key_identity_riesz_and_random_exact():
    rng = np.random.default_rng(37)
    A = sk.riesz_matrix(helpers.random_rational_weights(rng, 9))
    B = helpers.random_rational_matrix(rng, 8)
    lam = sk.FactorSequence(helpers.random_rational_vector(rng, 9))
    hat_b = sk.hat_of(B)
    inv_a = sk.invert_hat(sk.hat_of(A))
    for n in range(2, 9):
        for v in range(1, n):
            assert sk.key_identity_check(A, B, lam, n, v, hat_b=hat_b, inv_hat_a=inv_a) == 0

    A2 = helpers.random_rational_matrix(rng, 8)
    inv_a2 = sk.invert_hat(sk.hat_of(A2))
    for n in range(2, 9):
        for v in range(1, n):
            assert sk.key_identity_check(A2, B, lam, n, v, hat_b=hat_b, inv_hat_a=inv_a2) == 0


def test_key_identity_row_vector_matches_scalar_calls():
    rng = np.random.default_rng(71)
    cases = [
        (helpers.random_normal_matrix(rng, 12), helpers.random_normal_matrix(rng, 12), rng.uniform(-1, 1, 14)),
        (helpers.random_rational_matrix(rng, 8), helpers.random_rational_matrix(rng, 8), helpers.random_rational_vector(rng, 10)),
    ]
    for A, B, lam_vals in cases:
        lam = sk.FactorSequence(lam_vals)
        hat_b, inv_a = sk.hat_of(B), sk.hat_inverse(A)
        # the whole triangle at once: entry v - 1 is the largest of column v's gaps, bit for bit
        gaps = sk.ProbePass(A, B, lam, 1).key_identity_gaps()
        assert gaps.shape == (A.order - 1,)
        columns = [[] for _ in range(A.order - 1)]
        for n in range(2, A.order + 1):
            row = sk.key_identity_check(A, B, lam, n, np.arange(1, n), hat_b=hat_b, inv_hat_a=inv_a)
            scalar = [sk.key_identity_check(A, B, lam, n, v, hat_b=hat_b, inv_hat_a=inv_a) for v in range(1, n)]
            assert list(row) == scalar
            for v, gap in enumerate(scalar, 1):
                columns[v - 1].append(gap)
        assert list(gaps) == [max(column) for column in columns]
    with pytest.raises(IndexOutOfRangeError):
        sk.key_identity_check(A, B, lam, 4, np.arange(1, 5))


def test_key_identity_gap_is_relative_to_the_size_of_its_terms():
    # cesaro and riesz-0.5 as explicit entries at N = 1000: the absolute gap reached 3.9e-11 against
    # the row's 1e-11, mostly round-off of the dense hat of A; relative to the terms it is 6.6e-12
    N = 1000
    A = sk.NormalMatrix(sk.cesaro_matrix(N).entries)
    B = sk.NormalMatrix(sk.riesz_matrix(sk.WeightSequence((np.arange(N + 1) + 1.0) ** 0.5)).entries)
    lam = helpers.ones_factors(N + 2)
    assert np.max(sk.ProbePass(A, B, lam, 1).key_identity_gaps()) <= 1e-11
    # a 1e-9 change to one entry of the hat inverse that the identity reads still fails, at any v
    X = sk.hat_inverse(A).entries
    for v in (1, 500, N - 1):
        for n in (v, v + 1):
            changed = X.copy()
            changed[n, v] *= 1 + 1e-9
            assert sk.key_identity_check(A, B, lam, N, v, inv_hat_a=sk.NormalMatrix(changed)) > 1e-11
    changed = X.copy()
    changed[1, 1] += 1e-9
    assert sk.key_identity_check(A, B, lam, N, 1, inv_hat_a=sk.NormalMatrix(changed)) > 1e-11


def test_key_identity_gap_of_zero_terms_is_exactly_zero():
    # no 0/0: with zero factors both sides add only zeros, and the gap is 0 on both paths
    rng = np.random.default_rng(59)
    A = helpers.random_rational_matrix(rng, 6)
    zeros = sk.FactorSequence(np.asarray([F(0)] * 8, dtype=object))
    for B in (helpers.random_rational_matrix(rng, 6), sk.riesz_matrix(helpers.random_rational_weights(rng, 7))):
        assert sk.key_identity_check(A, B, zeros, 5, 2) == 0
        assert list(sk.ProbePass(A, B, zeros, 1).key_identity_gaps()) == [0] * 5
    assert list(sk.ProbePass(sk.cesaro_matrix(6), sk.cesaro_matrix(6), sk.FactorSequence(np.zeros(8)), 1).key_identity_gaps()) == [0.0] * 5


def test_bar_algebra_step():
    # intermediate step of the same display:
    # bar_{v+1,v} - bar_vv = a_{v+1,v+1} + a_{v+1,v} - a_vv
    rng = np.random.default_rng(41)
    m = helpers.random_rational_matrix(rng, 10)
    bar = np.asarray(oracles.bar_rows(oracles.to_rows(m)), dtype=object)
    e = m.entries
    for v in range(10):
        assert bar[v + 1, v] - bar[v, v] == e[v + 1, v + 1] + e[v + 1, v] - e[v, v]


def test_key_identity_index_guard():
    A = sk.cesaro_matrix(6)
    lam = helpers.ones_factors(8)
    with pytest.raises(IndexOutOfRangeError):
        sk.key_identity_check(A, A, lam, 3, 0)
    with pytest.raises(IndexOutOfRangeError):
        sk.key_identity_check(A, A, lam, 3, 3)


def test_build_cnv_identity_unit_factors():
    C = sk.build_cnv(sk.identity_matrix(8), sk.identity_matrix(8), helpers.ones_factors(9), 1)
    assert np.all(np.diagonal(C)[1:] == 1.0)
    assert C[0, 0] == 0.0
    # middle terms collapse: delta contributes -1, gap correction +1
    assert np.max(np.abs(np.tril(C, -1))) == 0.0
    assert sk.l1_lk_bound(C, 1).sup == 1.0


def test_build_cnv_zero_factors():
    C = sk.build_cnv(sk.cesaro_matrix(6), sk.cesaro_matrix(6), sk.FactorSequence(np.zeros(7)), 2)
    assert np.all(C == 0.0)


def test_build_cnv_matches_rational_oracle_k1():
    rng = np.random.default_rng(43)
    A = helpers.random_rational_row_stochastic(rng, 12)
    B = helpers.random_rational_row_stochastic(rng, 12)
    lam = sk.FactorSequence(helpers.random_rational_vector(rng, 13))
    C = sk.build_cnv(A, B, lam, 1)
    bound = sk.l1_lk_bound(C, 1)
    a_rows, b_rows = oracles.to_rows(A), oracles.to_rows(B)
    for v in range(13):
        expected = oracles.cnv_colsum_pow(a_rows, b_rows, list(lam.values), 1, v)
        assert bound.column_sums[v] == expected


def test_build_cnv_cesaro_k2_column_sums():
    A = sk.cesaro_matrix(12)
    lam = sk.FactorSequence(1.0 / (np.arange(13) + 1.0))
    bound = sk.l1_lk_bound(sk.build_cnv(A, A, lam, 2), 2)
    a_rows = oracles.to_rows(sk.cesaro_matrix(12, exact=True))
    lam_exact = [F(1, n + 1) for n in range(13)]
    for v in range(13):
        expected = oracles.cnv_colsum_pow(a_rows, a_rows, lam_exact, 2, v)
        np.testing.assert_allclose(bound.column_sums[v], float(expected), rtol=1e-12, atol=1e-300)


def test_build_dnr_identity_unit_factors():
    D = sk.build_dnr(sk.identity_matrix(3), sk.identity_matrix(3), helpers.ones_factors(4), 1)
    expected = np.zeros((4, 4))
    expected[2, :1] = 1.0
    expected[3, :2] = 1.0
    np.testing.assert_array_equal(D, expected)


def test_build_dnr_boundary_factors_are_unit():
    # lam_n = (a_nn / b_nn) n**(1/k-1) cancels the row value to exactly one
    rng = np.random.default_rng(47)
    A = helpers.random_positive_matrix(rng, 10)
    B = helpers.random_positive_matrix(rng, 10)
    k = 2
    lam_vals = np.ones(11)
    n = np.arange(1, 11, dtype=float)
    lam_vals[1:] = np.asarray(A.diagonal[1:] / B.diagonal[1:]) * n ** (1.0 / k - 1.0)
    D = sk.build_dnr(A, B, sk.FactorSequence(lam_vals), k)
    for row in range(2, 11):
        np.testing.assert_allclose(D[row, : row - 1], np.ones(row - 1), rtol=1e-13)


def test_build_dnr_matches_rational_oracle():
    rng = np.random.default_rng(53)
    A = helpers.random_rational_row_stochastic(rng, 12)
    B = helpers.random_rational_row_stochastic(rng, 12)
    lam = sk.FactorSequence(helpers.random_rational_vector(rng, 13))
    bound = sk.l1_lk_bound(sk.build_dnr(A, B, lam, 1), 1)
    a_rows, b_rows = oracles.to_rows(A), oracles.to_rows(B)
    for r in range(13):
        assert bound.column_sums[r] == oracles.dnr_colsum_pow(a_rows, b_rows, list(lam.values), 1, r)


WEIGHT_NATIVE_K = [1, 1.5, 2, 3.7]


def _dense_probe_pows(hat, lv, k):
    # each probe's sum_n n**(k-1) |delta_nv|**k, reduced from the dense columns of probe_deltas
    w = np.arange(hat.shape[0], dtype=float) ** (k - 1.0)
    w[0] = 1.0
    return dict(zip((sk.PROBE_DIFFERENCE, sk.PROBE_SHIFT), (column_sums(d, k, w) for d in sk.probe_deltas(hat, lv))))


def _dense_constant(x_norm, y_pow, b_diag, lv, k, strict):
    # the largest y-norm / x-norm over v >= 1 and both kinds; strict swaps |b_vv lam_v|**k for b_vv |lam_v|**k
    ratios = []
    for kind in (sk.PROBE_DIFFERENCE, sk.PROBE_SHIFT):
        ypow = y_pow[kind].copy()
        if strict and kind == sk.PROBE_DIFFERENCE:
            v = np.arange(ypow.size, dtype=float)
            w = np.where(v == 0, 1.0, v ** (k - 1.0))
            b, f = b_diag[: ypow.size], lv[: ypow.size]
            ypow += w * (np.abs(b) * np.abs(f) ** k - np.abs(b * f) ** k)
        ratios.extend(ypow[1:] ** (1.0 / k) / x_norm[kind][1:])
    return max(ratios)


@pytest.mark.parametrize("k", WEIGHT_NATIVE_K)
def test_weight_native_norms_match_dense_columns(k):
    # a weighted-mean pair's probe norms, bound constants and c_nv column sums read from the
    # weights, beside the same quantities reduced from the dense columns of the closed-form hats;
    # the c_nv sums read a weighted-mean B from its weights beside an explicit A too
    rng = np.random.default_rng(89)
    for N in (12, 300):
        riesz = sk.riesz_matrix(sk.WeightSequence((np.arange(N + 1) + 1.0) ** 0.5))
        pairs = [
            (sk.cesaro_matrix(N), riesz, 1.0 / np.sqrt(np.maximum(np.arange(N + 2), 1))),
            (
                sk.riesz_matrix(helpers.random_positive_weights(rng, N + 1, 0.5, 2.0)),
                sk.riesz_matrix(helpers.random_positive_weights(rng, N + 1, 0.5, 2.0)),
                rng.uniform(-1, 1, N + 2),
            ),
            (helpers.random_normal_matrix(np.random.default_rng(N), N), riesz, 1.0 / np.sqrt(np.maximum(np.arange(N + 2), 1))),
        ]
        for A, B, lam_vals in pairs:
            lam = sk.FactorSequence(lam_vals)
            x_norm = _dense_probe_pows(sk.hat_of(A).entries, np.ones(N + 1), 1)
            y_pow = _dense_probe_pows(sk.hat_of(B).entries, lam_vals, k)
            native = sk.ProbePass(A, B, lam, k)
            for kind in (sk.PROBE_DIFFERENCE, sk.PROBE_SHIFT):
                np.testing.assert_allclose(native.x_norm[kind], x_norm[kind], rtol=1e-13)
                np.testing.assert_allclose(native.y_pow[kind], y_pow[kind], rtol=1e-13)
            for strict in (False, True):
                dense_constant = _dense_constant(x_norm, y_pow, B.diagonal, lam_vals, k, strict)
                np.testing.assert_allclose(native.constant(strict)[0], dense_constant, rtol=1e-13)
                sums = native.cnv_column_sums(strict_paper=strict)
                assert sums[0] == 0.0
                dense_sums = sk.l1_lk_bound(sk.build_cnv(A, B, lam, k, strict), k).column_sums
                np.testing.assert_allclose(sums, dense_sums, rtol=1e-13)
                # N + 1 factors are all that either path reads
                short = sk.FactorSequence(lam_vals[: N + 1])
                assert np.array_equal(sk.ProbePass(A, B, short, k).cnv_column_sums(strict_paper=strict), sums)


@pytest.mark.parametrize("k", WEIGHT_NATIVE_K)
def test_strict_cnv_sums_first_leave_the_plain_sums_bits(k):
    # the two bounds keep their W tails apart: index power k - 1 and (k - 1) / k
    def pair():
        return sk.cesaro_matrix(40), sk.riesz_matrix(sk.WeightSequence((np.arange(41) + 1.0) ** 0.5))

    lam = sk.FactorSequence(1.0 / np.sqrt(np.arange(42) + 1.0))
    plain = sk.ProbePass(*pair(), lam, k).cnv_column_sums()
    probes = sk.ProbePass(*pair(), lam, k)
    strict = probes.cnv_column_sums(strict_paper=True)
    assert probes.cnv_column_sums().tobytes() == plain.tobytes()
    assert (strict.tobytes() == plain.tobytes()) == (k == 1)


@pytest.mark.parametrize("k", WEIGHT_NATIVE_K)
def test_dnr_column_sums_are_the_dense_column_sums_bit_for_bit(k):
    rng = np.random.default_rng(97)
    N = 300
    lam = sk.FactorSequence(rng.uniform(-1, 1, N + 2))
    pairs = [
        (sk.cesaro_matrix(N), sk.riesz_matrix(sk.WeightSequence((np.arange(N + 1) + 1.0) ** 0.5))),
        (helpers.random_positive_matrix(rng, N), helpers.random_normal_matrix(rng, N)),
    ]
    for A, B in pairs:
        dense = sk.l1_lk_bound(sk.build_dnr(A, B, lam, k), k).column_sums
        assert np.array_equal(sk.ProbePass(A, B, lam, k).dnr_column_sums(), dense)


def test_dnr_row_terms_past_float_range_name_their_row():
    # d_n = n**(1/2) b_nn lam_n / a_nn is 1e200 sqrt(n) here: its square is past float range from n = 1
    A = sk.NormalMatrix(np.eye(5) * 1e-200)
    with pytest.raises(PowerOverflowError, match=r"^the d_nr row term \|d_n\|\*\*k at n = 1 is not finite \(float overflow\)$"):
        sk.ProbePass(A, sk.identity_matrix(4), helpers.ones_factors(6), 2).dnr_column_sums()


def test_necessity_wiring_y_norm_and_c10():
    # the y-norm k-th power of a difference probe splits into the diagonal term plus exactly
    # the c10 numerator truncated at the same order, and a shift probe's is its c11 numerator:
    # on the generic transform of the probe series, and on the probe pass over a dense B and a weighted mean
    rng = np.random.default_rng(59)
    N, k = 20, 2
    A = helpers.random_positive_matrix(rng, N)
    lam = sk.FactorSequence(rng.uniform(0.2, 1.0, N + 2))
    weighted = sk.riesz_matrix(helpers.random_positive_weights(rng, N + 1, 0.5, 2.0))
    for B in (helpers.random_positive_matrix(rng, N), weighted):
        c10 = sk.check_c10(A, B, lam, k, sk.TailSpec(N), v_max=N - 1)
        c11 = sk.check_c11(B, lam, k, sk.TailSpec(N), v_max=N - 1)
        y_pow = sk.ProbePass(A, B, lam, k).y_pow
        for v in range(1, N):
            diag_term = float(v) ** (k - 1.0) * abs(B.diagonal[v] * lam.values[v]) ** k
            numerator = c10.ratios[v] * abs(float(A.diagonal[v])) ** k
            want = {sk.PROBE_DIFFERENCE: diag_term + numerator, sk.PROBE_SHIFT: c11.ratios[v]}
            for kind, value in want.items():
                coeffs = sk.probe_series(kind, v, N + 1).coefficients * lam.values[: N + 1]
                np.testing.assert_allclose(float(oracles.y_pow_norm(sk.apply_hat(B, coeffs), k)), value, rtol=1e-12)
                np.testing.assert_allclose(y_pow[kind][v], value, rtol=1e-12)


def test_t2_bounded_by_c16_and_dnr():
    # with C = sup c16 ratio: sum n^{k-1} |t2_n|^k <= (2C)^k * dnr bound * (sum |dx|)^k
    rng = np.random.default_rng(61)
    for trial in range(5):
        N, k = 14, 2
        A = helpers.random_positive_matrix(rng, N)
        B = helpers.random_positive_matrix(rng, N)
        lam = sk.FactorSequence(rng.uniform(0.3, 1.2, N + 2))
        series = sk.SeriesSample(rng.uniform(-1, 1, N + 1))
        dec = sk.decompose(A, B, lam, series)
        dx = sk.apply_hat(A, series.coefficients)
        C = sk.check_c16(A, B, lam).sup_ratio
        lhs = float(np.sum(np.arange(1, N + 1) ** (k - 1.0) * np.abs(dec.t2[1:]) ** k))
        dnr_bound = sk.l1_lk_bound(sk.build_dnr(A, B, lam, k), k).sup
        rhs = (2.0 * C) ** k * dnr_bound * float(np.sum(np.abs(dx))) ** k
        assert lhs <= rhs
