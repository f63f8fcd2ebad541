import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

import summakit as sk
from summakit.errors import BadExponentError, LengthMismatchError

import helpers
import oracles


def test_series_partial_sums():
    s = sk.SeriesSample([1.0, -2.0, 0.5])
    np.testing.assert_allclose(s.partial_sums, [1.0, -1.0, -0.5])
    assert s.order == 2
    with pytest.raises(AttributeError, match=r"^SeriesSample is immutable$"):
        s.coefficients = np.zeros(3)


def test_series_and_factors_refuse_no_values():
    with pytest.raises(LengthMismatchError, match=r"^a series needs at least one coefficient$"):
        sk.SeriesSample([])
    with pytest.raises(LengthMismatchError, match=r"^a factor sequence needs at least one value$"):
        sk.FactorSequence([])
    # nor values that are not numbers: strings were summed as strings, and bools taken as exact
    with pytest.raises(sk.MixedArithmeticError, match=r"^exact entry 0 is '1', not an int or a Fraction$"):
        sk.SeriesSample(["1", "2"])
    for values, bad in ((["0.5"] * 7, "0 is '0.5'"), ([True] * 7, "0 is True"), ([F(1), F(1, 2), True, 3], "2 is True")):
        with pytest.raises(sk.MixedArithmeticError, match=rf"^exact entry {bad}, not an int or a Fraction$"):
            sk.FactorSequence(values)
    with pytest.raises(AttributeError, match=r"^FactorSequence is immutable$"):
        sk.FactorSequence([1.0]).values = np.zeros(1)


def test_transform_identity_returns_partial_sums():
    rng = np.random.default_rng(1)
    s = sk.SeriesSample(rng.uniform(-1, 1, 6))
    np.testing.assert_array_equal(sk.apply_lower(sk.identity_matrix(5), s.partial_sums), s.partial_sums)


def test_transform_cesaro_unit_impulse():
    s = sk.SeriesSample([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(sk.apply_lower(sk.cesaro_matrix(3), s.partial_sums), np.ones(4))


def test_transform_cesaro_alternating():
    s = sk.SeriesSample([1.0, -1.0, 1.0, -1.0])
    np.testing.assert_allclose(sk.apply_lower(sk.cesaro_matrix(3), s.partial_sums), [1.0, 0.5, 2 / 3, 0.5])
    exact = sk.apply_lower(
        sk.cesaro_matrix(3, exact=True),
        sk.SeriesSample(np.asarray([F(1), F(-1), F(1), F(-1)], dtype=object)).partial_sums,
    )
    assert list(exact) == [F(1), F(1, 2), F(2, 3), F(1, 2)]


def test_delta_identity_returns_coefficients():
    rng = np.random.default_rng(2)
    s = sk.SeriesSample(rng.uniform(-1, 1, 6))
    np.testing.assert_array_equal(sk.apply_hat(sk.identity_matrix(5), s.coefficients), s.coefficients)


def test_delta_cesaro_closed_form():
    # unit weights: delta_n = (1/(n(n+1))) * sum_{v=1..n} v a_v
    rng = np.random.default_rng(3)
    coeffs = helpers.random_rational_vector(rng, 9)
    s = sk.SeriesSample(coeffs)
    out = sk.apply_hat(sk.cesaro_matrix(8, exact=True), s.coefficients)
    for n in range(1, 9):
        expected = sum((F(v) * coeffs[v] for v in range(1, n + 1)), F(0)) / (n * (n + 1))
        assert out[n] == expected
    assert out[0] == coeffs[0]


def test_delta_equals_transform_differences_exact():
    rng = np.random.default_rng(5)
    m = helpers.random_rational_matrix(rng, 9)
    coeffs = helpers.random_rational_vector(rng, 10)
    s = sk.SeriesSample(coeffs)
    via_hat = sk.apply_hat(m, s.coefficients)
    seq = oracles.seq_transform(oracles.to_rows(m), list(coeffs))
    assert list(via_hat) == oracles.first_differences(seq)


def test_delta_equals_transform_differences_float():
    rng = np.random.default_rng(7)
    m = helpers.random_normal_matrix(rng, 12)
    s = sk.SeriesSample(rng.uniform(-1, 1, 13))
    via_hat = sk.apply_hat(m, s.coefficients)
    seq = sk.apply_lower(m, s.partial_sums)
    direct = np.concatenate([[seq[0]], np.diff(seq)])
    scale = max(1.0, np.max(np.abs(s.partial_sums)))
    assert np.max(np.abs(via_hat - direct)) <= 1e-12 * scale


def test_profile_identity_is_weighted_coefficient_sums():
    rng = np.random.default_rng(11)
    coeffs = rng.uniform(-1, 1, 9)
    s = sk.SeriesSample(coeffs)
    prof = sk.abs_k_profile(sk.identity_matrix(8), s, 1)
    np.testing.assert_allclose(prof.terms, np.abs(coeffs[1:]))
    np.testing.assert_allclose(prof.total, np.sum(np.abs(coeffs[1:])))
    prof2 = sk.abs_k_profile(sk.identity_matrix(8), s, 2.0)
    np.testing.assert_allclose(prof2.terms, np.arange(1, 9) * coeffs[1:] ** 2)


def test_profile_zero_series():
    prof = sk.abs_k_profile(sk.cesaro_matrix(5), sk.SeriesSample(np.zeros(6)), 1.5)
    assert prof.total == 0.0
    assert sk.abs_k_profile(sk.cesaro_matrix(0), sk.SeriesSample([1.0]), 1.5).total == 0.0  # N = 0: no term


def test_profile_cesaro_alternating_matches_rational_oracle():
    N = 100
    coeffs = [F((-1) ** n, n + 1) for n in range(N + 1)]
    m = sk.cesaro_matrix(N, exact=True)
    prof = sk.abs_k_profile(m, sk.SeriesSample(np.asarray(coeffs, dtype=object)), 1)
    deltas = oracles.first_differences(oracles.seq_transform(oracles.to_rows(m), coeffs))
    running = F(0)
    for n in range(1, N + 1):
        running += abs(deltas[n])
        assert prof.terms[n - 1] == abs(deltas[n])
        assert prof.running_total[n - 1] == running


def test_profile_running_total_monotone():
    rng = np.random.default_rng(13)
    m = helpers.random_normal_matrix(rng, 20)
    prof = sk.abs_k_profile(m, sk.SeriesSample(rng.uniform(-1, 1, 21)), 1.3)
    assert np.all(prof.terms >= 0)
    assert np.all(np.diff(prof.running_total) >= 0)


def test_profile_running_totals_are_correctly_rounded():
    # riesz power-0.5 A, alternating series, k = 2: np.cumsum of the terms drifts 1.8e-15 relative by
    # N = 2000. Each total is the exact sum of the float terms through n rounded once, so it is
    # math.fsum of them; the exact sums are one Fraction accumulation, as fsum at every n is O(N^2)
    N = 10**4
    A = sk.riesz_matrix(sk.WeightSequence((np.arange(N + 1) + 1.0) ** 0.5))
    a = sk.SeriesSample((-1.0) ** np.arange(N + 1) / (np.arange(N + 1) + 1.0))
    prof = sk.abs_k_profile(A, a, 2)
    terms = prof.terms.tolist()
    assert prof.running_total.tolist() == [float(s) for s in itertools.accumulate(map(F, terms))]
    for n in (1, 2, 10, 999, N):
        assert prof.running_total[n - 1] == math.fsum(terms[:n])
    np.testing.assert_array_equal(prof.deltas, sk.apply_hat(A, a.coefficients))


def test_profile_bad_exponent():
    with pytest.raises(BadExponentError):
        sk.abs_k_profile(sk.identity_matrix(3), sk.SeriesSample(np.ones(4)), 0.5)


def test_norms_known_values():
    # the probe norms weigh n = 0 by one whatever k, n**(k-1) beyond: through the identity the
    # difference probe at v = 0 has deltas (1, -1, 0, ...) and at v = 2 (0, 0, 1, -1, 0)
    I = sk.identity_matrix(4)
    for k in (1, 2, 3.5):
        probes = sk.ProbePass(I, I, helpers.ones_factors(6), k)
        assert probes.x_norm[sk.PROBE_DIFFERENCE][[0, 2]].tolist() == [2.0, 2.0]
        np.testing.assert_allclose(probes.y_pow[sk.PROBE_DIFFERENCE][[0, 2]], [2.0, 2.0 ** (k - 1) + 3.0 ** (k - 1)], rtol=1e-15)


def test_reconstruction_via_inverse_hat():
    # the inverse hat applied to the deltas recovers the coefficients
    rng = np.random.default_rng(17)
    m = helpers.random_normal_matrix(rng, 32)
    coeffs = rng.uniform(-1, 1, 33)
    deltas = sk.apply_hat(m, coeffs)
    back = sk.apply_lower(sk.invert_hat(sk.hat_of(m)), deltas)
    assert np.max(np.abs(back - coeffs)) <= 1e-9

    mx = helpers.random_rational_matrix(rng, 8)
    cx = helpers.random_rational_vector(rng, 9)
    dx = sk.apply_hat(mx, cx)
    bx = sk.apply_lower(sk.invert_hat(sk.hat_of(mx)), dx)
    assert list(bx) == list(cx)


def test_transform_length_mismatch():
    with pytest.raises(LengthMismatchError):
        sk.apply_lower(sk.identity_matrix(5), sk.SeriesSample([1.0, 2.0]).partial_sums)
