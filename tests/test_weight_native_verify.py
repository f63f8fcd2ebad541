"""The weight-native verify rows against 40-digit oracles, and with one factor off by 1e-9.

On a weighted-mean pair, ``decompose``'s hat products and first part, the
key-identity gaps and the probe-consistency row's factors are read from the
weights in O(N).  At N = 2000, for power weights (n + 1)**beta, each is
checked against the mpmath oracles of ``oracles.py`` within a stated bound
in units of eps (about four times the worst error measured; CHANGES.md gives
the measured values).  The exact-arithmetic comparison with the dense path
is in ``test_weight_native_exact.py``.
"""

from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

import summakit as sk
import summakit.harness
from summakit.matrices import apply_hat

import helpers
import oracles

EPS = np.finfo(float).eps
N_MP = 2000
# (beta of A, beta of B): every beta in {0, 0.5, 2} on each side
POWER_PAIRS = [(0.0, 0.5), (0.5, 2.0), (2.0, 0.0)]


def power_weights(beta, N):
    return (np.arange(N + 1) + 1.0) ** beta


def power_factors(N):
    lam = np.ones(N + 2)
    lam[1:] = np.arange(1, N + 2) ** -0.5
    return lam


def normwise(values, exact):
    """Largest absolute error over the largest exact magnitude."""
    exact = [float(x) for x in exact]
    return max(abs(float(a) - b) for a, b in zip(values, exact)) / max(abs(b) for b in exact)


def elementwise(values, exact):
    return max(abs(float(a) - float(b)) / abs(float(b)) for a, b in zip(values, exact))


def test_mp_oracles_are_the_rational_definitions():
    # the O(N) 40-digit oracles against the O(N^2) brute-force ones on rational weights
    rng = np.random.default_rng(5)
    N = 9
    A, B = (sk.riesz_matrix(helpers.random_rational_weights(rng, N + 1)) for _ in "AB")
    p, q = list(A.weights.weights), list(B.weights.weights)
    lam = list(helpers.random_rational_vector(rng, N + 1))
    x = list(helpers.random_rational_vector(rng, N + 1))
    a_rows, b_rows = oracles.to_rows(A), oracles.to_rows(B)
    ah, bh = oracles.hat_rows(a_rows), oracles.hat_rows(b_rows)
    dx = oracles.matvec(ah, x)
    t1 = [
        b_rows[n][n] * lam[n] / a_rows[n][n] * dx[n]
        + sum((oracles._middle_summand(a_rows, bh, lam, n, v) * dx[v] for v in range(n)), F(0))
        for n in range(N + 1)
    ]
    c, d = oracles.mp_row_factors(p)

    def close(mp_values, exact):
        return all(abs(a - oracles.mp_list([b])[0]) <= 1e-35 * max(1, abs(float(b))) for a, b in zip(mp_values, exact))

    assert close(oracles.mp_delta_transform(p, x), dx)
    assert close(oracles.mp_first_part(p, q, lam, oracles.mp_list(dx)), t1)
    # the diagonal of hat row n is c_n P_{n-1}; A's first difference in column 0 is -p_0 d_n
    assert close(c, [ah[n][n] / sum(p[:n]) for n in range(1, N + 1)])
    assert close(d, [(a_rows[n - 1][0] - a_rows[n][0]) / p[0] for n in range(1, N + 1)])
    assert all(abs(g) <= 1e-35 for g in oracles.mp_key_gaps(p, q, lam))


@pytest.mark.parametrize("beta_a, beta_b", POWER_PAIRS)
def test_weight_native_rows_match_the_40_digit_oracles(beta_a, beta_b):
    N = N_MP
    p, q, lam = power_weights(beta_a, N), power_weights(beta_b, N), power_factors(N)
    coeffs = np.random.default_rng(2000).uniform(-1.0, 1.0, N + 1)
    A, B = sk.riesz_matrix(sk.WeightSequence(p)), sk.riesz_matrix(sk.WeightSequence(q))
    factors = sk.FactorSequence(lam)

    dec = sk.decompose(A, B, factors, sk.SeriesSample(coeffs))
    dx = oracles.mp_delta_transform(p, coeffs)
    dy = oracles.mp_delta_transform(q, coeffs * lam[: N + 1])
    t1 = oracles.mp_first_part(p, q, lam[: N + 1], dx)
    assert normwise(apply_hat(A, coeffs), dx) <= 4 * EPS
    assert normwise(dec.delta_y, dy) <= 4 * EPS
    assert normwise(dec.t1, t1) <= 4 * EPS
    assert not np.any(dec.t2)
    # the oracle's own decomposition identity, t1 = dy since t2 is 0 on a weighted-mean A, with
    # the products a_n lam_n taken exactly (dy's input above is the float product the library uses)
    with mpmath.workdps(oracles.MP_DIGITS):
        products = [a * f for a, f in zip(oracles.mp_list(coeffs), oracles.mp_list(lam))]
        exact_dy = oracles.mp_delta_transform(q, products)
        assert max(abs(a - b) for a, b in zip(t1, exact_dy)) <= 1e-35 * max(abs(b) for b in exact_dy)

    # every gap is round-off on an identity whose exact value is 0
    assert np.max(sk.key_identity_gaps(A, B, factors)) <= 4 * EPS
    assert max(oracles.mp_key_gaps(p, q, lam[: N + 1])) <= 1e-35

    probes = sk.ProbePass(A, B, factors, 2)
    x = probes.delta_x
    c, d = oracles.mp_row_factors(p)
    assert elementwise(x.rows[1:], c) <= 32 * EPS
    assert elementwise(x.rows[1:], d) <= 32 * EPS
    assert elementwise(-x.scalars[sk.PROBE_DIFFERENCE], oracles.mp_list(p[:N])) <= 32 * EPS
    assert elementwise(x.scalars[sk.PROBE_SHIFT], oracles.partial_sums(oracles.mp_list(p))[:N]) <= 32 * EPS
    assert probes.definition_gap() <= 4 * EPS


def riesz_pair(N=40):
    A = sk.cesaro_matrix(N)
    B = sk.riesz_matrix(sk.WeightSequence(power_weights(0.5, N)))
    return A, B, sk.FactorSequence(power_factors(N))


def test_one_probe_factor_off_by_1e_9_fails_the_probe_consistency_row():
    A, B, lam = riesz_pair()
    assert sk.ProbePass(A, B, lam, 2).definition_gap() <= 1e-12
    for n in (1, 17, 40):
        probes = sk.ProbePass(A, B, lam, 2)
        probes.delta_x.rows[n] += 1e-9
        assert probes.definition_gap() > 1e-12
    for kind in (sk.PROBE_DIFFERENCE, sk.PROBE_SHIFT):
        for v in (0, 3):  # the row is absolute: a change of 1e-9 shows where d_{v+1} is not small
            probes = sk.ProbePass(A, B, lam, 2)
            probes.delta_x.scalars[kind][v] += 1e-9
            assert probes.definition_gap() > 1e-12


def test_one_hat_inverse_band_entry_off_by_1e_9_fails_the_key_identity_row(monkeypatch):
    A, B, lam = riesz_pair()
    assert np.max(sk.key_identity_gaps(A, B, lam)) <= 1e-11
    real = summakit.harness.hat_inverse_bands
    for band in (0, 1):
        for v in (1, 20, 39):

            def shifted(M, band=band, v=v):
                bands = [b.copy() for b in real(M)]
                bands[band][v] += 1e-9 * abs(bands[band][v])
                return bands

            monkeypatch.setattr(summakit.harness, "hat_inverse_bands", shifted)
            assert np.max(sk.key_identity_gaps(A, B, lam)) > 1e-11

