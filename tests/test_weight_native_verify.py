"""The weight-native verify, check and transform rows against 40-digit oracles, and with one factor off by 1e-9.

On a weighted-mean pair, ``decompose``'s hat products and first part, the
key-identity gaps, the probe-consistency row's factors, the probe norms and
the bound constant's ratios, the d_nr sums, ``transform``'s columns, the W
tail and the C10, C11 and TA rows built on it are read from the weights in O(N).  At N = 2000, for power weights
(n + 1)**beta (and geometric ones for the W tail), each is checked against the mpmath oracles of ``oracles.py``
within a stated bound in units of eps (about four times the worst error
measured, or below the error of the dense path it replaced; CHANGES.md gives
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
    assert close(oracles.mp_w_tail(q, 2, N, N), [oracles.w_tail_pow(q, 2, v, N) for v in range(N)])
    # the probe norms: each column of the probe matrices of the hat matrices, the d_nr sums: |d_n|**k summed down
    columns = {"difference": lambda H, f, v: [H[n][v] * f[v] - H[n][v + 1] * f[v + 1] for n in range(N + 1)]}
    columns["shift"] = lambda H, f, v: [H[n][v + 1] * f[v + 1] for n in range(N + 1)]
    x, y = oracles.mp_probe_pows(p, [1] * (N + 1), 1), oracles.mp_probe_pows(q, lam, 2)
    for kind, column in columns.items():
        assert close(x[kind], [oracles.x_abs_norm(column(ah, [1] * (N + 1), v)) for v in range(N)])
        assert close(y[kind], [oracles.y_pow_norm(column(bh, lam, v), 2) for v in range(N)])
    strict = oracles.mp_probe_pows(q, lam, 2, strict=True)["difference"]
    literal = [v * (b_rows[v][v] * lam[v]) ** 2 - v * b_rows[v][v] * lam[v] ** 2 for v in range(N)]
    assert close(strict, [oracles.y_pow_norm(columns["difference"](bh, lam, v), 2) - t for v, t in enumerate(literal)])
    dnr = [oracles.dnr_colsum_pow(a_rows, b_rows, lam, 2, r) for r in range(N + 1)]
    assert close(oracles.mp_dnr_column_sums(p, q, lam, 2), dnr)


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
    assert np.max(sk.ProbePass(A, B, factors, 2).key_identity_gaps()) <= 4 * EPS
    assert max(oracles.mp_key_gaps(p, q, lam[: N + 1])) <= 1e-35

    probes = sk.ProbePass(A, B, factors, 2)
    x = probes.delta_x
    c, d = oracles.mp_row_factors(p)
    assert elementwise(x.rows[1:], c) <= 32 * EPS
    assert elementwise(x.rows[1:], d) <= 32 * EPS
    assert elementwise(-x.scalars[sk.PROBE_DIFFERENCE], oracles.mp_list(p[:N])) <= 32 * EPS
    assert elementwise(x.scalars[sk.PROBE_SHIFT], oracles.partial_sums(oracles.mp_list(p))[:N]) <= 32 * EPS
    assert probes.definition_gap() <= 4 * EPS


def test_transform_rows_match_the_40_digit_oracles():
    # the transform and delta columns of ``transform`` on a riesz power-0.5 A and the alternating series, beta = 1:
    # 1.12e-15 (5.05 eps, most of it the float P_n) and 6.6e-15 worst relative error; dense products give 1.44e-15
    # and 2.05e-12
    N = N_MP
    p = power_weights(0.5, N)
    a = sk.SeriesSample((-1.0) ** np.arange(N + 1) / (np.arange(N + 1) + 1.0))
    A = sk.riesz_matrix(sk.WeightSequence(p))
    assert elementwise(sk.apply_lower(A, a.partial_sums), oracles.mp_weighted_mean(p, a.partial_sums)) <= 6 * EPS
    assert elementwise(sk.apply_hat(A, a.coefficients), oracles.mp_delta_transform(p, a.coefficients)) <= 128 * EPS


# (beta of A, beta of B, k): every beta on each side and every k once, each k plain and strict,
# on the weighted pair and on an explicit A (the weighted mean's dense twin) with a weighted-mean B,
# whose gap factor is evaluated from its float entries; the oracle reads those entries exactly
CNV_CASES = [(0.0, 0.5, 1), (0.5, 2.0, 1.5), (2.0, 0.0, 2), (0.0, 0.5, 3.7)]


@pytest.mark.parametrize("beta_a, beta_b, k", CNV_CASES)
def test_cnv_column_sums_match_the_40_digit_oracle(beta_a, beta_b, k):
    N = N_MP
    p, q, lam = power_weights(beta_a, N), power_weights(beta_b, N), power_factors(N)
    A, B, factors = sk.riesz_matrix(sk.WeightSequence(p)), sk.riesz_matrix(sk.WeightSequence(q)), sk.FactorSequence(lam)
    explicit = sk.NormalMatrix(A.entries)
    for X, bands in ((A, oracles.mp_weighted_mean_bands(p)), (explicit, (explicit.diagonal, explicit.subdiagonal))):
        plain, strict = oracles.mp_cnv_column_sums(bands, q, lam[: N + 1], k, (k - 1, (k - 1) / k))
        for strict_paper, want in ((False, plain), (True, strict)):
            got = sk.ProbePass(X, B, factors, k).cnv_column_sums(strict_paper=strict_paper)
            assert got[0] == 0
            assert elementwise(got[1:], want[1:]) <= 80 * EPS


# the worst errors measured over CNV_CASES, in eps: 5.9 (x-norms, beta_a = 0.5), 21.7 (y-norms**k, shift probe at
# k = 3.7), 7.4 (plain ratios y-norm / x-norm) and 7.3 (strict ratios), both at k = 1.5, and 11.0 (d_nr sums, k = 3.7)
PROBE_BOUNDS = {"x": 24, "y": 88, "ratio": 32, "dnr": 48}


@pytest.mark.parametrize("beta_a, beta_b, k", CNV_CASES)
def test_probe_norms_and_dnr_sums_match_the_40_digit_oracles(beta_a, beta_b, k):
    # both probe kinds' x-norms and y-norms**k, the ratios of the bound constant plain and strict, and the d_nr sums
    N = N_MP
    p, q, lam = power_weights(beta_a, N), power_weights(beta_b, N), power_factors(N)
    A, B = sk.riesz_matrix(sk.WeightSequence(p)), sk.riesz_matrix(sk.WeightSequence(q))
    probes = sk.ProbePass(A, B, sk.FactorSequence(lam), k)
    x = oracles.mp_probe_pows(p, [1] * (N + 1), 1)
    for strict_paper in (False, True):
        y = oracles.mp_probe_pows(q, lam[: N + 1], k, strict=strict_paper)
        ratios = probes.constant(strict_paper)[1]
        with mpmath.workdps(oracles.MP_DIGITS):
            root = 1 / oracles.mp_list([k])[0]
            for kind in (sk.PROBE_DIFFERENCE, sk.PROBE_SHIFT):
                assert elementwise(probes.x_norm[kind], x[kind]) <= PROBE_BOUNDS["x"] * EPS
                if not strict_paper:
                    assert elementwise(probes.y_pow[kind], y[kind]) <= PROBE_BOUNDS["y"] * EPS
                want = [y[kind][v] ** root / x[kind][v] for v in range(1, N)]
                assert elementwise(ratios[kind], want) <= PROBE_BOUNDS["ratio"] * EPS
    got = probes.dnr_column_sums()
    assert got[-2:].tolist() == [0, 0]
    assert elementwise(got[:-2], oracles.mp_dnr_column_sums(p, q, lam[: N + 1], k)[:-2]) <= PROBE_BOUNDS["dnr"] * EPS


# (weights of B, k): power weights (n + 1)**beta for every beta at k = 2, and beta = 0.5 at k = 1, 1.5 and 3.7; geometric
# weights 1.01**n at k = 2 and 1.5.  The worst errors measured, in eps, were 22.5 (T), 10.5 (W), 30.7 (C10), 20.2 (C11)
# and 9.6 (TA_b), each at beta = 0.5 and k = 3.7, and 7.0 (TA_c) at beta = 0.5 and k = 1; every geometric row was within 8.9
W_CASES = [("power", 0.0, 2), ("power", 0.5, 2), ("power", 2.0, 2), ("power", 0.5, 1.5), ("power", 0.5, 1), ("power", 0.5, 3.7)]
W_CASES += [("geometric", 1.01, 2), ("geometric", 1.01, 1.5)]
W_BOUNDS = {"T": 40, "W": 28, "C10": 56, "C11": 48, "TA_b": 32, "TA_c": 24}


@pytest.mark.parametrize(
    "kind, x, k", W_CASES, ids=[f"{x}-{k}" if kind == "power" else f"{kind}-{x}-{k}" for kind, x, k in W_CASES]
)
def test_w_tail_c10_c11_and_ta_match_the_40_digit_oracle(kind, x, k):
    # a cesaro A and a riesz B carrying its weights to the cutoff 16 N: one oracle sweep per case
    N, cutoff = N_MP, 16 * N_MP
    q = power_weights(x, cutoff) if kind == "power" else x ** np.arange(cutoff + 1.0)
    lam = power_factors(N)
    T = oracles.mp_w_tail(q, k, cutoff, N + 1)
    with mpmath.workdps(oracles.MP_DIGITS):
        Q, f, kk = oracles.partial_sums(oracles.mp_list(q[: N + 2])), oracles.mp_list(lam), oracles.mp_list([k])[0]
        delta = [Q[v] * f[v + 1] - (Q[v - 1] * f[v] if v else 0) for v in range(N + 1)]
        W = [t ** (1 / kk) for t in T]
        want = {
            "T": T,
            "W": W,
            "C10": [abs(delta[v] * (v + 1)) ** kk * T[v] for v in range(N + 1)],  # over a_vv**k = (v + 1)**-k
            "C11": [abs(Q[v] * f[v + 1]) ** kk * T[v] for v in range(N + 1)],
            "TA_b": [abs(W[n] * delta[n]) * (n + 1) for n in range(1, N + 1)],  # times P_n / p_n = n + 1
            "TA_c": [Q[n] * abs(f[n + 1]) * W[n] for n in range(1, N + 1)],
        }
    weights, tail, factors = sk.WeightSequence(q), sk.TailSpec(cutoff), sk.FactorSequence(lam)
    A, B = sk.cesaro_matrix(N), sk.riesz_matrix(weights, order=N)
    c9, c10, c11 = sk.check_c9(A, B, factors, k), sk.check_c10(A, B, factors, k, tail, v_max=N), sk.check_c11(B, factors, k, tail, v_max=N)
    _, ta_b, ta_c = sk.check_theorem_a(c9, c10, c11, k)
    T = weights.tail(k, cutoff, N + 1)[0]
    got = {
        "T": T,
        "W": [t ** (1 / k) for t in T.tolist()],  # the root TA_b and TA_c take, by Python's **
        "C10": c10.ratios,
        "C11": c11.ratios,
        "TA_b": ta_b.ratios,
        "TA_c": ta_c.ratios,
    }
    for row, bound in W_BOUNDS.items():
        assert elementwise(got[row], want[row]) <= bound * EPS, row


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
    assert np.max(sk.ProbePass(A, B, lam, 2).key_identity_gaps()) <= 1e-11
    real = summakit.harness.hat_inverse_bands
    for band in (0, 1):
        for v in (1, 20, 39):

            def shifted(M, band=band, v=v):
                bands = [b.copy() for b in real(M)]
                bands[band][v] += 1e-9 * abs(bands[band][v])
                return bands

            monkeypatch.setattr(summakit.harness, "hat_inverse_bands", shifted)
            assert np.max(sk.ProbePass(A, B, lam, 2).key_identity_gaps()) > 1e-11

