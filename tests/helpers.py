"""Shared random generators for the test suite.

Floating ensembles are kept well scaled (diagonals bounded away from zero)
so that inverse-based identities are testable at double precision; the
rational generators have no such restriction.
"""

import dataclasses
from fractions import Fraction

import numpy as np

import summakit as sk


def random_normal_matrix(rng, order, diag_low=0.8, off_scale=1.0):
    E = np.tril(rng.uniform(-1.0, 1.0, size=(order + 1, order + 1))) * off_scale
    d = rng.uniform(diag_low, 1.0, size=order + 1) * rng.choice([-1.0, 1.0], size=order + 1)
    np.fill_diagonal(E, d)
    return sk.NormalMatrix(E)


def random_row_stochastic(rng, order):
    E = np.tril(rng.uniform(0.5, 1.0, size=(order + 1, order + 1)))
    E /= E.sum(axis=1)[:, None]
    return sk.NormalMatrix(E)


def random_positive_matrix(rng, order):
    E = np.tril(rng.uniform(0.2, 1.0, size=(order + 1, order + 1)))
    return sk.NormalMatrix(E)


def random_rational(rng, span=9, nonzero=False):
    num = int(rng.integers(-span, span + 1))
    if nonzero:
        while num == 0:
            num = int(rng.integers(-span, span + 1))
    return Fraction(num, int(rng.integers(1, span + 1)))


def random_rational_matrix(rng, order, span=9):
    ent = np.zeros((order + 1, order + 1), dtype=object)
    for n in range(order + 1):
        for v in range(n):
            ent[n, v] = random_rational(rng, span)
        ent[n, n] = random_rational(rng, span, nonzero=True)
    return sk.NormalMatrix(ent)


def random_rational_row_stochastic(rng, order, span=9):
    ent = np.zeros((order + 1, order + 1), dtype=object)
    for n in range(order + 1):
        vals = [int(rng.integers(1, span + 1)) for _ in range(n + 1)]
        total = sum(vals)
        ent[n, : n + 1] = [Fraction(x, total) for x in vals]
    return sk.NormalMatrix(ent)


def random_rational_vector(rng, size, span=9):
    return np.asarray([random_rational(rng, span) for _ in range(size)], dtype=object)


def random_rational_weights(rng, size, span=9):
    vals = [Fraction(int(rng.integers(1, span + 1)), int(rng.integers(1, span + 1))) for _ in range(size)]
    return sk.WeightSequence(np.asarray(vals, dtype=object))


def random_positive_weights(rng, size, low=0.1, high=2.0):
    return sk.WeightSequence(rng.uniform(low, high, size=size))


def ones_factors(count, exact=False):
    if exact:
        return sk.FactorSequence(np.asarray([Fraction(1)] * count, dtype=object))
    return sk.FactorSequence(np.ones(count))


def exact_oracle_inputs(seed, order=24):
    """(A, B, lam, series) of the benchmark's exact-oracle workload: rational row-stochastic A and B,
    nonzero rational factors through order + 1 and a rational series, drawn in its order from one seed."""
    rng = np.random.default_rng(seed)
    A = random_rational_row_stochastic(rng, order)
    B = random_rational_row_stochastic(rng, order)
    lam = sk.FactorSequence(np.asarray([random_rational(rng, nonzero=True) for _ in range(order + 2)], dtype=object))
    return A, B, lam, sk.SeriesSample(random_rational_vector(rng, order + 1))


def exact_oracle_calls(A, B, lam, series, k=2):
    """The library calls of the exact-oracle workload, in its order, and their results by name."""
    N = A.order
    out = {"c9": sk.check_c9(A, B, lam, k), "c12": sk.check_c12(A), "c13": sk.check_c13(A), "c14": sk.check_c14(B)}
    out.update(c15=sk.check_c15(A), c16=sk.check_c16(A, B, lam), decomposition=sk.decompose(A, B, lam, series))
    out["constant"] = sk.empirical_constant(A, B, lam, k)
    hat_b, inv_hat_a = sk.hat_of(B), sk.invert_hat(sk.hat_of(A))
    out["key_gaps"] = [
        sk.key_identity_check(A, B, lam, n, v, hat_b=hat_b, inv_hat_a=inv_hat_a) for n in range(2, N + 1) for v in range(1, n)
    ]
    out["cnv"] = sk.l1_lk_bound(sk.build_cnv(A, B, lam, k), k)
    out["dnr"] = sk.l1_lk_bound(sk.build_dnr(A, B, lam, k), k)
    return out


def theorem_a_rows(p, q, lam, k, tail, N):
    """TA_a, TA_b and TA_c of the Riesz pair of weights p (A) and q (B, its tail carrier), read from C9, C10 and C11
    at v_max = N, as ``check`` reads them."""
    A, B = sk.riesz_matrix(p, order=N), sk.riesz_matrix(q, order=N)
    c10, c11 = sk.check_c10(A, B, lam, k, tail, v_max=N), sk.check_c11(B, lam, k, tail, v_max=N)
    return sk.check_theorem_a(sk.check_c9(A, B, lam, k), c10, c11, k)


def leaves(value, path="", out=None):
    """Each number in ``value`` by its place: the name of its type and its exact value, a Fraction's numerator and
    denominator, a float's hex, a float array's dtype, shape and bytes.  Two results are the same in value and type,
    to the last bit, when their leaves are equal."""
    out = {} if out is None else out
    if isinstance(value, np.ndarray) and value.dtype != object:
        out[path] = (str(value.dtype), value.shape, value.tobytes())
    elif isinstance(value, np.ndarray):
        out[path] = ("object", value.shape)
        for i, x in enumerate(value.ravel().tolist()):
            leaves(x, f"{path}[{i}]", out)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            leaves(getattr(value, field.name), f"{path}.{field.name}", out)
    elif isinstance(value, dict):
        for key, x in value.items():
            leaves(x, f"{path}.{key}", out)
    elif isinstance(value, (list, tuple)):
        out[path] = (type(value).__name__, len(value))
        for i, x in enumerate(value):
            leaves(x, f"{path}[{i}]", out)
    elif isinstance(value, float):
        out[path] = (type(value).__name__, float.hex(value))
    elif isinstance(value, Fraction):
        out[path] = ("Fraction", value.numerator, value.denominator)
    else:
        out[path] = (type(value).__name__, repr(value))
    return out
