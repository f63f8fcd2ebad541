"""The exact path's integer kernels against the rational oracles.

On int and Fraction entries the hat and bar sums, the hat inverse, the
products and the sums run as integer arithmetic over one denominator per row
(``_util.numerators``) and form one Fraction per result entry.  Each must give
exactly the value of the oracle in ``tests/oracles.py``, which does every
operation in Fractions.  An exact entry that is a float, and a mixed exact/float
call into a product or a probe, is refused by name.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import summakit as sk  # noqa: E402
from summakit._util import accurate_sum, numerators  # noqa: E402
from summakit.errors import MixedArithmeticError  # noqa: E402
from summakit.matrices import _BLOCK  # noqa: E402

import helpers  # noqa: E402
import oracles  # noqa: E402

SEEDS = st.integers(0, 2**32 - 1)
FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


def rational_lower(rng, order):
    """Rows of Fractions with negative entries, every third row or so int only; a nonzero diagonal."""
    rows = []
    for n in range(order + 1):
        ints = rng.random() < 0.3
        row = [int(rng.integers(-9, 10)) if ints else helpers.random_rational(rng) for _ in range(n)]
        diag = int(rng.choice([-3, -1, 1, 2])) if ints else helpers.random_rational(rng, nonzero=True)
        rows.append(row + [diag] + [0] * (order - n))
    return rows


def as_matrix(rows):
    return sk.NormalMatrix(np.asarray(rows, dtype=object))


def as_fractions(rows):
    """The oracles' input: an int diagonal would make their 1 / a_vv a float."""
    return [[F(x) for x in row] for row in rows]


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.one_of(st.integers(-(10**30), 10**30), st.fractions(max_denominator=10**12)), max_size=30))
def test_numerators_write_values_over_their_least_common_denominator(values):
    nums, den = numerators(values)
    assert [F(x, den) for x in nums] == values
    assert den == math.lcm(*[F(x).denominator for x in values])
    assert accurate_sum(np.asarray(values, dtype=object)) == sum(values, F(0))


def test_numerators_of_floats_are_exact_and_of_a_mixed_row_refused():
    x = np.array([0.1, -3.0, 2.0**-1074, 1e308, math.inf, 0.0])
    nums, den = numerators(x)
    assert [F(n, den) for n in nums] == [F(v) if math.isfinite(v) else 0 for v in x.tolist()]
    with pytest.raises(MixedArithmeticError, match=r"^exact entry 1 is 0\.5, not an int or a Fraction$"):
        numerators([F(1, 3), 0.5])
    assert numerators([True, F(1, 3)]) == ([3, 1], 3)  # a bool is an int
    with pytest.raises(MixedArithmeticError, match="exact entry 1 is "):
        numerators(np.asarray([F(1, 3), np.float64(0.5)], dtype=object))


@settings(max_examples=40, deadline=None)
@given(order=st.integers(0, 12), seed=SEEDS)
def test_hat_inverse_equals_the_oracle(order, seed):
    rows = rational_lower(np.random.default_rng(seed), order)
    got = sk.invert_hat(as_matrix(rows)).entries
    want = oracles.lower_inverse(as_fractions(rows))
    assert got.tolist() == want
    assert all(isinstance(got[n, v], F) for n in range(order + 1) for v in range(n + 1))


def test_an_exact_inverse_past_the_block_size_is_not_split(monkeypatch):
    # split into halves, its two block products would do Fraction arithmetic over the zeros of triangular blocks
    rows = rational_lower(np.random.default_rng(7), _BLOCK + 6)

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in the exact hat inverse")

    for name in FRACTION_OPS:
        monkeypatch.setattr(F, name, refuse)
    got = sk.invert_hat(as_matrix(rows)).entries.tolist()
    monkeypatch.undo()
    assert got == oracles.lower_inverse(as_fractions(rows))


@settings(max_examples=40, deadline=None)
@given(order=st.integers(0, 12), seed=SEEDS, cut=st.integers(0, 12))
def test_hat_and_bar_columns_equal_the_oracles(order, seed, cut):
    rows = rational_lower(np.random.default_rng(seed), order)
    M, v_hi = as_matrix(rows), min(cut, order)
    assert sk.hat_columns(M, v_hi).tolist() == [row[: v_hi + 1] for row in oracles.hat_rows(as_fractions(rows))]
    assert M.row_sums.tolist() == [sum(row, F(0)) for row in rows]


@settings(max_examples=40, deadline=None)
@given(order=st.integers(0, 12), seed=SEEDS)
def test_apply_lower_equals_the_oracle(order, seed):
    rng = np.random.default_rng(seed)
    rows = rational_lower(rng, order)
    ints = rng.random() < 0.3
    x = np.asarray(rng.integers(-9, 10, order + 1).tolist(), dtype=object) if ints else helpers.random_rational_vector(rng, order + 1)
    assert sk.apply_lower(as_matrix(rows), x).tolist() == oracles.matvec(as_fractions(rows), list(x))
    W = sk.riesz_matrix(helpers.random_rational_weights(rng, order + 1))
    assert sk.apply_lower(W, x).tolist() == oracles.matvec(oracles.to_rows(W), list(x))


@settings(max_examples=40, deadline=None)
@given(order=st.integers(0, 30), seed=SEEDS, spread=st.integers(0, 900))
def test_weighted_mean_of_floats_is_the_correctly_rounded_quotient(order, seed, spread):
    # sum_{v<=n} p_v x_v is exact and divided by P_n in one rounding: float() of the exact quotient
    rng = np.random.default_rng(seed)
    p = np.exp2(rng.uniform(-spread / 4, spread / 4, order + 1))
    x = rng.uniform(-1.0, 1.0, order + 1) * np.exp2(rng.uniform(-spread, spread, order + 1))
    A = sk.riesz_matrix(sk.WeightSequence(p))
    P = A.weights.cumulative
    want = [float(sum(F(a) * F(b) for a, b in zip(p[: n + 1].tolist(), x[: n + 1].tolist())) / F(P[n])) for n in range(order + 1)]
    assert sk.apply_lower(A, x).tolist() == want


def test_a_row_holding_a_float_is_refused_by_name():
    E = np.asarray([[F(1, 2), 0, 0], [F(1, 3), 0.25, 0], [F(-1, 5), F(2, 7), 3]], dtype=object)
    with pytest.raises(MixedArithmeticError, match=r"^exact entry \(1, 1\) is 0.25, not an int or a Fraction$"):
        sk.apply_lower(sk.NormalMatrix(E), [F(1, 3), F(-2, 9), 5])
    # an exact matrix with float values, and a float matrix with exact values
    rows = rational_lower(np.random.default_rng(3), 2)
    for M, x, kinds in (
        (as_matrix(rows), np.ones(3), ("exact", "float")),
        (sk.make_normal(np.eye(3)), [F(1)] * 3, ("float", "exact")),
        (sk.cesaro_matrix(2, exact=True), np.ones(3), ("exact", "float")),
        (sk.identity_matrix(2), [F(1)] * 3, ("float", "exact")),
    ):
        for call in (sk.apply_lower, sk.apply_hat):  # apply_hat on a dense matrix is apply_lower of its hat matrix
            with pytest.raises(MixedArithmeticError, match=f"^apply_(lower|hat): an {kinds[0]} matrix with {kinds[1]} values$"):
                call(M, x)


def test_decompose_on_exact_matrices_with_float_factors_is_refused():
    # A and B exact, lambda float: the factored coefficients meet B's exact hat matrix, and the probes B's hat columns
    rng = np.random.default_rng(5)
    A = helpers.random_rational_row_stochastic(rng, 4)
    B = helpers.random_rational_matrix(rng, 4)
    lam = sk.FactorSequence(rng.uniform(0.5, 1.5, 5).round(3))
    with pytest.raises(MixedArithmeticError, match="^exact entry 0 is "):
        sk.decompose(A, B, lam, sk.SeriesSample(helpers.random_rational_vector(rng, 5)))
    with pytest.raises(MixedArithmeticError, match="^probe_columns: an exact matrix with float values$"):
        sk.ProbePass(A, B, lam, 2)
    # the checks that round their inputs on entry keep taking float factors: C9 gives the bits of the exact factors,
    # C16 rounds B-hat before its product with lam, where the exact factors round the product once
    exact_lam = sk.FactorSequence(np.asarray([F(x) for x in lam.values.tolist()], dtype=object))
    assert sk.check_c9(A, B, lam, 2).ratios.tobytes() == sk.check_c9(A, B, exact_lam, 2).ratios.tobytes()
    c16, exact_c16 = sk.check_c16(A, B, lam).ratios, sk.check_c16(A, B, exact_lam).ratios
    assert np.any(c16) and np.allclose(c16, exact_c16, rtol=8 * np.finfo(float).eps, atol=0)


def test_the_exact_oracle_calls_stay_under_ten_thousand_fraction_operations(monkeypatch):
    # no timing: the count of Fraction additions, subtractions, products and quotients, which dominate the exact
    # path's time (3,208 on these inputs); a kernel that went back to per-entry Fraction arithmetic passes 10,000
    inputs = helpers.exact_oracle_inputs(seed=1, order=24)
    calls = [0]

    def counted(name):
        op = getattr(F, name)

        def run(*args):
            calls[0] += 1
            return op(*args)

        return run

    for name in FRACTION_OPS:
        monkeypatch.setattr(F, name, counted(name))
    out = helpers.exact_oracle_calls(*inputs)
    monkeypatch.undo()
    assert out["decomposition"].residual == 0 and not any(out["key_gaps"])
    assert calls[0] <= 10_000
