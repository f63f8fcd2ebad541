"""The exact path's integer kernels against the rational oracles.

On int and Fraction entries the hat and bar sums, the hat inverse, the
products and the sums run as integer arithmetic over one denominator per row
(``_util.Rational``) and form one Fraction per result entry.  Each must give
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
from summakit import _util  # noqa: E402
from summakit._util import Rational, accurate_sum, numerators  # noqa: E402
from summakit.errors import MixedArithmeticError  # noqa: E402
from summakit.matrices import _BLOCK, far_inverse, hat_inverse_bands  # noqa: E402

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
    with pytest.raises(MixedArithmeticError, match=r"^exact entry 0 is True, not an int or a Fraction$"):
        numerators([True, F(1, 3)])  # a bool is not an int here, as in as_vector

    class Count(int):  # another subclass of int is an int
        pass

    assert numerators([Count(2), F(1, 3)]) == ([6, 1], 3)
    bools = sk.NormalMatrix(np.asarray([[True, 0], [F(1, 2), True]], dtype=object))
    for read in (bools.numerators, lambda: sk.hat_of(bools), lambda: sk.invert_hat(bools)):
        with pytest.raises(MixedArithmeticError, match=r"^exact entry \(0, 0\) is True, not an int or a Fraction$"):
            read()
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
    # an exact matrix's hat columns are its kernel's carrier, formed as Fractions where read
    assert sk.hat_columns(M, v_hi).fractions().tolist() == [row[: v_hi + 1] for row in oracles.hat_rows(as_fractions(rows))]
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
            article = "an" if kinds[0] == "exact" else "a"
            with pytest.raises(MixedArithmeticError, match=f"^apply_(lower|hat): {article} {kinds[0]} matrix with {kinds[1]} values$"):
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


def test_an_int_diagonal_is_read_as_fractions_so_no_quotient_by_it_is_a_float():
    # int / int is a float: an int diagonal gave a float gap factor, which the key identity and decompose refused as
    # a mixed call, and on the exact identity decompose's y = dx / a_vv was refused the same way
    A = as_matrix([[1, 0, 0], [0, 2, 0], [1, 1, 3]])
    assert A.gap().tolist() == [F(1, 2), F(1, 6)] and {type(x) for x in [*A.gap().tolist(), *A.diagonal.tolist()]} == {F}
    lam = sk.FactorSequence(np.asarray([1, 2, 3, 4], dtype=object))
    assert sk.key_identity_check(A, A, lam, 2, 1) == 0
    for M, series in ((A, [1, -1, 2]), (sk.identity_matrix(3, exact=True), [1, -1, 2, 5])):
        dec = sk.decompose(M, M, lam, sk.SeriesSample(np.asarray(series, dtype=object)))
        assert dec.residual == 0 and not any(isinstance(x, float) for x in [*dec.t1.tolist(), *dec.t2.tolist()])
    assert dec.delta_y.tolist() == dec.t1.tolist() == [1, -2, 6, 20]


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


def test_the_exact_oracle_calls_convert_each_whole_matrix_once(monkeypatch):
    # A and B, given as Fractions, are converted to their carriers once each; the hat matrices and the inverse are
    # given as their kernels' carriers and never converted.  Given as Fractions and converted again when read, each
    # kernel's result gives the same values of the same types, to the last bit of every float
    size = (25, 25)
    init = sk.NormalMatrix.__init__

    def as_fractions(self, entries, lower=False):
        init(self, entries.fractions(lower) if isinstance(entries, Rational) else entries)

    monkeypatch.setattr(sk.NormalMatrix, "__init__", as_fractions)
    formed = helpers.exact_oracle_calls(*helpers.exact_oracle_inputs(seed=1, order=24))
    monkeypatch.undo()
    A, B, lam, series = helpers.exact_oracle_inputs(seed=1, order=24)
    whole = []
    real = _util.numerators

    def counted(values):
        if np.shape(values) == size:
            whole.append(values)
        return real(values)

    monkeypatch.setattr(_util, "numerators", counted)  # the one conversion of the exact path, Rational.of, reads it
    out = helpers.exact_oracle_calls(A, B, lam, series)
    monkeypatch.undo()
    assert helpers.leaves(out) == helpers.leaves(formed)
    assert [x.tolist() for x in whole] == [np.tril(M.entries).tolist() for M in (A, B)]
    assert all(M._entries is None for M in (sk.hat_of(A), sk.hat_of(B), sk.hat_inverse(A)))  # no entry of theirs formed


def typed(rows, lower):
    """The oracle's Fraction rows typed as an exact kernel forms its result: a Fraction at every entry of the lower
    triangle with ``lower``, else at every nonzero one, and the int 0 elsewhere."""
    return [[F(x) if (v <= n if lower else x) else 0 for v, x in enumerate(row)] for n, row in enumerate(rows)]


def kinds(rows):
    return [[type(x) for x in row] for row in rows]


@settings(max_examples=40, deadline=None)
@given(order=st.integers(0, 10), seed=SEEDS)
def test_born_matrices_equal_the_oracle_in_value_and_type(order, seed):
    # the hat matrix, the hat inverse, its bands and its far part of a random rational explicit matrix: the bands and
    # the far part are read off the carrier the inverse keeps, before any entry of it is formed
    rows = rational_lower(np.random.default_rng(seed), order)
    A = as_matrix(rows)
    hat = oracles.hat_rows(as_fractions(rows))
    inv = oracles.lower_inverse(hat)
    diag, sub = hat_inverse_bands(A)
    assert diag.tolist() == [inv[n][n] for n in range(order + 1)] and sub.tolist() == [inv[n + 1][n] for n in range(order)]
    assert {type(x) for x in [*diag.tolist(), *sub.tolist()]} <= {F}
    W = far_inverse(A)
    assert [[F(x, W.den) for x in row] for row in W.nums.tolist()] == [[x if v <= n - 2 else 0 for v, x in enumerate(row)] for n, row in enumerate(inv)]
    for M, want, lower in ((sk.hat_of(A), hat, False), (sk.hat_inverse(A), inv, True)):
        got = M.entries.tolist()
        assert got == want and kinds(got) == kinds(typed(want, lower))
        # the entries and the carrier round-trip: the entries' carrier is the one the matrix was given, in lowest terms
        ints = M.numerators()
        again = sk.NormalMatrix(M.entries).numerators()
        assert (again.nums.tolist(), again.den) == (ints.nums.tolist(), ints.den) and ints.den > 0 and M.weights is None
        assert ints.fractions(lower).tolist() == got


def test_reading_the_inverse_bands_forms_no_whole_matrix_fractions(monkeypatch):
    # the bands form one Fraction per entry of the two, the far part none, and the inverse's entries are not formed
    A = helpers.exact_oracle_inputs(seed=2, order=24)[0]
    X = sk.hat_inverse(A)
    formed = [0]
    new = F.__new__

    def counted(cls, *args, **kwargs):
        formed[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counted)
    bands = hat_inverse_bands(A)
    assert formed[0] == 2 * 25 - 1
    far_inverse(A)
    assert formed[0] == 2 * 25 - 1 and X._entries is None
    monkeypatch.undo()
    assert [b.tolist() for b in bands] == [X.diagonal.tolist(), X.subdiagonal.tolist()]


def test_c_nv_of_a_float_a_and_an_exact_b_meets_b_hat_as_fractions():
    # B-hat diag(lam), read off the carrier B's hat matrix keeps, is formed as one Fraction per nonzero entry and
    # met by A's floats, in the order of the float path
    rng = np.random.default_rng(3)
    A, B = helpers.random_normal_matrix(rng, 5), helpers.random_rational_matrix(rng, 5)
    lv = helpers.random_rational_vector(rng, 7).tolist()
    BL = np.asarray([[x * f for x, f in zip(row, lv)] for row in oracles.hat_rows(oracles.to_rows(B))], dtype=object)
    d, gap, fac = A.diagonal, A.gap(), np.arange(6.0) ** 0.5
    want = np.zeros((6, 6))
    for n in range(2, 6):
        S = BL[n, 2 : n + 1]
        want[n, 1:n] = ((BL[n, 1:n] - S) / d[1:n] + S * gap[1:n]) * fac[n]
    got = sk.build_cnv(A, B, sk.FactorSequence(np.asarray(lv, dtype=object)), 2)
    assert np.tril(got, -1).tobytes() == want.tobytes()
