import logging
import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

import summakit as sk
from summakit.errors import LengthMismatchError, ShapeMismatchError, WeightOverflowError, ZeroDiagonalError
from summakit.matrices import leading_section

import helpers
import oracles


def test_make_normal_identity():
    m = sk.make_normal([[1.0], [0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]], 3)
    np.testing.assert_array_equal(m.entries, np.eye(4))
    assert m.order == 3 and m.size == 4
    assert repr(m) == "NormalMatrix(order=3, exact=False)"


def test_make_normal_zero_diagonal():
    with pytest.raises(ZeroDiagonalError) as exc:
        sk.make_normal([[1.0], [0.5, 1.0], [0.1, 0.2, 0.0]])
    assert exc.value.index == 2


def test_make_normal_bad_rows():
    with pytest.raises(ShapeMismatchError):
        sk.make_normal([[1.0], [0.5, 1.0, 0.3]])
    with pytest.raises(ShapeMismatchError):
        sk.make_normal(np.ones((3, 4)))
    with pytest.raises(ShapeMismatchError, match=r"^entries must be a sequence of rows$"):
        sk.make_normal([1.0, 2.0])
    with pytest.raises(ShapeMismatchError, match=r"^got 3 rows for order 5$"):
        sk.make_normal([[1.0], [0.5, 1.0], [0.1, 0.2, 1.0]], 5)
    with pytest.raises(ShapeMismatchError, match=r"^weights must be a nonempty 1-D sequence$"):
        sk.WeightSequence([])


def test_make_normal_cesaro_diagonal():
    m = sk.make_normal([[1.0], [0.5, 0.5], [1 / 3, 1 / 3, 1 / 3]], 2)
    np.testing.assert_allclose(m.diagonal, [1.0, 0.5, 1 / 3])


def test_make_normal_square_input_drops_upper_triangle():
    m = sk.make_normal(np.array([[1.0, 9.0], [0.5, 1.0]]))
    assert m.entries[0, 1] == 0.0
    assert sk.make_normal([[1.0, 9.0], [0.5, 1.0]]).entries.tolist() == [[1.0, 0.0], [0.5, 1.0]]  # square rows as lists


def test_an_integer_array_is_float_entries():
    # an int64 array is not exact: it is converted to float64 once, so the float kernels never compute in integers
    M = sk.NormalMatrix(np.array([[2, 0], [1, 2]]))
    assert M.entries.dtype == np.float64 and not M.exact
    want = sk.invert_hat(sk.make_normal([[2], [1, 2]])).entries
    assert sk.invert_hat(M).entries.tobytes() == want.tobytes()
    assert sk.invert_hat(M).entries.tolist() == [[0.5, 0.0], [-0.25, 0.5]]


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: helpers.random_rational_matrix(rng, 8),
        lambda rng: sk.riesz_matrix(helpers.random_rational_weights(rng, 12), 8),
        lambda rng: sk.identity_matrix(8, exact=True),
    ],
    ids=["dense", "weighted", "identity"],
)
def test_a_leading_section_keeps_the_form_and_no_kept_value(make):
    # a section is held as its matrix is (a weighted mean by the same weights) and computes its own hat matrix,
    # hat inverse, gap factor, integer numerators and entries: none of the larger matrix's kept values is reused
    M = make(np.random.default_rng(7))
    sk.hat_of(M), sk.hat_inverse(M), M.gap(), M.numerators(), M.entries
    S = leading_section(M, 5)
    slots = {slot for cls in type(M).__mro__ for slot in getattr(cls, "__slots__", ()) if slot.startswith("_")}
    assert type(S) is type(M) and S.order == 5 and S.weights is M.weights
    assert all(getattr(S, slot, None) is None for slot in slots)
    square = [(sk.hat_of(X).entries, sk.hat_inverse(X).entries, X.entries) for X in (S, M)]
    assert all(mine.tolist() == whole[:6, :6].tolist() for mine, whole in zip(*square))
    nums, den = S.numerators()
    assert S.gap().tolist() == M.gap()[:5].tolist() and [[F(x, den) for x in row] for row in nums.tolist()] == S.entries.tolist()


def test_leading_section_at_the_matrix_order_is_the_matrix_itself():
    # a spec built exactly to N is one matrix, so its kept hat matrix is computed once
    for M in (sk.cesaro_matrix(6), sk.identity_matrix(6), helpers.random_normal_matrix(np.random.default_rng(5), 6)):
        assert leading_section(M, 6) is M
        assert leading_section(M, 5) is not M and leading_section(M, 5).order == 5


def test_invert_hat_of_fractions_with_one_float_among_them():
    # a row holding a float has no integer numerators: the exact inverse and the hat sums refuse it by (n, v)
    H = sk.make_normal([[F(1)], [0.5, F(2)], [F(1, 3), 0.25, F(4)]])
    assert H.exact
    for call in (sk.invert_hat, sk.hat_of):
        with pytest.raises(sk.MixedArithmeticError, match=r"^exact entry \(1, 0\) is 0.5, not an int or a Fraction$"):
            call(H)


def test_entries_read_only():
    m = sk.cesaro_matrix(3)
    with pytest.raises(ValueError):
        m.entries[0, 0] = 2.0
    with pytest.raises(AttributeError):
        m.entries = np.eye(4)


def test_weight_sequence_validation():
    with pytest.raises(ValueError):
        sk.WeightSequence([1.0, 0.0, 2.0])
    w = sk.WeightSequence([1, 2, 4])
    np.testing.assert_allclose(w.cumulative, [1.0, 3.0, 7.0])
    with pytest.raises(AttributeError, match=r"^WeightSequence is immutable$"):
        w.weights = np.ones(3)


@pytest.mark.parametrize(
    "bad, shown",
    [(0.0, "0.0"), (-2.0, "-2.0"), (math.nan, "nan"), (F(0), "0"), (F(-1, 3), "-1/3")],
)
def test_weight_sequence_names_the_first_weight_that_is_not_positive(bad, shown):
    # NaN is not positive; the first bad index is named, in float and in exact sequences alike
    weights = [F(n + 1) for n in range(9)] if isinstance(bad, F) else list(np.arange(1.0, 10.0))
    weights[6] = weights[8] = bad
    with pytest.raises(ValueError) as exc:
        sk.WeightSequence(np.asarray(weights, dtype=object) if isinstance(bad, F) else weights)
    assert str(exc.value) == f"weight p_6 = {shown} is not positive"


with np.errstate(over="ignore"):
    GEOMETRIC_2 = 2.0 ** np.arange(1601.0)  # inf from n = 1024 on


@pytest.mark.parametrize(
    "weights, quantity, index",
    [
        (GEOMETRIC_2, "cumulative weight sum", 1023),  # 2**1024 - 1 rounds past float range
        ([1.0, 2.0, np.inf, 1.0], "weight", 2),
        ([1e308, 1e308, 1.0], "cumulative weight sum", 1),
    ],
)
def test_weight_sequence_refuses_overflowing_float_weights(weights, quantity, index):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is named, not warned about
        with pytest.raises(WeightOverflowError) as exc:
            sk.WeightSequence(weights)
    assert str(exc.value) == f"the {quantity} at n = {index} is not finite (float overflow)"


def test_weight_sequence_keeps_fraction_weights_past_float_range():
    w = sk.WeightSequence(np.asarray([F(2) ** 1100, F(1), F(3)], dtype=object))
    assert w.cumulative[-1] == F(2) ** 1100 + 4


def test_weight_tail_is_swept_once_and_kept_read_only():
    # T_v = sum_{n=v+1..rows} n**(k-1) (p_n / (P_n P_{n-1}))**k, one fsum per v
    p = (np.arange(41) + 1.0) ** 0.5
    w = sk.WeightSequence(p)
    P = w.cumulative
    terms = np.arange(1, 41) ** 1.0 * (p[1:] / (P[1:] * P[:-1])) ** 2.0
    T, last = w.tail(2, 40, 10)
    assert T.tobytes() == np.asarray([math.fsum(terms[v:]) for v in range(10)]).tobytes()
    assert last == terms[-1]
    assert w.tail(2, 40, 10)[0] is T and w.tail(2, 40, 10, 1)[0] is T
    assert w.tail(2, 40, 10, 0.5)[0] is not T
    with pytest.raises(ValueError, match="read-only"):
        T[0] = 0.0
    exact = sk.WeightSequence(np.asarray([F(n + 1) for n in range(9)], dtype=object))
    T, last = exact.tail(1, 8, 8)
    assert T.dtype == object and not T.flags.writeable
    assert T.tolist() == [oracles.w_tail_pow(exact.weights.tolist(), 1, v, 8) for v in range(8)]


def test_exact_identity_entries_are_ints():
    eye = sk.identity_matrix(3, exact=True).entries
    assert eye.dtype == object and eye.tolist() == np.eye(4).tolist()
    assert all(type(x) is int for x in eye.ravel())


def test_riesz_unit_weights():
    m = sk.riesz_matrix(sk.WeightSequence(np.ones(4)))
    for n in range(4):
        np.testing.assert_allclose(m.entries[n, : n + 1], np.full(n + 1, 1.0 / (n + 1)))


def test_riesz_explicit_weights_exact():
    w = sk.WeightSequence(np.asarray([F(1), F(2), F(4)], dtype=object))
    m = sk.riesz_matrix(w)
    assert m.entries[1, 0] == F(1, 3) and m.entries[1, 1] == F(2, 3)
    assert list(m.entries[2, :3]) == [F(1, 7), F(2, 7), F(4, 7)]
    # Fraction on and below the diagonal, int 0 above it
    assert [type(x) for x in m.entries.ravel()] == [F, int, int, F, F, int, F, F, F]


def test_riesz_bar_first_column_ones():
    # rows of a weighted mean sum to one, exactly in rational arithmetic
    rng = np.random.default_rng(11)
    w = helpers.random_rational_weights(rng, 9)
    for M in (sk.riesz_matrix(w), sk.NormalMatrix(sk.riesz_matrix(w).entries)):
        assert all(x == 1 for x in M.row_sums)


def test_riesz_too_few_weights():
    with pytest.raises(LengthMismatchError):
        sk.riesz_matrix(sk.WeightSequence([1.0, 1.0]), order=5)


def test_bar_identity():
    # the bar matrix (the oracle) of the identity, and its leading column, the row sums
    assert np.all(np.asarray(oracles.bar_rows(oracles.identity_rows(5))) == np.tril(np.ones((5, 5))))
    assert sk.identity_matrix(4).row_sums.tolist() == [1.0] * 5


def test_bar_cesaro_value():
    # hat_31 = bar_31 - bar_21 = 3/4 - 2/3
    bar = oracles.bar_rows(oracles.to_rows(sk.cesaro_matrix(3, exact=True)))
    assert bar[3][1] == F(3, 4) and bar[2][1] == F(2, 3)
    assert sk.hat_of(sk.cesaro_matrix(3, exact=True)).entries[3, 1] == F(1, 12)


def test_bar_full_row_sums():
    rng = np.random.default_rng(7)
    m = helpers.random_rational_matrix(rng, 6)
    rows = oracles.to_rows(m)
    expected = oracles.bar_rows(rows)
    for n in range(7):
        assert m.row_sums[n] == sum(rows[n][: n + 1], F(0)) == expected[n][0]


def test_hat_identity():
    h = sk.hat_of(sk.identity_matrix(5))
    assert np.all(h.entries == np.eye(6))


def test_hat_cesaro_closed_form():
    h = sk.hat_of(sk.cesaro_matrix(6, exact=True))
    for n in range(1, 7):
        assert h.entries[n, 0] == 0
        for v in range(1, n + 1):
            assert h.entries[n, v] == F(v, n * (n + 1))


def test_hat_riesz_closed_form():
    rng = np.random.default_rng(23)
    w = helpers.random_rational_weights(rng, 9)
    h = sk.hat_of(sk.riesz_matrix(w))
    P = w.cumulative
    for n in range(1, 9):
        for v in range(n + 1):
            expected = (P[v - 1] if v else 0) * w.weights[n] / (P[n] * P[n - 1])
            assert h.entries[n, v] == expected


def test_hat_preserves_diagonal():
    rng = np.random.default_rng(3)
    m = helpers.random_normal_matrix(rng, 12)
    h = sk.hat_of(m)
    np.testing.assert_array_equal(h.diagonal, m.diagonal)


def test_hat_matches_brute_force():
    rng = np.random.default_rng(17)
    m = helpers.random_rational_matrix(rng, 7)
    h = sk.hat_of(m)
    expected = oracles.hat_rows(oracles.to_rows(m))
    for n in range(8):
        for v in range(8):
            assert h.entries[n, v] == expected[n][v]


def test_hat_columns_slices_hat_of():
    rng = np.random.default_rng(29)
    m = helpers.random_normal_matrix(rng, 15)
    full = sk.hat_of(m).entries
    cols = sk.hat_columns(m, 4)
    np.testing.assert_array_equal(cols, full[:, :5])


def test_weighted_mean_hat_is_its_closed_form():
    # hat_nv = p_n P_{v-1} / (P_n P_{n-1}): a few ulp from the rational definition at
    # order 800, A's own diagonal, and column 0 exactly zero below row 0; integer
    # weights keep the cumulative sums exact, so the gap is the formula's alone
    N = 800
    for weights in (np.ones(N + 1), np.random.default_rng(13).integers(1, 10, N + 1).astype(float)):
        A = sk.riesz_matrix(sk.WeightSequence(weights))
        H = sk.hat_of(A).entries
        assert np.array_equal(np.diagonal(H), A.diagonal)
        assert not np.any(H[1:, 0])
        np.testing.assert_array_equal(sk.hat_columns(A, 5), H[:, :6])
        exact = [F(x) for x in weights.tolist()]
        for lo, hi in ((1, 3), (399, 401), (797, 799)):
            cols = oracles.weighted_mean_hat_columns(exact, lo, hi, N)
            for v in range(lo, hi + 1):
                np.testing.assert_allclose(H[v:, v], [float(cols[n][v]) for n in range(v, N + 1)], rtol=4e-16)
    # exact weights give the definition exactly
    A = sk.riesz_matrix(helpers.random_rational_weights(np.random.default_rng(19), 10))
    assert sk.hat_of(A).entries.tolist() == oracles.hat_rows(oracles.to_rows(A))


def test_invert_identity():
    inv = sk.invert_hat(sk.identity_matrix(4))
    assert np.all(inv.entries == np.eye(5))


def test_invert_adjacent_entry_formula():
    rng = np.random.default_rng(41)
    h = sk.hat_of(helpers.random_rational_matrix(rng, 8))
    hp = sk.invert_hat(h)
    e = h.entries
    for v in range(8):
        assert hp.entries[v + 1, v] == -e[v + 1, v] / (e[v, v] * e[v + 1, v + 1])
        # same relation in product form
        assert hp.entries[v + 1, v] * e[v, v] * e[v + 1, v + 1] + e[v + 1, v] == 0


def test_invert_rational_exact_two_sided():
    rng = np.random.default_rng(43)
    h = sk.hat_of(helpers.random_rational_matrix(rng, 8))
    hp = sk.invert_hat(h)
    eye = oracles.identity_rows(9)
    assert oracles.matmul(oracles.to_rows(hp), oracles.to_rows(h)) == eye
    assert oracles.matmul(oracles.to_rows(h), oracles.to_rows(hp)) == eye


def test_invert_float_two_sided_tolerance():
    # larger orders need progressively tamer entries to stay well scaled
    rng = np.random.default_rng(47)
    for order, diag_low, off_scale in ((16, 0.8, 1.0), (32, 0.8, 1.0), (64, 0.9, 0.5)):
        h = sk.hat_of(helpers.random_normal_matrix(rng, order, diag_low, off_scale))
        hp = sk.invert_hat(h)
        eye = np.eye(order + 1)
        assert np.max(np.abs(hp.entries @ h.entries - eye)) <= 1e-10
        assert np.max(np.abs(h.entries @ hp.entries - eye)) <= 1e-10


def test_weights_carried_by_weighted_means_only():
    w = sk.WeightSequence(np.arange(1.0, 7.0))
    assert sk.riesz_matrix(w, order=3).weights is w
    assert sk.cesaro_matrix(4).weights is not None
    assert sk.identity_matrix(4).weights is None
    assert sk.make_normal(np.tril(np.ones((3, 3)))).weights is None


def test_hat_inverse_closed_form_equals_forward_substitution():
    rng = np.random.default_rng(79)
    for size, order in ((7, 6), (13, 12), (25, 20)):
        A = sk.riesz_matrix(helpers.random_rational_weights(rng, size), order=order)
        closed = sk.hat_inverse(A).entries
        forward = sk.invert_hat(sk.hat_of(A)).entries
        assert closed.shape == forward.shape == (order + 1, order + 1)
        for n in range(order + 1):
            for v in range(order + 1):
                assert closed[n, v] == forward[n, v]


def test_hat_inverse_float_zero_below_subdiagonal():
    rng = np.random.default_rng(83)
    for A in (sk.cesaro_matrix(100), sk.riesz_matrix(helpers.random_positive_weights(rng, 101))):
        hp = sk.hat_inverse(A).entries
        assert np.all(np.tril(hp, -2) == 0.0)
        eye = np.eye(101)
        h = sk.hat_of(A).entries
        assert np.max(np.abs(hp @ h - eye)) <= 1e-10
        assert np.max(np.abs(h @ hp - eye)) <= 1e-10


def test_hat_inverse_without_weights_uses_forward_substitution():
    rng = np.random.default_rng(89)
    m = helpers.random_rational_matrix(rng, 6)
    assert np.all(sk.hat_inverse(m).entries == sk.invert_hat(sk.hat_of(m)).entries)


@pytest.mark.parametrize("make", [lambda: sk.cesaro_matrix(9), lambda: helpers.random_normal_matrix(np.random.default_rng(3), 9)])
def test_hat_and_hat_inverse_are_computed_once_and_kept(make, caplog):
    A = make()
    caplog.set_level(logging.DEBUG, logger="summakit")
    H, X = sk.hat_of(A), sk.hat_inverse(A)
    assert sk.hat_of(A) is H and sk.hat_inverse(A) is X
    for M in (H, X):
        with pytest.raises(ValueError):
            M.entries[1, 0] = 2.0
    # one DEBUG line per computed matrix: which one, its order and its time
    built = [r.getMessage() for r in caplog.records if r.name == "summakit" and r.levelno == logging.DEBUG]
    assert [m.split(" of order")[0] for m in built] == ["computed the hat matrix", "computed the hat inverse"]
    assert all(" of order 9 in " in m and m.endswith(" s") for m in built)


def test_invert_hat_keeps_its_inverse_on_the_inverted_matrix(monkeypatch):
    # hat_inverse(A) is invert_hat(hat_of(A)), so inverting the kept hat matrix again computes nothing
    import summakit.matrices

    inverted = []

    def counting(name):  # a float matrix is inverted from its entries, an exact one from its kept integer numerators
        real = getattr(summakit.matrices, name)

        def run(L, *den):
            inverted.append(id(L))
            return real(L, *den)

        monkeypatch.setattr(summakit.matrices, name, run)

    counting("_lower_inverse")
    counting("_fraction_free_inverse")
    rng = np.random.default_rng(101)
    A = helpers.random_rational_matrix(rng, 8)
    X = sk.hat_inverse(A)
    assert sk.invert_hat(sk.hat_of(A)) is X and sk.hat_inverse(A) is X
    assert inverted == [id(sk.hat_of(A).numerators()[0])]
    M = helpers.random_normal_matrix(rng, 6)  # any normal matrix keeps its own inverse
    assert sk.invert_hat(M) is sk.invert_hat(M)
    assert inverted == [id(sk.hat_of(A).numerators()[0]), id(M.entries)]


def test_hat_inverse_bands_of_a_weighted_mean_form_no_matrix(caplog):
    rng = np.random.default_rng(103)
    for A in (sk.cesaro_matrix(30), sk.riesz_matrix(helpers.random_positive_weights(rng, 31))):
        caplog.set_level(logging.DEBUG, logger="summakit")
        caplog.clear()
        diag, sub = sk.matrices.hat_inverse_bands(A)
        assert caplog.records == []
        X = sk.hat_inverse(A)  # the bidiagonal matrix, bit for bit from the same bands
        assert diag.tobytes() == X.diagonal.tobytes() and sub.tobytes() == X.subdiagonal.tobytes()


def test_apply_hat_reads_a_weighted_mean_from_its_weights(caplog):
    rng = np.random.default_rng(107)
    x = rng.uniform(-1.0, 1.0, 41)
    A = sk.riesz_matrix(helpers.random_positive_weights(rng, 41))
    caplog.set_level(logging.DEBUG, logger="summakit")
    got = sk.matrices.apply_hat(A, x)
    assert caplog.records == []
    np.testing.assert_allclose(got, sk.apply_lower(sk.hat_of(A), x), rtol=1e-13, atol=1e-15)
    # exact weights give the definition exactly; other matrices multiply their hat matrix
    E = sk.riesz_matrix(helpers.random_rational_weights(rng, 9))
    xs = helpers.random_rational_vector(rng, 9)
    assert list(sk.matrices.apply_hat(E, xs)) == oracles.matvec(oracles.hat_rows(oracles.to_rows(E)), list(xs))
    M = helpers.random_normal_matrix(rng, 8)
    assert np.array_equal(sk.matrices.apply_hat(M, x), sk.apply_lower(sk.hat_of(M), x))
    with pytest.raises(LengthMismatchError):
        sk.matrices.apply_hat(A, x[:40])


def test_apply_lower_identity():
    x = np.array([3.0, -1.0, 2.0])
    np.testing.assert_array_equal(sk.apply_lower(sk.identity_matrix(2), x), x)


def test_apply_lower_reads_a_structure_as_it_is_stored(caplog):
    # no entries are formed: the identity gives x, a weighted mean one correctly rounded quotient of the exact
    # sum of the products p_v x_v by P_n
    rng = np.random.default_rng(211)
    x = rng.uniform(-1.0, 1.0, 41)
    A, I = sk.riesz_matrix(helpers.random_positive_weights(rng, 41)), sk.identity_matrix(40)
    p = A.weights.weights
    caplog.set_level(logging.DEBUG, logger="summakit")
    got = sk.apply_lower(A, x)
    out = sk.apply_lower(I, x)
    assert caplog.records == []
    P = A.weights.cumulative
    assert got.tolist() == [float(sum(map(F.__mul__, map(F, p[: n + 1]), map(F, x[: n + 1]))) / F(P[n])) for n in range(41)]
    assert out.tolist() == x.tolist() and out is not x
    E = sk.riesz_matrix(helpers.random_rational_weights(rng, 9))
    xs = helpers.random_rational_vector(rng, 9)
    assert list(sk.apply_lower(E, xs)) == oracles.matvec(oracles.to_rows(E), list(xs))
    assert list(sk.apply_lower(sk.identity_matrix(8, exact=True), xs)) == list(xs)
    with pytest.raises(LengthMismatchError):
        sk.apply_lower(A, x[:40])


def test_apply_lower_row_stochastic_preserves_constants():
    out = sk.apply_lower(sk.cesaro_matrix(2), np.ones(3))
    np.testing.assert_allclose(out, np.ones(3))


def test_apply_lower_matches_brute_force():
    rng = np.random.default_rng(53)
    m = helpers.random_rational_matrix(rng, 6)
    x = helpers.random_rational_vector(rng, 7)
    out = sk.apply_lower(m, x)
    expected = oracles.matvec(oracles.to_rows(m), list(x))
    assert list(out) == expected


def test_apply_lower_length_mismatch():
    with pytest.raises(LengthMismatchError):
        sk.apply_lower(sk.identity_matrix(3), [1.0, 2.0])
