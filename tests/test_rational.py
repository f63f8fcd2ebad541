"""The exact path's carrier, ``_util.Rational``, against Fraction arithmetic.

Every operation the exact kernels use is run on random int and Fraction
arrays, with negative entries, zero rows and denominators up to 10**30, and
compared with the same operation done one Fraction at a time: the values and
their types (a zero the int 0 or a Fraction by the ``lower`` rule), and for
``floats`` the bits of ``float(Fraction)``, also at the subnormal edge and past
float range, where it is +-inf as ``_util.quotients`` gives it.
"""

import math
import operator
from fractions import Fraction as F

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from summakit._util import Rational  # noqa: E402

BIG = 10**30
VALUES = st.one_of(st.integers(-BIG, BIG), st.fractions(max_denominator=BIG), st.just(0))
KEYS = (np.s_[:], np.s_[1:], np.s_[:, ::-1], np.s_[::2, 1:], np.s_[-1], np.s_[-1, :2], ([0, -1], [0, 0]))


@st.composite
def arrays(draw, rows=st.integers(1, 6), cols=st.integers(1, 6)):
    """An object array of ints and Fractions, about one row in four all zero."""
    r, c = draw(rows), draw(cols)
    return np.asarray([[0] * c if draw(st.integers(0, 3)) == 0 else draw(st.lists(VALUES, min_size=c, max_size=c)) for _ in range(r)], dtype=object)


def fractions_of(values):
    return np.vectorize(F, otypes=[object])(values) if np.size(values) else np.asarray(values, dtype=object)


def typed(values, lower):
    """Fraction arithmetic's values typed as ``Rational.fractions`` forms them: a Fraction at every nonzero entry,
    or with ``lower`` at every entry on and below the diagonal, and the int 0 elsewhere."""
    held = (np.tri(*values.shape, dtype=bool) if values.ndim == 2 else np.ones(values.shape, dtype=bool)) if lower else values != 0
    return [repr(F(x)) if h else repr(0) for x, h in zip(values.ravel().tolist(), held.ravel().tolist())]


def reprs(values):
    return [repr(x) for x in values.ravel().tolist()]


@settings(max_examples=60, deadline=None)
@given(M=arrays())
def test_the_conversion_holds_the_values_over_their_least_common_denominator_in_lowest_terms(M):
    R = Rational.of(M)
    dens = [F(x).denominator for x in M.ravel().tolist()]
    assert R.shape == M.shape and R.den == math.lcm(*dens) and math.gcd(R.den, *R.nums.ravel().tolist()) == 1
    assert all(type(x) is int for x in R.nums.ravel().tolist())
    assert reprs(R.fractions()) == typed(M, False)
    assert reprs(R.tril().fractions(lower=True)) == typed(np.tril(M), True)
    # a list, the values of one scalar check, keeps the form of a list
    listed = Rational.of(M.ravel().tolist())
    assert isinstance(listed.nums, list) and (listed.nums, listed.den) == (R.nums.ravel().tolist(), R.den)


@settings(max_examples=60, deadline=None)
@given(M=arrays(), scale=st.integers(-BIG, BIG).filter(bool))
def test_lowest_terms_keep_the_values_over_a_positive_denominator(M, scale):
    R = Rational.of(M)
    scaled = Rational(R.nums * scale, R.den * scale)  # the same values, over a denominator of either sign
    low = scaled.lowest()
    assert low.den > 0 and math.gcd(low.den, *low.nums.ravel().tolist()) == 1
    assert (low.nums.tolist(), low.den) == (R.nums.tolist(), R.den)


@settings(max_examples=60, deadline=None)
@given(M=arrays(rows=st.integers(2, 6), cols=st.integers(2, 6)), k=st.integers(-2, 2))
def test_slices_and_lower_triangles_equal_the_fractions_of_the_same_entries(M, k):
    R = Rational.of(M)
    for key in KEYS:
        assert reprs(np.asarray(R[key].fractions())) == typed(np.asarray(fractions_of(M)[key]), False)
    assert reprs(R.tril(k).fractions()) == typed(np.tril(fractions_of(M), k), False)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), M=arrays())
def test_products_and_differences_equal_fraction_arithmetic(data, M):
    rows, cols = M.shape
    X = data.draw(arrays(rows=st.just(cols)))
    x = X[:, 0]
    A, Mf, Xf = Rational.of(M), fractions_of(M), fractions_of(X)
    dot = lambda a, b: sum(map(operator.mul, a, b), F(0))  # noqa: E731
    assert (A @ Rational.of(X)).fractions().tolist() == [[dot(row, col) for col in Xf.T.tolist()] for row in Mf.tolist()]
    assert (A @ Rational.of(x)).fractions(lower=True).tolist() == [dot(row, Xf[:, 0].tolist()) for row in Mf.tolist()]
    # entrywise by int and Fraction values, converted and broadcast along the rows
    assert reprs((A * x).fractions()) == typed(Mf * Xf[:, 0], False)
    # two slices of one carrier keep its denominator
    if cols > 1:
        D = A[:, :-1] - A[:, 1:]
        assert D.den == A.den and reprs(D.fractions()) == typed(Mf[:, :-1] - Mf[:, 1:], False)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), M=arrays(), k=st.integers(0, 3), lower=st.booleans(), weighted=st.booleans())
def test_column_sums_equal_the_weighted_fraction_sums(data, M, k, lower, weighted):
    rows, cols = M.shape
    w = np.asarray(data.draw(st.lists(st.one_of(st.integers(1, BIG), st.fractions(0, 10, max_denominator=BIG)), min_size=rows, max_size=rows)), dtype=object)
    got = Rational.of(M).column_sums(k, Rational.of(w) if weighted else None, lower).fractions()
    Mf = fractions_of(M).tolist()
    weights = [F(x) for x in w.tolist()] if weighted else [F(1)] * rows
    want = [sum((weights[n] * abs(Mf[n][j]) ** k for n in range(j if lower else 0, rows)), F(0)) for j in range(cols)]
    assert reprs(got) == typed(np.asarray(want, dtype=object), False)


# |x| = m 2**e, m of up to 60 bits: from below half the least subnormal, 2**-1075, to past the largest float
EDGE = st.builds(lambda m, e, s: s * F(m) * F(2) ** e, st.integers(1, 2**60), st.integers(-1140, 1030), st.sampled_from([1, -1]))


def rounded(x):
    """float(x), correctly rounded, and +-inf where it is past float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


@settings(max_examples=80, deadline=None)
@given(values=st.lists(st.one_of(VALUES, EDGE), min_size=1, max_size=12), den=st.integers(1, BIG))
def test_floats_are_the_correctly_rounded_fractions_bit_for_bit(values, den):
    R = Rational.of(np.asarray(values, dtype=object))
    assert R.floats().tobytes() == np.asarray([rounded(F(x)) for x in values]).tobytes()
    # the same integers over a further denominator
    over = Rational(R.nums, R.den * den)
    assert over.floats().tobytes() == np.asarray([rounded(F(x) / den) for x in values]).tobytes()


def test_floats_meet_the_subnormal_edge_and_float_range():
    # the least subnormal, half of it (a tie, rounded to even: 0), the least normal, the largest float, and the
    # first integers that round past it
    values = [F(1, 2**1074), F(1, 2**1075), F(3, 2**1076), F(1, 2**1022), F(2**1024 - 2**971), F(2**1024 - 2**970), -F(2**1025)]
    got = Rational.of(np.asarray(values, dtype=object)).floats().tolist()
    assert got == [5e-324, 0.0, 5e-324, 2.0**-1022, 1.7976931348623157e308, math.inf, -math.inf]
