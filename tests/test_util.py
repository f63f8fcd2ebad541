import math
from fractions import Fraction as F

import numpy as np

from summakit._util import accurate_sum, as_float, nan_max, suffix_sums


def test_as_float_rounds_fractions_like_float():
    # one correctly rounded conversion per Fraction, bit for bit float(x)
    rng = np.random.default_rng(83)
    values = [F(int(rng.integers(-(10**6), 10**6)), int(rng.integers(1, 10**6))) for _ in range(500)]
    values += [F(3**840 + int(rng.integers(0, 10**9)), 7**497 + int(rng.integers(1, 10**9))) for _ in range(50)]
    values += [F(1, 3), F(-2, 3), F(0), F(10**400 + 1, 10**400)]
    arr = np.asarray(values, dtype=object)
    got = as_float(arr)
    want = np.asarray([float(x) for x in values])
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def test_as_float_shares_float64_input():
    x = np.linspace(-1.0, 1.0, 11)
    assert np.shares_memory(as_float(x), x)
    assert np.shares_memory(as_float(x[2:7]), x)


def test_nan_max_propagates_nan_wherever_it_stands():
    # Python's max keeps the first value when every comparison with a NaN is false
    assert max([1.0, math.nan, 2.0]) == 2.0
    for values in ([1.0, math.nan, 2.0], [math.nan, 1.0], [2.0, np.float64("nan")]):
        assert math.isnan(nan_max(values))
    assert nan_max([1.0, 3.0, 2.0]) == 3.0
    assert nan_max([]) == 0.0
    exact = nan_max(iter([F(0), F(-1, 3), F(0)]))
    assert exact == 0 and isinstance(exact, F)


def test_suffix_sums_past_float_range_are_inf():
    # fsum raises an OverflowError on these sums; each is rounded to the float it would reach: inf
    big = np.finfo(float).max
    got = suffix_sums(np.array([big, big, 1.0, -big, -big]), 5)
    assert got.tolist() == [1.0, -big, -math.inf, -math.inf, -big]  # exact sums 1, 1 - big, 1 - 2 big, -2 big, -big
    assert suffix_sums(np.array([big, 2.0**970, 0.0]), 3).tolist() == [math.inf, 2.0**970, 0.0]
    assert suffix_sums(np.array([big, 2.0**969]), 2).tolist() == [big, 2.0**969]  # below the rounding midpoint


def test_accurate_sum_of_finite_terms_past_float_range_is_inf_as_in_suffix_sums():
    # math.fsum raises an OverflowError here: the correctly rounded sum is +-inf
    terms = np.array([1e308, 1e308, -1.0])
    assert accurate_sum(terms) == math.inf == suffix_sums(terms, 1)[0]
    assert accurate_sum(-terms) == -math.inf
