from fractions import Fraction as F

import numpy as np

from summakit._util import as_float


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
