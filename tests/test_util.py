import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import oracles
import summakit
from summakit._util import accurate_sum, as_float, nan_max, power, splitmix64, suffix_sums, uniform
from summakit.errors import PowerOverflowError

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

EXPONENTS = (0.5, 2, -0.5, 1.5, 3.7)  # numpy's loops take fast paths for some: 0.5 a square root, 2 a square


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


def test_nan_max_of_a_float_array_is_the_python_float_max_takes():
    # reduced as an array, to the value, sign of zero and type of Python's max over the same floats
    for values in ([1.0, 3.0, 2.0], [-0.0, 0.0], [0.0, -0.0], [-2.0, -0.0, 0.0, -0.0], [5e-324, -1.0], [math.inf, 1.0]):
        got = nan_max(np.asarray(values))
        assert type(got) is float and got.hex() == max(values).hex()
    assert math.isnan(nan_max(np.array([1.0, 2.0, math.nan, 3.0])))
    assert math.isnan(nan_max(np.array([[0.0, 1.0], [math.nan, 3.0]])))
    got = nan_max(np.array([]))
    assert type(got) is float and got == 0.0


def test_suffix_sums_past_float_range_are_inf():
    # fsum raises an OverflowError on these sums; each is rounded to the float it would reach: inf
    big = np.finfo(float).max
    got = suffix_sums(np.array([big, big, 1.0, -big, -big]), 5)
    assert got.tolist() == [1.0, -big, -math.inf, -math.inf, -big]  # exact sums 1, 1 - big, 1 - 2 big, -2 big, -big
    assert suffix_sums(np.array([big, 2.0**970, 0.0]), 3).tolist() == [math.inf, 2.0**970, 0.0]
    assert suffix_sums(np.array([big, 2.0**969]), 2).tolist() == [big, 2.0**969]  # below the rounding midpoint


# exponent bands at the edges of the float range: terms below 2**-1000, so a suffix can be subnormal; near 2**1023, so
# one can add up past float max; and all three, so an integer sum can be past float range before it is scaled
BANDS = {"subnormal": st.integers(-1126, -1052), "unit": st.integers(-60, 60), "huge": st.integers(966, 970)}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), bands=st.sampled_from((("subnormal",), ("unit",), ("huge",), tuple(BANDS))))
def test_suffix_sums_are_fsum_at_the_edges_of_the_float_range(data, bands):
    # each suffix rounded once, scaled by np.ldexp while normal, by correctly rounded division where subnormal or
    # past float range; math.fsum raises an OverflowError where its partials pass float max: there the exact sum,
    # rounded by float(Fraction), which raises where the rounded value is +-inf
    mant, sign = st.integers(1, (1 << 53) - 1), st.sampled_from((-1.0, 1.0))
    term = st.builds(lambda m, e, s: s * math.ldexp(m, e), mant, st.one_of(*(BANDS[b] for b in bands)), sign)
    # float max twice as likely as each other edge: two of it add up past float range
    edges = st.sampled_from((0.0, 5e-324, -5e-324, 2.0**-1022, np.finfo(float).max, np.finfo(float).max))
    terms = data.draw(st.lists(term, max_size=30)) + data.draw(st.lists(edges, max_size=4))
    terms = np.asarray(data.draw(st.permutations(terms)), dtype=float)
    count = data.draw(st.integers(0, terms.size))
    want = []
    for j in range(count):
        try:
            want.append(math.fsum(terms[j:]))
        except OverflowError:
            exact = sum(map(F, terms[j:].tolist()))
            try:
                want.append(float(exact))
            except OverflowError:
                want.append(math.inf if exact > 0 else -math.inf)
    got = suffix_sums(terms, count)
    assert got.dtype == np.float64 and got.size == count
    assert got.tobytes() == np.asarray(want, dtype=float).tobytes()


def test_accurate_sum_of_finite_terms_past_float_range_is_inf_as_in_suffix_sums():
    # math.fsum raises an OverflowError here: the correctly rounded sum is +-inf
    terms = np.array([1e308, 1e308, -1.0])
    assert accurate_sum(terms) == math.inf == suffix_sums(terms, 1)[0]
    assert accurate_sum(-terms) == -math.inf


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=40), expo=st.sampled_from(EXPONENTS))
def test_power_gives_the_bits_of_the_kernel_its_operands_pick(values, expo):
    # an array is raised by numpy's loops, a list and a number by Python's **: the two differ in the last bit on
    # about 5% of values at 1.5, -0.5 and 3.7, so each site keeps its bytes by the type it passes
    arr = np.asarray(values)
    with np.errstate(over="ignore"):
        assert power(arr, expo).tobytes() == (arr ** float(expo)).tobytes()
    python = []
    for x in values:
        try:
            python.append((x**expo).hex())
        except OverflowError:
            return
    assert [x.hex() for x in power(values, expo)] == python
    assert [power(x, expo).hex() for x in values] == python


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.one_of(st.integers(-(10**20), 10**20), st.fractions(max_denominator=10**9)), min_size=1, max_size=20),
    expo=st.sampled_from((0, 1, 2, 3, 2.0)),
)
def test_power_of_exact_values_to_an_integral_exponent_is_exact(values, expo):
    # int and Fraction values keep their type and value, in an object array, a list or one at a time
    want = [x ** int(expo) for x in values]
    got = power(np.asarray(values, dtype=object), expo)
    assert got.dtype == object and got.tolist() == want and list(map(type, got.tolist())) == list(map(type, want))
    assert power(values, int(expo)) == want and [power(x, int(expo)) for x in values] == want
    # to any other exponent an exact array is rounded to float64 first, and raised by numpy's loops
    floats = as_float(np.abs(np.asarray(values, dtype=object)))
    assert power(np.abs(np.asarray(values, dtype=object)), 1.5).tobytes() == (floats**1.5).tobytes()


def test_power_past_float_range_names_its_quantity_and_first_index():
    with pytest.raises(PowerOverflowError, match=r"^the q at v = 4 is not finite \(float overflow\)$"):
        power([1.0, 1e200, 1e300], 2.0, "the q", start=3)
    with pytest.raises(PowerOverflowError, match=r"^the q at n = 2 is not finite"):
        power(np.array([1.0, 1e100, 1e200, 1e300]), 2.0, "the q", "n")
    with pytest.raises(PowerOverflowError, match=r"^the q at v = 7 is not finite"):
        power(1e300, 2.0, "the q", start=7)
    with pytest.raises(OverflowError):  # no quantity: Python's own error, and numpy's inf
        power([1e300], 2.0)
    with np.errstate(over="ignore"):
        assert power(np.array([1e300]), 2.0).tolist() == [math.inf]


def test_splitmix64_from_state_zero_is_vignas_known_answer():
    assert splitmix64(0, [1, 2, 3]).tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, (1 << 64) - 1), stream=st.integers(0, 1 << 32), size=st.integers(0, 70))
def test_uniform_is_the_scalar_splitmix64_reference_bit_for_bit(seed, stream, size):
    got = uniform(seed, stream, size)
    assert got.dtype == np.float64 and got.shape == (size,)
    assert got.tobytes() == np.asarray(oracles.splitmix_uniform(seed, stream, size), dtype=float).tobytes()
    assert ((got >= -1.0) & (got < 1.0)).all()


def test_verify_leaves_numpy_random_unimported(tmp_path):
    # the sweeps draw from _util.uniform: a verify run pays for no import of numpy.random's bit generators
    config = {"matrix_a": {"kind": "cesaro"}, "matrix_b": {"kind": "cesaro"}, "series": {"kind": "alternating"}, "k": 2, "N": 12}
    (tmp_path / "config.json").write_text(json.dumps(config))
    code = (
        "import sys\n"
        "from summakit.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(sorted(name for name in sys.modules if name.split('.')[:2] == ['numpy', 'random']))\n"
        "sys.exit(code)\n"
    )
    argv = ["verify", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "verify.csv")]
    env = dict(os.environ, PYTHONPATH=str(Path(summakit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
