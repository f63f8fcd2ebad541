"""Small numeric helpers shared across modules.

Every public operation runs on either float64 arrays (the production path)
or object arrays of int and ``fractions.Fraction`` entries (the exact path
used by test oracles at small truncation orders): an object array means exact.
:class:`Rational`, an integer array over one positive denominator, is the
exact path's one carrier: :meth:`Rational.of` is its one conversion (through
:func:`numerators`, which refuses a float or a bool by name), exact kernels run
on it, and each result is formed once: one Fraction per nonzero entry, or one
float rounded correctly, as ``float(x)`` rounds (:func:`as_float` rounds
Fractions, and passes float64 through uncopied).  :func:`same_arithmetic` refuses a
matrix meeting values of the other arithmetic, and :func:`check_pair` holds the
argument checks of every function that takes a matrix pair and factors.
:func:`suffix_sums` is the exact suffix-sum kernel of the W tails, the d_nr
bound and the running totals of an absolute k-norm profile.  :func:`power` is
every power of the package: the one place that picks its kernel.
:func:`uniform` draws ``verify``'s random sweeps from SplitMix64, in integer
arithmetic.
"""

from __future__ import annotations

import collections
import itertools
import math
import numbers
import operator
from fractions import Fraction

import numpy as np

from .errors import BadExponentError, LengthMismatchError, MixedArithmeticError, PowerOverflowError, SizeMismatchError


def is_exact(arr: np.ndarray) -> bool:
    return arr.dtype == object


def as_float(values) -> np.ndarray:
    """float64 view of ``values``: no copy for float64 arrays, float(x) per exact scalar."""
    return np.asarray(values, dtype=float)


def as_vector(values) -> np.ndarray:
    """1-D array; float64 for plain numbers, object dtype for exact scalars.

    An entry that is not a real number, or is a bool, raises a MixedArithmeticError naming it, as
    :func:`exact_entries` does.  A float among exact scalars passes: :func:`exact_entries` names it, by (n, v) in a
    matrix, where its arithmetic is read.
    """
    arr = np.asarray(values)
    if np.issubdtype(arr.dtype, np.number):
        return arr.astype(float)
    vals = arr.ravel().tolist()
    bad = next((i for i, x in enumerate(vals) if isinstance(x, bool) or not isinstance(x, numbers.Real)), None)
    if bad is not None:
        raise MixedArithmeticError(f"exact entry {bad} is {vals[bad]!r}, not an int or a Fraction")
    return arr


def numerators(values):
    """(nums, den) with values[i] == nums[i] / den, all integers, den the least common denominator of the int and
    Fraction ``values`` (:func:`exact_entries`), or of a float64 array's dyadic rationals (a non-finite float counts as 0)."""
    if isinstance(values, np.ndarray) and not is_exact(values):
        mant, expo = np.frexp(np.where(np.isfinite(values), values, 0.0))
        low = min(int(expo.min(initial=53)) - 53, 0)
        return list(map(operator.lshift, (mant * _SCALE).astype(np.int64).tolist(), (expo - 53 - low).tolist())), 1 << -low
    vals = exact_entries(values)
    dens = [x.denominator for x in vals]
    den = math.lcm(*dens)
    return [x.numerator * (den // d) for x, d in zip(vals, dens)], den


def exact_entries(values) -> list:
    """The exact ``values`` as a flat list; an entry that is not an int or a Fraction, or is a bool, raises a
    MixedArithmeticError naming it, by (n, v) in a 2-D array."""
    vals = values.ravel().tolist() if isinstance(values, np.ndarray) else list(values)
    if {int, Fraction}.issuperset(map(type, vals)):  # the common case, with no loop in Python
        return vals
    bad = next((i for i, x in enumerate(vals) if isinstance(x, bool) or not isinstance(x, (int, Fraction))), None)
    if bad is not None:
        where = divmod(bad, values.shape[1]) if getattr(values, "ndim", 1) == 2 else bad
        raise MixedArithmeticError(f"exact entry {where} is {vals[bad]!r}, not an int or a Fraction")
    return vals


class Rational:
    """Exact values as the integer array ``nums`` over the one positive integer ``den``: the exact path's carrier.

    :meth:`of` converts int and Fraction values, in lowest terms.  A kernel makes a new carrier of integer arithmetic
    on ``nums`` and ``den`` or by the operations below, which keep the denominator positive but do not reduce it
    (:meth:`lowest` does); values are formed only where they are read, as Fractions or as correctly rounded floats.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums, den: int = 1):
        self.nums, self.den = nums, den

    @classmethod
    def of(cls, values) -> Rational:
        """int and Fraction ``values`` over their least common denominator (:func:`numerators`), as an array of their
        shape, or a list for a list: the few values of one scalar check."""
        nums, den = numerators(values)
        return cls(np.array(nums, dtype=object).reshape(values.shape) if isinstance(values, np.ndarray) else nums, den)

    def lowest(self) -> Rational:
        """The same values in lowest terms, over a positive denominator."""
        g = math.gcd(self.den, *self.nums.ravel().tolist()) * (1 if self.den > 0 else -1)
        return self if g == 1 else Rational(self.nums // g, self.den // g)

    shape = property(lambda self: self.nums.shape)

    def __getitem__(self, key) -> Rational:
        return Rational(self.nums[key], self.den)

    def tril(self, k: int = 0) -> Rational:
        return Rational(np.tril(self.nums, k), self.den)

    def __matmul__(self, other: Rational) -> Rational:
        """The matrix or matrix-vector product, one integer dot product per entry."""
        return Rational(np.dot(self.nums, other.nums), self.den * other.den)

    def __mul__(self, values) -> Rational:
        """Entrywise by int and Fraction values (:meth:`of`), broadcast as numpy does."""
        other = Rational.of(values)
        return Rational(self.nums * other.nums, self.den * other.den)

    def __sub__(self, other: Rational) -> Rational:
        """The difference of two carriers over one denominator, as two slices of one carrier are."""
        return Rational(self.nums - other.nums, self.den)

    def column_sums(self, k: int, w: Rational | None = None, lower: bool = False) -> Rational:
        """sum_n w_n |x_nj|**k for every column j, from row j on with ``lower``: unweighted when ``w`` is None, and
        exact for an integer k >= 0, one integer sum per column over den**k times w's denominator."""
        ws = [1] * len(self.nums) if w is None else w.nums.tolist()
        cols = power(np.abs(self.nums), k).T.tolist()
        sums = [sum(map(operator.mul, ws[lower * j :], col[lower * j :])) for j, col in enumerate(cols)]
        return Rational(np.asarray(sums, dtype=object), power(self.den, k) * (1 if w is None else w.den))

    def fractions(self, lower: bool = False) -> np.ndarray:
        """The values: one Fraction per nonzero entry, a zero the int 0.  With ``lower`` every entry on and below the
        diagonal of a 2-D array, and every entry of a 1-D one (a band of it), is a Fraction, zero too."""
        nums = self.nums
        held = (np.tri(*nums.shape, dtype=bool) if nums.ndim == 2 else np.ones(nums.shape, dtype=bool)) if lower else nums != 0
        out = np.zeros(nums.shape, dtype=object)
        out[held] = [Fraction(x, self.den) for x in nums[held].tolist()]
        return out

    def floats(self) -> np.ndarray:
        """The values as float64, each correctly rounded (:func:`quotients`)."""
        return quotients(self.nums.ravel().tolist(), itertools.repeat(self.den, self.nums.size)).reshape(self.nums.shape)


def same_arithmetic(exact: bool, values, where: str) -> None:
    """Refuse ``values`` whose arithmetic is not the matrix's: an exact matrix takes exact values, a float one floats."""
    if exact != is_exact(values):
        raise MixedArithmeticError(f"{where}: {('a float', 'an exact')[exact]} matrix with {('float', 'exact')[not exact]} values")
    if exact:
        exact_entries(values)


def quotients(nums, dens) -> np.ndarray:
    """nums[i] / dens[i] for integers, each correctly rounded to float64: +-inf from size 2**1024 - 2**970 on."""
    nums, dens = list(nums), list(dens)
    try:
        return np.asarray(list(map(operator.truediv, nums, dens)), dtype=float)
    except OverflowError:  # int division raises where the rounded quotient is inf
        inf = [math.inf if (n > 0) == (d > 0) else -math.inf for n, d in zip(nums, dens)]
        return np.asarray([n / d if abs(n) < _PAST_FLOAT * abs(d) else i for n, d, i in zip(nums, dens, inf)])


def accurate_sum(values):
    """Compensated sum for floats; exact scalars as one integer sum over their common denominator."""
    arr = np.asarray(values)
    if arr.dtype == object:
        ints = Rational.of(arr)
        return sum(arr.tolist(), start=0) if ints.den == 1 else Fraction(sum(ints.nums.tolist()), ints.den)
    try:
        return math.fsum(arr)
    except OverflowError:  # finite terms whose sum is past float range: rounded, it is +-inf, as in suffix_sums
        return math.inf if sum(map(Fraction, arr.tolist())) > 0 else -math.inf


def suffix_sums(terms, count: int) -> np.ndarray:
    """sum(terms[j:]) for j = 0..count-1, in one backward pass.

    Exact scalars are added exactly.  A float64 term is a dyadic rational
    m * 2**(e - 53), with m a 53-bit integer, so the floats are added exactly
    as integers on their smallest exponent and each suffix is rounded once
    (:func:`_scaled`): every value is bit-identical to
    ``math.fsum(terms[j:])``.  A suffix holding an inf or NaN term is inf or
    NaN, as with fsum, and one whose finite terms add up past float range
    rounds to inf, where fsum raises an OverflowError.  The terms past
    ``count`` become no Python integer each: they are added per exponent
    (:func:`_binned`), and their sum, one Python integer, starts the backward
    scan of the first ``count`` terms.  Only ``count`` suffixes are ever held.
    """
    count = min(count, len(terms))
    if is_exact(terms):
        return np.asarray(_last_running_sums(reversed(terms.tolist()), count), dtype=object)
    t = as_float(terms)
    finite = np.isfinite(t)
    mant, expo = np.frexp(np.where(finite[:count], t[:count], 0.0))
    far_expo, far_sums = _binned(t[count:], finite[count:])
    low = min(int(expo.min(initial=53)), min(far_expo, default=53)) - 53  # every shift below is nonnegative (53: no terms)
    rest = sum(map(operator.lshift, far_sums, [e - 53 - low for e in far_expo]))
    head = map(operator.lshift, (mant * _SCALE).astype(np.int64).tolist(), (expo - 53 - low).tolist())
    out = _scaled(_last_running_sums(itertools.chain((rest,), reversed(list(head))), count), low)
    if not finite.all():
        out = out + np.cumsum(np.where(finite, 0.0, t)[::-1])[::-1][:count]
    return out


def _scaled(sums: list, low: int) -> np.ndarray:
    """sums[i] * 2**low for integers and low <= 0, each correctly rounded to float64.

    ``float(int)`` rounds correctly, and ``np.ldexp`` then scales exactly while the result is a normal float.  A
    subnormal result takes the correctly rounded division (:func:`quotients`), and so does an integer past float range,
    which ``float`` refuses.
    """
    try:
        head = np.fromiter(map(float, sums), float, len(sums))
    except OverflowError:
        head = np.fromiter((float(x) if abs(x) < _PAST_FLOAT else math.inf for x in sums), float, len(sums))
    out = np.ldexp(head, low)
    size = np.abs(out)
    redo = np.flatnonzero((head != 0) & ((size < _TINY) | (size == math.inf)))
    if redo.size:
        out[redo] = quotients([sums[i] for i in redo.tolist()], itertools.repeat(1 << -low, redo.size))
    return out


def _binned(t: np.ndarray, finite: np.ndarray) -> tuple[list, list]:
    """The finite terms t = m * 2**(e - 53) added per exponent e, m a 53-bit integer: each e that has a nonzero sum,
    and that sum of its m, a Python integer.

    A chunk at a time, the halves m >> 26 and m & (2**26 - 1) are added per e by ``np.bincount``: at most _CHUNK
    integers below 2**27 in size, so each float64 bin is exact (below 2**43), and so are the int64 totals for fewer
    than 2**20 chunks.
    """
    high, low = (np.zeros(_EXPO + 1025, dtype=np.int64) for _ in range(2))  # frexp's exponents: -1073..1024
    for i in range(0, t.size, _CHUNK):
        mant, expo = np.frexp(np.where(finite[i : i + _CHUNK], t[i : i + _CHUNK], 0.0))
        m, at = (mant * _SCALE).astype(np.int64), expo + _EXPO
        high += np.bincount(at, weights=m >> 26, minlength=high.size).astype(np.int64)
        low += np.bincount(at, weights=m & ((1 << 26) - 1), minlength=low.size).astype(np.int64)
    at = np.flatnonzero(high | low)
    return (at - _EXPO).tolist(), [(h << 26) + x for h, x in zip(high[at].tolist(), low[at].tolist())]


_CHUNK = 1 << 16
_SCALE = float(1 << 53)  # 2**53: np.frexp's significand times it is a 53-bit integer
_EXPO = 1073  # minus the least exponent np.frexp gives: 5e-324 is 0.5 * 2**-1073
_TINY = np.finfo(float).tiny  # 2**-1022, the least normal float64
_PAST_FLOAT = (1 << 1024) - (1 << 970)  # the least integer float() refuses: it would round to 2**1024


def _last_running_sums(terms, count: int) -> list:
    """The last ``count`` running sums of ``terms``, the last one first.

    Given the terms from the back, with the first ``count`` last, these are
    sum(terms[j:]) for j = 0..count-1; the earlier sums are dropped as they go.
    """
    return list(collections.deque(itertools.accumulate(terms), maxlen=count))[::-1]


def nan_max(values):
    """Largest of ``values`` (exact scalars stay exact), 0.0 for none, or NaN if any is NaN: Python's ``max`` skips a NaN
    not in first place.  A float64 array is reduced as an array, to a Python float: the first of its largest values,
    as ``max`` takes it."""
    if isinstance(values, np.ndarray) and not is_exact(values):
        if np.isnan(values).any():
            return math.nan
        return float(values.flat[values.argmax()]) if values.size else 0.0
    vals = list(values)
    return math.nan if any(x != x for x in vals) else max(vals, default=0.0)


def check_exponent(k) -> None:
    if not isinstance(k, numbers.Real) or not k >= 1:
        raise BadExponentError(f"k must be a real exponent >= 1, got {k!r}")


def check_pair(A, B, lam, count: int) -> None:
    """Two matrices of one order and at least ``count`` factors."""
    if A.size != B.size:
        raise SizeMismatchError(f"matrix orders differ: {A.order} vs {B.order}")
    if len(lam) < count:
        raise LengthMismatchError(f"need {count} factors, have {len(lam)}")


def named_overflow(build, base, quantity: str, index: str = "v", start: int = 0):
    """``build()`` with numpy's overflow, divide-by-zero and invalid-value warnings off.  A float value that is inf or NaN
    where its ``base`` entry is finite (a 2-D base of 1-D values: its column; 2-D values: the whole base) went past float
    range: a PowerOverflowError names ``quantity`` and its first index (of 2-D values, its row), counted from ``start``.
    A non-finite base passes through."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        values = build()
    if not is_exact(values):
        bad = ~np.isfinite(values)
        if bad.any():
            finite = np.isfinite(as_float(base))
            if bad.ndim == 2:  # each row of a triangular inverse reads the rows above it: the whole base
                finite = finite.all()
            elif finite.ndim > bad.ndim:
                finite = finite.all(axis=0)
            bad &= finite
        if bad.any():
            first = np.argmax(bad.any(axis=1) if bad.ndim == 2 else bad)
            raise PowerOverflowError(f"{quantity} at {index} = {start + int(first)} is not finite (float overflow)")
    return values


def power(base, expo, quantity: str | None = None, index: str = "v", start: int = 0):
    """base**expo: the one place that picks a power's kernel, by the operands' types.

    - An ndarray exponent: numpy's ``**`` on the base as it is.
    - An ndarray base: exact, one Python ``**`` per entry, for an object array and an integral exponent >= 0; else
      numpy's ``**`` on the base as float64 (:func:`as_float`) and float(expo).
    - A list: Python's ``**`` on each value, in order.
    - A number: Python's ``**``, exact on an int or a Fraction and an integral exponent.

    numpy's vectorized loops and glibc's ``pow``, which Python's ``**`` calls, can differ in the last digit; each site
    keeps its kernel by the type it passes.  With ``quantity`` a value past float range raises a PowerOverflowError
    naming ``quantity`` and its first index, counted from ``start``: an inf or NaN of numpy's on a finite base
    (:func:`named_overflow`), or an OverflowError of Python's.
    """
    if isinstance(expo, np.ndarray):
        return base**expo
    if isinstance(base, np.ndarray):
        exact = is_exact(base) and float(expo).is_integer() and expo >= 0
        build = (lambda: base ** int(expo)) if exact else (lambda: as_float(base) ** float(expo))
        return build() if quantity is None else named_overflow(build, base, quantity, index, start)
    values = base if isinstance(base, list) else [base]
    try:
        out = list(map(operator.pow, values, itertools.repeat(expo)))
    except OverflowError:
        if quantity is None:
            raise
        for i, x in enumerate(values):  # the first value whose power raises again
            try:
                x**expo
            except OverflowError:
                raise PowerOverflowError(f"{quantity} at {index} = {start + i} is not finite (float overflow)") from None
    return out if isinstance(base, list) else out[0]


def norm_weights(count: int, k, exact: bool) -> np.ndarray:
    """Index weights (1, 1**(k-1), 2**(k-1), ...) used by the k-norms; one past float range raises a
    PowerOverflowError naming its n.

    Position 0 carries weight 1 regardless of k, the continuous-in-k
    convention for the single place the 0-th term ever enters a norm.
    """
    w = power(np.arange(count, dtype=object if exact else float), k - 1, "the index weight n**(k-1)", "n")
    if count > 0:
        w[0] = 1 if is_exact(w) else 1.0
    return w


_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64's increment: the odd integer nearest 2**64 over the golden ratio


def splitmix64(state: int, counters) -> np.ndarray:
    """SplitMix64's outputs from ``state`` at ``counters``, the i-th output at counter i, from 1 (Steele, Lea and Flood,
    OOPSLA 2014): the finalizer of Vigna's ``splitmix64.c`` on state + i * gamma, in uint64 arithmetic, which wraps
    modulo 2**64 as the generator does."""
    z = np.uint64(state) + np.asarray(counters, dtype=np.uint64) * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def uniform(seed: int, stream: int, size: int) -> np.ndarray:
    """``size`` draws uniform on [-1, 1) of stream ``stream`` of ``seed``, a seed in [0, 2**64).

    The stream starts at SplitMix64's output at counter stream + 1 from ``seed`` (:func:`splitmix64`), and its draws
    are the outputs at counters 1..size from there: the 53 high bits m of each give m * 2**-52 - 1, exactly.
    Every step is integer arithmetic, so the bits depend on neither the CPU nor the numpy version.
    """
    start = splitmix64(seed, [stream + 1])[0]
    high = splitmix64(start, np.arange(1, size + 1, dtype=np.uint64)) >> np.uint64(11)
    return np.ldexp(high.astype(float), -52) - 1.0
