"""Small numeric helpers shared across modules.

Every public operation runs on either float64 arrays (the production path)
or object arrays of int and ``fractions.Fraction`` entries (the exact path
used by test oracles at small truncation orders): an object array means exact.
:func:`numerators` is the exact path's one conversion, to integer numerators
over one denominator, and refuses a float by name.  Exact kernels run on such
integer arrays (:func:`on_numerators`) and form each result once: one Fraction
per nonzero entry (:func:`fractions_over`), or one float rounded correctly, as
``float(x)`` rounds (:func:`floats_over`; :func:`as_float` rounds Fractions,
and passes float64 through uncopied).  :func:`same_arithmetic` refuses a
matrix meeting values of the other arithmetic, and :func:`check_pair` holds the
argument checks of every function that takes a matrix pair and factors.
:func:`suffix_sums` is the exact suffix-sum kernel of the W tails, the d_nr
bound and the running totals of an absolute k-norm profile.
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
        return list(map(operator.lshift, (mant * 2.0**53).astype(np.int64).tolist(), (expo - 53 - low).tolist())), 1 << -low
    vals = exact_entries(values)
    den = math.lcm(*[x.denominator for x in vals])
    return [x.numerator * (den // x.denominator) for x in vals], den


def exact_entries(values) -> list:
    """The exact ``values`` as a flat list; an entry that is not an int or a Fraction raises a MixedArithmeticError naming
    it, by (n, v) in a 2-D array."""
    vals = values.ravel().tolist() if isinstance(values, np.ndarray) else list(values)
    if {int, Fraction}.issuperset(map(type, vals)):  # the common case, with no loop in Python
        return vals
    bad = next((i for i, x in enumerate(vals) if not isinstance(x, (int, Fraction))), None)
    if bad is not None:
        where = divmod(bad, values.shape[1]) if getattr(values, "ndim", 1) == 2 else bad
        raise MixedArithmeticError(f"exact entry {where} is {vals[bad]!r}, not an int or a Fraction")
    return vals


def on_numerators(op, *arrays) -> tuple[np.ndarray, int]:
    """(op(*nums), den) for exact arrays and an ``op`` linear in each, run on their integer numerators (:func:`numerators`)
    as arrays of their shapes: op(*arrays) is that integer array over den, the product of the denominators."""
    parts = [numerators(a) for a in arrays]
    out = op(*(np.asarray(nums, dtype=object).reshape(a.shape) for a, (nums, _) in zip(arrays, parts)))
    return out, math.prod(d for _, d in parts)


def fractions_over(nums, den) -> np.ndarray:
    """nums / den for an integer array: one Fraction per nonzero entry, a zero the int 0."""
    return np.asarray([Fraction(x, den) if x else 0 for x in nums.ravel().tolist()], dtype=object).reshape(nums.shape)


def floats_over(nums, den) -> np.ndarray:
    """nums / den for an integer array and a positive den, each entry correctly rounded (:func:`quotients`)."""
    return quotients(nums.ravel().tolist(), itertools.repeat(den, nums.size)).reshape(nums.shape)


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
        return np.asarray([n / d if abs(n) < (2**1024 - 2**970) * abs(d) else i for n, d, i in zip(nums, dens, inf)])


def accurate_sum(values):
    """Compensated sum for floats; exact scalars as one integer sum over their common denominator."""
    arr = np.asarray(values)
    if arr.dtype == object:
        nums, den = numerators(arr)
        return sum(arr.tolist(), start=0) if den == 1 else Fraction(sum(nums), den)
    try:
        return math.fsum(arr)
    except OverflowError:  # finite terms whose sum is past float range: rounded, it is +-inf, as in suffix_sums
        return math.inf if sum(map(Fraction, arr.tolist())) > 0 else -math.inf


def suffix_sums(terms, count: int) -> np.ndarray:
    """sum(terms[j:]) for j = 0..count-1, in one backward pass.

    Exact scalars are added exactly.  A float64 term is a dyadic rational
    m * 2**(e - 53), with m a 53-bit integer, so the floats are added exactly
    as integers on their smallest exponent and each suffix is rounded once,
    by correctly rounded integer division: every value is bit-identical to
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
    head = map(operator.lshift, (mant * 2.0**53).astype(np.int64).tolist(), (expo - 53 - low).tolist())
    sums = _last_running_sums(itertools.chain((rest,), reversed(list(head))), count)
    out = quotients(sums, itertools.repeat(1 << -low, len(sums)))
    if not finite.all():
        out = out + np.cumsum(np.where(finite, 0.0, t)[::-1])[::-1][:count]
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
        m, at = (mant * 2.0**53).astype(np.int64), expo + _EXPO
        high += np.bincount(at, weights=m >> 26, minlength=high.size).astype(np.int64)
        low += np.bincount(at, weights=m & (2**26 - 1), minlength=low.size).astype(np.int64)
    at = np.flatnonzero(high | low)
    return (at - _EXPO).tolist(), [(h << 26) + x for h, x in zip(high[at].tolist(), low[at].tolist())]


_CHUNK = 1 << 16
_EXPO = 1073  # minus the least exponent np.frexp gives: 5e-324 is 0.5 * 2**-1073


def _last_running_sums(terms, count: int) -> list:
    """The last ``count`` running sums of ``terms``, the last one first.

    Given the terms from the back, with the first ``count`` last, these are
    sum(terms[j:]) for j = 0..count-1; the earlier sums are dropped as they go.
    """
    return list(collections.deque(itertools.accumulate(terms), maxlen=count))[::-1]


def nan_max(values):
    """Largest of ``values`` (exact scalars stay exact), 0.0 for none, or NaN if any is NaN: Python's ``max`` skips a NaN
    not in first place."""
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


def scalar_pow(x: float, p: float, quantity: str, v: int) -> float:
    """x**p for one float, as Python's ``**`` rounds it: numpy's vectorized power can differ in the last digit.
    Where ``**`` raises OverflowError, a :class:`~summakit.errors.PowerOverflowError` names ``quantity`` and v."""
    try:
        return x**p
    except OverflowError:
        raise PowerOverflowError(f"{quantity} at v = {v} is not finite (float overflow)") from None


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


def abs_pow(values, k):
    """Elementwise |x|**k, staying exact for object arrays with integer k."""
    arr = np.asarray(values)
    if arr.dtype == object and float(k).is_integer():
        return np.abs(arr) if k == 1 else np.abs(arr) ** int(k)
    return np.abs(as_float(arr)) ** float(k)


def index_pow(indices, expo, exact: bool):
    """n**expo for an integer index array; exact integers when possible.

    Zero indices are the caller's responsibility (0**0 is taken as 1 by
    both numpy and Python, which is the convention used throughout).
    """
    idx = np.asarray(indices)
    if exact and float(expo).is_integer() and expo >= 0:
        return idx.astype(object) ** int(expo)
    return idx.astype(float) ** float(expo)


def norm_weights(count: int, k, exact: bool) -> np.ndarray:
    """Index weights (1, 1**(k-1), 2**(k-1), ...) used by the k-norms.

    Position 0 carries weight 1 regardless of k, the continuous-in-k
    convention for the single place the 0-th term ever enters a norm.
    """
    w = index_pow(np.arange(count), k - 1, exact)
    if count > 0:
        w[0] = 1 if is_exact(w) else 1.0
    return w
