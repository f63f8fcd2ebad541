"""Small numeric helpers shared across modules.

Every public operation runs on either float64 arrays (the production path)
or object arrays of ``fractions.Fraction`` (the exact path used by test
oracles at small truncation orders).  The helpers here keep those two paths
behind one code surface.  :func:`as_float` is the one point where exact
values are rounded to float64: each Fraction is rounded once, correctly,
exactly as ``float(x)`` rounds it, and float64 input passes through uncopied.
:func:`numerators` is the exact path's one conversion: it writes int and
Fraction entries as integer numerators over their least common denominator,
so the exact kernels run as integer arithmetic and form one Fraction per
result entry.  :func:`check_pair` holds the argument checks shared by every
function that takes a matrix pair and a factor sequence.  :func:`suffix_sums`
is the exact suffix-sum kernel of the W tails, the d_nr bound and the
running totals of an absolute k-norm profile.
"""

from __future__ import annotations

import collections
import itertools
import math
import numbers
import operator
from fractions import Fraction

import numpy as np

from .errors import BadExponentError, LengthMismatchError, PowerOverflowError, SizeMismatchError


def is_exact(arr: np.ndarray) -> bool:
    return arr.dtype == object


def as_float(values) -> np.ndarray:
    """float64 view of ``values``: no copy for float64 arrays, float(x) per exact scalar."""
    return np.asarray(values, dtype=float)


def as_vector(values) -> np.ndarray:
    """1-D array; float64 for plain numbers, object dtype for exact scalars."""
    arr = np.asarray(values)
    if arr.dtype == object:
        return arr
    if not np.issubdtype(arr.dtype, np.number):
        # e.g. a list of Fractions arrives as dtype object already; anything
        # else non-numeric is a caller bug worth surfacing as-is
        return np.asarray(values, dtype=object)
    return arr.astype(float)


def numerators(values):
    """(nums, den) with values[i] == nums[i] / den, all integers, den the least common denominator of the int and
    Fraction ``values``, or of a float64 array's dyadic rationals (a non-finite float counts as 0); None for any other
    entry type, whose values keep their own arithmetic."""
    if isinstance(values, np.ndarray) and not is_exact(values):
        mant, expo = np.frexp(np.where(np.isfinite(values), values, 0.0))
        low = min(int(expo.min(initial=53)) - 53, 0)
        return list(map(operator.lshift, (mant * 2.0**53).astype(np.int64).tolist(), (expo - 53 - low).tolist())), 1 << -low
    vals = values.tolist() if isinstance(values, np.ndarray) else values
    if not all(isinstance(x, (int, Fraction)) for x in vals):
        return None
    den = math.lcm(*[x.denominator for x in vals])
    return [x.numerator * (den // x.denominator) for x in vals], den


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
        parts = numerators(arr)
        return sum(arr.tolist(), start=0) if parts is None or parts[1] == 1 else Fraction(sum(parts[0]), parts[1])
    return math.fsum(arr)


def suffix_sums(terms, count: int) -> np.ndarray:
    """sum(terms[j:]) for j = 0..count-1, in one backward pass.

    Exact scalars are added exactly.  A float64 term is a dyadic rational
    d * 2**e, so the floats are added exactly as integers on their smallest
    exponent and each suffix is rounded once, by correctly rounded integer
    division: every value is bit-identical to ``math.fsum(terms[j:])``.  A
    suffix holding an inf or NaN term is inf or NaN, as with fsum, and one
    whose finite terms add up past float range rounds to inf, where fsum
    raises an OverflowError.  The
    terms are split a chunk at a time, and those past ``count`` go into one
    running sum, so only ``count`` suffixes are ever held.
    """
    count = min(count, len(terms))
    if is_exact(terms):
        return np.asarray(_last_running_sums(reversed(terms.tolist()), count), dtype=object)
    t = as_float(terms)
    finite = np.isfinite(t)

    def frexp(lo, hi):
        return np.frexp(np.where(finite[lo:hi], t[lo:hi], 0.0))

    chunks = range(0, t.size, _CHUNK)
    low = min(min((int(frexp(i, i + _CHUNK)[1].min()) for i in chunks), default=53) - 53, 0)  # 53: no terms

    def ints(lo, hi):
        mant, expo = frexp(lo, hi)
        return map(operator.lshift, (mant * 2.0**53).astype(np.int64).tolist(), (expo - 53 - low).tolist())

    rest = itertools.chain.from_iterable(ints(i, i + _CHUNK) for i in range(count, t.size, _CHUNK))
    sums = _last_running_sums(itertools.chain(rest, reversed(list(ints(0, count)))), count)
    out = quotients(sums, itertools.repeat(1 << -low, len(sums)))
    if not finite.all():
        out = out + np.cumsum(np.where(finite, 0.0, t)[::-1])[::-1][:count]
    return out


_CHUNK = 1 << 16


def _last_running_sums(terms, count: int) -> list:
    """The last ``count`` running sums of ``terms``, the last one first.

    Given the terms from the back, with the first ``count`` last, these are
    sum(terms[j:]) for j = 0..count-1; the earlier sums are dropped as they go.
    """
    return list(collections.deque(itertools.accumulate(terms), maxlen=count))[::-1]


def nan_max(values, default=0.0):
    """Largest of ``values`` (exact scalars stay exact), or NaN if any is NaN: Python's ``max`` skips a NaN not in first place."""
    vals = list(values)
    return math.nan if any(x != x for x in vals) else max(vals, default=default)


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
