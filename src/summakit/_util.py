"""Small numeric helpers shared across modules.

Every public operation runs on either float64 arrays (the production path)
or object arrays of ``fractions.Fraction`` (the exact path used by test
oracles at small truncation orders).  The helpers here keep those two paths
behind one code surface.  :func:`as_float` is the one point where exact
values are rounded to float64: each Fraction is rounded once, correctly,
exactly as ``float(x)`` rounds it, and float64 input passes through uncopied.
:func:`check_pair` holds the argument checks shared by every function that
takes a matrix pair and a factor sequence.  :func:`suffix_sums` is the
exact suffix-sum kernel of the W tails and the d_nr bound.
"""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np

from .errors import BadExponentError, LengthMismatchError, SizeMismatchError


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


def accurate_sum(values):
    """Compensated sum for floats, plain sum for exact scalars."""
    arr = np.asarray(values)
    if arr.dtype == object:
        return sum(arr.tolist(), start=0)
    return math.fsum(arr)


def suffix_sums(terms, count: int) -> np.ndarray:
    """sum(terms[j:]) for j = 0..count-1, in one backward pass.

    Exact scalars are added exactly.  A float64 term is a dyadic rational
    d * 2**e, so the floats are added exactly as integers on their smallest
    exponent and each suffix is rounded once, by correctly rounded integer
    division: every value is bit-identical to ``math.fsum(terms[j:])``.  A
    suffix holding an inf or NaN term is inf or NaN, as with fsum.
    """
    if is_exact(terms):
        return np.asarray(list(itertools.accumulate(reversed(terms.tolist())))[::-1][:count], dtype=object)
    t = as_float(terms)
    finite = np.isfinite(t)
    mant, expo = np.frexp(np.where(finite, t, 0.0))
    low = min(int(expo.min(initial=53)) - 53, 0)  # 53: an empty input has no exponents
    digits = (mant * 2.0**53).astype(np.int64).tolist()
    shifts = (expo - 53 - low).tolist()
    sums = list(itertools.accumulate(d << s for d, s in zip(reversed(digits), reversed(shifts))))[::-1]
    scale = 1 << -low
    out = np.asarray([s / scale for s in sums[:count]])
    if not finite.all():
        out = out + np.cumsum(np.where(finite, 0.0, t)[::-1])[::-1][:count]
    return out


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


def abs_pow(values, k):
    """Elementwise |x|**k, staying exact for object arrays with integer k."""
    arr = np.asarray(values)
    if arr.dtype == object and float(k).is_integer():
        return np.abs(arr) ** int(k)
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
