"""Series objects and truncated k-norm profiles.

A series sample is the coefficient sequence (a_n) together with its cached
partial sums.  Applying a normal matrix to the partial sums
(:func:`~summakit.matrices.apply_lower`) gives the sequence-to-sequence
transform; differencing that output in n equals the hat-matrix transform of
the coefficients themselves (:func:`~summakit.matrices.apply_hat`), which is
the quantity the absolute k-norm weighs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import abs_pow, as_vector, check_exponent, is_exact, norm_weights, suffix_sums
from .errors import LengthMismatchError
from .matrices import NormalMatrix, apply_hat


class SeriesSample:
    """Coefficients a_0..a_N with derived partial sums s_n."""

    __slots__ = ("coefficients", "partial_sums")

    def __init__(self, coefficients):
        c = as_vector(coefficients)
        if c.ndim != 1 or c.size == 0:
            raise LengthMismatchError("a series needs at least one coefficient")
        s = np.cumsum(c)
        c.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "partial_sums", s)

    def __setattr__(self, name, value):
        raise AttributeError("SeriesSample is immutable")

    def __len__(self) -> int:
        return self.coefficients.size

    @property
    def order(self) -> int:
        return self.coefficients.size - 1


class FactorSequence:
    """Multiplier sequence lambda_0..lambda_M applied coefficientwise."""

    __slots__ = ("values",)

    def __init__(self, values):
        v = as_vector(values)
        if v.ndim != 1 or v.size == 0:
            raise LengthMismatchError("a factor sequence needs at least one value")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __setattr__(self, name, value):
        raise AttributeError("FactorSequence is immutable")

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class AbsKProfile:
    """Termwise profile of the truncated absolute k-norm.

    ``deltas`` holds delta_n for n = 0..N, and ``terms[i]`` is
    n**(k-1) * |delta_n|**k at n = i+1 (the n = 0 term is excluded here; the
    norm accessors below add it with weight one).  ``running_total`` is the
    nondecreasing cumulative sum of ``terms``, each total correctly rounded.
    """

    k: float
    terms: np.ndarray
    running_total: np.ndarray
    deltas: np.ndarray

    @property
    def total(self):
        if self.running_total.size == 0:
            return 0.0
        return self.running_total[-1]


def abs_k_profile(A: NormalMatrix, a: SeriesSample, k) -> AbsKProfile:
    """Terms n**(k-1) |delta_n|**k for n = 1..N and their running totals, each correctly rounded (``suffix_sums``).

    delta is the hat-matrix transform of the coefficients, :func:`~summakit.matrices.apply_hat`.
    """
    check_exponent(k)
    deltas = apply_hat(A, a.coefficients)
    w = norm_weights(deltas.size, k, is_exact(deltas))
    terms = w[1:] * abs_pow(deltas[1:], k)
    return AbsKProfile(k=k, terms=terms, running_total=suffix_sums(terms[::-1], terms.size)[::-1], deltas=deltas)
