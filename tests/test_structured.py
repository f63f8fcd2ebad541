"""Structured matrices against their dense twins.

A weighted mean holds its weights and the identity its order; ``NormalMatrix(M.entries)``
is the same matrix held as dense entries.  Every read the conditions make of the
structure must give the bits the dense entries give, and the materialized entries
must be the bits the eager builders gave.  The one exception is a weighted mean's gap
factor, exactly one, which float entries give only to round-off.
"""

from fractions import Fraction as F

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import summakit as sk  # noqa: E402
from summakit.errors import ZeroDiagonalError  # noqa: E402

FLOAT_WEIGHTS = st.floats(min_value=1e-3, max_value=1e3)
EXACT_WEIGHTS = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9)
EPS = np.finfo(float).eps


def same_report(r, s):
    assert r.condition_id == s.condition_id
    assert r.indices.tobytes() == s.indices.tobytes()
    assert r.ratios.tobytes() == s.ratios.tobytes()
    assert r.running_sup.tobytes() == s.running_sup.tobytes()
    assert (r.sup_ratio, r.trend, r.tail_cutoff, r.tail_warning) == (s.sup_ratio, s.trend, s.tail_cutoff, s.tail_warning)


def same_values(x, y):
    assert x.dtype == y.dtype and x.shape == y.shape
    if x.dtype == object:
        assert x.tolist() == y.tolist()
    else:
        assert x.tobytes() == y.tobytes()


def structured_and_dense(make):
    """A structured matrix whose entries are never read, and the dense twin of an equal one."""
    return make(), sk.NormalMatrix(make().entries)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_weighted_mean_reads_equal_its_dense_twin(data):
    exact = data.draw(st.booleans(), label="exact")
    N = data.draw(st.integers(1, 40), label="N")
    weights = st.lists(EXACT_WEIGHTS if exact else FLOAT_WEIGHTS, min_size=N + 1, max_size=N + 1)
    p, q = (np.asarray(data.draw(weights, label=name), dtype=object if exact else float) for name in "pq")
    lam = sk.FactorSequence(data.draw(st.lists(st.floats(-2, 2), min_size=N + 2, max_size=N + 2), label="lam"))

    A, A_dense = structured_and_dense(lambda: sk.riesz_matrix(sk.WeightSequence(p)))
    B, B_dense = structured_and_dense(lambda: sk.riesz_matrix(sk.WeightSequence(q)))
    P = np.cumsum(p)
    same_values(A_dense.entries, np.tril(p[None, :] / P[:, None]))  # the eager build
    for read in ("diagonal", "subdiagonal"):
        same_values(getattr(A, read), getattr(A_dense, read))
    same_report(sk.check_c9(A, B, lam, 2), sk.check_c9(A_dense, B_dense, lam, 2))
    same_report(sk.check_c12(A), sk.check_c12(A_dense))
    assert np.all(sk.check_c15(A).ratios == 1.0)
    if exact:
        same_report(sk.check_c15(A), sk.check_c15(A_dense))
    else:  # a_vv - a_{v+1,v} cancels: the entries' round-off grows by up to P_{v+1} / p_{v+1}
        assert np.all(np.abs(sk.check_c15(A_dense).ratios - 1.0) <= 4 * EPS * (1 + P[1:] / p[1:]))
    # with A a weighted mean the numerators are zero; the denominators read B's diagonal
    same_report(sk.check_c16(A, B, lam), sk.check_c16(A, B_dense, lam))
    if exact:  # then the dense inner sums are exactly zero too
        same_report(sk.check_c16(A, B, lam), sk.check_c16(A_dense, B_dense, lam))
    for check in (sk.check_c13, sk.check_c14):
        assert np.all(check(A).ratios == 0.0)
    # the structure is read after the entries are computed, too
    A.entries
    same_values(A.diagonal, A_dense.diagonal)
    assert np.all(sk.check_c13(A).ratios == 0.0)


@settings(max_examples=30, deadline=None)
@given(N=st.integers(1, 40), exact=st.booleans(), k=st.sampled_from([1, 1.5, 2, 3]), data=st.data())
def test_identity_reads_equal_its_dense_twin(N, exact, k, data):
    lam_vals = data.draw(st.lists(st.floats(-2, 2), min_size=N + 2, max_size=N + 2), label="lam")
    if exact:
        lam_vals = [F(x) for x in lam_vals]
    lam = sk.FactorSequence(np.asarray(lam_vals, dtype=object if exact else float))
    I, I_dense = structured_and_dense(lambda: sk.identity_matrix(N, exact))
    same_values(I_dense.entries, np.eye(N + 1, dtype=object if exact else float))
    for read in ("diagonal", "subdiagonal"):
        same_values(getattr(I, read), getattr(I_dense, read))
    same_values(I.gap(), I_dense.gap())
    A = sk.cesaro_matrix(N, exact)
    same_report(sk.check_c9(A, I, lam, k), sk.check_c9(A, I_dense, lam, k))
    for check in (sk.check_c12, sk.check_c15):
        same_report(check(I), check(I_dense))
    same_report(sk.check_c16(I, I, lam), sk.check_c16(I_dense, I_dense, lam))
    assert np.all(sk.check_c14(I).ratios == 0.0)
    # C10/C11 in closed form: the carrier is the order, as for the dense twin
    cutoff = data.draw(st.integers(1, N), label="cutoff")
    tail = sk.TailSpec(cutoff)
    same_report(sk.check_c10(A, I, lam, k, tail), sk.check_c10(A, I_dense, lam, k, tail))
    same_report(sk.check_c11(I, lam, k, tail), sk.check_c11(I_dense, lam, k, tail))


@pytest.mark.parametrize("k", [1, 1.5, 2, 3.7])
def test_identity_tails_equal_a_dense_carrier_out_to_the_cutoff(k):
    # the CLI's identity B: order N, with its tail rows to the cutoff, against the dense carrier
    N, cutoff = 24, 384
    lam = sk.FactorSequence((-1.0) ** np.arange(N + 2) / np.sqrt(np.arange(N + 2) + 1.0))
    A = sk.cesaro_matrix(N)
    carrier, dense = structured_and_dense(lambda: sk.identity_matrix(cutoff))
    for tail in (sk.TailSpec(cutoff), sk.TailSpec(2 * cutoff)):  # reached, and clamped with a warning
        same_report(sk.check_c10(A, carrier, lam, k, tail, v_max=N), sk.check_c10(A, dense, lam, k, tail, v_max=N))
        same_report(sk.check_c11(carrier, lam, k, tail, v_max=N), sk.check_c11(dense, lam, k, tail, v_max=N))


def test_underflowing_diagonal_is_still_a_zero_diagonal():
    # p_1 / P_1 = 1e-30 / 1e300 underflows to 0: the O(N) diagonal check sees it
    with pytest.raises(ZeroDiagonalError) as info:
        sk.riesz_matrix(sk.WeightSequence([1e300, 1e-30, 1.0]))
    assert info.value.index == 1
