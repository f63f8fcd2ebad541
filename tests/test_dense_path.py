"""The dense (explicit-entries) float path against the rational oracles.

Random explicit normal matrices: diagonal entries +-1/2 or +-1 and entries
below it at most 2**-b in size, b the bit length of the order, so the hat
inverse stays well scaled at every order.  Each float result is compared with
the exact value for the same float inputs (``tests/oracles.py``), within a
stated bound in units of u = 2**-53, the unit round-off.
"""

from fractions import Fraction as F

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import summakit as sk  # noqa: E402
from summakit.matrices import _BLOCK  # noqa: E402

import oracles  # noqa: E402

U = 2.0**-53
SEEDS = st.integers(0, 2**32 - 1)


def tame_normal(rng, order, bits=None):
    """Entries below the diagonal uniform in (-2**-b, 2**-b); with ``bits`` on a grid of 2**-(b + bits)."""
    scale = 2.0 ** -int(order).bit_length()
    E = rng.uniform(-1.0, 1.0, (order + 1, order + 1))
    if bits is not None:
        E = np.round(E * 2**bits) / 2**bits
    E = np.tril(E * scale, -1)
    np.fill_diagonal(E, rng.choice([-1.0, -0.5, 0.5, 1.0], order + 1))
    return sk.NormalMatrix(E)


def exact_rows(M):
    return [[F(x) for x in row] for row in M.entries.tolist()]


def as_floats(rows):
    return np.asarray([[float(x) for x in row] for row in rows])


def worst_gap(got, exact) -> float:
    """Largest |got - exact| over every entry, exactly, then rounded."""
    return float(max(abs(F(g) - e) for g, e in zip(np.ravel(got).tolist(), np.ravel(np.asarray(exact, dtype=object)).tolist())))


@settings(max_examples=30, deadline=None)
@given(order=st.integers(1, 40), seed=SEEDS, lead=st.integers(0, 30))
def test_hat_columns_within_the_suffix_sum_bound(order, seed, lead):
    # hat_nv sums a_ni - a_{n-1,i} over i = v..n: each difference rounds once and the
    # n - v + 1 terms are added in turn, so |error| <= (n - v + 2) u S_nv, with
    # S_nv = sum_{i=v..n} |a_ni| + |a_{n-1,i}| the size of what it adds.  Column 0
    # scaled by 2**lead makes the row sums large: no entry may carry their round-off
    E = tame_normal(np.random.default_rng(seed), order).entries.copy()
    E[:, 0] *= 2.0**lead
    A = sk.NormalMatrix(E)
    exact = oracles.hat_rows(exact_rows(A))
    got = sk.hat_columns(A, order)
    E = np.abs(A.entries)
    S = np.cumsum((E + np.vstack((np.zeros(order + 1), E[:-1])))[:, ::-1], axis=1)[:, ::-1]
    for n in range(order + 1):
        for v in range(n + 1):
            assert abs(F(got[n, v]) - exact[n][v]) <= (n - v + 2) * U * F(S[n, v])
    assert np.array_equal(np.diagonal(got), A.diagonal)
    assert not np.any(np.triu(got, 1))


@settings(max_examples=6, deadline=None)
@given(order=st.sampled_from([_BLOCK // 2, _BLOCK + 6]), seed=SEEDS)
def test_hat_inverse_on_both_sides_of_the_block_size(order, seed):
    # forward substitution below the block size, one split above it; entries on a
    # 2**-8 grid keep the rational inverse cheap.  Normwise, |X' - X| <= size u max(|X| |H| |X|);
    # the two bands the key identity reads are within 3u of X's, elementwise
    A = tame_normal(np.random.default_rng(seed), order, bits=8)
    H = oracles.hat_rows(exact_rows(A))
    X = oracles.lower_inverse(H)
    got = sk.invert_hat(sk.hat_of(A))
    Xf = np.abs(as_floats(X))
    assert worst_gap(got.entries, X) <= (order + 1) * U * np.max(Xf @ np.abs(as_floats(H)) @ Xf)
    for band, offset in ((got.diagonal, 0), (got.subdiagonal, 1)):
        for v, x in enumerate(band.tolist()):
            assert abs(F(x) - X[v + offset][v]) <= 3 * U * abs(X[v + offset][v])


def test_block_inverse_is_exact_on_fractions():
    rng = np.random.default_rng(5)
    order = _BLOCK + 6
    A = tame_normal(rng, order, bits=4)
    exact = sk.make_normal(np.asarray(exact_rows(A), dtype=object))
    assert sk.invert_hat(sk.hat_of(exact)).entries.tolist() == oracles.lower_inverse(oracles.hat_rows(exact_rows(A)))


@settings(max_examples=30, deadline=None)
@given(order=st.integers(2, 16), seed=SEEDS)
def test_decompose_within_its_bound(order, seed):
    # t1, t2, dy and the residual each within 2 N u sigma of the exact values,
    # sigma = max_n (|B-hat Lam| |X| |A-hat| |a|)_n, X the exact hat inverse of A:
    # every term of each part is a product along such a path
    rng = np.random.default_rng(seed)
    A, B = tame_normal(rng, order), tame_normal(rng, order)
    lam, a = rng.uniform(-1.0, 1.0, order + 2), rng.uniform(-1.0, 1.0, order + 1)
    a_rows, b_rows = exact_rows(A), exact_rows(B)
    dx, dy, t1, t2 = oracles.decompose_parts(a_rows, b_rows, [F(x) for x in lam.tolist()], [F(x) for x in a.tolist()])
    assert all(y == p + q for y, p, q in zip(dy, t1, t2))
    ah = oracles.hat_rows(a_rows)
    BL = np.abs(as_floats(oracles.hat_rows(b_rows)) * lam[None, : order + 1])
    sigma = np.max(BL @ np.abs(as_floats(oracles.lower_inverse(ah))) @ np.abs(as_floats(ah)) @ np.abs(a))
    bound = 2 * order * U * sigma
    dec = sk.decompose(A, B, sk.FactorSequence(lam), sk.SeriesSample(a))
    for got, exact in ((dec.t1, t1), (dec.t2, t2), (dec.delta_y, dy)):
        assert worst_gap(got, exact) <= bound
    assert dec.residual <= bound


@settings(max_examples=30, deadline=None)
@given(order=st.integers(3, 24), seed=SEEDS)
def test_key_identity_gaps_within_their_bound(order, seed):
    # the identity holds exactly on the rational hat inverse, and each float gap,
    # relative to the size of its two sides, stays within 16 u
    rng = np.random.default_rng(seed)
    A, B = tame_normal(rng, order), tame_normal(rng, order)
    lam = rng.uniform(-1.0, 1.0, order + 2)
    a_rows = exact_rows(A)
    X = oracles.lower_inverse(oracles.hat_rows(a_rows))
    bh = oracles.hat_rows(exact_rows(B))
    f = [F(x) for x in lam.tolist()]
    for n in range(2, order + 1):
        for v in range(1, n):
            gap = (a_rows[v][v] - a_rows[v + 1][v]) / (a_rows[v][v] * a_rows[v + 1][v + 1])
            lhs = bh[n][v] * f[v] * X[v][v] + bh[n][v + 1] * f[v + 1] * X[v + 1][v]
            assert lhs == (bh[n][v] * f[v] - bh[n][v + 1] * f[v + 1]) / a_rows[v][v] + bh[n][v + 1] * f[v + 1] * gap
    assert np.max(sk.ProbePass(A, B, sk.FactorSequence(lam), 1).key_identity_gaps()) <= 16 * U


class Untouchable:
    """An entry above the diagonal: any arithmetic on it is an error."""

    def _refuse(self, *args):
        raise AssertionError("arithmetic on an entry above the diagonal")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = __truediv__ = __rtruediv__ = _refuse


def test_apply_lower_reads_no_entry_above_the_diagonal():
    rng = np.random.default_rng(61)
    order = 6
    rational = sk.NormalMatrix(np.asarray(exact_rows(tame_normal(rng, order)), dtype=object))
    E = rational.entries.copy()
    E[np.triu_indices(order + 1, 1)] = Untouchable()
    x = [F(int(i), 7) for i in rng.integers(-9, 10, order + 1)]
    got = sk.apply_lower(sk.NormalMatrix(E), x)
    assert got.tolist() == oracles.matvec(exact_rows(rational), x)
