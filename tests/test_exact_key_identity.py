"""The exact key identity against its Fraction oracle, and what the exact path converts and forms.

On int and Fraction entries ``key_identity_check``, its row form and
``ProbePass.key_identity_gaps`` evaluate lhs - rhs of the adjacent-inverse
rearrangement as one integer expression and form a Fraction only where it is
nonzero.  Each gap must equal ``oracles.key_gap``, which does every operation
in Fractions, by value and by repr, also where a perturbed hat inverse makes
it nonzero.  A value of the other arithmetic is refused by name, and an exact
matrix's lower triangle is converted to integers once.
"""

from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import summakit as sk  # noqa: E402
import summakit.harness  # noqa: E402
from summakit import _util, conditions, matrices  # noqa: E402
from summakit.errors import MixedArithmeticError  # noqa: E402

import helpers  # noqa: E402
import oracles  # noqa: E402

KINDS = {
    "row-stochastic": helpers.random_rational_row_stochastic,
    "general": helpers.random_rational_matrix,
    "riesz": lambda rng, order: sk.riesz_matrix(helpers.random_rational_weights(rng, order + 1)),
}


def factors_with_zeros(rng, count):
    """Random rationals, about a third of them zero: an int 0 or a Fraction(0)."""
    return [(0, F(0))[int(rng.integers(2))] if rng.random() < 0.35 else helpers.random_rational(rng) for _ in range(count)]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.tuples(st.sampled_from(sorted(KINDS)), st.sampled_from(sorted(KINDS))),
    order=st.integers(2, 7),
    perturb=st.sampled_from([None, "diagonal", "subdiagonal"]),
)
def test_scalar_row_and_probe_pass_gaps_equal_the_oracle(seed, kinds, order, perturb):
    rng = np.random.default_rng(seed)
    A, B = (KINDS[kind](rng, order) for kind in kinds)
    lam = sk.FactorSequence(np.asarray(factors_with_zeros(rng, order + 2), dtype=object))
    a_rows, bh = oracles.to_rows(A), oracles.hat_rows(oracles.to_rows(B))
    inv = oracles.lower_inverse(oracles.hat_rows([[F(x) for x in row] for row in a_rows]))
    if perturb:  # one entry the identity reads is off: the gaps of its column are nonzero where its factor is
        v = int(rng.integers(1, order))
        if perturb == "diagonal":
            inv[v][v] *= 2
        else:
            inv[v + 1][v] += F(1, 7)
    X = sk.NormalMatrix(np.asarray(inv, dtype=object))
    want = {(n, v): oracles.key_gap(a_rows, bh, inv, list(lam.values), n, v) for n in range(2, order + 1) for v in range(1, n)}
    hat_b = sk.hat_of(B)
    for (n, v), gap in want.items():
        got = sk.key_identity_check(A, B, lam, n, v, hat_b=hat_b, inv_hat_a=X)
        assert got == gap and repr(got) == repr(gap)
    for n in range(2, order + 1):
        row = sk.key_identity_check(A, B, lam, n, np.arange(1, n), inv_hat_a=X)
        assert repr(list(row)) == repr([want[n, v] for v in range(1, n)])
    with mock.patch.object(summakit.harness, "hat_inverse_bands", lambda M: (X.diagonal, X.subdiagonal)):
        worst = sk.ProbePass(A, B, lam, 1).key_identity_gaps()
    # each column's largest gap, against the float zero the sweep starts from: 0.0 where every gap is zero
    columns = [[want[n, v] for n in range(v + 1, order + 1)] for v in range(1, order)]
    assert repr(list(worst)) == repr([max(0.0, *column) for column in columns])


def test_a_value_of_the_other_arithmetic_is_refused_by_name():
    # an exact stand-in or factors met floats silently, and under the integer kernel would end in an AttributeError
    rng = np.random.default_rng(11)
    A, B = helpers.random_rational_matrix(rng, 5), helpers.random_rational_row_stochastic(rng, 5)
    lam = sk.FactorSequence(helpers.random_rational_vector(rng, 7))
    float_inverse = sk.NormalMatrix(np.asarray(sk.hat_inverse(A).entries, dtype=float))
    float_lam = sk.FactorSequence(np.asarray(lam.values, dtype=float))
    for v in (2, np.arange(1, 4)):  # the scalar and the row form
        with pytest.raises(MixedArithmeticError, match=r"^exact entry \(?4"):
            sk.key_identity_check(A, B, lam, 4, v, inv_hat_a=float_inverse)
        with pytest.raises(MixedArithmeticError, match=r"^exact entry \(?1"):
            sk.key_identity_check(A, B, float_lam, 4, v)
        fA, fB = (sk.NormalMatrix(np.asarray(M.entries, dtype=float)) for M in (A, B))
        with pytest.raises(MixedArithmeticError, match="^key_identity_check: an? float matrix with exact values$"):
            sk.key_identity_check(fA, fB, float_lam, 4, v, inv_hat_a=sk.hat_inverse(A))
    # the sweep over the whole triangle: A's bands take B's arithmetic
    with pytest.raises(MixedArithmeticError, match=r"^exact entry \(0, 0\) is "):
        sk.ProbePass(fA, B, lam, 1).key_identity_gaps()
    with pytest.raises(MixedArithmeticError, match="^key_identity_gaps: an? float matrix with exact values$"):
        sk.ProbePass(A, fB, float_lam, 1).key_identity_gaps()


def test_the_exact_path_converts_each_matrix_once_and_the_key_sweep_forms_no_fraction(monkeypatch):
    A, B, lam, series = helpers.exact_oracle_inputs(seed=1, order=24)
    converted = []
    real = _util.numerators

    def counting(values):
        converted.append(values)
        return real(values)

    for module in (_util, matrices, conditions):  # each one binds the name
        monkeypatch.setattr(module, "numerators", counting)
    first = sk.decompose(A, B, lam, series)
    second = sk.decompose(A, B, lam, series)
    assert repr(first) == repr(second) and first.residual == 0
    lower = {name: np.tril(M.entries) for name, M in (("A", A), ("B", B), ("hat A", sk.hat_of(A)), ("hat B", sk.hat_of(B)))}
    seen = {name: sum(np.shape(x) == L.shape and bool(np.all(np.asarray(x) == L)) for x in converted) for name, L in lower.items()}
    assert seen == {name: 1 for name in lower}
    monkeypatch.undo()

    formed = [0]
    new = F.__new__

    def counted(cls, *args, **kwargs):
        formed[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counted)
    hat_b, inv_hat_a = sk.hat_of(B), sk.invert_hat(sk.hat_of(A))
    gaps = [sk.key_identity_check(A, B, lam, n, v, hat_b=hat_b, inv_hat_a=inv_hat_a) for n in range(2, 25) for v in range(1, n)]
    assert formed[0] == 0 and len(gaps) == 276 and not any(gaps)
    # the library calls of the exact-oracle benchmark on fresh inputs form 1,542 Fractions, where they formed 4,578
    inputs = helpers.exact_oracle_inputs(seed=1, order=24)
    formed[0] = 0
    helpers.exact_oracle_calls(*inputs)
    assert formed[0] <= 1_600
