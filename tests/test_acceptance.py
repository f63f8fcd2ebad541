"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Floating ensembles are the well-scaled ones recorded in the project notes
(off-diagonals uniform in [-1, 1], diagonals bounded away from zero);
rational ensembles are unrestricted.
"""

import json
import time
from fractions import Fraction as F
from pathlib import Path

import numpy as np

import summakit as sk
from summakit.cli import main

import helpers
import oracles

GOLDEN = Path(__file__).parent / "golden"


def _verdict(num: int, label: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_inverse_identity():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        m = helpers.random_normal_matrix(rng, 32)
        h = sk.hat_of(m)
        hp = sk.invert_hat(h)
        eye = np.eye(33)
        worst = max(
            worst,
            float(np.max(np.abs(hp.entries @ h.entries - eye))),
            float(np.max(np.abs(h.entries @ hp.entries - eye))),
        )
    elapsed = time.perf_counter() - t0
    exact_ok = True
    for _ in range(10):
        m = helpers.random_rational_matrix(rng, 12)
        h = sk.hat_of(m)
        hp = sk.invert_hat(h)
        eye = oracles.identity_rows(13)
        exact_ok &= oracles.matmul(oracles.to_rows(hp), oracles.to_rows(h)) == eye
        exact_ok &= oracles.matmul(oracles.to_rows(h), oracles.to_rows(hp)) == eye
    ok = worst <= 1e-10 and exact_ok and elapsed < 5.0
    assert _verdict(1, f"inverse identity, max err {worst:.2e}, {elapsed:.2f}s", ok)


def test_criterion_2_delta_transform_equivalence():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        m = helpers.random_normal_matrix(rng, 32)
        series = sk.SeriesSample(rng.uniform(-1, 1, 33))
        seq = sk.apply_lower(m, series.partial_sums)
        direct = np.concatenate([[seq[0]], np.diff(seq)])
        via_hat = sk.apply_hat(m, series.coefficients)
        scale = max(float(np.max(np.abs(series.partial_sums))), 1e-6)
        worst = max(worst, float(np.max(np.abs(direct - via_hat))) / scale)
    exact_ok = True
    for _ in range(10):
        m = helpers.random_rational_matrix(rng, 12)
        coeffs = helpers.random_rational_vector(rng, 13)
        via_hat = sk.apply_hat(m, coeffs)
        seq = oracles.seq_transform(oracles.to_rows(m), list(coeffs))
        exact_ok &= list(via_hat) == oracles.first_differences(seq)
    ok = worst <= 1e-12 and exact_ok
    assert _verdict(2, f"delta-transform equivalence, max rel {worst:.2e}", ok)


def test_criterion_3_decomposition_identity():
    rng = np.random.default_rng(103)
    exact_ok = True
    for _ in range(100):
        A = helpers.random_rational_row_stochastic(rng, 12, span=6)
        B = helpers.random_rational_row_stochastic(rng, 12, span=6)
        lam = sk.FactorSequence(helpers.random_rational_vector(rng, 13, span=4))
        coeffs = helpers.random_rational_vector(rng, 13, span=4)
        dec = sk.decompose(A, B, lam, sk.SeriesSample(coeffs))
        exact_ok &= dec.residual == 0
    worst = 0.0
    for _ in range(100):
        A = helpers.random_row_stochastic(rng, 48)
        B = helpers.random_row_stochastic(rng, 48)
        lam = sk.FactorSequence(rng.uniform(-1, 1, 49))
        series = sk.SeriesSample(rng.uniform(-1, 1, 49))
        dec = sk.decompose(A, B, lam, series)
        scale = max(1.0, float(np.max(np.abs(series.partial_sums))))
        worst = max(worst, float(dec.residual) / scale)
    ok = exact_ok and worst <= 1e-10
    assert _verdict(3, f"decomposition identity, max residual {worst:.2e}", ok)


def test_criterion_4_key_identity():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(20):
        A = helpers.random_normal_matrix(rng, 32)
        B = helpers.random_normal_matrix(rng, 32)
        lam = sk.FactorSequence(rng.uniform(-1, 1, 34))
        hat_b = sk.hat_of(B)
        inv_a = sk.invert_hat(sk.hat_of(A))
        for n in range(2, 33):
            for v in range(1, n):
                worst = max(
                    worst,
                    float(sk.key_identity_check(A, B, lam, n, v, hat_b=hat_b, inv_hat_a=inv_a)),
                )
    exact_ok = True
    for _ in range(5):
        A = helpers.random_rational_matrix(rng, 12)
        B = helpers.random_rational_matrix(rng, 12)
        lam = sk.FactorSequence(helpers.random_rational_vector(rng, 13))
        hat_b = sk.hat_of(B)
        inv_a = sk.invert_hat(sk.hat_of(A))
        for n in range(2, 13):
            for v in range(1, n):
                exact_ok &= sk.key_identity_check(A, B, lam, n, v, hat_b=hat_b, inv_hat_a=inv_a) == 0
    ok = worst <= 1e-11 and exact_ok
    assert _verdict(4, f"key identity, max gap {worst:.2e}", ok)


def test_criterion_5_riesz_reduction():
    # C9 and C11 on a Riesz pair against Sarigol's condition (a) and Q_n |lam_{n+1}| W_n from the weights (oracles.py)
    rng = np.random.default_rng(105)
    N = 100
    cutoff = 16 * N
    tail = sk.TailSpec(cutoff)
    worst_a = 0.0
    worst_c11 = 0.0
    for trial in range(20):
        k = 1 if trial % 2 == 0 else 2
        p = helpers.random_positive_weights(rng, cutoff + 1)
        q = helpers.random_positive_weights(rng, cutoff + 1)
        lam = sk.FactorSequence(1.0 / (np.arange(N + 2) + 1.0))
        rep9 = sk.check_c9(sk.riesz_matrix(p, order=N), sk.riesz_matrix(q, order=N), lam, k)
        ta = oracles.theorem_a(p.weights.tolist(), q.weights.tolist(), lam.values.tolist(), k, cutoff, N)[0]
        worst_a = max(worst_a, float(np.max(np.abs(rep9.ratios / ta - 1.0))))

        rep11 = sk.check_c11(sk.riesz_matrix(q, order=cutoff), lam, k, tail, v_max=N)
        W = np.asarray(oracles.w_sequence(q.weights.tolist(), k, cutoff, N + 1))
        Q = q.cumulative
        expected = (Q[: N + 1] * np.abs(lam.values[1 : N + 2])) ** k * W ** k
        worst_c11 = max(worst_c11, float(np.max(np.abs(rep11.ratios / expected - 1.0))))
    ok = worst_a <= 1e-12 and worst_c11 <= 1e-13
    assert _verdict(5, f"riesz reduction, c9/TA_a rel {worst_a:.2e}, c11/W rel {worst_c11:.2e}", ok)


def test_criterion_6_w_telescoping():
    # unit weights, k = 1 and unit factors: TA_c_n = Q_n W_n = (n+1) W_n with W_n = 1/(n+1) - 1/(cutoff+1)
    N, cutoff = 100, 1600
    q = sk.WeightSequence(np.ones(cutoff + 1))
    tc = helpers.theorem_a_rows(q, q, helpers.ones_factors(N + 2), 1, sk.TailSpec(cutoff), N)[2]
    n = np.arange(1, N + 1)
    worst = float(np.max(np.abs(tc.ratios / (n + 1.0) - (1.0 / (n + 1.0) - 1.0 / (cutoff + 1.0)))))
    ok = worst <= 1e-14
    assert _verdict(6, f"W telescoping, max err {worst:.2e}", ok)


def test_criterion_7_probe_formulas():
    rng = np.random.default_rng(107)
    N = 24
    worst = 0.0
    matrices = [
        (sk.cesaro_matrix(N), sk.cesaro_matrix(N)),
        (helpers.random_normal_matrix(rng, N), helpers.random_normal_matrix(rng, N)),
        (helpers.random_row_stochastic(rng, N), helpers.random_row_stochastic(rng, N)),
    ]
    lam = sk.FactorSequence(rng.uniform(-1, 1, N + 2))
    for A, B in matrices:
        # every probe column at once: D and S of A-hat (unit factors) and of B-hat Lambda
        dx = dict(zip((sk.PROBE_DIFFERENCE, sk.PROBE_SHIFT), sk.probe_deltas(sk.hat_of(A).entries, None)))
        dy = dict(zip((sk.PROBE_DIFFERENCE, sk.PROBE_SHIFT), sk.probe_deltas(sk.hat_of(B).entries, lam.values)))
        for kind in (sk.PROBE_DIFFERENCE, sk.PROBE_SHIFT):
            for v in range(N):
                series = sk.probe_series(kind, v, N + 1)
                gen_x = sk.apply_hat(A, series.coefficients)
                gen_y = sk.apply_hat(B, series.coefficients * lam.values[: N + 1])
                worst = max(
                    worst,
                    float(np.max(np.abs(dx[kind][:, v] - gen_x))),
                    float(np.max(np.abs(dy[kind][:, v] - gen_y))),
                )
    exact_ok = True
    Ax = helpers.random_rational_matrix(rng, 12)
    Bx = helpers.random_rational_matrix(rng, 12)
    lamx = sk.FactorSequence(helpers.random_rational_vector(rng, 14))
    probes = sk.ProbePass(Ax, Bx, lamx, 2)
    for kind in (sk.PROBE_DIFFERENCE, sk.PROBE_SHIFT):
        for v in range(12):
            series = sk.probe_series(kind, v, 13, exact=True)
            exact_ok &= list(probes.delta_x[kind][:, v]) == list(sk.apply_hat(Ax, series.coefficients))
            exact_ok &= list(probes.delta_y[kind][:, v]) == list(sk.apply_hat(Bx, series.coefficients * lamx.values[:13]))
    ok = worst <= 1e-12 and exact_ok
    assert _verdict(7, f"probe formulas, max gap {worst:.2e}", ok)


def test_criterion_8_l1_lk_machinery():
    rng = np.random.default_rng(108)
    exact_ok = True
    for _ in range(5):
        A = helpers.random_rational_row_stochastic(rng, 12)
        B = helpers.random_rational_row_stochastic(rng, 12)
        lam = sk.FactorSequence(helpers.random_rational_vector(rng, 13))
        a_rows, b_rows = oracles.to_rows(A), oracles.to_rows(B)
        cnv = sk.l1_lk_bound(sk.build_cnv(A, B, lam, 1), 1)
        dnr = sk.l1_lk_bound(sk.build_dnr(A, B, lam, 1), 1)
        for v in range(13):
            exact_ok &= cnv.column_sums[v] == oracles.cnv_colsum_pow(a_rows, b_rows, list(lam.values), 1, v)
            exact_ok &= dnr.column_sums[v] == oracles.dnr_colsum_pow(a_rows, b_rows, list(lam.values), 1, v)

    A = sk.cesaro_matrix(24)
    lam = sk.FactorSequence(1.0 / (np.arange(26) + 1.0))
    M, ratios = sk.empirical_constant(A, A, lam, 2)
    values = np.concatenate(list(ratios.values()))
    tautology = bool(np.all(values <= M)) and M == values.max()
    golden = json.loads((GOLDEN / "probe_family_cesaro_n24_k2.json").read_text())
    regression = abs(M - golden["max_ratio"]) <= 1e-12 * golden["max_ratio"]
    ok = exact_ok and tautology and regression
    assert _verdict(8, f"l1->lk machinery, M {M:.6f}", ok)


def test_criterion_9_condition_sanity_cli(tmp_path):
    config = {
        "matrix_a": {"kind": "cesaro"},
        "matrix_b": {"kind": "cesaro"},
        "lambda": {"kind": "constant", "value": 1.0},
        "series": {"kind": "alternating", "beta": 1.0},
        "k": 1,
        "N": 200,
        "tail": {"cutoff": 3200},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config, indent=2))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["check", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["check", "--config", str(cfg), "--out", str(out2)]) == 0
    stable = out1.read_bytes() == out2.read_bytes()
    golden_ok = out1.read_bytes() == (GOLDEN / "check_cesaro_n200_k1.csv").read_bytes()

    rows = out1.read_text().splitlines()[1:]
    all_bounded = all(row.split(",")[4] == "bounded-looking" for row in rows)
    seen = {row.split(",")[0] for row in rows}
    coverage = seen == {"C9", "C10", "C11", "C12", "C13", "C14", "C15", "C16"}

    config_adv = dict(config)
    config_adv["lambda"] = {"kind": "power", "alpha": 1.0}
    config_adv["conditions"] = ["C9"]
    cfg_adv = tmp_path / "adv.json"
    cfg_adv.write_text(json.dumps(config_adv, indent=2))
    out_adv = tmp_path / "adv.csv"
    assert main(["check", "--config", str(cfg_adv), "--out", str(out_adv)]) == 0
    adv_rows = out_adv.read_text().splitlines()[1:]
    adv_growing = all(row.split(",")[4] == "growing" for row in adv_rows)
    ratios = [float(row.split(",")[2]) for row in adv_rows]
    adv_linear = np.allclose(ratios, np.arange(1, 201), rtol=1e-12)

    checks = {
        "stable": stable,
        "golden": golden_ok,
        "all-bounded": all_bounded,
        "coverage": coverage,
        "adv-growing": adv_growing,
        "adv-linear": adv_linear,
    }
    failed = [name for name, passed in checks.items() if not passed]
    label = "condition sanity via CLI golden files"
    if failed:
        label += ", failed: " + " ".join(failed)
    if not golden_ok:
        label += "; " + _first_line_diff(out1, GOLDEN / "check_cesaro_n200_k1.csv")
    ok = not failed
    assert _verdict(9, label, ok)


def _first_line_diff(got: Path, want: Path) -> str:
    """First line where two text files differ, for the verdict label."""
    got_lines = got.read_text().splitlines()
    want_lines = want.read_text().splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            return f"line {i}: got {g!r}, golden {w!r}"
    if len(got_lines) != len(want_lines):
        return f"line counts differ: got {len(got_lines)}, golden {len(want_lines)}"
    return "same lines, bytes differ (line endings or final newline)"
