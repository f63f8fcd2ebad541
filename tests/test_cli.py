import json
from pathlib import Path

import numpy as np
import pytest

from summakit.cli import main

GOLDEN = Path(__file__).parent / "golden"


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
    return str(path)


def base_config(**overrides):
    data = {
        "matrix_a": {"kind": "cesaro"},
        "matrix_b": {"kind": "cesaro"},
        "lambda": {"kind": "constant", "value": 1.0},
        "series": {"kind": "alternating", "beta": 1.0},
        "k": 1,
        "N": 16,
        "tail": {"cutoff": 256},
    }
    data.update(overrides)
    return data


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_check_writes_report(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out = tmp_path / "report.csv"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out)
    ids = {row["condition_id"] for row in rows}
    assert ids == {"C9", "C10", "C11", "C12", "C13", "C14", "C15", "C16"}
    assert all(row["trend"] == "bounded-looking" for row in rows)


def test_check_json_format(tmp_path):
    cfg = write_config(tmp_path, base_config(conditions=["C9", "TA"]))
    out = tmp_path / "report.json"
    assert main(["check", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["command"] == "check"
    assert payload["meta"]["config"]["N"] == 16
    ids = {row["condition_id"] for row in payload["rows"]}
    assert ids == {"C9", "TA_a", "TA_b", "TA_c"}


def test_check_rejects_bad_exponent(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(k=0.5))
    assert main(["check", "--config", cfg]) == 2
    assert "k must be" in capsys.readouterr().err


def test_check_rejects_zero_diagonal(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        base_config(N=2, matrix_a={"kind": "explicit", "entries": [[1.0], [0.5, 0.0], [0.1, 0.2, 0.3]]}),
    )
    assert main(["check", "--config", cfg]) == 2
    assert "diagonal" in capsys.readouterr().err


def test_check_rejects_unparseable_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_check_tail_unavailable_exit_code(tmp_path, capsys):
    # explicit riesz weights cannot reach the cutoff needed by the W tail
    cfg = write_config(
        tmp_path,
        base_config(
            N=4,
            tail={"cutoff": 64},
            matrix_a={"kind": "riesz", "weights": [1.0] * 5},
            matrix_b={"kind": "riesz", "weights": [1.0] * 5},
            conditions=["TA"],
        ),
    )
    assert main(["check", "--config", cfg]) == 3
    assert "tail unavailable" in capsys.readouterr().err


def test_transform_identity_running_total(tmp_path):
    cfg = write_config(
        tmp_path,
        base_config(N=5, matrix_a={"kind": "identity"}, series={"kind": "alternating", "beta": 1.0}),
    )
    out = tmp_path / "tr.csv"
    assert main(["transform", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out)
    coeffs = np.array([(-1.0) ** n / (n + 1.0) for n in range(6)])
    running = np.cumsum(np.abs(coeffs[1:]))
    for n, row in enumerate(rows):
        assert int(row["n"]) == n
        if n >= 1:
            np.testing.assert_allclose(float(row["running_total"]), running[n - 1], rtol=1e-15)


def test_transform_rejects_short_series(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(series={"kind": "explicit", "coefficients": []}))
    assert main(["transform", "--config", cfg]) == 2
    assert "series" in capsys.readouterr().err


def test_transform_matches_golden(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "matrix_a": {"kind": "cesaro"},
            "matrix_b": {"kind": "cesaro"},
            "lambda": {"kind": "constant", "value": 1.0},
            "series": {"kind": "alternating", "beta": 1.0},
            "k": 1,
            "N": 8,
            "tail": {"cutoff": 128},
        },
    )
    out = tmp_path / "tr.csv"
    assert main(["transform", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "transform_cesaro_alt_n8_k1.csv").read_bytes()


def test_reports_deterministic_across_runs(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["check", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["check", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_explicit_matrix_round_trip(tmp_path):
    # dump the explicit entries through JSON and back: reports identical
    rng = np.random.default_rng(3)
    entries = [list(np.round(rng.uniform(-1, 1, n + 1), 6)) for n in range(7)]
    for n in range(7):
        entries[n][n] = 1.0 + abs(entries[n][n])
    config = base_config(
        N=6,
        tail={"cutoff": 12},
        matrix_a={"kind": "explicit", "entries": entries},
        matrix_b={"kind": "explicit", "entries": entries},
    )
    cfg1 = write_config(tmp_path, config, "c1.json")
    reloaded = json.loads(Path(cfg1).read_text())
    cfg2 = write_config(tmp_path, reloaded, "c2.json")
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["check", "--config", cfg1, "--out", str(out1)]) == 0
    assert main(["check", "--config", cfg2, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_cesaro_exit_zero(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out = tmp_path / "verify.csv"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out)
    by_name = {row["check"]: row for row in rows}
    assert by_name["decomposition-residual"]["status"] == "pass"
    assert float(by_name["decomposition-residual"]["value"]) <= 1e-11
    assert by_name["key-identity"]["status"] == "pass"
    assert by_name["probe-consistency"]["status"] == "pass"
    assert by_name["decomposition-v0-retained"]["value"] == "0"


def test_verify_adversarial_first_column_still_exact(tmp_path):
    # b-rows not summing to one: the retained-term path must still verify
    rng = np.random.default_rng(5)
    entries = []
    for n in range(13):
        row = list(rng.uniform(0.2, 1.0, n + 1))
        entries.append([float(x) for x in row])
    cfg = write_config(
        tmp_path,
        base_config(N=12, tail={"cutoff": 24}, matrix_b={"kind": "explicit", "entries": entries}),
    )
    out = tmp_path / "verify.csv"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out)
    by_name = {row["check"]: row for row in rows}
    assert by_name["decomposition-v0-retained"]["value"] == "1"
    assert by_name["decomposition-residual"]["status"] == "pass"


def test_verify_strict_paper_mode_logs_comparison(tmp_path):
    cfg = write_config(tmp_path, base_config(k=2))
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", cfg, "--out", str(out), "--format", "json", "--strict-paper-mode"]) == 0
    payload = json.loads(out.read_text())
    names = [row["check"] for row in payload["rows"]]
    assert "cnv-column-bound-strict" in names
    assert "strict-vs-plain-bound-gap" in names
    assert payload["meta"]["strict_paper"] is True


def test_verify_seed_changes_sweeps_deterministically(tmp_path):
    cfg = write_config(tmp_path, base_config())
    outs = []
    for seed, name in ((7, "a.csv"), (7, "b.csv"), (8, "c.csv")):
        out = tmp_path / name
        assert main(["verify", "--config", cfg, "--out", str(out), "--seed", str(seed)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_tail_cutoff_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, base_config(conditions=["C11"]))
    out = tmp_path / "r.csv"
    assert main(["check", "--config", cfg, "--out", str(out), "--tail-cutoff", "512"]) == 0
    rows = read_rows(out)
    assert all(row["tail_cutoff"] == "512" for row in rows)


def test_probe_series_config(tmp_path):
    cfg = write_config(tmp_path, base_config(series={"kind": "probe", "probe_kind": "difference", "v": 3}))
    out = tmp_path / "tr.csv"
    assert main(["transform", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out)
    deltas = [float(r["delta"]) for r in rows]
    assert all(d == 0.0 for d in deltas[:3])


def test_riesz_adapted_lambda_flattens_c9(tmp_path):
    cfg = write_config(
        tmp_path,
        base_config(
            k=2,
            matrix_a={"kind": "riesz", "generator": {"name": "power", "alpha": 1.0}},
            matrix_b={"kind": "cesaro"},
            **{"lambda": {"kind": "riesz_adapted"}},
        ),
    )
    out = tmp_path / "r.csv"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    rows = [r for r in read_rows(out) if r["condition_id"] == "C9"]
    ratios = np.array([float(r["ratio"]) for r in rows])
    np.testing.assert_allclose(ratios, np.ones(len(ratios)), rtol=1e-12)


def test_config_rejects_boolean_exponent(tmp_path, capsys):
    # JSON true is a Python bool, which is an int; it must not read as k = 1
    cfg = write_config(tmp_path, base_config(k=True))
    assert main(["check", "--config", cfg]) == 2
    assert "k must be" in capsys.readouterr().err


def test_config_rejects_boolean_probe_index(tmp_path, capsys):
    # same trap for the probe index: true must not read as v = 1
    cfg = write_config(tmp_path, base_config(N=6, series={"kind": "probe", "v": True}))
    assert main(["transform", "--config", cfg]) == 2
    assert "series.probe v must be" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check goldens
# ---------------------------------------------------------------------------


def check_riesz_config(k):
    # the benchmark's cesaro / riesz-0.5 check at a small order, default 16N cutoff
    return base_config(
        N=60,
        k=k,
        matrix_b={"kind": "riesz", "generator": {"name": "power", "alpha": 0.5}},
        tail={"cutoff": 960},
        conditions=["C9", "C10", "C11", "C12", "C13", "C14", "C15", "C16", "TA"],
    )


CHECK_GOLDENS = [
    ("check_riesz_n60_k2.csv", 2),
    ("check_riesz_n60_k1p5.csv", 1.5),
]


@pytest.mark.parametrize("golden, k", CHECK_GOLDENS, ids=[g[0] for g in CHECK_GOLDENS])
def test_check_matches_golden(tmp_path, golden, k):
    cfg = write_config(tmp_path, check_riesz_config(k))
    out = tmp_path / golden
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


# ---------------------------------------------------------------------------
# verify goldens
# ---------------------------------------------------------------------------


def verify_riesz_config():
    # the benchmark's cesaro / riesz-0.5 pair at a small order
    return base_config(N=40, k=2, matrix_b={"kind": "riesz", "generator": {"name": "power", "alpha": 0.5}})


def verify_explicit_b_config():
    # entries in (0, 1] whose rows sum to 1/8, 3/4, 15/8, ..., never to one: the v0-retained path
    entries = [[(1 + (3 * n + 5 * v) % 7) / 8 for v in range(n + 1)] for n in range(13)]
    return base_config(N=12, k=2, matrix_b={"kind": "explicit", "entries": entries})


VERIFY_GOLDENS = [
    ("verify_riesz_n40_k2.csv", verify_riesz_config, []),
    ("verify_riesz_n40_k2_strict.json", verify_riesz_config, ["--format", "json", "--strict-paper-mode"]),
    ("verify_explicit_b_n12_k2.csv", verify_explicit_b_config, []),
]


@pytest.mark.parametrize("golden, make_config, flags", VERIFY_GOLDENS, ids=[g[0] for g in VERIFY_GOLDENS])
def test_verify_matches_golden(tmp_path, golden, make_config, flags):
    cfg = write_config(tmp_path, make_config())
    out = tmp_path / golden
    assert main(["verify", "--config", cfg, "--out", str(out)] + flags) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_verify_hat_columns_calls_do_not_grow_with_order(tmp_path, monkeypatch):
    # every hat quantity is built a fixed number of times per verify call
    import summakit

    real = summakit.matrices.hat_columns
    holders = [m for m in vars(summakit).values() if getattr(m, "hat_columns", None) is real]
    counts = []
    for N in (20, 40):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in holders:
            monkeypatch.setattr(module, "hat_columns", counting)
        cfg = write_config(tmp_path, base_config(N=N, k=2), f"n{N}.json")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / f"n{N}.csv")]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1]
