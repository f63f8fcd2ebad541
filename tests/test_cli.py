import csv
import json
import math
import os
import logging
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import summakit
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


def test_check_rejects_integer_too_long_to_read(tmp_path, capsys):
    # Python's json refuses integers of more than 4300 digits with a ValueError that is no JSONDecodeError
    bad = tmp_path / "long.json"
    bad.write_text('{"N": 8, "k": 1' + "0" * 5000 + "}")
    assert main(["check", "--config", str(bad)]) == 2
    assert "config error: cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("where, reason", [("missing/r.csv", "No such file or directory"), (".", "Is a directory")])
def test_a_report_path_that_cannot_be_written_is_one_line_and_exit_2(tmp_path, capsys, where, reason):
    # exit 1 is a verify tolerance failure: an unwritable --out is a config error, with no traceback
    cfg = write_config(tmp_path, base_config())
    out = str(tmp_path / where)
    assert main(["check", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == f"config error: cannot write {out}: {reason}\n"


def test_check_names_overflowing_generated_weights(tmp_path, capsys):
    # geometric weights 2**n: Q_n first leaves float range at n = 1023
    matrix_b = {"kind": "riesz", "generator": {"name": "geometric", "ratio": 2}}
    cfg = write_config(tmp_path, base_config(N=40, k=2, matrix_b=matrix_b, tail={"cutoff": 1600}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error: the cumulative weight sum at n = 1023 is not finite" in err
    assert "RuntimeWarning" not in err and "NaN" not in err


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
    assert capsys.readouterr().err == "tail unavailable: need 65 explicit weights, have 5\n"


@pytest.mark.parametrize(
    "matrix_b, message",
    [
        ({"kind": "identity"}, "config error: matrix kind 'identity' has no weight sequence\n"),
        (
            {"kind": "explicit", "entries": [[1.0 / (n + 1)] * (n + 1) for n in range(9)]},
            "config error: matrix kind 'explicit' has no weight sequence\n",
        ),
    ],
    ids=["identity", "explicit"],
)
def test_theorem_a_names_what_b_lacks(tmp_path, capsys, matrix_b, message):
    # TA is the Riesz-pair corollary, and an identity or explicit B carries no weights;
    # C10 before it reads the same B and passes
    cfg = write_config(tmp_path, base_config(N=4, tail={"cutoff": 64}, matrix_b=matrix_b, conditions=["C10", "TA"]))
    assert main(["check", "--config", cfg]) == 2
    assert capsys.readouterr().err == message


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


def transform_golden_config():
    return {
        "matrix_a": {"kind": "cesaro"},
        "matrix_b": {"kind": "cesaro"},
        "lambda": {"kind": "constant", "value": 1.0},
        "series": {"kind": "alternating", "beta": 1.0},
        "k": 1,
        "N": 8,
        "tail": {"cutoff": 128},
    }


def test_transform_matches_golden(tmp_path):
    cfg = write_config(tmp_path, transform_golden_config())
    out = tmp_path / "tr.csv"
    assert main(["transform", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "transform_cesaro_alt_n8_k1.csv").read_bytes()


def test_transform_json_matches_golden(tmp_path):
    cfg = write_config(tmp_path, transform_golden_config())
    out = tmp_path / "tr.json"
    assert main(["transform", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    assert out.read_bytes() == (GOLDEN / "transform_cesaro_alt_n8_k1.json").read_bytes()


def test_transform_mean_in_float_range_with_a_numerator_past_it(tmp_path):
    # every partial sum is 1e308, so every mean is; the numerator sum_{v<=n} s_v passes float range from n = 1
    cfg = write_config(tmp_path, base_config(N=3, series={"kind": "explicit", "coefficients": [1e308, 0, 0, 0]}))
    out = tmp_path / "tr.csv"
    assert main(["transform", "--config", cfg, "--out", str(out)]) == 0
    assert [(r["transform"], r["delta"]) for r in read_rows(out)] == [("1e+308", "1e+308")] + [("1e+308", "0")] * 3


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


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_verify_refuses_a_seed_outside_64_bits_by_name(tmp_path, capsys, seed):
    cfg = write_config(tmp_path, base_config())
    out = tmp_path / "r.csv"
    assert main(["verify", "--config", cfg, "--out", str(out), "--seed", str(seed)]) == 2
    assert capsys.readouterr().err == f"config error: --seed must be in [0, 2**64), got {seed}\n"
    assert not out.exists()


def test_verify_takes_both_ends_of_the_seed_range(tmp_path):
    cfg = write_config(tmp_path, base_config())
    reports = []
    for seed in (0, 2**64 - 1):
        out = tmp_path / f"{seed}.csv"
        assert main(["verify", "--config", cfg, "--out", str(out), "--seed", str(seed)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] != reports[1]


def test_tail_cutoff_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, base_config(conditions=["C11"]))
    out = tmp_path / "r.csv"
    assert main(["check", "--config", cfg, "--out", str(out), "--tail-cutoff", "512"]) == 0
    rows = read_rows(out)
    assert all(row["tail_cutoff"] == "512" for row in rows)


@pytest.mark.parametrize(
    "command, flag", [("transform", ["--seed", "1"]), ("check", ["--strict-paper-mode"]), ("verify", ["--tail-cutoff", "512"])]
)
def test_each_command_refuses_a_flag_it_does_not_read(tmp_path, capsys, command, flag):
    cfg = write_config(tmp_path, base_config())
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", cfg, *flag])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "command, overrides, field",
    [
        ("check", {"lambda": {"kind": "constant", "value": True}}, "lambda.value"),
        ("check", {"lambda": {"kind": "power", "alpha": True}}, "lambda.alpha"),
        ("check", {"lambda": {"kind": "constant", "value": "1"}}, "lambda.value"),
        ("check", {"matrix_b": {"kind": "riesz", "generator": {"name": "power", "alpha": True}}}, "generator.alpha"),
        (
            "check",
            {"matrix_b": {"kind": "riesz", "generator": {"name": "geometric", "ratio": True}}},
            "generator.ratio",
        ),
        ("transform", {"series": {"kind": "alternating", "beta": True}}, "series.beta"),
        ("check", {"lambda": {"kind": "explicit", "values": [1.0, True] + [1.0] * 6}}, "lambda.values[1]"),
        ("transform", {"series": {"kind": "explicit", "coefficients": [True] + [1.0] * 6}}, "series.coefficients[0]"),
        ("check", {"matrix_b": {"kind": "riesz", "weights": [1.0, 2.0, True] + [1.0] * 200}}, "weights[2]"),
        (
            "check",
            {"matrix_b": {"kind": "explicit", "entries": [[1.0], [0.5, True]] + [[0.5] * (n + 1) for n in range(2, 7)]}},
            "entries[1][1]",
        ),
        # Python's json parses NaN, Infinity and -Infinity; integers past float range overflow
        ("check", {"k": math.inf}, "k"),
        ("check", {"k": 10**400}, "k"),
        ("check", {"lambda": {"kind": "constant", "value": math.nan}}, "lambda.value"),
        ("check", {"lambda": {"kind": "constant", "value": -math.inf}}, "lambda.value"),
        ("check", {"lambda": {"kind": "constant", "value": 10**400}}, "lambda.value"),
        ("check", {"lambda": {"kind": "explicit", "values": [1.0, 1.0, math.nan] + [1.0] * 5}}, "lambda.values[2]"),
        ("check", {"matrix_b": {"kind": "riesz", "generator": {"name": "power", "alpha": math.inf}}}, "generator.alpha"),
        ("check", {"matrix_b": {"kind": "riesz", "weights": [1.0, math.inf] + [1.0] * 200}}, "weights[1]"),
        ("transform", {"series": {"kind": "explicit", "coefficients": [1.0, -math.inf] + [1.0] * 5}}, "series.coefficients[1]"),
        # a list is checked in one array pass: a numeric string, a null and a huge int must still be named
        ("check", {"matrix_b": {"kind": "riesz", "weights": [1.0, 2.0, 1.0, "2.0"] + [1.0] * 200}}, "weights[3]"),
        ("check", {"lambda": {"kind": "explicit", "values": [1.0] * 4 + [None] + [1.0] * 3}}, "lambda.values[4]"),
        (
            "check",
            {"matrix_b": {"kind": "explicit", "entries": [[1.0], [0.5, 0.5], [0.5, 10**400, 0.5]] + [[0.5] * (n + 1) for n in range(3, 7)]}},
            "entries[2][1]",
        ),
    ],
)
def test_config_rejects_non_numeric_values(tmp_path, capsys, command, overrides, field):
    # JSON true is a Python bool, which is an int; it must not read as 1.0; nor may a non-finite number reach the numerics
    cfg = write_config(tmp_path, base_config(N=6, **overrides))
    assert main([command, "--config", cfg]) == 2
    assert f"{field} must be a number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, overrides, field",
    [
        ("check", {"lambda": {"kind": "explicit", "values": 5}}, "lambda.values"),
        ("check", {"matrix_b": {"kind": "riesz", "weights": 5}}, "matrix_b.weights"),
        ("check", {"matrix_a": {"kind": "explicit", "entries": 5}}, "matrix_a.entries"),
        ("transform", {"series": {"kind": "explicit", "coefficients": 5}}, "series.coefficients"),
        ("verify", {"series": {"kind": "explicit", "coefficients": 5}}, "series.coefficients"),
        ("check", {"matrix_b": {"kind": "riesz", "generator": 5}}, "generator"),
        ("check", {"conditions": [["C9"]]}, "conditions"),
        # an integer path was opened as that file descriptor; a list cannot touch a descriptor if this regresses
        ("check", {"output": {"path": ["report.csv"]}}, "output.path"),
    ],
)
def test_config_rejects_malformed_shapes(tmp_path, capsys, command, overrides, field):
    # each one used to end in a traceback and exit 1, the code of a failed verify
    cfg = write_config(tmp_path, base_config(N=6, **overrides))
    assert main([command, "--config", cfg]) == 2
    assert f"config error: {field} must be" in capsys.readouterr().err


ROWS_7 = [[0.5] * (n + 1) for n in range(7)]  # an explicit matrix that stops at N = 6
MAX_ORDER = 2**60 - 2  # numpy sizes no float64 array of more than MAX_ORDER + 1 entries: 8 of them pass 2**63 - 1 bytes
UNSIZED = ", past which numpy cannot size its arrays"


@pytest.mark.parametrize(
    "command, data, line",
    [
        # the config as a whole
        ("check", [1, 2], "config root must be a JSON object"),
        ("check", base_config(N=1), "N must be an integer >= 2, got 1"),
        ("check", base_config(N="8"), "N must be an integer >= 2, got '8'"),
        ("check", base_config(N=6, matrix_a={"weights": [1.0]}), "matrix_a must be an object with a 'kind' tag"),
        ("check", base_config(N=6, tail=5), "tail must be an object"),
        ("check", base_config(N=6, output=5), "output must be an object"),
        ("check", base_config(N=6, tail={"cutoff": 6}), "tail.cutoff must be an integer > N, got 6"),
        ("check", base_config(N=6, tail={"warn_threshold": 1}), "tail.warn_threshold must lie in (0, 1), got 1"),
        ("check", base_config(N=6, output={"format": "xml"}), "output.format must be 'csv' or 'json', got 'xml'"),
        (
            "check",
            base_config(N=6, delta_mode="forward"),
            "the config root has an unknown key 'delta_mode'; it reads N, k, matrix_a, matrix_b, lambda, series, tail, output, "
            "conditions",
        ),
        # the spec builders
        (
            "check",
            base_config(N=6, matrix_b={"kind": "riesz", "generator": {"name": "geometric", "ratio": 0}}),
            "geometric weight ratio must be positive, got 0.0",
        ),
        ("check", base_config(N=6, matrix_b={"kind": "riesz", "generator": {"name": "fib"}}), "unknown weight generator 'fib'"),
        ("check", base_config(N=6, matrix_b={"kind": "riesz", "weights": [1.0] * 6}), "need 7 explicit weights, have 6"),
        ("check", base_config(N=6, matrix_a={"kind": "explicit", "entries": []}), "explicit matrix needs nonempty 'entries'"),
        ("check", base_config(N=6, matrix_a={"kind": "explicit", "entries": ROWS_7[:6]}), "explicit matrix has 6 rows, need 7"),
        (
            "check",
            base_config(N=6, matrix_a={"kind": "explicit", "entries": [[1.0], 5] + ROWS_7[2:]}),
            "entries[1] must be a list of numbers, got 5",
        ),
        ("check", base_config(N=6, matrix_b={"kind": "hankel"}), "unknown matrix kind 'hankel'"),
        ("check", base_config(N=6, **{"lambda": {"kind": "explicit", "values": [1.0] * 7}}), "lambda.values must supply at least 8 entries"),
        ("check", base_config(N=6, **{"lambda": {"kind": "fib"}}), "unknown lambda kind 'fib'"),
        (
            "check",
            base_config(N=6, matrix_a={"kind": "explicit", "entries": ROWS_7}, **{"lambda": {"kind": "riesz_adapted"}}),
            "lambda.riesz_adapted needs both matrices at order 7",
        ),
        (
            "verify",
            base_config(N=6, matrix_b={"kind": "explicit", "entries": ROWS_7}, **{"lambda": {"kind": "riesz_adapted"}}),
            "lambda.riesz_adapted needs both matrices at order 7",
        ),
        (
            "transform",
            base_config(N=6, series={"kind": "probe", "v": 0, "probe_kind": "sideways"}),
            "series.probe_kind must be 'difference' or 'shift', got 'sideways'",
        ),
        ("transform", base_config(N=6, series={"kind": "fib"}), "unknown series kind 'fib'"),
        # generated values past float range
        ("check", base_config(N=6, **{"lambda": {"kind": "power", "alpha": 400}}), "the lambda factor at n = 6 is not finite (float overflow)"),
        ("verify", base_config(N=6, **{"lambda": {"kind": "power", "alpha": 400}}), "the lambda factor at n = 6 is not finite (float overflow)"),
        (
            "check",
            base_config(
                N=6,
                matrix_a={"kind": "explicit", "entries": [[1e300] * (n + 1) for n in range(8)]},
                matrix_b={"kind": "explicit", "entries": [[1e-300] * (n + 1) for n in range(8)]},
                **{"lambda": {"kind": "riesz_adapted"}},
            ),
            "the lambda factor at n = 0 is not finite (float overflow)",
        ),
        (
            "transform",
            base_config(N=6, series={"kind": "alternating", "beta": -400}),
            "the series coefficient at n = 5 is not finite (float overflow)",
        ),
        # a kind or generator name that is not a string is an unknown one: a list or object ended in a traceback, exit 1
        ("check", base_config(N=6, matrix_b={"kind": ["riesz"]}), "unknown matrix kind ['riesz']"),
        ("transform", base_config(N=6, matrix_a={"kind": []}), "unknown matrix kind []"),
        ("check", base_config(N=6, **{"lambda": {"kind": {"a": 1}}}), "unknown lambda kind {'a': 1}"),
        ("verify", base_config(N=6, series={"kind": ["probe"]}), "unknown series kind ['probe']"),
        ("check", base_config(N=6, matrix_b={"kind": "riesz", "generator": {"name": ["power"]}}), "unknown weight generator ['power']"),
        # an order or cutoff past what numpy can size: numpy's own message named no field
        ("check", base_config(N=10**30), f"N must be at most {MAX_ORDER}{UNSIZED}, got {10**30}"),
        ("transform", base_config(N=MAX_ORDER + 1), f"N must be at most {MAX_ORDER}{UNSIZED}, got {MAX_ORDER + 1}"),
        ("check", base_config(N=6, tail={"cutoff": 2**62}), f"tail.cutoff must be at most {MAX_ORDER}{UNSIZED}, got {2**62}"),
        ("check", base_config(N=6, tail={"cutoff": 10**400}), f"tail.cutoff must be at most {MAX_ORDER}{UNSIZED}, got {10**400}"),
        ("verify", base_config(N=MAX_ORDER, tail={}), f"tail.cutoff must be at most {MAX_ORDER}{UNSIZED}, got {16 * MAX_ORDER}"),
    ],
)
def test_each_config_error_is_one_line_and_exit_2(tmp_path, capsys, command, data, line):
    cfg = write_config(tmp_path, data)
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config error: {line}\n"


@pytest.mark.parametrize("kind", [5, ["riesz"], {"a": 1}])
def test_transform_never_builds_matrix_b(tmp_path, kind):
    cfg = write_config(tmp_path, base_config(N=6, matrix_b={"kind": kind}))
    assert main(["transform", "--config", cfg, "--out", str(tmp_path / "report.csv")]) == 0


@pytest.mark.parametrize("data, line", [([[1, 2]], "config root must be a JSON object"), (base_config(N=6, tail=5), "tail must be an object")])
def test_a_cutoff_override_leaves_a_malformed_root_or_tail_to_the_config_check(tmp_path, capsys, data, line):
    # the override was merged in first: a list root read as the object {1: 2}, and a tail of 5 ended in a traceback
    cfg = write_config(tmp_path, data)
    assert main(["check", "--config", cfg, "--tail-cutoff", "30"]) == 2
    assert capsys.readouterr().err == f"config error: {line}\n"


@pytest.mark.parametrize(
    "cutoff, start",
    [
        (2**62, f"config error: tail.cutoff must be at most {MAX_ORDER}{UNSIZED}, got {2**62}\n"),
        (MAX_ORDER + 1, f"config error: tail.cutoff must be at most {MAX_ORDER}{UNSIZED}, got {MAX_ORDER + 1}\n"),
        (2**59, "out of memory: check at N = 6: Unable to allocate 4.00 EiB"),  # numpy sizes it: no memory holds it
        # just under MAX_ORDER: the index of the generated weights has all cutoff + 1 entries, and numpy refuses their
        # allocation at once. An arange is sized in floats: it came out 2**60 entries long (too big) or 63 short
        *((c, f"out of memory: check at N = 6: Unable to allocate 8.00 EiB for an array with shape ({c + 1},)") for c in (MAX_ORDER, 2**60 - 65)),
    ],
)
def test_a_cutoff_override_numpy_cannot_size_is_named(tmp_path, capsys, cutoff, start):
    cfg = write_config(tmp_path, base_config(N=6, matrix_b={"kind": "riesz", "generator": {"name": "ones"}}, conditions=["C10"]))
    assert main(["check", "--config", cfg, "--tail-cutoff", str(cutoff)]) == 2
    assert capsys.readouterr().err.startswith(start)


@pytest.mark.parametrize(
    "command, data, line",
    [
        # a misspelled key used to be dropped: the generator defaulted to ones, all eight conditions ran, the cutoff was 16N
        (
            "check",
            base_config(N=6, matrix_b={"kind": "riesz", "generater": {"name": "power", "alpha": 0.5}}),
            "matrix_b has an unknown key 'generater'; it reads kind, generator",
        ),
        (
            "check",
            base_config(N=6, condtions=["C9"]),
            "the config root has an unknown key 'condtions'; it reads N, k, matrix_a, matrix_b, lambda, series, tail, output, "
            "conditions",
        ),
        ("check", base_config(N=6, tail={"cutof": 9}), "tail has an unknown key 'cutof'; it reads cutoff, warn_threshold"),
        ("check", base_config(N=6, output={"formta": "json"}), "output has an unknown key 'formta'; it reads format, path"),
        ("check", base_config(N=6, matrix_a={"kind": "cesaro", "weights": [1.0] * 7}), "matrix_a has an unknown key 'weights'; it reads kind"),
        (
            "check",
            base_config(N=6, matrix_b={"kind": "riesz", "weights": [1.0] * 7, "generator": "ones"}),
            "matrix_b has an unknown key 'generator'; it reads kind, weights",
        ),
        ("check", base_config(N=6, matrix_b={"kind": "explicit", "entries": ROWS_7, "order": 6}), "matrix_b has an unknown key 'order'; it reads kind, entries"),
        ("check", base_config(N=6, matrix_b={"kind": "identity", "size": 7}), "matrix_b has an unknown key 'size'; it reads kind"),
        (
            "check",
            base_config(N=6, matrix_b={"kind": "riesz", "generator": {"name": "power", "alpah": 0.5}}),
            "matrix_b.generator has an unknown key 'alpah'; it reads name, alpha",
        ),
        (
            "check",
            base_config(N=6, matrix_b={"kind": "riesz", "generator": {"name": "geometric", "alpha": 1.1}}),
            "matrix_b.generator has an unknown key 'alpha'; it reads name, ratio",
        ),
        ("check", base_config(N=6, **{"lambda": {"kind": "constant", "vlaue": 2.0}}), "lambda has an unknown key 'vlaue'; it reads kind, value"),
        ("check", base_config(N=6, **{"lambda": {"kind": "power", "beta": 2.0}}), "lambda has an unknown key 'beta'; it reads kind, alpha"),
        ("check", base_config(N=6, **{"lambda": {"kind": "riesz_adapted", "k": 2}}), "lambda has an unknown key 'k'; it reads kind"),
        ("check", base_config(N=6, **{"lambda": {"kind": "explicit", "value": [1.0] * 8}}), "lambda has an unknown key 'value'; it reads kind, values"),
        ("transform", base_config(N=6, series={"kind": "alternating", "alpha": 2.0}), "series has an unknown key 'alpha'; it reads kind, beta"),
        ("transform", base_config(N=6, series={"kind": "probe", "kind_": "shift"}), "series has an unknown key 'kind_'; it reads kind, v, probe_kind"),
        ("transform", base_config(N=6, series={"kind": "explicit", "coefficient": [1.0] * 7}), "series has an unknown key 'coefficient'; it reads kind, coefficients"),
    ],
)
def test_an_unknown_config_key_is_one_line_and_exit_2(tmp_path, capsys, command, data, line):
    cfg = write_config(tmp_path, data)
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr() == ("", f"config error: {line}\n")


def test_a_generator_given_by_name_reads_as_that_generator(tmp_path):
    # "ones" by name is the unit-weight riesz matrix, the cesaro matrix: the same report bytes
    reports = []
    for matrix_b in ({"kind": "riesz", "generator": "ones"}, {"kind": "cesaro"}):
        out = tmp_path / f"check{len(reports)}.csv"
        cfg = write_config(tmp_path, base_config(N=12, k=2, matrix_b=matrix_b, conditions=ALL_CONDITIONS))
        assert main(["check", "--config", cfg, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


OVERFLOW_BASE = {"N": 20, "matrix_a": {"kind": "cesaro"}, "matrix_b": {"kind": "riesz", "generator": {"name": "power", "alpha": 0.5}}}


def _rows(count, diagonal=0.5):
    return {"kind": "explicit", "entries": [[0.5] * n + [diagonal] for n in range(count)]}


@pytest.mark.parametrize(
    "argv, overrides, line",
    [
        (
            ["check"],
            {"k": 2, "conditions": ["C10"], "matrix_a": {"kind": "explicit", "entries": [[1e300] * (n + 1) for n in range(21)]}},
            "the C10 denominator |a_vv|**k at v = 0 is not finite (float overflow)",
        ),
        # the two strict cases overflow first in the vectorized probe norms, which are evaluated before the strict term
        (
            ["verify", "--strict-paper-mode"],
            {"k": 300},
            "the W-tail term n**e (p_n / (P_n P_{n-1}))**k at n = 11 is not finite (float overflow)",
        ),
        (
            ["verify", "--strict-paper-mode"],
            {"k": 2, "lambda": {"kind": "constant", "value": 1e200}},
            "the difference probe's |s_v|**k T_v at v = 0 is not finite (float overflow)",
        ),
        # |b_vv lam_v|**k stays in range where |lam_v|**k does not: b_vv is about 0.1**v here
        (
            ["verify", "--strict-paper-mode"],
            {
                "k": 2,
                "matrix_b": {"kind": "riesz", "weights": [1e-100 * 0.1**v for v in range(21)]},
                "lambda": {"kind": "power", "alpha": 125},
            },
            "|lam_v|**k at v = 18 is not finite (float overflow)",
        ),
    ],
    ids=["c10-denominator", "strict-index-weight", "strict-literal-term", "strict-factor-power"],
)
def test_a_scalar_power_past_float_range_is_one_line_and_exit_2(tmp_path, capsys, argv, overrides, line):
    # Python's scalar ** raises OverflowError where numpy returns inf: it ended in a traceback and exit 1
    cfg = write_config(tmp_path, {**OVERFLOW_BASE, **overrides})
    assert main([*argv, "--config", cfg, "--out", str(tmp_path / "report.csv")]) == 2
    assert capsys.readouterr().err == f"config error: {line}\n"


@pytest.mark.parametrize(
    "argv, overrides, line",
    [
        (["check"], {"k": 300}, "the W-tail term n**e (p_n / (P_n P_{n-1}))**k at n = 11"),
        (["check"], {"k": 2, "lambda": {"kind": "constant", "value": 1e200}}, "the difference probe's |s_v|**k T_v at v = 0"),
        (
            ["verify"],
            {"k": 2, "lambda": {"kind": "explicit", "values": [1e200] + [1.0] * 21}},
            "the difference probe's diagonal term at v = 0",
        ),
        (["verify"], {"k": 300, "matrix_b": _rows(21)}, "the index weight n**(k-1) at n = 11"),
        (["check"], {"k": 300, "matrix_b": {"kind": "identity"}}, "the index weight n**(k-1) at n = 11"),
        (
            ["check"],
            {"k": 2, "matrix_b": {"kind": "identity"}, "lambda": {"kind": "constant", "value": 1e200}},
            "the difference probe's tail sum_n n**(k-1) |delta_nv|**k at v = 0",
        ),
        (
            ["check"],
            {"k": 2, "matrix_b": _rows(321), "lambda": {"kind": "constant", "value": 1e200}},
            "the shift probe's tail sum_n n**(k-1) |delta_nv|**k at v = 0",
        ),
        (["verify"], {"k": 120, "matrix_a": _rows(21, 1e-3)}, "the c_nv tail |m_v|**k T_v at v = 0"),
        (["verify"], {"k": 120, "matrix_a": _rows(21, 1e-3), "matrix_b": _rows(21)}, "the c_nv column sum at v = 1"),
    ],
    ids=["w-tail", "tail-coefficient", "diagonal-term", "index-weight", "identity-index-weight", "identity-tail", "dense-tail", "cnv-tail", "cnv-column"],
)
def test_a_vectorized_power_past_float_range_is_one_line_and_exit_2(tmp_path, capsys, argv, overrides, line):
    # numpy's power returns inf with a RuntimeWarning: check read the ratios as "growing" or as a NaN
    # of no named quantity, and verify reported nan rows with exit 0
    cfg = write_config(tmp_path, {**OVERFLOW_BASE, **overrides})
    assert main([*argv, "--config", cfg, "--out", str(tmp_path / "report.csv")]) == 2
    assert capsys.readouterr().err == f"config error: {line} is not finite (float overflow)\n"


GAP = "the gap factor (a_vv - a_{v+1,v}) / (a_vv a_{v+1,v+1})"


@pytest.mark.parametrize(
    "argv, overrides, line",
    [
        (
            ["check"],
            {"k": 120, "matrix_a": _rows(21, 1e-3), "conditions": ["C10"]},
            "the C10 denominator |a_vv|**k at v = 0 is zero (float underflow)",
        ),
        (["verify"], {"k": 1, "matrix_a": _rows(21, 1e-160)}, f"{GAP} at v = 0 is not finite (float overflow)"),
        (
            ["check"],
            {"k": 1, "matrix_a": _rows(21, 1e-160), "conditions": ["C15", "C16"]},
            f"{GAP} at v = 0 is not finite (float overflow)",
        ),
        (
            ["check"],
            {"k": 1, "matrix_a": _rows(21, 1e-160), "conditions": ["C16"]},
            "the hat inverse at row n = 1 is not finite (float overflow)",
        ),
    ],
    ids=["c10-denominator", "verify-gap", "c15-gap", "c16-hat-inverse"],
)
def test_a_tiny_diagonal_is_one_line_and_exit_2(tmp_path, capsys, argv, overrides, line):
    # |a_vv|**k underflowed to 0, and the gap factor and the hat inverse overflowed: check read a NaN of no named
    # quantity and verify reported nan rows with exit 1, after numpy's warnings (each an error in this suite)
    cfg = write_config(tmp_path, {**OVERFLOW_BASE, **overrides})
    assert main([*argv, "--config", cfg, "--out", str(tmp_path / "report.csv")]) == 2
    assert capsys.readouterr().err == f"config error: {line}\n"


@pytest.mark.parametrize("value", [1e7, 1e200])
def test_verify_decomposition_tolerance_scales_with_lambda(tmp_path, value):
    # the residual's round-off is relative to |lam| |s|: a constant lam of 1e7 read "fail" with a tolerance of 1e-10
    cfg = write_config(tmp_path, {**OVERFLOW_BASE, "k": 1, "lambda": {"kind": "constant", "value": value}})
    out = tmp_path / "report.csv"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    row = next(r for r in read_rows(out) if r["check"] == "decomposition-residual")
    assert float(row["tolerance"]) == pytest.approx(1e-10 * value) and row["status"] == "pass"


def test_verify_decomposition_tolerance_still_fails_a_planted_residual(tmp_path, monkeypatch):
    import dataclasses

    import summakit.cli

    real = summakit.cli.decompose
    planted = []

    def decompose(A, B, lam, a):
        dec = real(A, B, lam, a)
        if not planted:  # the configured series, not the random sweeps
            planted.append(1e-9 * max(1.0, np.max(np.abs(a.partial_sums))) * max(1.0, np.max(np.abs(lam.values))))
            return dataclasses.replace(dec, residual=planted[0])
        return dec

    monkeypatch.setattr(summakit.cli, "decompose", decompose)
    cfg = write_config(tmp_path, {**OVERFLOW_BASE, "k": 1, "lambda": {"kind": "constant", "value": 1e7}})
    out = tmp_path / "report.csv"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    row = next(r for r in read_rows(out) if r["check"] == "decomposition-residual")
    assert float(row["value"]) == planted[0] and row["status"] == "fail"


def test_power_lambda_with_negative_alpha_starts_at_one_without_warnings(tmp_path):
    # n = 0 is never raised to the power: 0**-1 would warn of a division by zero
    from summakit.cli import build_lambda

    np.testing.assert_array_equal(build_lambda({"kind": "power", "alpha": -1.0}, 5, 2.0).values, [1, 1, 1 / 2, 1 / 3, 1 / 4])
    cfg = write_config(tmp_path, base_config(N=12, **{"lambda": {"kind": "power", "alpha": -1.0}}))
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "report.csv")]) == 0


def run_under_cap(argv, gib=2):
    """Exit code, peak RSS in MB and stderr of ``summakit argv`` in a child whose address space is capped at ``gib`` GiB.

    The peak is the child's own high-water mark (VmHWM, Linux).  Its ru_maxrss would also
    count the test process's resident memory at the moment it started the child.
    """
    code = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({gib << 30}, {gib << 30}))\n"
        "from summakit.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(summakit.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    # a hung child fails the test after five minutes instead of holding the runner
    proc = subprocess.run([sys.executable, "-c", code] + argv, env=env, capture_output=True, text=True, timeout=300)
    return proc.returncode, int(proc.stdout or 0) / 1024, proc.stderr  # VmHWM is in kB


def test_check_weighted_mean_tail_memory_stays_near_order_n(tmp_path):
    # cutoff 16N = 16000: a dense (cutoff+1)**2 carrier of B would take about
    # 4 GB; the child's address space is capped so that one fails fast
    config = base_config(
        N=1000,
        k=2,
        matrix_b={"kind": "riesz", "generator": {"name": "power", "alpha": 0.5}},
        conditions=["C9", "C10", "C11", "C12", "C13", "C14", "C15", "C16", "TA"],
    )
    del config["tail"]
    cfg = write_config(tmp_path, config)
    code, peak_mb, _ = run_under_cap(["check", "--config", cfg, "--out", str(tmp_path / "n1000.csv")])
    assert code == 0
    assert peak_mb < 400
    assert len(read_rows(tmp_path / "n1000.csv")) == 11 * 1000 + 4  # C10, C11, C13, C14 have a row v = 0


def test_verify_weighted_mean_order_2000_fits_under_a_2_gib_cap(tmp_path):
    # every verify row reads the weights in O(N): 37 MB peak RSS (370 MB while the
    # decompositions and the probe pass formed dense arrays), measured on a 2-core x86-64 host
    config = base_config(N=2000, k=2, matrix_b={"kind": "riesz", "generator": {"name": "power", "alpha": 0.5}})
    del config["tail"]
    cfg = write_config(tmp_path, config)
    code, peak_mb, _ = run_under_cap(["verify", "--config", cfg, "--out", str(tmp_path / "n2000.csv")])
    assert code == 0
    assert peak_mb < 600
    assert {r["status"] for r in read_rows(tmp_path / "n2000.csv")} <= {"pass", "info"}


RIESZ_B = {"kind": "riesz", "generator": {"name": "power", "alpha": 0.5}}
ALL_CONDITIONS = ["C9", "C10", "C11", "C12", "C13", "C14", "C15", "C16", "TA"]


def test_check_weighted_pair_order_20000_fits_under_a_1_gib_cap(tmp_path):
    # one dense (N+1)**2 matrix alone is 2.98 GiB here: the pair is read from its weights
    # (1.0 s and 128 MB peak RSS, measured on a 2-core x86-64 host)
    config = base_config(N=20000, k=2, matrix_b=RIESZ_B, conditions=ALL_CONDITIONS)
    del config["tail"]  # cutoff 16N = 320 000
    cfg = write_config(tmp_path, config)
    code, peak_mb, err = run_under_cap(["check", "--config", cfg, "--out", str(tmp_path / "n20000.csv")], gib=1)
    assert (code, err) == (0, "")
    assert len(read_rows(tmp_path / "n20000.csv")) == 11 * 20000 + 4


def test_check_json_order_20000_stays_under_200_mb(tmp_path):
    # each block is formatted through one row template and written before the next:
    # 84 MB peak RSS and 0.69 s (442 MB and 3.28 s when the rows went through
    # json.dumps(indent=2) as one list), measured on a 2-core x86-64 host
    config = base_config(N=20000, k=2, matrix_b=RIESZ_B, conditions=ALL_CONDITIONS)
    del config["tail"]
    cfg = write_config(tmp_path, config)
    out = tmp_path / "n20000.json"
    code, peak_mb, err = run_under_cap(["check", "--config", cfg, "--out", str(out), "--format", "json"], gib=1)
    assert (code, err) == (0, "")
    assert len(json.loads(out.read_text())["rows"]) == 11 * 20000 + 4
    assert peak_mb < 200


def test_check_identity_b_reads_its_tails_in_closed_form(tmp_path):
    # no (cutoff+1)**2 identity carrier: 33 MB peak RSS against 427 MB with one
    config = base_config(N=400, k=1.5, matrix_b={"kind": "identity"}, conditions=ALL_CONDITIONS[:-1])
    del config["tail"]
    cfg = write_config(tmp_path, config)
    code, peak_mb, _ = run_under_cap(["check", "--config", cfg, "--out", str(tmp_path / "n400.csv")])
    assert code == 0
    assert peak_mb < 100


def test_out_of_memory_is_one_line_and_exit_2(tmp_path):
    # verify on an identity B still reads its dense order-N probes: at N = 20 000 under a 1 GiB cap it fails
    config = base_config(N=20000, k=2, matrix_b={"kind": "identity"})
    del config["tail"]
    cfg = write_config(tmp_path, config)
    code, _, err = run_under_cap(["verify", "--config", cfg, "--out", str(tmp_path / "v.csv")], gib=1)
    assert code == 2
    assert err.startswith("out of memory: verify at N = 20000: Unable to allocate 2.98 GiB")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_transform_weighted_pair_order_20000_fits_under_a_1_gib_cap(tmp_path):
    # A is read from its weights: 0.11 s and 40 MB peak RSS, where the dense A and its
    # hat matrix would take 2.98 GiB each, measured on a 2-core x86-64 host
    config = base_config(N=20000, k=2, matrix_b=RIESZ_B)
    del config["tail"]
    cfg = write_config(tmp_path, config)
    code, peak_mb, err = run_under_cap(["transform", "--config", cfg, "--out", str(tmp_path / "t.csv")], gib=1)
    assert (code, err) == (0, "")
    assert peak_mb < 200
    assert len(read_rows(tmp_path / "t.csv")) == 20001


def test_verify_weighted_pair_order_20000_fits_under_a_1_gib_cap(tmp_path):
    # one dense (N+1)**2 matrix alone is 2.98 GiB here: every verify row reads the weights
    # (0.16 s and 46 MB peak RSS, measured on a 2-core x86-64 host)
    config = base_config(N=20000, k=2, matrix_b=RIESZ_B)
    del config["tail"]
    cfg = write_config(tmp_path, config)
    code, peak_mb, err = run_under_cap(["verify", "--config", cfg, "--out", str(tmp_path / "v.csv")], gib=1)
    assert (code, err) == (0, "")
    assert peak_mb < 200
    rows = read_rows(tmp_path / "v.csv")
    assert len(rows) == 10 and {r["status"] for r in rows} <= {"pass", "info"}


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


def check_dense_b_config(matrix_b, tail):
    # C10/C11 read from B's dense hat columns: explicit and identity B carry no weights
    return base_config(
        N=12,
        k=1.5,
        matrix_b=matrix_b,
        **{"lambda": {"kind": "explicit", "values": [(-1) ** n / (n + 1) for n in range(14)]}},
        tail=tail,
        conditions=["C10", "C11"],
    )


def check_explicit_b_config():
    # entries out to order 40, past N = 12: the tails run over all of them
    entries = [[(1 + (3 * n + 5 * v) % 7) / (8 * (n + 1)) for v in range(n + 1)] for n in range(41)]
    return check_dense_b_config({"kind": "explicit", "entries": entries}, {"cutoff": 40})


def check_identity_b_config():
    return check_dense_b_config({"kind": "identity"}, {})


CHECK_GOLDENS = [
    ("check_riesz_n60_k2.csv", lambda: check_riesz_config(2), []),
    ("check_riesz_n60_k2.json", lambda: check_riesz_config(2), ["--format", "json"]),
    ("check_riesz_n60_k1p5.csv", lambda: check_riesz_config(1.5), []),
    ("check_explicit_b_n12_k1p5.csv", check_explicit_b_config, []),
    ("check_identity_b_n12_k1p5.csv", check_identity_b_config, []),
]


@pytest.mark.parametrize("golden, make_config, flags", CHECK_GOLDENS, ids=[g[0] for g in CHECK_GOLDENS])
def test_check_matches_golden(tmp_path, golden, make_config, flags):
    cfg = write_config(tmp_path, make_config())
    out = tmp_path / golden
    assert main(["check", "--config", cfg, "--out", str(out)] + flags) == 0
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
    counts = {}
    for strict in ([], ["--strict-paper-mode"]):
        for N in (20, 40):
            calls = []

            def counting(*args, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)

            for module in holders:
                monkeypatch.setattr(module, "hat_columns", counting)
            cfg = write_config(tmp_path, base_config(N=N, k=2), f"n{N}.json")
            assert main(["verify", "--config", cfg, "--out", str(tmp_path / f"n{N}.csv")] + strict) == 0
            counts[bool(strict), N] = len(calls)
    assert counts[False, 20] == counts[False, 40]
    assert counts[True, 20] == counts[True, 40]
    # one probe pass serves both readings, and each matrix keeps its hat matrix
    assert counts[True, 20] == counts[False, 20]


def test_each_weight_tail_is_swept_once(tmp_path, monkeypatch):
    # C10, C11 and TA share one sweep of B's weights; verify sweeps A's and B's weights
    # once each for the probe norms (the c_nv bound reuses B's), the d_nr row values,
    # and with --strict-paper-mode B's weights once more at index power (k - 1) / k
    import summakit

    real = summakit._util.suffix_sums
    holders = [m for m in vars(summakit).values() if getattr(m, "suffix_sums", None) is real]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in holders:
        monkeypatch.setattr(module, "suffix_sums", counting)
    riesz = {"kind": "riesz", "generator": {"name": "power", "alpha": 0.5}}
    tails = base_config(N=40, k=2, matrix_b=riesz, tail={"cutoff": 640}, conditions=["C10", "C11", "TA"])
    check = write_config(tmp_path, tails)
    verify = write_config(tmp_path, base_config(N=40, k=2, matrix_b=riesz), "verify.json")
    counts = []
    for command, cfg, *flags in (("check", check), ("verify", verify), ("verify", verify, "--strict-paper-mode")):
        calls.clear()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out.csv"), *flags]) == 0
        counts.append(len(calls))
    assert counts == [1, 3, 4]


def computed(caplog):
    return [r.getMessage().split(" in ")[0] for r in caplog.records if r.getMessage().startswith("computed the")]


def test_verify_debug_log_shows_each_matrix_computed_once(tmp_path, caplog):
    cfg = write_config(tmp_path, verify_explicit_b_config())
    out = tmp_path / "verify.csv"
    caplog.set_level(logging.DEBUG, logger="summakit")
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    # A is a weighted mean and computes nothing; the explicit B computes its hat matrix once
    assert computed(caplog) == ["computed the hat matrix of order 12"]
    assert out.read_bytes() == (GOLDEN / "verify_explicit_b_n12_k2.csv").read_bytes()


def test_check_keeps_only_the_leading_hat_columns_of_a_dense_tail_carrier(tmp_path, caplog):
    # C10/C11 read hat columns 0..N + 1 of the 41-row B: the carrier never computes its (cutoff+1)**2 hat matrix
    cfg = write_config(tmp_path, check_explicit_b_config())
    out = tmp_path / "check.csv"
    caplog.set_level(logging.DEBUG, logger="summakit")
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    assert "computed the hat matrix of order 40" not in computed(caplog)
    assert out.read_bytes() == (GOLDEN / "check_explicit_b_n12_k1p5.csv").read_bytes()


def test_check_on_an_explicit_pair_that_stops_at_n_computes_each_hat_matrix_once(tmp_path, caplog):
    # B's rows stop at N, so the tail carrier C10/C11 read is the matrix C16 reads: one hat matrix for A, one for B
    entries = [[(1 + (3 * n + 5 * v) % 7) / (8 * (n + 1)) for v in range(n + 1)] for n in range(13)]
    explicit = {"kind": "explicit", "entries": entries}
    cfg = write_config(tmp_path, base_config(N=12, k=2, matrix_a=explicit, matrix_b=explicit, tail={"cutoff": 40}))
    caplog.set_level(logging.DEBUG, logger="summakit")
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "check.csv")]) == 0
    assert [m for m in computed(caplog) if m.startswith("computed the hat matrix")] == ["computed the hat matrix of order 12"] * 2


@pytest.fixture
def built(monkeypatch):
    """Every matrix the CLI builds, in build order."""
    import summakit.cli as cli

    matrices = []
    real = cli.build_matrix

    def keep(*args):
        matrices.append(real(*args))
        return matrices[-1]

    monkeypatch.setattr(cli, "build_matrix", keep)
    return matrices


@pytest.mark.parametrize(
    "matrix_a, matrix_b, conditions",
    [
        ({"kind": "cesaro"}, RIESZ_B, ALL_CONDITIONS),
        ({"kind": "cesaro"}, {"kind": "cesaro"}, ALL_CONDITIONS),
        ({"kind": "cesaro"}, {"kind": "identity"}, ALL_CONDITIONS[:-1]),
        ({"kind": "identity"}, RIESZ_B, ALL_CONDITIONS[:-1]),  # C12 and C16 are zeros by structure, as on a weighted mean
    ],
    ids=["riesz", "cesaro", "identity", "identity-a"],
)
def test_check_on_a_structured_pair_computes_no_matrix(tmp_path, caplog, built, matrix_a, matrix_b, conditions):
    # a weighted mean is its weights and the identity its order: no entries, hat matrix or hat inverse
    config = base_config(N=40, k=2, matrix_a=matrix_a, matrix_b=matrix_b, tail={"cutoff": 640}, conditions=conditions)
    cfg = write_config(tmp_path, config)
    caplog.set_level(logging.DEBUG, logger="summakit")
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "check.csv")]) == 0
    assert computed(caplog) == []
    for M in built:  # each first read computes them: none was read in the run
        M.entries
    assert len(computed(caplog)) == len(built) >= 2


@pytest.mark.parametrize("matrix_a", [{"kind": "cesaro"}, RIESZ_B, {"kind": "identity"}], ids=["cesaro", "riesz", "identity"])
def test_transform_on_a_structured_a_computes_no_matrix(tmp_path, caplog, built, matrix_a):
    # the transform, its first difference and the k-norm profile read A as it is stored
    cfg = write_config(tmp_path, base_config(N=40, k=2, matrix_a=matrix_a))
    caplog.set_level(logging.DEBUG, logger="summakit")
    assert main(["transform", "--config", cfg, "--out", str(tmp_path / "transform.csv")]) == 0
    assert computed(caplog) == []
    built[0].entries  # the first read of A's entries
    assert computed(caplog) == ["computed the entries of order 40"]


def test_verify_on_the_riesz_pair_computes_no_matrix(tmp_path, caplog, built):
    # every row reads the weights: no entries, hat matrix or hat inverse, strict reading included
    cfg = write_config(tmp_path, base_config(N=40, k=2, matrix_b=RIESZ_B))
    caplog.set_level(logging.DEBUG, logger="summakit")
    for flags in ([], ["--strict-paper-mode"]):
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "verify.csv"), *flags]) == 0
    assert computed(caplog) == []
    A, B = built[:2]
    A.entries  # the first reads of A's and B's entries
    B.entries
    assert computed(caplog) == ["computed the entries of order 40"] * 2


@pytest.mark.parametrize("command, orders", [("check", [41, 640]), ("verify", [41, 41])])
def test_riesz_adapted_factors_read_the_matrices_each_command_builds(tmp_path, built, command, orders):
    # riesz_adapted reads the diagonals one row past N, and TA reads A's weights: A and B are built once each
    config = base_config(N=40, k=2, matrix_b=RIESZ_B, tail={"cutoff": 640}, conditions=ALL_CONDITIONS)
    cfg = write_config(tmp_path, {**config, "lambda": {"kind": "riesz_adapted"}})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "report.csv")]) == 0
    assert [M.order for M in built] == orders


def test_verify_with_an_identity_a_computes_no_hat_inverse(tmp_path, caplog):
    # the identity is its own hat inverse: the key identity and t2 read its ones and zeros
    cfg = write_config(tmp_path, base_config(N=40, k=2, matrix_a={"kind": "identity"}, matrix_b=RIESZ_B))
    caplog.set_level(logging.DEBUG, logger="summakit")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "verify.csv")]) == 0
    # A's entries for its dense probes and their definition; t2 is zeros, as A's hat inverse is bidiagonal
    assert computed(caplog) == ["computed the entries of order 40"]


def test_verify_hides_no_nan_key_identity_gap(tmp_path, monkeypatch):
    # one NaN among the per-v gaps, at v = 3: the row reads nan and fails, and so does the run
    real = summakit.ProbePass.key_identity_gaps

    def one_nan_gap(*args, **kwargs):
        gaps = np.array(real(*args, **kwargs), dtype=float)
        gaps[2] = np.nan
        return gaps

    monkeypatch.setattr(summakit.ProbePass, "key_identity_gaps", one_nan_gap)
    cfg = write_config(tmp_path, base_config(N=12, k=2))
    out = tmp_path / "verify.csv"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    row = {r["check"]: r for r in read_rows(out)}["key-identity"]
    assert (row["value"], row["status"]) == ("nan", "fail")


def test_verify_hides_no_nan_probe_consistency_gap(tmp_path, monkeypatch):
    # a NaN in the shift probes' scalar at v = 2 (the cesaro A is a weighted mean), not the first gap the row reduces
    import summakit.cli as cli

    class PoisonedShift(cli.ProbePass):
        def __init__(self, *args):
            super().__init__(*args)
            scalars = self.delta_x.scalars
            scalars[summakit.PROBE_SHIFT] = scalars[summakit.PROBE_SHIFT].copy()
            scalars[summakit.PROBE_SHIFT][2] = np.nan

    monkeypatch.setattr(cli, "ProbePass", PoisonedShift)
    cfg = write_config(tmp_path, base_config(N=12, k=2))
    out = tmp_path / "verify.csv"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    row = {r["check"]: r for r in read_rows(out)}["probe-consistency"]
    assert (row["value"], row["status"]) == ("nan", "fail")


def test_verify_hides_no_nan_probe_consistency_gap_on_an_explicit_a(tmp_path, monkeypatch):
    # an explicit A keeps its dense deltas: a NaN among the shift probes' deltas fails the row
    import summakit.cli as cli

    class PoisonedShift(cli.ProbePass):
        def __init__(self, *args):
            super().__init__(*args)
            self.delta_x[summakit.PROBE_SHIFT] = self.delta_x[summakit.PROBE_SHIFT].copy()
            self.delta_x[summakit.PROBE_SHIFT][4, 2] = np.nan

    monkeypatch.setattr(cli, "ProbePass", PoisonedShift)
    entries = [[1.0 / (n + 1)] * (n + 1) for n in range(13)]
    cfg = write_config(tmp_path, base_config(N=12, k=2, matrix_a={"kind": "explicit", "entries": entries}))
    out = tmp_path / "verify.csv"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    row = {r["check"]: r for r in read_rows(out)}["probe-consistency"]
    assert (row["value"], row["status"]) == ("nan", "fail")


def csv_cell_is(cell: str, value) -> bool:
    """A CSV cell spells its JSON value: '' is null, true/false are booleans, numbers are equal."""
    if value is None or isinstance(value, bool):
        return cell == {None: "", True: "true", False: "false"}[value]
    if isinstance(value, (int, float)):
        return cell == str(value) if isinstance(value, int) else float(cell) == value
    return cell == value


CROSS_FORMAT = [
    ("check", lambda: check_riesz_config(1.5), []),
    ("check", check_explicit_b_config, []),
    ("transform", transform_golden_config, []),
    ("verify", verify_explicit_b_config, []),
    ("verify", verify_riesz_config, ["--strict-paper-mode"]),
]


@pytest.mark.parametrize("command, make_config, flags", CROSS_FORMAT)
def test_csv_cells_equal_json_values(tmp_path, command, make_config, flags):
    cfg = write_config(tmp_path, make_config())
    reports = {}
    for fmt in ("csv", "json"):
        out = tmp_path / f"report.{fmt}"
        assert main([command, "--config", cfg, "--out", str(out), "--format", fmt] + flags) == 0
        reports[fmt] = out.read_text()
    header, *lines = list(csv.reader(reports["csv"].splitlines()))
    rows = json.loads(reports["json"])["rows"]
    assert len(lines) == len(rows) > 0
    for line, row in zip(lines, rows):
        assert list(row) == header
        assert all(csv_cell_is(cell, row[c]) for c, cell in zip(header, line)), (line, row)
