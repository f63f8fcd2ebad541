"""Compare the CLI's reports on a fixed grid between a git revision and the working tree.

    python tools/byte_sweep.py [REV]

REV (default HEAD) is extracted with ``git archive`` into a temporary
directory.  Each tree's ``src/`` is then imported in a child process of its
own, which runs the whole grid in-process through ``summakit.cli.main``:
``check``, ``check --format json``, ``transform``, ``verify`` and ``verify
--strict-paper-mode --format json`` on every configuration.  The grid takes A
and B each from ten specs (cesaro, riesz power-0.5, riesz geometric-1.1,
riesz with the generator named "ones", identity, a 41-row, a 15-row and a
10-row explicit matrix, 16 and 10 explicit riesz weights: the 10s stop short
of N + 1 = 15), lambda riesz_adapted or n**-0.5, k = 1 or 2, at N = 14 with
tail cutoff 40, 2,000 runs; TA is checked wherever both matrices are weighted means.  A sub-grid
runs every series kind (alternating, explicit, a difference and a shift
probe) and every lambda kind (constant, power, explicit, riesz_adapted), at
k = 1 and 2, on four pairs of the specs above, through ``transform``,
``verify`` and ``check --tail-cutoff 30``: 384 runs.  A last sub-grid runs 91
invalid configs at N = 6 through ``check``, ``transform``, ``verify`` and
``check --tail-cutoff 30``: each config error the CLI tests pin, and 14 with
two faults, so which error wins is compared too; 364 runs, 2,748 in all,
about 9 s per tree on a 2-core x86-64 host.  An exception that escapes
``main`` is recorded as that run's outcome, its type and message.  Every
run whose report bytes, exit code, stderr or warnings differ between the
trees is printed, and the exit status is 1 when any does.  A run whose report
differs is printed with the rows that differ, CSV or JSON, each named once by
its first cell: the condition_id of a ``check`` row, the check of a ``verify``
row, the n of a ``transform`` row.  Needs numpy alone.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

N, CUTOFF = 14, 40
CONDITIONS = ["C9", "C10", "C11", "C12", "C13", "C14", "C15", "C16"]
COMMANDS = {
    "check": ["check"],
    "check-json": ["check", "--format", "json"],
    "transform": ["transform"],
    "verify": ["verify"],
    "verify-strict-json": ["verify", "--strict-paper-mode", "--format", "json"],
}


def _explicit(rows: int, seed: int) -> dict:
    """A lower-triangular explicit matrix of ``rows`` rows: entries in [0.1, 1), each row given through its diagonal."""
    import numpy as np

    rng = np.random.default_rng(seed)
    return {"kind": "explicit", "entries": [rng.uniform(0.1, 1.0, n + 1).tolist() for n in range(rows)]}


def _matrices() -> dict:
    import numpy as np

    return {
        "cesaro": {"kind": "cesaro"},
        "riesz-power-0.5": {"kind": "riesz", "generator": {"name": "power", "alpha": 0.5}},
        "riesz-geometric-1.1": {"kind": "riesz", "generator": {"name": "geometric", "ratio": 1.1}},
        "riesz-ones": {"kind": "riesz", "generator": "ones"},
        "identity": {"kind": "identity"},
        "explicit-41": _explicit(CUTOFF + 1, 1),
        "explicit-15": _explicit(N + 1, 2),
        "explicit-10": _explicit(10, 4),
        "riesz-weights-16": {"kind": "riesz", "weights": np.random.default_rng(3).uniform(0.5, 2.0, 16).tolist()},
        "riesz-weights-10": {"kind": "riesz", "weights": np.random.default_rng(5).uniform(0.5, 2.0, 10).tolist()},
    }


LAMBDAS = {"riesz_adapted": {"kind": "riesz_adapted"}, "power-0.5": {"kind": "power", "alpha": -0.5}}

# the series and lambda sub-grid: every kind of each, through transform, verify and a check with its cutoff overridden
SUB_COMMANDS = {
    "transform": ["transform"],
    "verify": ["verify"],
    "check-cutoff-30": ["check", "--tail-cutoff", "30"],
}
# the invalid configs: every command, and a check whose cutoff override meets a malformed root or tail
FAULT_COMMANDS = {"check": ["check"], "transform": ["transform"], "verify": ["verify"], "check-cutoff-30": ["check", "--tail-cutoff", "30"]}
SUB_PAIRS = (("cesaro", "riesz-power-0.5"), ("cesaro", "explicit-41"), ("explicit-15", "riesz-power-0.5"), ("explicit-15", "explicit-41"))


def _series() -> dict:
    import numpy as np

    return {
        "alternating-1.5": {"kind": "alternating", "beta": 1.5},
        "explicit": {"kind": "explicit", "coefficients": np.random.default_rng(6).uniform(-1.0, 1.0, N + 1).tolist()},
        "probe-difference-3": {"kind": "probe", "v": 3, "probe_kind": "difference"},
        "probe-shift-5": {"kind": "probe", "v": 5, "probe_kind": "shift"},
    }


def _lambdas() -> dict:
    import numpy as np

    return {
        "constant-2": {"kind": "constant", "value": 2.0},
        "power-0.5": {"kind": "power", "alpha": -0.5},
        "explicit": {"kind": "explicit", "values": np.random.default_rng(7).uniform(-1.0, 1.0, N + 2).tolist()},
        "riesz_adapted": {"kind": "riesz_adapted"},
    }


def _faults() -> dict:
    """Invalid configs at N = 6: each config error the CLI tests pin, then a few with two faults, where the first
    one the CLI checks wins."""
    rows7 = [[0.5] * (n + 1) for n in range(7)]
    power = {"name": "power", "alpha": 0.5}
    specs = {  # one fault in one spec each
        "matrix_a": [{"weights": [1.0]}, {"kind": "explicit", "entries": 5}, {"kind": "explicit", "entries": []},
                     {"kind": "explicit", "entries": rows7[:6]}, {"kind": "explicit", "entries": [[1.0], 5] + rows7[2:]},
                     {"kind": "explicit", "entries": [[1.0], [0.5, True]] + rows7[2:]},
                     {"kind": "explicit", "entries": [[1.0], [0.5, 0.5], [0.5, 10**400, 0.5]] + rows7[3:]},
                     {"kind": "cesaro", "weights": [1.0] * 7}, {"kind": []}, {"kind": 5}],
        "matrix_b": [{"kind": "riesz", "weights": 5}, {"kind": "riesz", "generator": 5}, {"kind": "riesz", "weights": [1.0] * 6},
                     {"kind": "riesz", "generator": {"name": "geometric", "ratio": 0}}, {"kind": "riesz", "generator": {"name": "fib"}},
                     {"kind": "riesz", "generator": {"name": "power", "alpha": True}}, {"kind": "riesz", "generator": {"name": "power", "alpha": math.inf}},
                     {"kind": "riesz", "generator": {"name": "geometric", "ratio": True}}, {"kind": "riesz", "weights": [1.0, 2.0, True] + [1.0] * 200},
                     {"kind": "riesz", "weights": [1.0, math.inf] + [1.0] * 200}, {"kind": "riesz", "weights": [1.0, 2.0, 1.0, "2.0"] + [1.0] * 200},
                     {"kind": "hankel"}, {"kind": "riesz", "generater": power}, {"kind": "riesz", "weights": [1.0] * 7, "generator": "ones"},
                     {"kind": "explicit", "entries": rows7, "order": 6}, {"kind": "identity", "size": 7},
                     {"kind": "riesz", "generator": {"name": "power", "alpah": 0.5}}, {"kind": "riesz", "generator": {"name": "geometric", "alpha": 1.1}},
                     {"kind": ["riesz"]}, {"kind": {"a": 1}}, {"kind": "riesz", "generator": {"name": ["power"]}}],
        "lambda": [{"kind": "explicit", "values": 5}, {"kind": "explicit", "values": [1.0] * 7}, {"kind": "fib"},
                   {"kind": "power", "alpha": True}, {"kind": "constant", "value": "1"}, {"kind": "explicit", "values": [1.0, True] + [1.0] * 6},
                   {"kind": "constant", "value": math.nan}, {"kind": "constant", "value": 10**400}, {"kind": "power", "alpha": 400},
                   {"kind": "explicit", "values": [1.0] * 4 + [None] + [1.0] * 3}, {"kind": "constant", "vlaue": 2.0},
                   {"kind": "power", "beta": 2.0}, {"kind": "riesz_adapted", "k": 2}, {"kind": "explicit", "value": [1.0] * 8}, {"kind": {"a": 1}}],
        "series": [{"kind": "explicit", "coefficients": 5}, {"kind": "probe", "v": 0, "probe_kind": "sideways"}, {"kind": "probe", "v": 6},
                   {"kind": "probe", "v": True}, {"kind": "fib"}, {"kind": "alternating", "beta": True}, {"kind": "alternating", "beta": -400},
                   {"kind": "explicit", "coefficients": [True] + [1.0] * 6}, {"kind": "explicit", "coefficients": [1.0] * 6},
                   {"kind": "alternating", "alpha": 2.0}, {"kind": "probe", "kind_": "shift"}, {"kind": "explicit", "coefficient": [1.0] * 7},
                   {"kind": ["probe"]}],
    }
    roots = [{"N": 1}, {"N": "8"}, {"tail": 5}, {"output": 5}, {"tail": {"cutoff": 6}}, {"tail": {"warn_threshold": 1}},
             {"output": {"format": "xml"}}, {"output": {"path": ["report.csv"]}}, {"delta_mode": "sideways"}, {"conditions": [["C9"]]},
             {"k": math.inf}, {"k": 10**400}, {"condtions": ["C9"]}, {"tail": {"cutof": 9}}, {"output": {"formta": "json"}},
             {"matrix_a": {"kind": "explicit", "entries": rows7}, "lambda": {"kind": "riesz_adapted"}},
             {"matrix_b": {"kind": "explicit", "entries": rows7}, "lambda": {"kind": "riesz_adapted"}}]
    roots += [{key: spec} for key, faults in specs.items() for spec in faults]
    roots += [  # two faults
        {"N": 1, "condtions": ["C9"]}, {"k": 0, "matrix_a": {"kind": "hankel", "x": 1}}, {"matrix_a": {"kind": "cesaro", "weights": 5}},
        {"matrix_b": {"kind": "hankel", "generator": {"name": "power", "x": 1}}}, {"lambda": {"kind": "fib", "generator": {"name": "power", "x": 1}}},
        {"matrix_b": {"kind": "riesz", "weights": 5, "generator": "ones"}}, {"matrix_b": {"kind": ["riesz"], "x": 1}},
        {"matrix_a": {"kind": "explicit", "entries": [], "order": 6}}, {"lambda": {"kind": "constant", "value": "1", "x": 1}},
        {"series": {"kind": "probe", "v": 9, "probe_kind": "sideways"}}, {"tail": {"cutoff": 6}, "output": {"format": "xml"}},
        {"matrix_b": {"kind": "hankel"}, "lambda": {"kind": "fib"}}, {"matrix_a": {"kind": "fib"}, "series": {"kind": "fib"}},
        {"lambda": {"kind": "power", "alpha": True}, "delta_mode": "sideways"},
    ]
    base = {"N": 6, "k": 1, "matrix_a": {"kind": "cesaro"}, "matrix_b": {"kind": "cesaro"}, "tail": {"cutoff": CUTOFF}}
    return {json.dumps(overrides): {**base, **overrides} for overrides in roots} | {"[[1, 2]]": [[1, 2]]}


def grid():
    """(label, config, argv tail) of every run, in a fixed order."""
    yield from _main_grid()
    yield from _sub_grid()
    for label, config in _faults().items():
        for command, argv in FAULT_COMMANDS.items():
            yield f"{command} invalid {label}", config, argv


def _sub_grid():
    matrices = _matrices()
    for a_name, b_name in SUB_PAIRS:
        for series_name, series in _series().items():
            for lam_name, lam in _lambdas().items():
                for k in (1, 2):
                    config = {
                        "N": N,
                        "k": k,
                        "matrix_a": matrices[a_name],
                        "matrix_b": matrices[b_name],
                        "lambda": lam,
                        "series": series,
                        "tail": {"cutoff": CUTOFF},
                        "conditions": CONDITIONS,
                    }
                    for command, argv in SUB_COMMANDS.items():
                        yield f"{command} A={a_name} B={b_name} series={series_name} lambda={lam_name} k={k}", config, argv


def _main_grid():
    matrices = _matrices()
    for a_name, a in matrices.items():
        for b_name, b in matrices.items():
            weighted = a["kind"] in ("cesaro", "riesz") and b["kind"] in ("cesaro", "riesz")
            for lam_name, lam in LAMBDAS.items():
                for k in (1, 2):
                    config = {
                        "N": N,
                        "k": k,
                        "matrix_a": a,
                        "matrix_b": b,
                        "lambda": lam,
                        "tail": {"cutoff": CUTOFF},
                        "conditions": CONDITIONS + ["TA"] if weighted else CONDITIONS,
                    }
                    for command, argv in COMMANDS.items():
                        yield f"{command} A={a_name} B={b_name} lambda={lam_name} k={k}", config, argv


def run_grid() -> dict:
    """Every run of the grid through the importable summakit: label -> (exit code, report bytes, stderr, warnings)."""
    from summakit.cli import main

    results = {}
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # relative paths, so no message names the tree's directory
        for label, config, argv in grid():
            Path("config.json").write_text(json.dumps(config))
            report = Path("report.out")
            report.unlink(missing_ok=True)
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                try:
                    code = main([*argv, "--config", "config.json", "--out", str(report)])
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a traceback in one tree is a difference, not a crashed sweep
                    code = f"raised {type(exc).__name__}: {exc}"
            seen = [f"{w.category.__name__}: {w.message}" for w in caught]
            results[label] = (code, report.read_bytes() if report.exists() else None, err.getvalue(), seen)
    return results


def _sweep(src: Path) -> dict:
    """Run the grid in a child process that imports summakit from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--run"], env=env, check=True, stdout=subprocess.PIPE
    ).stdout
    return pickle.loads(out)


def _rows(report: bytes | None) -> list[tuple]:
    """A report's rows as tuples of cell texts: a CSV's rows past its header, or the values of a JSON report's rows."""
    if report is None:
        return []
    text = report.decode()
    if text.startswith("{"):
        return [tuple(v if isinstance(v, str) else json.dumps(v) for v in row.values()) for row in json.loads(text)["rows"]]
    return [tuple(row) for row in csv.reader(io.StringIO(text))][1:]


def differing_rows(old: bytes | None, new: bytes | None) -> list[str]:
    """The first cell of each row that differs between two reports, or that one of them lacks, each named once."""
    pairs = itertools.zip_longest(_rows(old), _rows(new))
    return list(dict.fromkeys((a or b)[0] for a, b in pairs if a != b))


def main(argv: list[str]) -> int:
    if argv[:1] == ["--run"]:
        sys.stdout.buffer.write(pickle.dumps(run_grid()))
        return 0
    rev = argv[0] if argv else "HEAD"
    root = Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(root), "archive", rev, "src"], check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        before = _sweep(Path(tmp) / "src")
    after = _sweep(root / "src")
    differing = 0
    for label, old in before.items():
        new = after[label]
        fields = [name for name, x, y in zip(("exit code", "report", "stderr", "warnings"), old, new) if x != y]
        if fields:
            differing += 1
            rows = f"; rows {', '.join(differing_rows(old[1], new[1]))}" if "report" in fields else ""
            print(f"DIFF {label}: {', '.join(fields)} (exit {old[0]} -> {new[0]}){rows}")
    ok = sum(1 for code, *_ in before.values() if code == 0)
    print(f"{len(before)} runs, {ok} exit 0 at {rev}, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
