"""Compare the CLI's reports on a fixed grid between a git revision and the working tree.

    python tools/byte_sweep.py [REV]

REV (default HEAD) is extracted with ``git archive`` into a temporary
directory.  Each tree's ``src/`` is then imported in a child process of its
own, which runs the whole grid in-process through ``summakit.cli.main``:
``check``, ``transform``, ``verify`` and ``verify --strict-paper-mode --format
json`` on every configuration.  The grid takes A and B each from ten
specs (cesaro, riesz power-0.5, riesz geometric-1.1, riesz with the generator
named "ones", identity, a 41-row, a 15-row and a 10-row explicit matrix, 16
and 10 explicit riesz weights: the 10s stop short of N + 1 = 15), lambda
riesz_adapted or n**-0.5, k = 1 or 2, at N = 14 with tail cutoff 40, 1,600
runs; TA is checked wherever both matrices are weighted means.  Every run whose report bytes, exit code,
stderr or warnings differ between the trees is printed, and the exit status
is 1 when any does.  Needs numpy alone.
"""

from __future__ import annotations

import contextlib
import io
import json
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


def grid():
    """(label, config, argv tail) of every run, in a fixed order."""
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
            print(f"DIFF {label}: {', '.join(fields)} (exit {old[0]} -> {new[0]})")
    ok = sum(1 for code, *_ in before.values() if code == 0)
    print(f"{len(before)} runs, {ok} exit 0 at {rev}, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
