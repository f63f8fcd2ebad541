"""Inputs, timed work and correctness gates for one measured run.

A job is built from a command, an order N and a seed.  Building it generates
the inputs (the set-up the benchmark times as ``setup_s``), ``run`` is the
timed work, and ``gate`` checks the outputs against identities that hold
exactly in the mathematics, so no stored golden report is needed:

- ``check``: C9 equals TA_a and C11 equals TA_c**k on a Riesz pair (both to
  1e-12 relative), C13 and C14 are at most 1e-12, |C16| is at most 1e-9 (its
  true value is 0 on a Riesz pair), and every condition has its row count.
- ``transform``: one row per n, and delta is the first difference of the
  transform.
- ``verify``: exit code 0, every check present, and no ``fail`` row.
- ``exact``: on Fraction inputs the decomposition residual, every
  key-identity gap, and C13/C14 are exactly 0.

The CLI commands run through ``summakit.cli.main`` and the exact workload
through the library's public functions.  Both are looked up at call time, so
the tracer in ``tracing.py`` sees every call once it has rebound the names.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from fractions import Fraction

import numpy as np

import summakit as sk
from summakit import cli

K = 2

# The ROADMAP baseline pair: Cesaro A, power-0.5 Riesz B, constant lambda.
RIESZ_PAIR = {
    "k": K,
    "matrix_a": {"kind": "cesaro"},
    "matrix_b": {"kind": "riesz", "generator": {"name": "power", "alpha": 0.5}},
    "lambda": {"kind": "constant", "value": 1.0},
    "series": {"kind": "alternating", "beta": 1.0},
    "conditions": ["C9", "C10", "C11", "C12", "C13", "C14", "C15", "C16", "TA"],
}

VERIFY_CHECKS = {
    "probe-consistency",
    "empirical-bound-constant",
    "decomposition-residual",
    "decomposition-v0-retained",
    "key-identity",
    "cnv-column-bound",
    "dnr-column-bound",
    "decomposition-residual-sweep-0",
    "decomposition-residual-sweep-1",
    "decomposition-residual-sweep-2",
}

EXACT_TOL = 1e-12
C16_TOL = 1e-9


def _rel_gap(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


def _read_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class CliJob:
    """One ``summakit check|transform|verify`` invocation on the Riesz pair."""

    def __init__(self, command: str, order: int, seed: int, workdir: str):
        self.command = command
        self.order = order
        config = dict(RIESZ_PAIR, N=order)
        text = json.dumps(config, sort_keys=True)
        config_path = os.path.join(workdir, f"{command}-n{order}.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.report = os.path.join(workdir, f"{command}-n{order}.csv")
        self.argv = [command, "--config", config_path, "--out", self.report, "--format", "csv"]
        if command == "verify":
            self.argv += ["--seed", str(seed)]
        # the paths differ from run to run; the config and the flags after them do not
        self.digest = hashlib.sha256(" ".join([text] + self.argv[5:]).encode()).hexdigest()
        self.exit_code = None

    def run(self) -> None:
        self.exit_code = cli.main(self.argv)

    def extras(self) -> dict:
        """Report size, and on ``check`` the C16 rows that are not exactly 0."""
        out = {"report_kb": os.path.getsize(self.report) / 1024, "c16_noise_rows": 0}
        if self.command == "check":
            rows = _read_rows(self.report)
            out["c16_noise_rows"] = sum(1 for r in rows if r["condition_id"] == "C16" and float(r["ratio"]) != 0.0)
        return out

    def gate(self) -> list[str]:
        if self.exit_code != 0:
            return [f"{self.command} exited with {self.exit_code}"]
        rows = _read_rows(self.report)
        return getattr(self, f"_gate_{self.command}")(rows)

    def _gate_check(self, rows: list[dict]) -> list[str]:
        N = self.order
        ratios: dict[str, dict[int, float]] = {}
        for r in rows:
            ratios.setdefault(r["condition_id"], {})[int(r["v_or_n"])] = float(r["ratio"])
        expected = {
            "C9": range(1, N + 1), "C10": range(N + 1), "C11": range(N + 1), "C12": range(1, N + 1),
            "C13": range(N + 1), "C14": range(N + 1), "C15": range(N), "C16": range(1, N + 1),
            "TA_a": range(1, N + 1), "TA_b": range(1, N + 1), "TA_c": range(1, N + 1),
        }
        failures = [
            f"{cid}: rows {sorted(ratios.get(cid, {}))[:3]}... do not cover {idx}"
            for cid, idx in expected.items()
            if sorted(ratios.get(cid, {})) != list(idx)
        ]
        if len(rows) != sum(len(idx) for idx in expected.values()):
            failures.append(f"report has {len(rows)} rows")
        if failures:
            return failures
        gap = max(_rel_gap(ratios["C9"][n], ratios["TA_a"][n]) for n in range(1, N + 1))
        if not gap <= EXACT_TOL:
            failures.append(f"C9 differs from TA_a by {gap:.3e} relative")
        gap = max(_rel_gap(ratios["C11"][n], ratios["TA_c"][n] ** K) for n in range(1, N + 1))
        if not gap <= EXACT_TOL:
            failures.append(f"C11 differs from TA_c**k by {gap:.3e} relative")
        for cid in ("C13", "C14"):
            worst = max(ratios[cid].values())
            if not worst <= EXACT_TOL:
                failures.append(f"{cid} reaches {worst:.3e}")
        worst = max(abs(x) for x in ratios["C16"].values())
        if not worst <= C16_TOL:
            failures.append(f"|C16| reaches {worst:.3e} on a Riesz pair")
        return failures

    def _gate_transform(self, rows: list[dict]) -> list[str]:
        if [int(r["n"]) for r in rows] != list(range(self.order + 1)):
            return [f"transform report has rows {len(rows)}, want n = 0..{self.order}"]
        t = np.asarray([float(r["transform"]) for r in rows])
        d = np.asarray([float(r["delta"]) for r in rows])
        gap = float(np.max(np.abs(np.diff(t) - d[1:])))
        if not gap <= 1e-10 * max(1.0, float(np.max(np.abs(t)))):
            return [f"delta differs from the first difference of the transform by {gap:.3e}"]
        return []

    def _gate_verify(self, rows: list[dict]) -> list[str]:
        failures = [f"{r['check']} failed with value {r['value']}" for r in rows if r["status"] not in ("pass", "info")]
        names = {r["check"] for r in rows}
        if names != VERIFY_CHECKS or len(rows) != len(VERIFY_CHECKS):
            failures.append(f"verify report checks {sorted(names)}")
        return failures


def _rational(rng, span: int = 9, nonzero: bool = False) -> Fraction:
    num = int(rng.integers(-span, span + 1))
    while nonzero and num == 0:
        num = int(rng.integers(-span, span + 1))
    return Fraction(num, int(rng.integers(1, span + 1)))


def _rational_row_stochastic(rng, order: int, span: int = 9) -> sk.NormalMatrix:
    rows = []
    for n in range(order + 1):
        vals = [int(rng.integers(1, span + 1)) for _ in range(n + 1)]
        rows.append([Fraction(x, sum(vals)) for x in vals])
    return sk.make_normal(rows, order)


class ExactJob:
    """Library calls on seeded random rational explicit matrices (Fraction path)."""

    def __init__(self, order: int, seed: int):
        rng = np.random.default_rng(seed)
        self.order = order
        self.A = _rational_row_stochastic(rng, order)
        self.B = _rational_row_stochastic(rng, order)
        self.lam = sk.FactorSequence(np.asarray([_rational(rng, nonzero=True) for _ in range(order + 2)], dtype=object))
        self.series = sk.SeriesSample(np.asarray([_rational(rng) for _ in range(order + 1)], dtype=object))
        text = repr((self.A.entries.tolist(), self.B.entries.tolist(), self.lam.values.tolist(), self.series.coefficients.tolist()))
        self.digest = hashlib.sha256(text.encode()).hexdigest()
        self.out: dict = {}

    def run(self) -> None:
        A, B, lam, N = self.A, self.B, self.lam, self.order
        out = self.out
        out["c9"] = sk.check_c9(A, B, lam, K)
        out["c12"] = sk.check_c12(A)
        out["c13"] = sk.check_c13(A)
        out["c14"] = sk.check_c14(B)
        out["c15"] = sk.check_c15(A)
        out["c16"] = sk.check_c16(A, B, lam)
        out["decomposition"] = sk.decompose(A, B, lam, self.series)
        out["constant"] = sk.empirical_constant(A, B, lam, K)
        hat_b = sk.hat_of(B)
        inv_hat_a = sk.invert_hat(sk.hat_of(A))
        out["key_gaps"] = [
            sk.key_identity_check(A, B, lam, n, v, hat_b=hat_b, inv_hat_a=inv_hat_a)
            for n in range(2, N + 1)
            for v in range(1, n)
        ]
        out["cnv"] = sk.l1_lk_bound(sk.build_cnv(A, B, lam, K), K)
        out["dnr"] = sk.l1_lk_bound(sk.build_dnr(A, B, lam, K), K)

    def extras(self) -> dict:
        return {"report_kb": 0.0, "c16_noise_rows": 0}

    def gate(self) -> list[str]:
        out = self.out
        failures = []
        if out["decomposition"].residual != 0:
            failures.append(f"decomposition residual is {out['decomposition'].residual}")
        gaps = out["key_gaps"]
        if len(gaps) != self.order * (self.order - 1) // 2 or any(g != 0 for g in gaps):
            failures.append(f"key-identity gaps reach {max(gaps, default=None)} over {len(gaps)} pairs")
        for name in ("c13", "c14"):
            if np.any(out[name].ratios != 0.0):
                failures.append(f"{name.upper()} reaches {float(np.max(out[name].ratios)):.3e}")
        return failures


def make_job(command: str, order: int, seed: int, workdir: str):
    if command == "exact":
        return ExactJob(order, seed)
    return CliJob(command, order, seed, workdir)
