"""Smoke test of the benchmark at tiny orders.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing

ROOT = run.ROOT
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs src on the path)


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


TINY_WORKLOADS = {"check-riesz": ("check", 24), "verify-riesz": ("verify", 12), "exact-oracle": ("exact", 5)}
TINY_LADDER = {"check": (8, 16), "transform": (8, 16), "verify": (8,)}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in declared()["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORKLOADS", TINY_WORKLOADS)
    monkeypatch.setattr(run, "LADDER", TINY_LADDER)
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", str(trace)]) == 0
    stdout = capsys.readouterr().out
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2, stdout
    spec = declared()["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec if not m["name"].startswith("ladder.")}
    want.update({name: run.unit_of(name) for name in run.ladder_names()} if trace else {})
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert "environment: " in stdout


def test_declared_per_layer_names_match_the_code():
    assert [m["name"] for m in declared()["per_layer"]] == run.per_layer_names()
    assert [m["name"] for m in declared()["end_to_end"]] == list(run.END_TO_END)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "check-riesz", "--seed", "7", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _rewrite(path, edit):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    columns = list(rows[0])
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _set(where: dict, column: str, value: str):
    def edit(rows):
        for r in rows:
            if all(r[k] == v for k, v in where.items()):
                r[column] = value

    return edit


TAMPERS = [
    ("check", _set({"condition_id": "C16", "v_or_n": "5"}, "ratio", "1e-6")),
    ("check", _set({"condition_id": "C11", "v_or_n": "3"}, "ratio", "0.5")),
    ("check", list.pop),
    ("transform", _set({"n": "4"}, "delta", "9.0")),
    ("verify", _set({"check": "key-identity"}, "status", "fail")),
]


@pytest.mark.parametrize("command,tamper", TAMPERS)
def test_tampered_report_counts_as_failed(tmp_path, command, tamper):
    job = workloads.make_job(command, 10, 7, str(tmp_path))
    job.run()
    assert job.gate() == []
    _rewrite(job.report, tamper)
    assert job.gate() != []


def test_exact_gate_rejects_a_nonzero_gap():
    job = workloads.make_job("exact", 4, 7, "")
    job.run()
    assert job.gate() == []
    job.out["key_gaps"][-1] = 1e-300
    assert job.gate() != []


def test_tracer_attributes_self_time_and_restores_the_functions(tmp_path):
    import summakit.matrices

    original = summakit.matrices.hat_of
    job = workloads.make_job("verify", 8, 7, str(tmp_path))
    tracer = tracing.Tracer(working_rows=9)
    with tracing.installed(tracer):
        assert summakit.matrices.hat_of is not original
        job.run()
    assert summakit.matrices.hat_of is original
    assert job.gate() == []
    self_s, calls = tracer.layers()
    assert calls["cli.config"] == 1 and calls["harness.run_probe"] == 4 * 8 - 2
    assert all(v >= 0 for v in self_s.values())
    total = sum(self_s.values())
    root = next(end - start for name, start, end, parent in tracer.spans if parent < 0)
    assert total == pytest.approx(root, rel=1e-9)
