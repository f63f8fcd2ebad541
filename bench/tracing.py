"""Layer spans recorded from outside the program.

``installed(tracer)`` rebinds summakit's public functions, in every module
namespace that holds them, to wrappers that record a span around each call:
span name, start, end and the index of the enclosing span.  Spans stay in
memory; ``Tracer.layers`` turns them into per-layer self time (a span's
duration minus the time its child spans cover) and call counts.  A call
counts once per entry into a layer, so ``hat_of`` calling ``hat_columns``
calling ``bar_columns`` is one ``matrices.hat`` call.

A matrix built with more rows than the working order is the dense tail
carrier of ``check``; its build span is renamed ``matrices.tail_carrier`` and
its array's bytes are kept in ``carriers``.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

#: Traced function -> span name.  The span name is the layer and its stage.
LAYERS = {
    "main": "cli.config",
    "cmd_check": "cli.command",
    "cmd_transform": "cli.command",
    "cmd_verify": "cli.command",
    "write_rows": "cli.write_rows",
    "make_normal": "matrices.build",
    "identity_matrix": "matrices.build",
    "riesz_matrix": "matrices.build",
    "cesaro_matrix": "matrices.build",
    "bar_columns": "matrices.hat",
    "bar_of": "matrices.hat",
    "hat_columns": "matrices.hat",
    "hat_of": "matrices.hat",
    "invert_hat": "matrices.invert_hat",
    "apply_lower": "matrices.apply_lower",
    "transform_partial_sums": "series.delta_transform",
    "delta_transform_via_hat": "series.delta_transform",
    "factored_series": "series.delta_transform",
    "abs_k_profile": "series.norms",
    "x_norm": "series.norms",
    "y_norm": "series.norms",
    "y_norm_pow": "series.norms",
    **{f"check_c{i}": f"conditions.c{i}" for i in range(9, 17)},
    "check_theorem_a": "conditions.theorem_a",
    "w_sequence": "conditions.w_sequence",
    "l1_lk_bound": "conditions.l1_lk_bound",
    "run_probe": "harness.run_probe",
    "empirical_constant": "harness.empirical_constant",
    "decompose": "harness.decompose",
    "key_identity_check": "harness.key_identity",
    "build_cnv": "harness.build_cnv",
    "build_dnr": "harness.build_dnr",
}

CARRIER = "matrices.tail_carrier"

#: Spans whose self time is command glue rather than a named stage; they do
#: not count towards trace coverage.
GLUE = {"cli.command"}

MODULES = (
    "summakit",
    "summakit.cli",
    "summakit.conditions",
    "summakit.harness",
    "summakit.series",
    "summakit.matrices",
)


class Tracer:
    def __init__(self, working_rows: int):
        self.working_rows = working_rows
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.carriers: dict[int, int] = {}  # id of a carrier's array -> its bytes

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if name == "matrices.build" and result.size > self.working_rows:
                span[0] = CARRIER
                # cesaro_matrix returns the array riesz_matrix built: count it once
                self.carriers[id(result.entries)] = result.entries.nbytes
            return result

        return traced

    def layers(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and entry counts per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered[i]
            if parent < 0 or self.spans[parent][0] != name:
                calls[name] = calls.get(name, 0) + 1
        return self_s, calls


@contextmanager
def installed(tracer: Tracer):
    """Route every call of a LAYERS function through ``tracer`` while active."""
    wrappers = {}
    saved = []
    for module in map(importlib.import_module, MODULES):
        for fname, span in LAYERS.items():
            fn = getattr(module, fname, None)
            if fn is None:
                continue
            if fn not in wrappers:
                wrappers[fn] = tracer.wrap(fn, span)
            saved.append((module, fname, fn))
            setattr(module, fname, wrappers[fn])
    try:
        yield tracer
    finally:
        for module, fname, fn in reversed(saved):
            setattr(module, fname, fn)
