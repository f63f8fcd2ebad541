"""Command-line front end: configured condition checks, transforms, and
identity verification sweeps, emitted as deterministic CSV or JSON reports.

Exit codes carry operational status only: 0 success, 1 verification
tolerance failure, 2 configuration error, an unwritable report path or an
order too large to allocate, 3 unavailable tail.  Boundedness verdicts are
report data, never exit codes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import math
import os
import sys

import numpy as np

from . import __version__
from .conditions import (
    PROBE_DIFFERENCE,
    PROBE_KINDS,
    TailSpec,
    check_c9,
    check_c10,
    check_c11,
    check_c12,
    check_c13,
    check_c14,
    check_c15,
    check_c16,
    check_theorem_a,
)
from ._util import as_float
from .errors import ConfigError, SummakitError, TailUnavailableError
from .harness import decompose, ProbePass, probe_series
from .matrices import (
    NormalMatrix,
    WeightSequence,
    apply_lower,
    cesaro_matrix,
    identity_matrix,
    leading_section,
    make_normal,
    riesz_matrix,
)
from .series import FactorSequence, SeriesSample, abs_k_profile

log = logging.getLogger("summakit")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_TAIL = 3

CONDITION_IDS = ("C9", "C10", "C11", "C12", "C13", "C14", "C15", "C16")

VERIFY_TOLERANCES = {
    "probe-consistency": 1e-12,
    "decomposition-residual": 1e-10,
    "key-identity": 1e-11,
}


MAX_ORDER = np.iinfo(np.intp).max // 8 - 1  # numpy sizes a float64 array of at most MAX_ORDER + 1 entries
ROOT_KEYS = ("N", "k", "matrix_a", "matrix_b", "lambda", "series", "tail", "output", "conditions")
# Each spec kind's keys but its tag, with their defaults: a float marks a number (read by _number), a list a list whose
# shape is checked with the config.  A riesz spec with weights reads ("riesz", "weights").  The generator is a table.
SCHEMA = {
    "matrix": {"identity": {}, "cesaro": {}, "riesz": {"generator": "ones"}, ("riesz", "weights"): {"weights": []}, "explicit": {"entries": []}},
    "lambda": {"constant": {"value": 1.0}, "explicit": {"values": []}, "power": {"alpha": 0.0}, "riesz_adapted": {}},
    "series": {"explicit": {"coefficients": []}, "alternating": {"beta": 1.0}, "probe": {"v": 0, "probe_kind": PROBE_DIFFERENCE}},
    "generator": {"ones": {}, "power": {"alpha": 0.0}, "geometric": {"ratio": 1.0}},
}
TAGS = {"generator": "name"}  # the key that names a spec's row: "kind" but in these tables
_DEFAULTS = {key: x for rows in SCHEMA.values() for row in rows.values() for key, x in row.items()}
LIST_KEYS = [key for key, x in _DEFAULTS.items() if isinstance(x, list)]
NESTED = [table for table in SCHEMA if table in _DEFAULTS]  # a key holding an object of its table (or its name)


def _only(obj: dict, keys, where: str) -> None:
    """Refuse the first key of the config object ``obj`` that it does not read: a misspelled key is never dropped."""
    unknown = [key for key in obj if key not in keys]
    if unknown:
        raise ConfigError(f"{where} has an unknown key {unknown[0]!r}; it reads {', '.join(keys)}")


def _kind(table: str, spec: dict):
    """The tag of ``spec`` and the key of its row of ``SCHEMA[table]``: None for an unknown tag or a tag not a string."""
    tag = spec.get(TAGS.get(table, "kind"))
    key = (tag, "weights") if tag == "riesz" and "weights" in spec else tag
    return tag, key if isinstance(tag, str) and key in SCHEMA[table] else None


def _spec(data: dict, key: str, kind: str) -> dict:
    """The spec under ``key`` (``{"kind": kind}`` when absent).  A list key that is not a list, or a key that the row of
    the spec or of an object in it does not read, is a config error; an unknown kind is left to its builder."""
    spec = data.get(key, {"kind": kind})
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{key} must be an object with a 'kind' tag")
    for field in LIST_KEYS:
        if field in spec and not isinstance(spec[field], list):
            raise ConfigError(f"{key}.{field} must be a list, got {spec[field]!r}")
    objects = [(key.split("_")[0], spec, key)] + [(t, spec[t], f"{key}.{t}") for t in NESTED if isinstance(spec.get(t), dict)]
    for table, obj, where in objects:
        row = _kind(table, obj)[1]
        if row is not None:
            _only(obj, (TAGS.get(table, "kind"), *SCHEMA[table][row]), where)
    return spec


def _read(table: str, spec: dict):
    """The key of ``spec``'s row of ``SCHEMA[table]`` and the row's values, each as given or its default (a number by
    :func:`_number`); an unknown tag is a config error."""
    tag, row = _kind(table, spec)
    if row is None:
        raise ConfigError(f"unknown weight generator {tag!r}" if table == "generator" else f"unknown {table} kind {tag!r}")
    return row, [_number(spec, key, x, table) if isinstance(x, float) else spec.get(key, x) for key, x in SCHEMA[table][row].items()]


def _setting(obj: dict, key: str, default, ok, what: str, where: str = ""):
    """``obj[key]``, or ``default`` when it is absent; a value ``ok`` refuses is a config error saying what it must."""
    value = obj.get(key, default)
    if not ok(value):
        raise ConfigError(f"{where}{key} must {what}, got {value!r}")
    return value


class ExperimentConfig:
    """Validated experiment description; see README for the JSON schema."""

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        _only(data, ROOT_KEYS, "the config root")
        self.raw = data
        N = self.order = _setting(data, "N", None, lambda n: isinstance(n, int) and n >= 2, "be an integer >= 2")
        _setting(data, "N", N, lambda n: n <= MAX_ORDER, f"be at most {MAX_ORDER}, past which numpy cannot size its arrays")
        self.k = _finite(_setting(data, "k", 1.0, lambda k: (_finite(k) or 0.0) >= 1, "be a number >= 1"))
        self.matrix_a, self.matrix_b, self.lambda_spec, self.series_spec = (
            _spec(data, key, kind) for key, kind in (("matrix_a", "cesaro"), ("matrix_b", "cesaro"), ("lambda", "constant"), ("series", "alternating"))
        )
        tail = data.get("tail", {})
        if not isinstance(tail, dict):
            raise ConfigError("tail must be an object")
        _only(tail, ("cutoff", "warn_threshold"), "tail")
        cutoff = _setting(tail, "cutoff", 16 * N, lambda c: isinstance(c, int) and c > N, "be an integer > N", "tail.")
        _setting(tail, "cutoff", cutoff, lambda c: c <= MAX_ORDER, f"be at most {MAX_ORDER}, past which numpy cannot size its arrays", "tail.")
        warn = _setting(tail, "warn_threshold", 1e-6, lambda w: isinstance(w, (int, float)) and 0 < w < 1, "lie in (0, 1)", "tail.")
        self.tail = TailSpec(cutoff=cutoff, warn_threshold=float(warn))
        out = data.get("output", {})
        if not isinstance(out, dict):
            raise ConfigError("output must be an object")
        _only(out, ("format", "path"), "output")
        self.out_format = _setting(out, "format", "csv", lambda f: f in ("csv", "json"), "be 'csv' or 'json'", "output.")
        self.out_path = _setting(out, "path", None, lambda p: p is None or isinstance(p, str), "be a string", "output.")
        conds = data.get("conditions", list(CONDITION_IDS))
        known = set(CONDITION_IDS) | {"TA"}
        if not isinstance(conds, list) or not conds or any(not isinstance(c, str) or c not in known for c in conds):
            raise ConfigError(f"conditions must be a nonempty list drawn from {sorted(known)}")
        self.conditions = conds


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _finite(value) -> float | None:
    """A JSON number as a finite float; None for true/false, non-numbers, NaN, infinities and integers past float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        x = float(value)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def _number(spec: dict, key: str, default: float, where: str) -> float:
    """``spec[key]`` as a float; anything :func:`_finite` refuses is a config error."""
    value = spec.get(key, default)
    x = _finite(value)
    if x is None:
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    return x


def _numbers(values, where: str) -> np.ndarray:
    """A JSON list of numbers as a float array; anything :func:`_finite` refuses is a config error.

    A list of ints and floats alone is converted and checked in one array
    pass; only a list that fails it is searched cell by cell for the first
    value to name.
    """
    if not isinstance(values, list):
        raise ConfigError(f"{where} must be a list of numbers, got {values!r}")
    if set(map(type, values)) <= {int, float}:  # bool is a type of its own
        try:
            xs = np.asarray(values, dtype=float)
        except OverflowError:  # an int past float range
            xs = None
        if xs is not None and np.isfinite(xs).all():
            return xs
    i = next(i for i, x in enumerate(values) if _finite(x) is None)
    raise ConfigError(f"{where}[{i}] must be a number, got {values[i]!r}")


def _generated_weights(gen, order: int) -> np.ndarray:
    if isinstance(gen, str):
        gen = {"name": gen}
    if not isinstance(gen, dict):
        raise ConfigError(f"generator must be a name or an object, got {gen!r}")
    name, args = _read("generator", gen)
    if name == "ones":
        return np.ones(order + 1)
    n = np.cumsum(np.ones(order + 1)) - 1.0  # 0..order: numpy sizes an arange, of ints too, in floats, short near MAX_ORDER
    if name == "power":
        return (n + 1.0) ** args[0]
    (ratio,) = args
    if ratio <= 0:
        raise ConfigError(f"geometric weight ratio must be positive, got {ratio!r}")
    return ratio**n


def build_matrix(spec: dict, order: int, reach: int | None = None) -> NormalMatrix:
    """The matrix of ``spec`` at ``order``, or past it up to order ``reach`` as far as its weights or rows go.

    A spec that stops short of ``order`` raises its own error.
    """
    reach = order if reach is None else reach
    kind, args = _read("matrix", spec)
    if kind == "identity":
        return identity_matrix(reach)
    if kind == "cesaro":
        return cesaro_matrix(reach)
    if kind == "riesz":
        with np.errstate(over="ignore"):  # WeightSequence refuses an overflowing weight by name
            return riesz_matrix(WeightSequence(_generated_weights(*args, reach)))
    if kind == "explicit":
        (entries,) = args
        if not entries:
            raise ConfigError("explicit matrix needs nonempty 'entries'")
        if len(entries) < order + 1:
            raise ConfigError(f"explicit matrix has {len(entries)} rows, need {order + 1}")
        return make_normal([_numbers(row, f"entries[{n}]") for n, row in enumerate(entries[: reach + 1])])
    (weights,) = args  # a riesz spec with weights
    if len(weights) < order + 1:
        raise ConfigError(f"need {order + 1} explicit weights, have {len(weights)}")
    return riesz_matrix(WeightSequence(_numbers(weights[: reach + 1], "weights")))


def _generated(values: np.ndarray, where: str) -> np.ndarray:
    """Generated ``values``; the first one past float range is a config error naming ``where`` and its n."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise ConfigError(f"the {where} at n = {int(np.argmax(bad))} is not finite (float overflow)")
    return values


def build_lambda(spec: dict, count: int, k: float, diag_a=None, diag_b=None) -> FactorSequence:
    kind, args = _read("lambda", spec)
    if kind == "constant":
        return FactorSequence(np.full(count, *args))
    if kind == "explicit":
        (vals,) = args
        if len(vals) < count:
            raise ConfigError(f"lambda.values must supply at least {count} entries")
        return FactorSequence(_numbers(vals[:count], "lambda.values"))
    with np.errstate(over="ignore", divide="ignore"):  # a factor past float range is refused by name below
        if kind == "power":
            vals = np.ones(count)
            vals[1:] = np.arange(1, count, dtype=float) ** args[0]
        else:  # riesz_adapted
            n = np.arange(count, dtype=float)
            vals = np.abs(np.asarray(diag_a[:count], dtype=float) / np.asarray(diag_b[:count], dtype=float))
            vals[1:] *= n[1:] ** (1.0 / k - 1.0)
    return FactorSequence(_generated(vals, "lambda factor"))


def build_series(spec: dict, size: int) -> SeriesSample:
    kind, args = _read("series", spec)
    if kind == "explicit":
        (coeffs,) = args
        if len(coeffs) < size:
            raise ConfigError(f"series.coefficients must supply at least {size} entries")
        return SeriesSample(_numbers(coeffs[:size], "series.coefficients"))
    if kind == "alternating":
        n = np.arange(size, dtype=float)
        with np.errstate(over="ignore", divide="ignore"):  # a coefficient past float range is refused by name below
            coeffs = (-1.0) ** np.arange(size) / (n + 1.0) ** args[0]
        return SeriesSample(_generated(coeffs, "series coefficient"))
    v, probe_kind = args
    if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v <= size - 2:
        raise ConfigError(f"series.probe v must be an integer in [0, {size - 2}], got {v!r}")
    if probe_kind not in PROBE_KINDS:
        raise ConfigError(f"series.probe_kind must be 'difference' or 'shift', got {probe_kind!r}")
    return probe_series(probe_kind, v, size)


# ---------------------------------------------------------------------------
# report formatting
# ---------------------------------------------------------------------------


def _csv_cell(x) -> str:
    """One CSV cell: floats with 17 significant digits, flags as true/false, None empty, text as csv.writer spells it.

    Only text holding a comma, quote or line break is handed to csv, as which
    line breaks it quotes varies with the Python version.  csv leaves any
    other text bare, and an empty cell too in a row of two or more cells.
    """
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.17g" % x  # the bytes of format(x, ".17g"), in less time
    if isinstance(x, int):
        return "%d" % x
    text = "" if x is None else str(x)
    if "," not in text and '"' not in text and "\r" not in text and "\n" not in text:
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text,))
    return buf.getvalue()[:-1]


def _field(values, fmt: str) -> tuple[str, list]:
    """The row-template field of a per-row entry, and the values it takes.

    Integer arrays and float arrays are formatted by the template itself; in
    JSON a float array only when all finite, as ``%r`` is the repr ``json``
    prints.  Every other entry is spelled cell by cell, in JSON by one
    ``json.dumps`` call: json escapes a line break in a string, so a raw one
    parts the cells.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind in "iu":
            return "%d", values.tolist()
        if values.dtype.kind == "f" and (fmt == "csv" or np.isfinite(values).all()):
            return ("%.17g" if fmt == "csv" else "%r"), values.tolist()
        values = values.tolist()
    if fmt == "csv":
        return "%s", [_csv_cell(x) for x in values]
    return "%s", json.dumps(values, separators=("\n", ": "))[1:-1].split("\n") if values else []


def _size(block: tuple) -> int:
    """A block's row count, the length of its first per-row entry."""
    return next(len(v) for v in block if isinstance(v, (np.ndarray, list)))


def _texts(field: str, values: list) -> list[str]:
    """The cell texts of ``values`` in a row-template field: one ``%`` template, split on line breaks."""
    return values if field == "%s" else ((field + "\n") * len(values) % tuple(values)).split("\n")[:-1]


def _running_rows(source, values) -> np.ndarray | None:
    """For a float column each of whose values is, bit for bit, the value of the float column ``source`` before it at
    the last row where the two agree, as a running maximum's are (``running_sup`` of ``ratio``): that row for each row,
    whose text it takes, or -1 before the first such row, where each value is the column's own first.  None for any
    other column, so a text is only ever reused for the float it spells.
    """
    if not all(isinstance(v, np.ndarray) and v.dtype == np.float64 for v in (source, values)) or not values.size:
        return None
    src, run = source.view(np.int64), values.view(np.int64)
    at = np.maximum.accumulate(np.where(src == run, np.arange(run.size), -1))
    return at if (np.where(at >= 0, src[at], run[0]) == run).all() else None


def _block(block: tuple, fmt: str) -> tuple[list[str], int, tuple]:
    """A block's row-template fields, its row count, and its per-row values row after row; constants are baked in.

    A running maximum's column (:func:`_running_rows`) takes its texts from the column before it, which is then
    formatted once, through one template.
    """
    fields, columns = [], []
    for j, v in enumerate(block):
        if not isinstance(v, (np.ndarray, list)):
            fields.append((json.dumps(v) if fmt == "json" else _csv_cell(v)).replace("%", "%%"))
            continue
        at = _running_rows(block[j - 1], v) if j else None
        if at is None:
            field, values = _field(v, fmt)
        else:
            texts = _texts(fields[-1], columns[-1])
            fields[-1], columns[-1] = "%s", texts
            field, values = "%s", list(map([*texts, *_texts(*_field(v[:1], fmt))].__getitem__, at.tolist()))
        fields.append(field)
        columns.append(values)
    size = _size(block)
    flat = [None] * (size * len(columns))
    for j, values in enumerate(columns):
        flat[j :: len(columns)] = values
    return fields, size, tuple(flat)


_ROWS = 1 << 16  # a block is formatted this many rows at a time, so that one slice's texts are held at once


def _slices(block: tuple):
    """The block in slices of at most _ROWS rows."""
    size = _size(block)
    for lo in range(0, size, _ROWS):
        yield tuple(v[lo : lo + _ROWS] if isinstance(v, (np.ndarray, list)) else v for v in block)


def _report_texts(columns: list[str], blocks: list[tuple], meta: dict, fmt: str):
    """The report's text: its head, then one text per block slice, then (JSON) its close."""
    if fmt == "csv":
        yield ",".join(map(_csv_cell, columns)) + "\n"
        for block in blocks:
            for part in _slices(block):
                fields, size, values = _block(part, fmt)
                yield ((",".join(fields) + "\n") * size) % values
        return
    # the layout of json.dumps({"meta": meta, "rows": rows}, indent=2), which closes an object with "\n}"
    yield json.dumps({"meta": meta}, indent=2)[:-2] + ',\n  "rows": ['
    keys = [json.dumps(c).replace("%", "%%") for c in columns]
    rows = 0
    for block in blocks:
        for part in _slices(block):
            fields, size, values = _block(part, fmt)
            row = ",\n    {\n" + ",\n".join("      %s: %s" % kv for kv in zip(keys, fields)) + "\n    }"
            text = (row * size) % values
            yield text if rows else text[1:]  # no comma before the first row
            rows += size
    yield "\n  ]\n}\n" if rows else "]\n}\n"


def write_rows(columns: list[str], blocks: list[tuple], meta: dict, fmt: str, path: str | None) -> None:
    """Write a report table as CSV or JSON.

    Each block is a run of rows with one entry per column: an array or list
    of per-row values, or a value constant within the block.  A block is
    formatted through one row template, a slice of at most 2**16 rows at a
    time, and each slice is written before the next is formatted.
    """
    texts = _report_texts(columns, blocks, meta, fmt)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(texts)
        log.info("wrote %s report with %d rows to %s", fmt, sum(map(_size, blocks)), path)
    else:
        sys.stdout.writelines(texts)


def _meta(config: ExperimentConfig, command: str, extra: dict | None = None) -> dict:
    meta = {
        "tool": "summakit",
        "version": __version__,
        "command": command,
        "config": config.raw,
    }
    if extra:
        meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def pair_for(config: ExperimentConfig, order_b: int):
    """(A, B, lam, B as built): each matrix spec is built once, and A and B are the order-N sections.

    A is built up to N and B up to ``order_b``, and both up to N + 1 when the
    riesz_adapted factors read their diagonals there, each as far as its
    spec reaches (:func:`build_matrix`).
    """
    N = config.order
    adapted = config.lambda_spec.get("kind") == "riesz_adapted"
    whole = build_matrix(config.matrix_a, N, N + adapted), build_matrix(config.matrix_b, N, max(order_b, N + adapted))
    if adapted and min(M.order for M in whole) < N + 1:
        raise ConfigError(f"lambda.riesz_adapted needs both matrices at order {N + 1}")
    diags = [leading_section(M, N + 1).diagonal for M in whole] if adapted else ()
    A, B = (leading_section(M, N) for M in whole)
    return A, B, build_lambda(config.lambda_spec, N + 2, config.k, *diags), whole[1]


CHECK_COLUMNS = ["condition_id", "v_or_n", "ratio", "running_sup", "trend", "tail_cutoff", "tail_warning"]


def cmd_check(config: ExperimentConfig) -> int:
    N = config.order
    k = config.k
    tailed = not {"C10", "C11", "TA"}.isdisjoint(config.conditions)  # only these read B past N
    A, B, lam, carrier = pair_for(config, config.tail.cutoff if tailed else N)

    def theorem_a():
        for spec in (config.matrix_a, config.matrix_b):
            if spec["kind"] not in ("cesaro", "riesz"):
                raise ConfigError(f"matrix kind {spec['kind']!r} has no weight sequence")
        if carrier.reach < config.tail.cutoff:  # B's explicit weights stop short of the cutoff
            raise TailUnavailableError(f"need {config.tail.cutoff + 1} explicit weights, have {carrier.reach + 1}")
        return check_theorem_a(*(report(cid)[0] for cid in ("C9", "C10", "C11")), k)

    checks = {
        "C9": lambda: [check_c9(A, B, lam, k)],
        "C10": lambda: [check_c10(A, carrier, lam, k, config.tail, v_max=N)],
        "C11": lambda: [check_c11(carrier, lam, k, config.tail, v_max=N)],
        "C12": lambda: [check_c12(A)],
        "C13": lambda: [check_c13(A)],
        "C14": lambda: [check_c14(B)],
        "C15": lambda: [check_c15(A)],
        "C16": lambda: [check_c16(A, B, lam)],
        "TA": theorem_a,
    }
    report = functools.cache(lambda cid: checks[cid]())  # each condition once, TA's C9-C11 included
    rows = [rep for cid in config.conditions for rep in report(cid)]
    blocks = [(r.condition_id, r.indices, r.ratios, r.running_sup, r.trend, r.tail_cutoff, r.tail_warning) for r in rows]
    write_rows(CHECK_COLUMNS, blocks, _meta(config, "check"), config.out_format, config.out_path)
    return EXIT_OK


TRANSFORM_COLUMNS = ["n", "transform", "delta", "term", "running_total"]


def cmd_transform(config: ExperimentConfig) -> int:
    N = config.order
    A = build_matrix(config.matrix_a, N)
    series = build_series(config.series_spec, N + 1)
    transformed = apply_lower(A, series.partial_sums)
    profile = abs_k_profile(A, series, config.k)
    term, total = (np.concatenate(([0.0], x)) for x in (profile.terms, profile.running_total))  # from n = 1
    block = (np.arange(N + 1), transformed, profile.deltas, term, total)
    write_rows(TRANSFORM_COLUMNS, [block], _meta(config, "transform"), config.out_format, config.out_path)
    return EXIT_OK


VERIFY_COLUMNS = ["check", "value", "tolerance", "status"]


def cmd_verify(config: ExperimentConfig, strict_paper: bool = False, seed: int = 0) -> int:
    N = config.order
    k = config.k
    A, B, lam, _ = pair_for(config, N)
    series = build_series(config.series_spec, N + 1)
    scale = max(1.0, float(np.max(np.abs(series.partial_sums))))

    table = {column: [] for column in VERIFY_COLUMNS}

    def record(name, value, tolerance=None, informational=False):
        status = "info" if informational or tolerance is None else "pass" if value <= tolerance else "fail"
        for column, entry in zip(table.values(), (name, float(value), tolerance, status)):
            column.append(entry)
        log.info("%s: value=%.3e status=%s", name, float(value), status)

    probes = ProbePass(A, B, lam, k)  # a weighted mean's deltas and norms are read from its weights
    M = probes.constant(strict_paper)[0]
    record("probe-consistency", probes.definition_gap(), VERIFY_TOLERANCES["probe-consistency"] * scale)
    record("empirical-bound-constant", M, informational=True)

    # the residual's round-off is relative to |lam| |s|, so the tolerance scales with both
    dec = decompose(A, B, lam, series)
    tolerance = VERIFY_TOLERANCES["decomposition-residual"] * scale * max(1.0, float(np.max(np.abs(lam.values[: N + 1]))))
    record("decomposition-residual", float(dec.residual), tolerance)
    record("decomposition-v0-retained", 1.0 if dec.v0_retained else 0.0, informational=True)

    # np.max, unlike Python's max, is NaN when any gap or column sum is
    record("key-identity", np.max(probes.key_identity_gaps()), VERIFY_TOLERANCES["key-identity"])
    record("cnv-column-bound", np.max(as_float(probes.cnv_column_sums())), informational=True)
    record("dnr-column-bound", np.max(as_float(probes.dnr_column_sums())), informational=True)
    if strict_paper:
        strict_sup = np.max(as_float(probes.cnv_column_sums(strict_paper=True)))
        record("cnv-column-bound-strict", strict_sup, informational=True)
        record("strict-vs-plain-bound-gap", abs(M - probes.constant()[0]), informational=True)

    rng = np.random.default_rng(seed)
    for sweep in range(3):
        coeffs = rng.uniform(-1.0, 1.0, size=N + 1)
        rand_lam = FactorSequence(rng.uniform(-1.0, 1.0, size=N + 2))
        rand_series = SeriesSample(coeffs)
        sweep_scale = max(1.0, float(np.max(np.abs(rand_series.partial_sums))))
        rand_dec = decompose(A, B, rand_lam, rand_series)
        record(
            f"decomposition-residual-sweep-{sweep}",
            float(rand_dec.residual),
            VERIFY_TOLERANCES["decomposition-residual"] * sweep_scale,
        )

    meta = _meta(config, "verify", {"tolerances": VERIFY_TOLERANCES, "strict_paper": strict_paper, "seed": seed})
    write_rows(VERIFY_COLUMNS, [tuple(table.values())], meta, config.out_format, config.out_path)
    return EXIT_VERIFY_FAILED if "fail" in table["status"] else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="summakit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, descr in (
        ("check", "evaluate the configured factor conditions"),
        ("transform", "emit the matrix transform and k-norm profile of a series"),
        ("verify", "run the identity verification suite"),
    ):
        p = commands[name] = sub.add_parser(name, help=descr)
        p.add_argument("--config", required=True, help="path to the experiment JSON config")
        p.add_argument("--out", help="output file path (defaults to config output.path or stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format override")
    commands["check"].add_argument("--tail-cutoff", type=int, help="tail cutoff override")
    commands["verify"].add_argument("--strict-paper-mode", action="store_true", help="use the literal published displays where they differ")
    commands["verify"].add_argument("--seed", type=int, default=0, help="seed for randomized verify sweeps")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(level=os.environ.get("SUMMAKIT_LOG", "WARNING").upper(), format="%(name)s %(levelname)s %(message)s")
    try:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "check" and args.tail_cutoff is not None and isinstance(data, dict) and isinstance(data.get("tail", {}), dict):
            data = {**data, "tail": {**data.get("tail", {}), "cutoff": args.tail_cutoff}}  # else ExperimentConfig names the fault
        config = ExperimentConfig(data)
        if args.out:
            config.out_path = args.out
        if args.format:
            config.out_format = args.format
        if args.command == "check":
            return cmd_check(config)
        if args.command == "transform":
            return cmd_transform(config)
        return cmd_verify(config, strict_paper=args.strict_paper_mode, seed=args.seed)
    except TailUnavailableError as exc:
        print(f"tail unavailable: {exc}", file=sys.stderr)
        return EXIT_TAIL
    except OSError as exc:  # the report could not be written: a missing directory, a directory path, a full disk
        print(f"config error: cannot write {config.out_path or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # numpy's message names the size and shape it could not allocate
        print(f"out of memory: {args.command} at N = {config.order}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, SummakitError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
