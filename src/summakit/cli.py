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
    identity_matrix,
    leading_section,
    make_normal,
    riesz_matrix,
)
from .series import (
    FactorSequence,
    SeriesSample,
    abs_k_profile,
    transform_partial_sums,
)

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


class ExperimentConfig:
    """Validated experiment description; see README for the JSON schema."""

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        self.raw = data
        self.order = data.get("N")
        if not isinstance(self.order, int) or self.order < 2:
            raise ConfigError(f"N must be an integer >= 2, got {self.order!r}")
        self.k = _finite(data.get("k", 1.0))
        if self.k is None or not self.k >= 1:
            raise ConfigError(f"k must be a number >= 1, got {data.get('k')!r}")
        self.matrix_a = data.get("matrix_a", {"kind": "cesaro"})
        self.matrix_b = data.get("matrix_b", {"kind": "cesaro"})
        self.lambda_spec = data.get("lambda", {"kind": "constant", "value": 1.0})
        self.series_spec = data.get("series", {"kind": "alternating", "beta": 1.0})
        for key in ("matrix_a", "matrix_b", "lambda", "series"):
            spec = getattr(self, key if key in ("matrix_a", "matrix_b") else key + "_spec")
            if not isinstance(spec, dict) or "kind" not in spec:
                raise ConfigError(f"{key} must be an object with a 'kind' tag")
            for field in ("weights", "entries", "values", "coefficients"):
                if field in spec and not isinstance(spec[field], list):
                    raise ConfigError(f"{key}.{field} must be a list, got {spec[field]!r}")
        tail = data.get("tail", {})
        if not isinstance(tail, dict):
            raise ConfigError("tail must be an object")
        cutoff = tail.get("cutoff", 16 * self.order)
        if not isinstance(cutoff, int) or cutoff <= self.order:
            raise ConfigError(f"tail.cutoff must be an integer > N, got {cutoff!r}")
        warn = tail.get("warn_threshold", 1e-6)
        if not isinstance(warn, (int, float)) or not 0 < warn < 1:
            raise ConfigError(f"tail.warn_threshold must lie in (0, 1), got {warn!r}")
        self.tail = TailSpec(cutoff=cutoff, warn_threshold=float(warn))
        out = data.get("output", {})
        if not isinstance(out, dict):
            raise ConfigError("output must be an object")
        self.out_format = out.get("format", "csv")
        if self.out_format not in ("csv", "json"):
            raise ConfigError(f"output.format must be 'csv' or 'json', got {self.out_format!r}")
        self.out_path = out.get("path")
        if self.out_path is not None and not isinstance(self.out_path, str):
            raise ConfigError(f"output.path must be a string, got {self.out_path!r}")
        conds = data.get("conditions", list(CONDITION_IDS))
        known = set(CONDITION_IDS) | {"TA"}
        if not isinstance(conds, list) or not conds or any(not isinstance(c, str) or c not in known for c in conds):
            raise ConfigError(f"conditions must be a nonempty list drawn from {sorted(known)}")
        self.conditions = conds
        self.delta_mode = data.get("delta_mode", "forward")
        if self.delta_mode not in ("forward", "backward"):
            raise ConfigError(f"delta_mode must be 'forward' or 'backward', got {self.delta_mode!r}")


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


def _generated_weights(spec: dict, order: int) -> np.ndarray:
    gen = spec.get("generator", "ones")
    if isinstance(gen, str):
        gen = {"name": gen}
    if not isinstance(gen, dict):
        raise ConfigError(f"generator must be a name or an object, got {gen!r}")
    name = gen.get("name")
    n = np.arange(order + 1, dtype=float)
    if name == "ones":
        return np.ones(order + 1)
    if name == "power":
        alpha = _number(gen, "alpha", 0.0, "generator")
        return (n + 1.0) ** alpha
    if name == "geometric":
        ratio = _number(gen, "ratio", 1.0, "generator")
        if ratio <= 0:
            raise ConfigError(f"geometric weight ratio must be positive, got {ratio!r}")
        return ratio**n
    raise ConfigError(f"unknown weight generator {name!r}")


def build_matrix(spec: dict, order: int, reach: int | None = None) -> NormalMatrix:
    """The matrix of ``spec`` at ``order``, or past it up to order ``reach`` as far as its weights or rows go.

    A spec that stops short of ``order`` raises its own error.
    """
    reach = order if reach is None else reach
    kind = spec.get("kind")
    if kind == "identity":
        return identity_matrix(reach)
    if kind == "cesaro":
        return riesz_matrix(WeightSequence(np.ones(reach + 1)))
    if kind == "riesz" and "weights" in spec:
        if len(spec["weights"]) < order + 1:
            raise ConfigError(f"need {order + 1} explicit weights, have {len(spec['weights'])}")
        return riesz_matrix(WeightSequence(_numbers(spec["weights"][: reach + 1], "weights")))
    if kind == "riesz":
        with np.errstate(over="ignore"):  # WeightSequence refuses an overflowing weight by name
            return riesz_matrix(WeightSequence(_generated_weights(spec, reach)))
    if kind == "explicit":
        entries = spec.get("entries")
        if not entries:
            raise ConfigError("explicit matrix needs nonempty 'entries'")
        if len(entries) < order + 1:
            raise ConfigError(f"explicit matrix has {len(entries)} rows, need {order + 1}")
        return make_normal([_numbers(row, f"entries[{n}]") for n, row in enumerate(entries[: reach + 1])])
    raise ConfigError(f"unknown matrix kind {kind!r}")


def build_lambda(spec: dict, count: int, k: float, diag_a=None, diag_b=None) -> FactorSequence:
    kind = spec.get("kind")
    if kind == "constant":
        return FactorSequence(np.full(count, _number(spec, "value", 1.0, "lambda")))
    if kind == "power":
        alpha = _number(spec, "alpha", 0.0, "lambda")
        vals = np.ones(count)
        vals[1:] = np.arange(1, count, dtype=float) ** alpha
        return FactorSequence(vals)
    if kind == "explicit":
        vals = spec.get("values")
        if vals is None or len(vals) < count:
            raise ConfigError(f"lambda.values must supply at least {count} entries")
        return FactorSequence(_numbers(vals[:count], "lambda.values"))
    if kind == "riesz_adapted":
        n = np.arange(count, dtype=float)
        vals = np.abs(np.asarray(diag_a[:count], dtype=float) / np.asarray(diag_b[:count], dtype=float))
        vals[1:] *= n[1:] ** (1.0 / k - 1.0)
        return FactorSequence(vals)
    raise ConfigError(f"unknown lambda kind {kind!r}")


def build_series(spec: dict, size: int) -> SeriesSample:
    kind = spec.get("kind")
    if kind == "explicit":
        coeffs = spec.get("coefficients")
        if not coeffs or len(coeffs) < size:
            raise ConfigError(f"series.coefficients must supply at least {size} entries")
        return SeriesSample(_numbers(coeffs[:size], "series.coefficients"))
    if kind == "alternating":
        beta = _number(spec, "beta", 1.0, "series")
        n = np.arange(size, dtype=float)
        return SeriesSample((-1.0) ** np.arange(size) / (n + 1.0) ** beta)
    if kind == "probe":
        v = spec.get("v", 0)
        probe_kind = spec.get("probe_kind", PROBE_DIFFERENCE)
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v <= size - 2:
            raise ConfigError(f"series.probe v must be an integer in [0, {size - 2}], got {v!r}")
        if probe_kind not in PROBE_KINDS:
            raise ConfigError(f"series.probe_kind must be 'difference' or 'shift', got {probe_kind!r}")
        return probe_series(probe_kind, v, size)
    raise ConfigError(f"unknown series kind {kind!r}")


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


def _block(block: tuple, fmt: str) -> tuple[list[str], int, tuple]:
    """A block's row-template fields, its row count, and its per-row values row after row; constants are baked in."""
    fields, columns = [], []
    for v in block:
        if isinstance(v, (np.ndarray, list)):
            field, values = _field(v, fmt)
            columns.append(values)
        else:
            field = (json.dumps(v) if fmt == "json" else _csv_cell(v)).replace("%", "%%")
        fields.append(field)
    size = _size(block)
    flat = [None] * (size * len(columns))
    for j, values in enumerate(columns):
        flat[j :: len(columns)] = values
    return fields, size, tuple(flat)


def _report_texts(columns: list[str], blocks: list[tuple], meta: dict, fmt: str):
    """The report's text: its head, then one text per block, then (JSON) its close."""
    if fmt == "csv":
        yield ",".join(map(_csv_cell, columns)) + "\n"
        for block in blocks:
            fields, size, values = _block(block, fmt)
            yield ((",".join(fields) + "\n") * size) % values
        return
    # the layout of json.dumps({"meta": meta, "rows": rows}, indent=2), which closes an object with "\n}"
    yield json.dumps({"meta": meta}, indent=2)[:-2] + ',\n  "rows": ['
    keys = [json.dumps(c).replace("%", "%%") for c in columns]
    rows = 0
    for block in blocks:
        fields, size, values = _block(block, fmt)
        row = ",\n    {\n" + ",\n".join("      %s: %s" % kv for kv in zip(keys, fields)) + "\n    }"
        text = (row * size) % values
        yield text if rows else text[1:]  # no comma before the first row
        rows += size
    yield "\n  ]\n}\n" if rows else "]\n}\n"


def write_rows(columns: list[str], blocks: list[tuple], meta: dict, fmt: str, path: str | None) -> None:
    """Write a report table as CSV or JSON.

    Each block is a run of rows with one entry per column: an array or list
    of per-row values, or a value constant within the block.  A block is
    formatted through one row template and written before the next is formatted.
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
    A, B, lam, carrier = pair_for(config, config.tail.cutoff)  # B as built is the tail carrier C10, C11 and TA read

    def theorem_a():
        for spec in (config.matrix_a, config.matrix_b):
            if spec["kind"] not in ("cesaro", "riesz"):
                raise ConfigError(f"matrix kind {spec['kind']!r} has no weight sequence")
        if carrier.reach < config.tail.cutoff:  # B's explicit weights stop short of the cutoff
            raise TailUnavailableError(f"need {config.tail.cutoff + 1} explicit weights, have {carrier.reach + 1}")
        return check_theorem_a(A.weights, carrier.weights, lam, k, config.tail, n_max=N, delta_mode=config.delta_mode)

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
    reports = [rep for cid in config.conditions for rep in checks[cid]()]
    blocks = [(r.condition_id, r.indices, r.ratios, r.running_sup, r.trend, r.tail_cutoff, r.tail_warning) for r in reports]
    write_rows(CHECK_COLUMNS, blocks, _meta(config, "check"), config.out_format, config.out_path)
    return EXIT_OK


TRANSFORM_COLUMNS = ["n", "transform", "delta", "term", "running_total"]


def cmd_transform(config: ExperimentConfig) -> int:
    N = config.order
    A = build_matrix(config.matrix_a, N)
    series = build_series(config.series_spec, N + 1)
    transformed = transform_partial_sums(A, series)
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

    dec = decompose(A, B, lam, series)
    record("decomposition-residual", float(dec.residual), VERIFY_TOLERANCES["decomposition-residual"] * scale)
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
        if args.command == "check" and args.tail_cutoff is not None:
            data = dict(data)
            data["tail"] = dict(data.get("tail", {}), cutoff=args.tail_cutoff)
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
