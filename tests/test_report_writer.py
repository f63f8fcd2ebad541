"""The report writer against the writer it replaced.

``cli.write_rows`` formats each block through one row template, a slice of
rows at a time, and writes it as it goes; a column that is the running maximum
of the float column before it reuses that column's texts.
``oracles.report_text`` zips every row into one list and prints it through
``csv.writer`` or ``json.dumps(indent=2)``.  On every table the commands can
hand over (floats in the float columns, flags in ``tail_warning``, integers
and text elsewhere, running maxima beside their columns), the two must give
the same bytes, to a file and to stdout, with slices of a few rows or of the
default size.
"""

import logging

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402
import summakit as sk  # noqa: E402
from summakit import cli  # noqa: E402
from summakit.cli import write_rows  # noqa: E402

# shortest text first: hypothesis shrinks towards "", ",", '"', line breaks and "%"
TEXT = st.one_of(st.sampled_from(["", ",", '"', "\r", "\n", "%", "%d", "a,b", 'say "hi"', "%%s\r\n", " x "]), st.text(max_size=6))
FLOAT_BITS = st.integers(0, 2**64 - 1).map(lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64)))
# st.floats gives NaN, the infinities, -0.0 and subnormals often; raw bit patterns give the rest
FLOATS = st.one_of(st.floats(), FLOAT_BITS)
INT64 = st.integers(-(2**63), 2**63 - 1)
OTHER_NAMES = TEXT.filter(lambda name: name not in oracles.FLOAT_COLUMNS and name != "tail_warning")


def per_row(kind, size):
    """A strategy for a per-row entry of ``size`` rows in a column of this kind."""
    if kind == "float":
        arrays = st.lists(FLOATS, min_size=size, max_size=size).map(lambda xs: np.array(xs, dtype=float))
        return st.one_of(arrays, st.lists(st.one_of(st.none(), FLOATS), min_size=size, max_size=size))  # verify's tolerance
    if kind == "int":
        return st.lists(INT64, min_size=size, max_size=size).map(lambda xs: np.array(xs, dtype=np.int64))
    if kind == "bool":
        return st.lists(st.booleans(), min_size=size, max_size=size).map(np.array)
    return st.lists(st.one_of(st.none(), TEXT), min_size=size, max_size=size)


CONSTANTS = {
    "float": st.one_of(st.none(), FLOATS),
    "int": st.one_of(st.none(), INT64),
    "bool": st.booleans(),
    "str": st.one_of(st.none(), TEXT),
}


@st.composite
def tables(draw):
    """Columns, blocks and meta in the shape of a command's report."""
    floats = draw(st.lists(st.sampled_from(sorted(oracles.FLOAT_COLUMNS)), max_size=3, unique=True))
    others = draw(st.lists(OTHER_NAMES, min_size=0 if floats else 1, max_size=3, unique=True))
    named = [(c, "float") for c in floats] + [(c, draw(st.sampled_from(["int", "str"]))) for c in others]
    if draw(st.booleans()) or len(named) < 2:  # every report has two or more columns
        named.append(("tail_warning", "bool"))
    named = draw(st.permutations(named))
    blocks = []
    for _ in range(draw(st.integers(0, 3))):
        size = draw(st.integers(0, 12))
        rowwise = draw(st.lists(st.booleans(), min_size=len(named), max_size=len(named)))
        rowwise[draw(st.integers(0, len(named) - 1))] = True  # a block's row count comes from a per-row entry
        block = [draw(per_row(kind, size) if r else CONSTANTS[kind]) for (_, kind), r in zip(named, rowwise)]
        for j in range(1, len(block)):  # a float column beside the running maximum of the one before it, as in check
            if all(isinstance(v, np.ndarray) and v.dtype == float for v in block[j - 1 : j + 1]) and draw(st.booleans()):
                block[j] = np.maximum.accumulate(block[j - 1])
        blocks.append(tuple(block))
    meta = draw(st.dictionaries(TEXT, st.one_of(st.none(), st.booleans(), INT64, st.floats(), TEXT), max_size=3))
    return [c for c, _ in named], blocks, meta


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=tables(), fmt=st.sampled_from(["csv", "json"]), slice_rows=st.sampled_from([3, cli._ROWS]))
def test_write_rows_bytes_equal_the_oracle_writer(tmp_path, capsys, caplog, monkeypatch, table, fmt, slice_rows):
    monkeypatch.setattr(cli, "_ROWS", slice_rows)
    columns, blocks, meta = table
    expected = oracles.report_text(columns, blocks, meta, fmt)
    out = tmp_path / f"report.{fmt}"
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="summakit"):
        write_rows(columns, blocks, meta, fmt, str(out))
    assert out.read_bytes() == expected.encode("utf-8")
    rows = sum(len(next(v for v in block if isinstance(v, (np.ndarray, list)))) for block in blocks)
    assert caplog.messages[-1] == f"wrote {fmt} report with {rows} rows to {out}"
    capsys.readouterr()
    write_rows(columns, blocks, meta, fmt, None)
    assert capsys.readouterr().out == expected


def test_running_sup_takes_its_texts_from_ratio():
    # each check report's running_sup is formatted from its ratio texts, not a second time
    weights = sk.WeightSequence(np.arange(1.0, 700.0) ** 0.5)
    A, B, carrier = sk.cesaro_matrix(40), sk.riesz_matrix(weights, order=40), sk.riesz_matrix(weights)
    lam, tail = sk.FactorSequence(np.arange(1.0, 43.0) ** -0.5), sk.TailSpec(640)
    reports = [sk.check_c9(A, B, lam, 2), sk.check_c10(A, carrier, lam, 2, tail, v_max=40), sk.check_c16(A, B, lam)]
    for r in reports:
        set_at = [int(np.flatnonzero(r.ratios[: i + 1] == m)[-1]) for i, m in enumerate(r.running_sup)]
        assert cli._running_rows(r.ratios, r.running_sup).tolist() == set_at
