"""The report writer against the writer it replaced.

``cli.write_rows`` formats each block through one row template and writes it
as it goes; ``oracles.report_text`` zips every row into one list and prints it
through ``csv.writer`` or ``json.dumps(indent=2)``.  On every table the
commands can hand over (floats in the float columns, flags in
``tail_warning``, integers and text elsewhere), the two must give the same
bytes, to a file and to stdout.
"""

import logging

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402
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
        blocks.append(tuple(draw(per_row(kind, size) if r else CONSTANTS[kind]) for (_, kind), r in zip(named, rowwise)))
    meta = draw(st.dictionaries(TEXT, st.one_of(st.none(), st.booleans(), INT64, st.floats(), TEXT), max_size=3))
    return [c for c, _ in named], blocks, meta


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=tables(), fmt=st.sampled_from(["csv", "json"]))
def test_write_rows_bytes_equal_the_oracle_writer(tmp_path, capsys, caplog, table, fmt):
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
