"""Random JSON configs through the CLI: every run ends in an exit code, never in a traceback.

Each root key, spec key and kind of ``cli.SCHEMA`` is drawn either absent, as
a plausible value or as any JSON value (null, a bool, a small int, any float
including NaN and the infinities, a short string, or a small list or object
of these).  N is 2..6 and a drawn tail cutoff at most 40, so a run is small.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from summakit.cli import CONDITION_IDS, SCHEMA, TAGS, main  # noqa: E402
from summakit.conditions import PROBE_KINDS  # noqa: E402

SCALAR = st.one_of(st.none(), st.booleans(), st.integers(-40, 40), st.floats(), st.text(max_size=4))
JSON = st.recursive(SCALAR, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3), max_leaves=5)
NUMBERS = st.lists(st.floats(-2.0, 2.0), max_size=10)
ROWS = st.builds(lambda size, x: [[x] * (n + 1) for n in range(size)], st.integers(0, 9), st.floats(0.1, 1.0))


def spec(table: str):
    """A spec of ``table``: a known or any tag, and any subset of the keys its rows read, each plausible or any."""
    rows = SCHEMA[table]
    plausible = {
        "generator": st.sampled_from(sorted(SCHEMA["generator"])) | st.deferred(lambda: spec("generator")),
        "weights": st.lists(st.floats(0.5, 2.0), max_size=45),
        "entries": ROWS,
        "v": st.integers(-1, 7),
        "probe_kind": st.sampled_from(PROBE_KINDS),
    }
    keys = sorted({key: x for row in rows.values() for key, x in row.items()}.items())
    optional = {key: plausible.get(key, NUMBERS if isinstance(x, list) else st.floats(-2.0, 2.0)) | JSON for key, x in keys}
    tag = st.sampled_from([kind for kind in rows if isinstance(kind, str)]) | JSON
    return st.fixed_dictionaries({TAGS.get(table, "kind"): tag}, optional=optional)


CONFIGS = st.fixed_dictionaries(
    {"N": st.integers(2, 6)},
    optional={
        "k": st.floats(1.0, 3.0) | JSON,
        "matrix_a": spec("matrix") | JSON,
        "matrix_b": spec("matrix") | JSON,
        "lambda": spec("lambda") | JSON,
        "series": spec("series") | JSON,
        "tail": st.fixed_dictionaries({}, optional={"cutoff": st.integers(-40, 40) | JSON, "warn_threshold": st.floats(0.0, 1.0) | JSON}) | JSON,
        "output": st.fixed_dictionaries({}, optional={"format": st.sampled_from(["csv", "json"]) | JSON, "path": JSON}) | JSON,
        "conditions": st.lists(st.sampled_from([*CONDITION_IDS, "TA"]), max_size=3) | JSON,
        "delta_mode": st.sampled_from(["forward", "backward"]) | JSON,
    },
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(config=CONFIGS)
def test_any_config_ends_in_an_exit_code(config):
    # a check or transform never fails a verification, so exit 1 from either is a crash mistaken for one
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "config.json"
        path.write_text(json.dumps(config))
        for command in ("check", "transform", "verify"):
            with contextlib.redirect_stderr(io.StringIO()):
                code = main([command, "--config", str(path), "--out", str(Path(work) / "report.out")])
            assert code in ((0, 2, 3) if command != "verify" else (0, 1, 2, 3)), (command, code)
