"""Checks that read the package's source and the README as files."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_no_module_imports_a_private_name_from_a_sibling():
    # a helper two modules need has one public home (as _util.suffix_sums), not a private name in one of them
    found = []
    for path in sorted((ROOT / "src" / "summakit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "summakit"):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names if _private(alias.name)]
    assert found == []


def test_only_matrices_reads_a_diagonal():
    # how a matrix is stored is decided in matrices.py alone: every other module reads its
    # diagonal, subdiagonal and row sums through NormalMatrix, never out of an array
    found = []
    for path in sorted((ROOT / "src" / "summakit").glob("*.py")):
        if path.name == "matrices.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "diagonal" and getattr(node.value, "id", None) == "np":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_matrices_and_conditions_read_a_weight_sequences_formulas():
    # a weighted mean's Delta_v, W tail and hat rows are read through the probe columns of
    # conditions.WeightedProbes: no other module evaluates them
    found = []
    for path in sorted((ROOT / "src" / "summakit").glob("*.py")):
        if path.name in ("matrices.py", "conditions.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("delta", "tail", "hat_rows"):
                found.append(f"{path.name}:{node.lineno} .{node.func.attr}(")
    assert found == []


def _attribute_reads(module, attr):
    """The qualified name of the function around each ``.attr`` in ``module``'s source."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Attribute) and node.attr == attr:
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse((ROOT / "src" / "summakit" / module).read_text()), ())
    return found


def test_the_gap_factor_and_the_cumulative_weights_are_read_in_one_place_each():
    # (a_vv - a_{v+1,v}) / (a_vv a_{v+1,v+1}) is NormalMatrix.gap: conditions and harness read no
    # subdiagonal but the stand-in hat inverse key_identity_check accepts, and harness reads a
    # weight sequence's cumulative sums only to check the probes against their definition
    assert _attribute_reads("conditions.py", "subdiagonal") == []
    assert set(_attribute_reads("harness.py", "subdiagonal")) == {"key_identity_check"}
    assert set(_attribute_reads("harness.py", "cumulative")) == {"ProbePass.definition_gap"}


def test_readme_quick_start_runs():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
