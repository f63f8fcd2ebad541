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


def test_readme_quick_start_runs():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
