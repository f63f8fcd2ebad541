"""Checks that read the package's source and the README as files."""

import ast
import json
import re
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


def _where(module, match):
    """The qualified name of the function around each node of ``module``'s source that ``match`` accepts."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if match(node):
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse((ROOT / "src" / "summakit" / module).read_text()), ())
    return found


def _attribute_reads(module, attr, of=(ast.AST,)):
    """The qualified name of the function around each ``.attr`` of an ``of`` node in ``module``'s source."""
    return _where(module, lambda n: isinstance(n, ast.Attribute) and n.attr == attr and isinstance(n.value, of))


def _storage_reads(module):
    """(function, attribute) of each read of how a matrix is stored: its weights, its cumulative weights, whether
    it is the identity, and its entries, unless read off a call result such as hat_of(B), which is always dense."""
    reads = {(f, attr) for attr in ("weights", "cumulative", "is_identity") for f in _attribute_reads(module, attr)}
    return reads | {(f, "entries") for f in _attribute_reads(module, "entries", (ast.Name, ast.Attribute))}


def _storage_branches(module):
    """The functions whose if-tests read ``.weights`` or ``.is_identity``."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, (ast.If, ast.IfExp, ast.While)):
            if any(isinstance(n, ast.Attribute) and n.attr in ("weights", "is_identity") for n in ast.walk(node.test)):
                found.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse((ROOT / "src" / "summakit" / module).read_text()), ())
    return found


def test_the_gap_factor_and_the_storage_of_a_matrix_are_read_in_one_place_each():
    # (a_vv - a_{v+1,v}) / (a_vv a_{v+1,v+1}) is NormalMatrix.gap: conditions and harness read no
    # subdiagonal but the stand-in hat inverse key_identity_check accepts
    assert _attribute_reads("conditions.py", "subdiagonal") == []
    assert set(_attribute_reads("harness.py", "subdiagonal")) == {"key_identity_check"}
    # a matrix is dense entries, a weight sequence or the identity's order: outside matrices.py the
    # path is picked by conditions.probe_columns and its two probe classes alone. check_theorem_a takes
    # weight sequences and l1_lk_bound an array or a matrix, by contract; cli hands TA B's weights
    assert _storage_reads("harness.py") == set()
    allowed = {"probe_columns", "DenseProbes", "WeightedProbes", "check_theorem_a", "l1_lk_bound"}
    assert {f.split(".")[0] for f, _ in _storage_reads("conditions.py")} <= allowed
    assert _storage_reads("cli.py") == {("cmd_check.theorem_a", "weights")}
    modules = [p.name for p in (ROOT / "src" / "summakit").glob("*.py") if p.name != "matrices.py"]
    assert set().union(*map(_storage_branches, modules)) == {"probe_columns"}
    # the identity's one closed form in DenseProbes is its C10/C11 tails
    reads = _where("conditions.py", lambda n: isinstance(n, ast.Attribute) and n.attr == "identity" and isinstance(n.ctx, ast.Load))
    assert reads == ["DenseProbes.tails"]


def test_t1_is_one_product_through_b_hat_and_decompose_reads_no_probe_class():
    # both parts of decompose are B-hat applied to lam times a part of A-hat's inverse applied to dx, on
    # every B: the probe classes carry no closed form of t1, and are built where probe columns are reduced
    calls = [
        f
        for path in sorted((ROOT / "src" / "summakit").glob("*.py"))
        for f in _where(path.name, lambda n: isinstance(n, ast.Call) and getattr(n.func, "id", None) == "probe_columns")
    ]
    assert sorted(calls) == ["ProbePass.__init__", "ProbePass.__init__", "_tail_report"]
    assert _where("conditions.py", lambda n: isinstance(n, ast.FunctionDef) and n.name == "first_part") == []


def _public_methods(module, cls):
    """The names of the functions ``cls`` in ``module``'s source defines, but for private and dunder ones."""
    tree = ast.parse((ROOT / "src" / "summakit" / module).read_text())
    body = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls).body
    return {n.name for n in body if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")}


def test_the_probe_classes_share_one_protocol():
    # what a storage form of a matrix gives the probe pass, C10/C11, the key identity and the c_nv sums:
    # the weighted form has exactly these methods, and the dense form has each of them
    protocol = {"pows", "tails", "factored_rows", "cnv_sums", "definition_gap"}
    assert _public_methods("conditions.py", "WeightedProbes") == protocol
    assert protocol <= _public_methods("conditions.py", "DenseProbes")


def test_dense_hat_matrices_are_formed_in_named_places_only():
    # a product with A or A-hat is matrices.apply_lower or apply_hat, which read how A is stored. A dense hat
    # matrix is formed where a dense B is read column by column, and for key_identity_check's stand-ins
    calls = {
        (path.name, f)
        for path in (ROOT / "src" / "summakit").glob("*.py")
        if path.name != "matrices.py"
        for f in _where(path.name, lambda n: isinstance(n, ast.Call) and getattr(n.func, "id", None) == "hat_of")
    }
    assert calls == {("conditions.py", "DenseProbes.H"), ("conditions.py", "check_c16"), ("harness.py", "key_identity_check")}
    assert _attribute_reads("series.py", "entries") == []


def _names_used(tree):
    """Every name a module's code reads, in annotations too."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_every_imported_name_is_used():
    # no linter runs here or in CI: a name a module imports and never reads is dead code left by a move
    found = []
    for path in sorted((ROOT / "src" / "summakit").glob("*.py")):
        if path.name == "__init__.py":  # it imports to re-export
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = _names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used and name != "annotations":
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_readme_quick_start_runs():
    # every python block of the section, in order, in one namespace
    text = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    namespace = {}
    for block in [part.split("```", 1)[0] for part in text.split("```python\n")[1:]]:
        exec(compile(block, "README.md", "exec"), namespace)


def test_each_config_key_is_named_once_in_the_schema_table():
    # a spec or generator key is read through cli.SCHEMA alone: no .get(...) argument or subscript in cli.py names one
    keys = {"weights", "generator", "entries", "value", "values", "alpha", "ratio", "beta", "v", "probe_kind"}
    found = []
    for node in ast.walk(ast.parse((ROOT / "src" / "summakit" / "cli.py").read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get":
            read = node.args
        elif isinstance(node, ast.Subscript):
            read = [node.slice]
        else:
            continue
        found += [f"{n.lineno} {n.value!r}" for arg in read for n in ast.walk(arg) if isinstance(n, ast.Constant) and n.value in keys]
    assert found == []


def test_the_readme_spec_table_is_the_schema_table():
    # one row per kind: its tag (and ``weights`` for the riesz weights row), then each key with its JSON default
    from summakit.cli import SCHEMA

    table = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) == 3 and cells[0] in SCHEMA:
            kind = tuple(re.findall(r"`(\w+)`", cells[1]))
            keys = re.findall(r"`(\w+)`: (?:`([^`]*)`|a list)", cells[2])
            table.setdefault(cells[0], {})[kind if len(kind) > 1 else kind[0]] = {key: json.loads(x) if x else [] for key, x in keys}
    assert table == SCHEMA
