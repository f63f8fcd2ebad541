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


_POWER_NAMES = {"pow", "power", "float_power", "__pow__", "__rpow__"}


def _literal(node):
    """The number a literal node holds, a negated one too, or None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _literal(node.operand)
        return None if value is None else -value
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)) else None


def _powers(source):
    """Each power in ``source`` outside a function named ``power``, as "line text", but a ``**`` of two literals whose
    exponent is 1 or 2: a ``**`` or ``**=``, and a ``pow``, ``np.power``, ``math.pow``, ``operator.pow`` or
    ``__pow__`` named, called or not."""
    found = []

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == "power":
            return
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            base, expo = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.target, node.value)
            if _literal(base) is None or _literal(expo) not in (1, 2):
                found.append(f"{node.lineno} {ast.unparse(node)}")
        elif (isinstance(node, ast.Name) and node.id == "pow") or (isinstance(node, ast.Attribute) and node.attr in _POWER_NAMES):
            found.append(f"{node.lineno} {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def test_every_power_goes_through_util_power():
    # which kernel rounds a power, numpy's loops or glibc's pow under Python's **, decides the last bit of a report:
    # _util.power picks it by its operands' types, and is the one function that raises anything to a power
    found = {path.name: _powers(path.read_text()) for path in sorted((ROOT / "src" / "summakit").glob("*.py"))}
    assert {name: powers for name, powers in found.items() if powers} == {}
    source = (ROOT / "src" / "summakit" / "_util.py").read_text()
    assert [n.name for n in ast.walk(ast.parse(source)) if isinstance(n, ast.FunctionDef) and n.name == "power"] == ["power"]


def _numpy_random_reads(source):
    """Each read of numpy's ``random`` in ``source``, as "line text": an attribute ``random`` of ``np`` or ``numpy``, and
    an import of ``numpy.random`` or of a name from it, or of ``random`` from numpy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "random" and getattr(node.value, "id", None) in ("np", "numpy"):
            found.append(f"{node.lineno} {ast.unparse(node)}")
        elif isinstance(node, ast.Import) and any(a.name.split(".")[:2] == ["numpy", "random"] for a in node.names):
            found.append(f"{node.lineno} {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            if (node.module or "").split(".")[:2] == ["numpy", "random"] or any(a.name == "random" for a in node.names):
                found.append(f"{node.lineno} {ast.unparse(node)}")
    return found


def test_no_module_reads_numpy_random():
    # importing numpy.random (its bit generators and the legacy mtrand) costs a verify run more than its sweeps:
    # they draw from _util.uniform, integer arithmetic whose bits depend on neither the CPU nor the numpy version
    found = {path.name: _numpy_random_reads(path.read_text()) for path in sorted((ROOT / "src" / "summakit").glob("*.py"))}
    assert {name: reads for name, reads in found.items() if reads} == {}
    source = """
import numpy.random
from numpy.random import default_rng
from numpy import random
rng = np.random.default_rng(0)
x = numpy.random.uniform()
"""
    assert _numpy_random_reads(source) == [
        "2 import numpy.random", "3 from numpy.random import default_rng", "4 from numpy import random", "5 np.random", "6 numpy.random"
    ]


def test_the_power_pin_finds_every_kind_of_power():
    source = """
def f(x, k):
    y = x**k + 2.0**53 + x**2 + 3**2 + (-1.0) ** 2 + 2**0.5
    y **= 2
    return pow(x, k), np.power(x, k), math.pow(x, 2), map(operator.pow, x, k), x.__pow__(k)
def power(x, k):
    return x**k
"""
    assert _powers(source) == [
        "3 x ** k", "3 2.0 ** 53", "3 x ** 2", "3 2 ** 0.5", "4 y **= 2", "5 pow", "5 np.power", "5 math.pow", "5 operator.pow", "5 x.__pow__"
    ]


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


def _forms():
    """The names of the storage forms of a matrix: the subclasses of NormalMatrix that matrices.py defines."""
    from summakit.matrices import NormalMatrix

    found, todo = set(), [NormalMatrix]
    while todo:
        subs = [c for c in todo.pop().__subclasses__() if c.__module__ == "summakit.matrices"]
        found.update(c.__name__ for c in subs)
        todo += subs
    return found


_MAKERS = {"identity_matrix", "riesz_matrix"}


def _storage_tests(source, forms):
    """Each test of how a matrix is stored in ``source``, as "line what": a comparison of ``_entries``, ``_ints``,
    ``weights`` or a local read off ``entries`` or ``_entries`` with None; a read of ``is_identity`` or ``identity``; and a form
    named outside its class, the function that makes it, a ``register`` call and the probe table ``_PROBES``."""
    found = []

    def entries_locals(scope):
        reads = lambda value: any(isinstance(n, ast.Attribute) and n.attr in ("entries", "_entries") for n in ast.walk(value))  # noqa: E731
        return {t.id for n in ast.walk(scope) if isinstance(n, ast.Assign) and reads(n.value) for t in n.targets if isinstance(t, ast.Name)}

    def visit(node, local, allowed):
        if isinstance(node, (ast.FunctionDef, ast.Module)):
            local = entries_locals(node)
        allowed = allowed or (
            (isinstance(node, ast.ClassDef) and node.name in forms | {"NormalMatrix"})
            or (isinstance(node, ast.FunctionDef) and node.name in _MAKERS)
            or (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "register")
            or (isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["_PROBES"])
        )
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(isinstance(n, ast.Constant) and n.value is None for n in sides):
                found.extend(
                    f"{node.lineno} {ast.unparse(n)} against None"
                    for n in sides
                    if (isinstance(n, ast.Attribute) and n.attr in ("_entries", "_ints", "weights")) or (isinstance(n, ast.Name) and n.id in local)
                )
        if isinstance(node, ast.Attribute) and node.attr in ("is_identity", "identity"):
            found.append(f"{node.lineno} .{node.attr}")
        if isinstance(node, ast.Name) and node.id in forms and not allowed:
            found.append(f"{node.lineno} {node.id}")
        for child in ast.iter_child_nodes(node):
            visit(child, local, allowed)

    visit(ast.parse(source), set(), False)
    return found


def test_the_gap_factor_and_the_storage_of_a_matrix_are_read_in_one_place_each():
    # (a_vv - a_{v+1,v}) / (a_vv a_{v+1,v+1}) is NormalMatrix.gap: conditions and harness read no
    # subdiagonal but that of the stand-in hat inverse key_identity_check accepts, read where A's bands are
    assert _attribute_reads("conditions.py", "subdiagonal") == []
    assert set(_attribute_reads("harness.py", "subdiagonal")) == {"_a_bands"}
    # how a matrix is stored is its class, one per form: no function tests for a form's storage, and a form
    # class is named where it is defined, built, registered on a module function and given its probe class
    forms = _forms()
    assert forms == {"_Structured", "WeightedMean", "IdentityMatrix"}
    found = {path.name: _storage_tests(path.read_text(), forms) for path in sorted((ROOT / "src" / "summakit").glob("*.py"))}
    assert {name: tests for name, tests in found.items() if tests} == {}


def test_the_storage_pin_finds_the_storage_tests_of_one_matrix_class():
    # the one-class form of matrices.py tested each form's storage by None: the pin above finds every kind of such a test
    source = """
def reach(self):
    return self.order if self.weights is None else self.weights.order
def apply(M, x):
    E = M._entries if isinstance(M, NormalMatrix) else np.asarray(M)
    if E is None and self.is_identity:
        return WeightedMean(x)
"""
    assert _storage_tests(source, {"WeightedMean"}) == [
        "3 self.weights against None", "6 E against None", "6 .is_identity", "7 WeightedMean"
    ]


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


def test_the_matrix_forms_share_one_protocol():
    # what every module reads of a matrix, whatever its form: a structure's base overrides the reads that are exact
    # constants on it, and each structure gives its entries and bands (_dense, _band) from what it holds; entries are
    # one kept read on every form, of what the form holds
    from summakit import matrices

    reads = {"size", "exact", "weights", "entries", "order", "reach", "diagonal", "subdiagonal", "row_sums", "numerators", "gap", "rises"}
    classes = [matrices.NormalMatrix, *(getattr(matrices, name) for name in sorted(_forms()))]
    assert all({n for n in dir(cls) if not n.startswith("_")} == reads for cls in classes)
    own = {cls.__name__: {n for n in vars(cls) if not n.endswith("__")} for cls in classes[1:]}
    assert own == {
        "_Structured": {"row_sums", "gap", "rises"},
        "WeightedMean": {"_hat_inverse", "reach", "_weights", "_dense", "_band"},
        "IdentityMatrix": {"_dense", "_band"},
    }
    # the module functions a form computes otherwise, each with the body registered for that form
    registered = {
        name: {cls.__name__ for cls in fn.registry} - {"object"} for name, fn in vars(matrices).items() if hasattr(fn, "registry")
    }
    assert registered == {
        "leading_section": {"_Structured"},
        "hat_columns": {"WeightedMean"},
        "hat_of": {"IdentityMatrix"},
        "hat_inverse": {"IdentityMatrix", "WeightedMean"},
        "far_inverse": {"_Structured"},
        "hat_inverse_bands": {"IdentityMatrix", "WeightedMean"},
        "apply_hat": {"WeightedMean"},
        "apply_lower": {"ndarray", "Rational", "IdentityMatrix", "WeightedMean"},
    }


def test_dense_hat_matrices_are_formed_in_named_places_only():
    # a product with A or A-hat is matrices.apply_lower or apply_hat, which read how A is stored. A dense hat
    # matrix is formed where a dense B is read column by column, and for key_identity_check's stand-ins
    calls = {
        (path.name, f)
        for path in (ROOT / "src" / "summakit").glob("*.py")
        if path.name != "matrices.py"
        for f in _where(path.name, lambda n: isinstance(n, ast.Call) and getattr(n.func, "id", None) == "hat_of")
    }
    # DenseProbes.H and check_c16 read the carrier an exact hat matrix keeps
    kept = {("conditions.py", "check_c16")}
    assert calls == {("conditions.py", "DenseProbes.H"), ("harness.py", "key_identity_check")} | kept
    assert _attribute_reads("series.py", "entries") == []


def test_only_hat_of_and_invert_hat_build_an_exact_matrix_from_a_kernels_carrier(monkeypatch):
    # a matrix given a Rational is an exact kernel's result: the hat matrix and the hat inverse of an exact matrix, and
    # no other. Each such construction is named by the first public function of matrices.py on its stack
    import sys

    import numpy as np

    import helpers
    import summakit as sk
    from summakit import matrices
    from summakit._util import Rational

    init, built = matrices.NormalMatrix.__init__, []

    def recording(self, entries, *args, **kwargs):
        if isinstance(entries, Rational):
            frame = sys._getframe(1)
            while frame.f_code.co_filename != matrices.__file__ or not hasattr(matrices, frame.f_code.co_name) or _private(frame.f_code.co_name):
                frame = frame.f_back
            built.append(frame.f_code.co_name)
        init(self, entries, *args, **kwargs)

    monkeypatch.setattr(matrices.NormalMatrix, "__init__", recording)
    rng = np.random.default_rng(5)
    A, B, lam, series = helpers.exact_oracle_inputs(seed=1, order=8)
    helpers.exact_oracle_calls(A, B, lam, series)
    sk.ProbePass(A, sk.riesz_matrix(helpers.random_rational_weights(rng, 9)), lam, 2).key_identity_gaps()
    carrier = helpers.random_rational_matrix(rng, 20)  # C10 reads the leading hat columns of a longer exact carrier
    sk.check_c10(A, carrier, sk.FactorSequence(helpers.random_rational_vector(rng, 21)), 2, sk.TailSpec(cutoff=20), v_max=6)
    sk.hat_inverse(matrices.leading_section(B, 5)), sk.hat_inverse(sk.identity_matrix(5, exact=True))
    assert sorted(set(built)) == ["hat_of", "invert_hat"] and len(built) == 5


def _tuple_tests(source):
    """Each ``isinstance`` call in ``source`` whose class argument names ``tuple``, as "line text"."""
    return [
        f"{n.lineno} {ast.unparse(n)}"
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "isinstance" and len(n.args) == 2
        and any(isinstance(m, ast.Name) and m.id == "tuple" for m in ast.walk(n.args[1]))
    ]


def test_no_function_tests_an_operand_for_a_tuple():
    # an exact operand is a Rational, the one carrier of integers over a denominator: no kernel takes a
    # (numerators, denominator) pair, so none tests whether an operand is a tuple
    found = {path.name: _tuple_tests(path.read_text()) for path in sorted((ROOT / "src" / "summakit").glob("*.py"))}
    assert {name: tests for name, tests in found.items() if tests} == {}
    assert _tuple_tests("if isinstance(M, tuple) or f(x):\n    y = isinstance(H, (np.ndarray, tuple)), isinstance(x, list)") == [
        "1 isinstance(M, tuple)", "2 isinstance(H, (np.ndarray, tuple))"
    ]


_ARITHMETIC = {"exact", "is_exact", "tuple"}


def _arithmetic_branches(source):
    """Each ``if`` statement and conditional expression in ``source`` whose test reads a name or an attribute named
    ``exact``, ``is_exact`` or ``tuple``, as its line."""
    reads = lambda test: any(getattr(n, "id", getattr(n, "attr", None)) in _ARITHMETIC for n in ast.walk(test))  # noqa: E731
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, (ast.If, ast.IfExp)) and reads(n.test)]


def test_the_arithmetic_is_branched_on_in_few_places():
    # every branch on the arithmetic, float or exact, is a place where the two paths differ: the pinned count moves
    # only on purpose, and a new branch is weighed against the carrier (_util.Rational) that serves both
    found = {path.name: _arithmetic_branches(path.read_text()) for path in sorted((ROOT / "src" / "summakit").glob("*.py"))}
    assert sum(map(len, found.values())) == 57
    source = "if A.exact:\n    x = 1 if is_exact(y) else 2\nz = f(exact) if k else g\nif isinstance(M, tuple) and w:\n    pass\n"
    assert _arithmetic_branches(source) == [1, 4, 2]


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
