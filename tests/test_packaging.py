import ast
import importlib
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
SOURCES = sorted((ROOT / "src" / "mvse").glob("*.py"))
BENCH = sorted((ROOT / "mvse_bench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
# public functions and methods with no caller in the package or the benchmark, and why
CALLERLESS = {
    "grad_check": "the exported finite-difference gradient oracle",
    "probe_recall_at_1": "a synth probe: the recall a corpus allows",
    "slice_collision_ceiling": "a synth probe: the recall one latent slice allows",
}
# the per-op primitives of the tests' reference chains, in tests/oracle_ops.py
ORACLE_OPS = ("add", "add_scalar", "scale", "mul", "sigmoid", "_sigmoid", "sum_all", "take", "scale_cells")


def test_console_scripts_resolve_to_callables():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module_name, _, attr = target.partition(":")
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name!r} -> {target!r} is not callable"


def _unused_imports(source: str) -> list[str]:
    """Names a module imports at module level and never reads, as
    "line <n>: <name>"; ``__future__`` imports and names in ``__all__``
    are exempt."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read | exported]


def test_unused_import_check_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "from mvse.config import Dims as D, SPACE_SETS\n"
        "__all__ = ['SPACE_SETS']\n"
        "@dataclass\n"
        "class A:\n"
        "    root: str = os.path.sep\n"
    )
    assert _unused_imports(source) == ["line 3: field", "line 4: D"]


# the tests import no pytest fixtures, so a test file has no exempt import
@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_reads(path):
    assert _unused_imports(path.read_text()) == []


def _loads(node: ast.AST) -> set[str]:
    """The names ``node`` reads, bare or as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def _reads(source: str) -> list[tuple[str | None, set[str]]]:
    """Per module-level statement, the function or class it defines (None
    if it defines neither) and the names it reads. Each method of a public
    class is an entry of its own, defining "<Class>.<method>"; the rest of
    that class is one entry defining nothing."""
    stmts = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
            stmts += [(f"{node.name}.{m.name}", _loads(m)) for m in methods]
            node.body = [m for m in node.body if m not in methods]
            stmts.append((None, _loads(node)))
        else:
            defines = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            stmts.append((node.name if defines else None, _loads(node)))
    return stmts


def _callerless(sources: dict[str, str], defining: list[str]) -> list[str]:
    """"<file>: <name>" for each module-level function, each private
    module-level class, and each public method of a public class, of the
    files in ``defining`` whose name no other statement reads: a statement
    of ``sources`` for a public name, of the files in ``defining`` for a
    private one, so a private helper that only a test reads is flagged."""
    reads = {path: _reads(text) for path, text in sources.items()}
    found = []
    for path in defining:
        for fn, _ in reads[path]:
            if fn is None:
                continue
            cls, _, name = fn.rpartition(".")
            if cls and name.startswith("_"):
                continue
            readers = defining if name.startswith("_") else reads
            if not any(
                name in names for p in readers for owner, names in reads[p]
                if (p, owner) != (path, fn)
            ):
                found.append(f"{path}: {fn}")
    return found


def test_callerless_check_flags_only_functions_nothing_else_reads():
    sources = {
        "a.py": (
            "def used():\n    pass\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "def _private():\n    pass\n"
            "def by_attribute():\n    pass\n"
        ),
        "b.py": "import a\na.by_attribute()\nf = used\n",
    }
    assert _callerless(sources, ["a.py"]) == ["a.py: recursive", "a.py: _private"]


def test_callerless_check_covers_the_methods_of_public_classes():
    """The scan matches names, not calls: a method named like anything read
    elsewhere, such as numpy's ``size`` or ``item``, counts as read."""
    sources = {
        "a.py": (
            "class Box:\n"
            "    def __init__(self):\n        self.n = 0\n"
            "    def _helper(self):\n        pass\n"
            "    def orphan(self):\n        return self.orphan()\n"
            "    @property\n    def width(self):\n        return self.n\n"
            "    @classmethod\n    def empty(cls):\n        return cls()\n"
            "    @staticmethod\n    def unread():\n        pass\n"
            "    def size(self):\n        pass\n"
            "class _Hidden:\n    def unread_too(self):\n        pass\n"
        ),
        "b.py": "import numpy as np\nimport a\nw = a.Box.empty().width\nn = np.zeros(3).size\n",
    }
    assert _callerless(sources, ["a.py"]) == ["a.py: Box.orphan", "a.py: Box.unread", "a.py: _Hidden"]


def test_callerless_check_wants_private_names_read_inside_the_defining_files():
    """A private function or class passes only with a reader among the files
    checked, not in a test or in the benchmark."""
    sources = {
        "a.py": (
            "def _helper():\n    pass\n"
            "class _Box:\n    pass\n"
            "box = _Box()\n"
            "def _oracle():\n    pass\n"
            "class _Unread:\n    pass\n"
        ),
        "b.py": "from a import _helper\n_helper()\n",
        "test_a.py": "from a import _Unread, _oracle\n_oracle()\n_Unread()\n",
    }
    assert _callerless(sources, ["a.py", "b.py"]) == ["a.py: _oracle", "a.py: _Unread"]


def _package_callerless() -> list[str]:
    """The package's names that :func:`_callerless` flags against the
    package and the benchmark."""
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SOURCES + BENCH}
    return _callerless(sources, [str(p.relative_to(ROOT)) for p in SOURCES])


def test_every_public_function_is_read_by_the_package_or_the_benchmark():
    unread = [u for u in _package_callerless() if not u.rpartition(": ")[2].startswith("_")]
    assert [u for u in unread if u.rpartition(": ")[2] not in CALLERLESS] == []
    assert {u.rpartition(": ")[2] for u in unread} == set(CALLERLESS), "drop exemptions that gained a caller"


def test_every_private_function_and_class_is_read_by_the_package():
    assert [u for u in _package_callerless() if u.rpartition(": ")[2].startswith("_")] == []


def _integer_predicates(source: str) -> list[str]:
    """Each place ``source`` spells what an integer is, as "line <n>:
    <spelling>": ``numbers.Integral``, ``np.integer``, ``type(x) is int``
    (or ``==``, ``is not``, ``!=``) and ``isinstance(x, int)`` or
    ``issubclass(t, int)``, also with ``int`` in a tuple."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("Integral", "integer"):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(isinstance(n, ast.Call) and _loads(n.func) == {"type"} for n in sides) and any(
                isinstance(n, ast.Name) and n.id == "int" for n in sides
            ):
                found.append((node.lineno, ast.unparse(node)))
        elif (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2
            and "int" in _loads(node.args[1])
        ):
            found.append((node.lineno, ast.unparse(node)))
    return [f"line {line}: {text}" for line, text in sorted(found)]


def test_integer_predicate_check_flags_each_spelling():
    source = (
        "import numbers\nimport numpy as np\n"
        "a = isinstance(x, numbers.Integral)\n"
        "b = issubclass(t, (int, np.integer))\n"
        "c = type(n) is not int\n"
        "d = isinstance(x, int)\n"
        "e = isinstance(x, str) and type(x) is float and int(x) > 0\n"
    )
    assert _integer_predicates(source) == [
        "line 3: numbers.Integral",
        "line 4: issubclass(t, (int, np.integer))",
        "line 4: np.integer",
        "line 5: type(n) is not int",
        "line 6: isinstance(x, int)",
    ]


def test_only_config_spells_what_an_integer_is():
    """``config._is_integer_type`` is the one integer rule: every other
    module calls it rather than spelling its own."""
    spelled = {p.name: _integer_predicates(p.read_text()) for p in SOURCES}
    assert spelled.pop("config.py"), "the check no longer sees config's own predicate"
    assert {name: found for name, found in spelled.items() if found} == {}


def _tensor_sites(source: str) -> list[str]:
    """The scope of each ``Tensor(...)`` or ``autodiff.Tensor(...)`` call in
    ``source``, in source order: the dotted names of the functions and
    classes around it, or "<module>"."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Call) and (
                (isinstance(child.func, ast.Name) and child.func.id == "Tensor")
                or (isinstance(child.func, ast.Attribute) and child.func.attr == "Tensor")
            ):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_tensor_site_check_names_each_call_by_its_scope():
    source = (
        "from mvse import autodiff\nfrom mvse.autodiff import Tensor\n"
        "x = Tensor(1.0)\n"
        "def f():\n"
        "    def g():\n        return autodiff.Tensor(2.0)\n"
        "    return Tensor(g())\n"
        "class C:\n"
        "    def m(self) -> Tensor:\n        return [Tensor(0.0), isinstance(self, Tensor)]\n"
    )
    assert _tensor_sites(source) == ["<module>", "f.g", "f", "C.m"]


# where the package makes a Tensor: op outputs, parameters, and the untaped
# sequential head's blocks. A constant input enters its op as an ndarray,
# so it is never a tape leaf
TENSOR_SITES = {
    "autodiff.py": ["_emit"],
    "model.py": ["_build_params.t"],
    "visual.py": ["sequential_embed.block", "sequential_embed"],
}


def test_only_op_outputs_parameters_and_untaped_blocks_are_tensors():
    sites = {p.name: _tensor_sites(p.read_text()) for p in SOURCES}
    assert {name: found for name, found in sites.items() if found} == TENSOR_SITES


def test_the_per_op_oracle_is_not_shipped():
    autodiff = importlib.import_module("mvse.autodiff")
    assert [name for name in ORACLE_OPS if hasattr(autodiff, name)] == []
