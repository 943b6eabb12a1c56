"""Name hygiene of the package, read off its source with the standard
library's ast: every name an ``__all__`` lists is bound in its module, and
every name a module other than ``__init__``, a test file or a demo imports
is used there.  A leftover import of a name whose use was removed fails
here by name."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "phwc"
MODULES = sorted(path.name for path in SRC.glob("*.py"))
SCRIPTS = sorted(f"{folder}/{path.name}" for folder in ("tests", "demos")
                 for path in (ROOT / folder).glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def module_scope(body):
    """The statements of body and of the blocks nested in them, stopping
    at function and class bodies."""
    for node in body:
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from module_scope(getattr(node, field, []))


def imported(node):
    """The names an import statement binds, but not ``__future__``'s."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def bound(tree):
    names = set()
    for node in module_scope(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(imported(node))
        else:
            names.update(n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name)
                         and isinstance(n.ctx, ast.Store))
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_bound(name):
    tree = parse(SRC / name)
    assert set(exported(tree)) - bound(tree) == set()


def unused_imports(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)} | set(exported(tree))
    imports = {alias for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in imported(node)}
    return imports - used


@pytest.mark.parametrize("name", [m for m in MODULES if m != "__init__.py"])
def test_every_imported_name_is_used(name):
    assert unused_imports(parse(SRC / name)) == set()


@pytest.mark.parametrize("name", SCRIPTS)
def test_every_name_a_test_or_demo_imports_is_used(name):
    assert unused_imports(parse(ROOT / name)) == set()


def test_every_module_is_read():
    # an empty glob would pass every test above
    assert {"__init__.py", "cli.py", "fstruct.py", "jet.py"} <= set(MODULES)
    assert {"tests/test_names.py", "demos/03_f_structure.py"} <= set(SCRIPTS)
