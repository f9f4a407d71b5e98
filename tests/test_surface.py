"""The library exports what the command line, the benchmark and the
documented API use, and importing it loads only what it needs.

A public function or class of a `dejean` module must be in `dejean.__all__`
or be referenced from library code outside its own definition, or from the
benchmark harness in `perfbench/`.  Tests do not count: a helper only tests
need belongs in the test module that uses it.

`import dejean` loads every module of the package, eagerly, and none of the
standard-library modules that only some calls need.
"""

import ast
import subprocess
import sys
from pathlib import Path

import dejean

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dejean"


def docstrings(tree):
    """The docstring nodes of a module and of its functions and classes."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def references(node, skip=()):
    """Names read in node: identifiers, attribute names, and strings equal to
    a name (as getattr and monkeypatching use them), leaving out docstrings
    and the subtrees in skip."""
    skipped = {id(n) for s in skip for n in ast.walk(s)}
    skipped |= {id(d) for d in docstrings(node)}
    out = set()
    for n in ast.walk(node):
        if id(n) in skipped:
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.add(n.value)
    return out


def public_definitions():
    """(module name, definition node, module tree) for every public
    top-level function and class of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    yield path.stem, node, tree


def test_every_public_name_is_used_or_exported():
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    trees.pop("__init__")
    bench = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        bench |= references(ast.parse(path.read_text()))
    unused = []
    for module, node, tree in public_definitions():
        if node.name in dejean.__all__ or node.name in bench:
            continue
        used = node.name in references(tree, skip=[node]) or any(
            node.name in references(other)
            for name, other in trees.items()
            if name != module
        )
        if not used:
            unused.append(f"{module}.{node.name}")
    assert not unused, f"unexported, with no library or benchmark caller: {unused}"


def test_the_guard_sees_definitions_and_references():
    names = {f"{module}.{node.name}" for module, node, _ in public_definitions()}
    assert {"carpi.make_table", "verifier.binary_avoidance_longest"} <= names
    source = '''"""mentions a"""
def f():
    """mentions b"""
    return c.d, "e"
'''
    assert references(ast.parse(source)) == {"c", "d", "e"}


# standard-library modules that only some calls need
DEFERRED_STDLIB = (
    "multiprocessing", "concurrent.futures", "json", "dataclasses", "inspect", "pathlib",
)


def modules_after(statement):
    """The names in sys.modules after statement, in a fresh interpreter run
    without site, so only the statement's own imports are counted."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); {statement}; "
            "print(' '.join(sorted(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, check=True)
    return set(done.stdout.split())


def test_import_loads_the_package_but_no_deferred_stdlib():
    submodules = {f"dejean.{p.stem}" for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    library = modules_after("import dejean")
    assert library >= submodules - {"dejean.cli"}
    assert not library & set(DEFERRED_STDLIB)
    cli = modules_after("import dejean.cli")
    assert cli >= submodules
    assert cli & set(DEFERRED_STDLIB) == {"json"}


def test_no_module_defers_its_names_or_uses_dataclasses():
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        assert "__getattr__" not in defined, path.name
        imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
        imported |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        assert "dataclasses" not in imported, path.name


def unread_imports(tree):
    """Names a module imports at top level, leaving out __future__, that it
    never reads."""
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return imported - read


def test_every_import_is_read():
    unread = {
        path.stem: sorted(names)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
        and (names := unread_imports(ast.parse(path.read_text())))
    }
    assert not unread, f"imported but never read: {unread}"


def test_the_import_guard_sees_unread_names():
    source = """from __future__ import annotations
import os.path
from a import b, c as d
import e
def f(x: b) -> None:
    return os.sep
"""
    assert unread_imports(ast.parse(source)) == {"d", "e"}
