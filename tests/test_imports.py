"""Source hygiene: every module-level import of the package is used, no
function imports locally, every module-level private function is
referenced, every public function or class is exported or referenced,
the package exports exactly what it imports, and importing it loads
no pool, queue or process module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kcontact

SOURCES = sorted(Path(kcontact.__file__).parent.glob("*.py"))


def unused_imports(path):
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    # names re-exported through __all__ count as used
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def names_used(tree):
    """Names and attribute names a module reads."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def orphans(kinds, public):
    """Module-level definitions of `kinds`, public or private, whose name
    no module of the package reads."""
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    used = set().union(*map(names_used, trees.values()))
    return [f"{name}: {node.name}" for name, tree in trees.items()
            for node in tree.body
            if isinstance(node, kinds)
            and node.name.startswith("_") != public
            and not node.name.startswith("__")
            and node.name not in used]


def test_no_orphan_private_functions():
    assert orphans(ast.FunctionDef, public=False) == []


def test_no_orphan_public_names():
    # a public function or class is exported or used in the package
    assert [name for name in orphans((ast.FunctionDef, ast.ClassDef),
                                     public=True)
            if name.split(": ")[1] not in kcontact.__all__] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    tree = ast.parse(path.read_text())
    local = [f"{fn.name} (line {node.lineno})"
             for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert local == []


def test_all_is_exactly_the_imported_names():
    # a name deleted from a module cannot linger in __all__
    tree = ast.parse(Path(kcontact.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert len(kcontact.__all__) == len(set(kcontact.__all__))
    assert set(kcontact.__all__) == imported


def test_import_loads_no_process_or_pool_module():
    # trace walks run on `threading`, which numpy already loads; the pool,
    # queue and process modules would add to every command's start-up
    code = ("import sys, kcontact; print(' '.join(name for name in "
            "sys.modules if name.split('.')[0] in "
            "('concurrent', 'multiprocessing', 'queue')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(
                             sys.path)}).stdout
    assert out.split() == []
