"""The package namespace: lazy, complete, and the submodules' own objects."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weilzeta

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_is_its_submodules_object():
    for name in weilzeta.__all__:
        if name == "__version__":
            continue
        home = f"weilzeta.{weilzeta._SOURCE[name]}"
        module = importlib.import_module(home)
        value = getattr(weilzeta, name)
        if name == weilzeta._SOURCE[name]:
            assert value is module
        else:
            assert value is getattr(module, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == home, name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from weilzeta import *", namespace)
    assert set(weilzeta.__all__) <= set(namespace)
    assert set(weilzeta.__all__) <= set(dir(weilzeta))


@pytest.mark.parametrize("name", ["no_such_name", "same_number", "enumerate_field",
                                  "FieldSpec", "FFElement"])
def test_unknown_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(weilzeta, name)
    assert not hasattr(weilzeta, name)


def test_import_loads_no_submodule():
    # a fresh interpreter, since this one has loaded every submodule already
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, weilzeta; print(sorted(m for m in sys.modules if 'weilzeta' in m))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == ["['weilzeta']"]


def _scopes(path, matches):
    """Dotted names of the scopes in a source file that hold a node for
    which matches is true."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            name = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{where}.{child.name}"
            if matches(child):
                found.append(name)
            visit(child, name)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def _fractions_imports(path):
    """Dotted names of the scopes in a source file that import fractions."""
    return _scopes(path, lambda node: (
        isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] == "fractions" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "fractions"))


def _tests_for_int(node):
    """An isinstance call whose second argument is int or a tuple holding it."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        return False
    kinds = node.args[1]
    return any(isinstance(kind, ast.Name) and kind.id == "int"
               for kind in (kinds.elts if isinstance(kinds, ast.Tuple) else (kinds,)))


def test_fractions_is_imported_only_where_lattice_literals_enter():
    # a Fraction is read only at the input doors (realalg's fields and
    # elements, pseudolattice._rational) and returned by no library
    # function; only the lattice parser builds one, from its literals
    sites = [site for path in sorted((ROOT / "src" / "weilzeta").glob("*.py"))
             for site in _fractions_imports(path)]
    assert sites == ["pseudolattice._rational"]


def test_only_errors_checks_that_an_argument_is_an_int():
    # every integer argument goes through errors.check_int or check_ints;
    # realalg._is_rational also takes Fractions, and HeckeLikeMatrix words
    # its entry check together with the sign
    paths = sorted((ROOT / "src" / "weilzeta").glob("*.py"))
    sites = [site for path in paths for site in _scopes(path, _tests_for_int)]
    assert sites == ["dimgroup.HeckeLikeMatrix.__init__", "errors.check_int",
                     "errors.check_ints", "realalg._is_rational"]
    defined = {node.name for path in paths
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert not defined & {"as_int", "_ints", "_int_args"}


def test_integer_kernels_read_no_numerator_or_denominator():
    # qpoly, qlinalg and zeta take ints alone, so nothing in them reads a
    # Fraction's parts; the doors above turn rationals into ints first
    sites = []
    for stem in ("qpoly", "qlinalg", "zeta"):
        path = ROOT / "src" / "weilzeta" / f"{stem}.py"
        sites += [f"{stem}.py:{node.lineno}"
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator")]
    assert sites == []


def test_only_data_lines_splits_input_into_lines():
    # every parser reads its lines from errors.data_lines, which bounds each
    # number before int() reads it; a parser that split its own lines would
    # bypass the bound
    sites = []
    for path in sorted((ROOT / "src" / "weilzeta").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [node for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "splitlines":
                inner = max((d for d in defs if d.lineno <= node.lineno <= d.end_lineno),
                            key=lambda d: d.lineno, default=None)
                sites.append(f"{path.stem}.{inner.name if inner else '<module>'}")
    assert sites == ["errors.data_lines"]


def test_private_names_cross_modules_only_where_pinned():
    # a private name that another module imports is part of a protocol
    # between the two; qpoly gets its modular factors from one Berlekamp
    # call and shares only polynomial helpers, so ffield's matrix stays in
    # ffield
    imports = set()
    for path in sorted((ROOT / "src" / "weilzeta").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imports.update((path.stem, node.module, alias.name) for alias in node.names
                               if alias.name.startswith("_"))
    assert imports == {("qpoly", "ffield", "_berlekamp"), ("qpoly", "ffield", "_pmod"),
                       ("qpoly", "ffield", "_pmul"), ("qpoly", "ffield", "_ppowmod"),
                       ("variety", "ffield", "_ppowmod")}


def test_no_module_imports_ffield_at_module_level():
    # ffield is F_p[x] code: variety imports it only for F_{p^m} with
    # m >= 2, qpoly only for its modular factors, and every module tests
    # primality with primes, so prime-field counts, cm, and lattice and
    # dimgroup jobs that factor no cubic never compile it
    importers = set()
    for path in sorted((ROOT / "src" / "weilzeta").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "ffield":
                importers.add(path.stem)
    assert importers == set()


def test_every_private_definition_has_a_caller():
    # a top-level def or class outside __all__ must be used somewhere in
    # src; one that only tests call, or that a move left behind, fails here
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "weilzeta").glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    orphans = [f"{module}.{node.name}" for module, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name not in weilzeta.__all__ and node.name not in used
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert orphans == []
