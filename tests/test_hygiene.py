"""Source-wide checks: no floating point anywhere in the package, no
``assert`` statement, every name a module exports in ``__all__`` exists,
``fractions`` imported only where rows meet ``Fraction`` values, no push
through ``vec_matmul`` and no ``Fraction`` row view outside ``exactla``,
no toward/from test of a step outside ``lattice``, no private
``lls_core`` name used outside it, no subspace built or reduced past
``exactla``'s public operations, one candidate stream in ``generator``,
and importing the package leaves the slow-to-load standard modules out."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import llschain

SOURCES = sorted(Path(llschain.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floating_point(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant):
            assert not isinstance(node.value, (float, complex)), f"{where}: {node.value!r}"
        elif isinstance(node, ast.Name):
            assert node.id != "float", f"{where}: uses float"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            # On the integer rows inside exactla, ``a / b`` would silently
            # make a float: exact code divides with ``//`` or ``Fraction``.
            assert not isinstance(node.op, ast.Div), f"{where}: true division"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # ``python -O`` strips asserts, so a check the package relies on must
    # raise explicitly.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_exports_resolve(path):
    name = "llschain" if path.stem == "__init__" else f"llschain.{path.stem}"
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing {missing}"


# ``exactla`` keeps rows as integers over denominators and reads and builds
# ``Fraction`` values at its edge.  Every other module works on the stored
# rows.
FRACTION_MODULES = {"exactla.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_fractions_imported_only_at_the_row_boundary(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module and not node.level}
    assert "fractions" not in imported or path.name in FRACTION_MODULES, path.name


def _names(path) -> set[str]:
    """Every name a module's code reads, as a name, an attribute or an
    imported name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_pushes_stay_integer(path):
    # ``vec_matmul`` turns a ``Fraction`` row into integers and builds
    # ``Fraction``s again; library pushes multiply stored-form matrices.
    assert "vec_matmul" not in _names(path) or path.name == "exactla.py", path.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_rows_stay_stored(path):
    # Past the file reader, certificate sections, witnesses and every other
    # row the library holds are stored-form rows, so no module but
    # ``exactla`` builds the ``Fraction`` view of a matrix or names its type.
    viewed = _names(path) & {"row_list", "entries", "Vector"}
    assert not viewed or path.name == "exactla.py", (path.name, viewed)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_landing_rule_stays_in_lattice(path):
    # Where an image along a step lands is ``Direction.lands_in``; no other
    # module tells toward steps from from steps for itself.
    assert "is_toward" not in _names(path) or path.name == "lattice.py", path.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_file_format_stays_in_lls_core(path):
    # ``lls_core`` is the one module that knows the file format; the others
    # reach it through public names only.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.module or "").endswith("lls_core") for alias in node.names}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "lls_core"}
    private = sorted(n for n in used if n.startswith("_") and not n.startswith("__"))
    assert not private or path.name == "lls_core.py", (path.name, private)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_subspaces_are_built_inside_exactla(path):
    # Every subspace is made, and every vector reduced, by ``exactla``'s
    # public operations (a sum of several spaces is ``Subspace.sum``), so no
    # other module stacks rows or reads residual steps itself.
    private = _names(path) & {"_subspace", "_relations", "_residuals"}
    assert not private or path.name == "exactla.py", (path.name, private)


def test_one_candidate_stream_in_the_generator():
    # Every seeded space inside a linking freedom comes from ``_candidates``,
    # so only it reads coefficient blocks or rank-checks them.
    path = Path(llschain.__file__).parent / "generator.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    readers = {top.name for top in tree.body if isinstance(top, ast.FunctionDef)
               for node in ast.walk(top)
               if isinstance(node, ast.Name) and node.id in {"_blocks", "_eliminate"}}
    assert readers == {"_candidates"}, readers


def test_import_skips_slow_stdlib_modules():
    # Every CLI stage is a fresh process that pays for this import first.
    # ``-S`` keeps the environment's ``site`` imports out of the picture.
    code = ("import llschain, sys; "
            "print(sorted({'dataclasses', 'inspect', 'argparse'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(llschain.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
