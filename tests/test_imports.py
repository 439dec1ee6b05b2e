"""Every module-level import in the package and its tests is read somewhere
in its module, every module-level private name of the package is read
somewhere in the package, every name a package module lists in
``__all__`` exists, and :mod:`homlab.spectral` imports nothing from the
package but ``config`` and ``errors``.

No linter ships with the project, so these AST scans stand in for one on the
rule that matters most for a package that deletes code: an import or a
private helper whose last reader is gone must go too.  Exempt from the
import scan are ``from __future__`` imports, the re-exports of
``__init__.py`` and names listed in ``__all__``.
"""

import ast
import importlib
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "homlab"


def _imports(body):
    """Imports among module-level statements, also under ``if``/``try``."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            yield from _imports(node.body + node.orelse
                                + getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                yield from _imports(handler.body)


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= _exported(tree)
    unused = []
    for node in _imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read:
                unused.append(bound)
    return unused


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                  if p.name != "__init__.py"]
                         + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os"]
    assert unused_imports("from __future__ import annotations\n"
                          "from a import b\n__all__ = ['b']\n") == []


def _private_definitions(tree):
    """Private names (one leading underscore) that module-level statements
    bind: functions, classes and assigned constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names
                    if name.startswith("_") and not name.startswith("__"))


def unread_private_names(sources):
    """Module-level private names defined in ``sources`` (module name ->
    source) that no source reads, as a bare name, an attribute or an
    imported name."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, name) for name in _private_definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.asname or node.name)
    return [f"{module}.{name}" for module, name in defined
            if name not in read]


def test_no_unread_private_names_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_the_scan_sees_an_unread_private_name():
    sources = {
        "a": "_LIMIT = 3\n_T: int = 0\nclass _Box: pass\n"
             "def _used(): return _LIMIT\ndef __dunder(): pass\n",
        "b": "from a import _used\nimport a\nprint(a._T)\n",
    }
    assert unread_private_names(sources) == ["a._Box"]


@pytest.mark.parametrize("stem", sorted(p.stem for p in PACKAGE.glob("*.py")
                                        if p.stem != "__main__"))
def test_every_all_entry_resolves(stem):
    """The import scan trusts ``__all__``, so a stale entry would hide."""
    module = importlib.import_module(
        "homlab" if stem == "__init__" else f"homlab.{stem}")
    assert [name for name in getattr(module, "__all__", ())
            if not hasattr(module, name)] == []


def package_imports(source):
    """The package's modules that ``source`` imports anywhere, relative
    (``from .fem import x``, ``from . import fem``) or absolute
    (``import homlab.fem``, ``from homlab import fem``), by their name in
    the package."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            base = (".".join(filter(None, ("homlab", node.module)))
                    if node.level else node.module or "")
            targets = ([f"{base}.{alias.name}" for alias in node.names]
                       if base == "homlab" else [base])
        elif isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        else:
            continue
        found |= {name.split(".")[1] for name in targets
                  if name.startswith("homlab.")}
    return found


def test_spectral_reads_no_problem():
    """The eigensolver takes matrices, shifts and factors; the grids, the
    assembly and the problems stay out of it."""
    source = (PACKAGE / "spectral.py").read_text(encoding="utf-8")
    assert package_imports(source) <= {"config", "errors"}


def test_the_scan_sees_a_package_import():
    assert package_imports(
        "import numpy\nfrom .fem import quad_axes\nfrom . import grids\n"
        "import homlab.domain\nfrom homlab import analysis\n"
        "def f():\n    from .cholesky import c\n"
    ) == {"fem", "grids", "domain", "analysis", "cholesky"}
