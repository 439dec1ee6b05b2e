"""Every module-level import in the package and its tests is read somewhere
in its module.

No linter ships with the project, so this AST scan stands in for one on the
rule that matters most for a package that deletes code: an import whose last
reader is gone must go too.  Exempt are ``from __future__`` imports, the
re-exports of ``__init__.py`` and names listed in ``__all__``.
"""

import ast
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
