"""The quagd package needs nothing beyond the standard library.

Every import that runs when a module is imported (outside a function, and
outside the body of a try that catches ImportError) must name a standard
library module or quagd itself; an optional dependency is imported lazily
or behind such a guard.  And every name a module imports, it reads: the
package's __init__, whose imports are its public names, aside.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quagd"


def _catches_import_error(handler: ast.ExceptHandler) -> bool:
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(
        isinstance(t, ast.Name) and t.id in ("ImportError", "ModuleNotFoundError")
        for t in types
    )


def _eager_imports(nodes):
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.Try) and any(
            map(_catches_import_error, node.handlers)
        ):
            yield from _eager_imports([*node.handlers, *node.orelse, *node.finalbody])
        else:
            yield from _eager_imports(ast.iter_child_nodes(node))


def _roots(node) -> list[str]:
    if isinstance(node, ast.ImportFrom):
        return ["quagd" if node.level else node.module.split(".")[0]]
    return [alias.name.split(".")[0] for alias in node.names]


def test_eager_imports_are_standard_library():
    seen = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _eager_imports([tree]):
            seen.update((path.name, root) for root in _roots(node))
    assert seen, "no imports found"
    allowed = sys.stdlib_module_names | {"quagd"}
    assert sorted((name, root) for name, root in seen if root not in allowed) == []


def _unused_imports(tree) -> list[str]:
    """The names the module's imports bind that no expression reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
    return sorted(bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})


def test_every_imported_name_is_read():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            unused[path.name] = _unused_imports(tree)
    assert len(unused) > 1, "no modules found"
    assert {name: names for name, names in unused.items() if names} == {}
