"""Project symbol table primitives: module naming and per-module bindings.

The whole-program layer needs two things the per-file rules never did:
a stable **module name** for every file (``src/repro/core/features.py``
→ ``repro.core.features``) so imports can be resolved across files, and
the full **binding table** of each module — every top-level name and
what it is (a function, a class, an import of something else, a plain
variable).  Import bindings carry the *absolute* dotted target (relative
imports are resolved against the module's package), which is what lets
the call-graph resolver follow re-export chains like ``repro.obs``
re-exporting :class:`~repro.obs.instrument.Instrumentation`.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import PurePosixPath

from ..records import Record

__all__ = ["Binding", "module_name_for", "collect_bindings"]

#: Directory names stripped from the front of a module path: source
#: roots, not package levels.
_SOURCE_ROOTS = ("src",)


def module_name_for(relpath: str) -> tuple[str, bool]:
    """(dotted module name, is_package) for a project-relative path.

    ``src/repro/obs/__init__.py`` → (``repro.obs``, True);
    ``tests/core/test_roi.py`` → (``tests.core.test_roi``, False).
    """
    parts = list(PurePosixPath(relpath).with_suffix("").parts)
    while parts and parts[0] in _SOURCE_ROOTS:
        parts = parts[1:]
    is_package = bool(parts) and parts[-1] == "__init__"
    if is_package:
        parts = parts[:-1]
    return ".".join(parts), is_package


@dataclasses.dataclass(frozen=True)
class Binding(Record):
    """One top-level name in a module.

    ``kind`` is ``func`` / ``class`` / ``import`` / ``var``; ``target``
    is the absolute dotted path for imports, else None.
    """

    kind: str
    line: int
    target: str | None = None


def _import_base(module: str, is_package: bool, level: int, from_module: str | None) -> str:
    """Absolute dotted prefix for a (possibly relative) ``from`` import."""
    if level == 0:
        return from_module or ""
    package_parts = module.split(".") if is_package else module.split(".")[:-1]
    # level 1 = current package, each extra level climbs one package up.
    if level > 1:
        package_parts = package_parts[: len(package_parts) - (level - 1)]
    base = ".".join(package_parts)
    if from_module:
        base = f"{base}.{from_module}" if base else from_module
    return base


def collect_bindings(
    tree: ast.Module, module: str, is_package: bool
) -> tuple[dict[str, Binding], list[str] | None]:
    """Top-level bindings plus the literal ``__all__`` (None if absent).

    Later bindings of the same name win, matching runtime semantics.
    """
    bindings: dict[str, Binding] = {}
    exports: list[str] | None = None
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    bindings[alias.asname] = Binding("import", node.lineno, alias.name)
                else:
                    top = alias.name.split(".")[0]
                    bindings[top] = Binding("import", node.lineno, top)
        elif isinstance(node, ast.ImportFrom):
            base = _import_base(module, is_package, node.level, node.module)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                target = f"{base}.{alias.name}" if base else alias.name
                bindings[local] = Binding("import", node.lineno, target)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bindings[node.name] = Binding("func", node.lineno)
        elif isinstance(node, ast.ClassDef):
            bindings[node.name] = Binding("class", node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "__all__" and isinstance(value, (ast.List, ast.Tuple)):
                    literal = [
                        el.value
                        for el in value.elts
                        if isinstance(el, ast.Constant) and isinstance(el.value, str)
                    ]
                    exports = literal
                bindings.setdefault(target.id, Binding("var", node.lineno))
    return bindings, exports
