"""unused-import: every imported name is read somewhere in its file.

A name bound by ``import`` / ``from ... import`` and never referenced
is dead weight that still costs an import at start-up and misleads a
reader about a module's dependencies. A name counts as used when it
appears anywhere in the file — as a name, an attribute base, inside a
string annotation, or in ``__all__`` — so the rule only flags names
nothing can reach. Package ``__init__.py`` files re-export by design
and are skipped; an import kept for its side effect takes
``# repro: allow(unused-import)``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.analysis.engine import FileContext, Finding, Rule


def _bindings(tree: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    """``(import node, bound name)`` for every name an import binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node, alias.asname or alias.name


def _annotation_names(annotation: ast.AST) -> Iterator[str]:
    """Names read by an annotation, including quoted forward references."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(parsed)


def _used_names(tree: ast.AST) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(
                item.value
                for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            )
    return used


class UnusedImportRule(Rule):
    id = "unused-import"
    description = (
        "every imported name must be referenced in its file (package "
        "__init__.py re-exports and __all__ names are exempt)"
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        if ctx.path.name == "__init__.py":
            return []
        used = _used_names(ctx.tree)
        return [
            self.finding(ctx, node, f"{name!r} is imported but never used")
            for node, name in _bindings(ctx.tree)
            if name not in used
        ]
