"""lock-discipline: guarded attributes, blocking-while-locked, raw acquire.

Three checks over the serving layer's threading conventions:

1. An attribute declared ``# guarded-by: <lock>`` (comment on its
   class-body or ``__init__`` assignment line) may only be read or
   written through ``self`` inside a ``with self.<lock>:`` block.
   ``__init__``/``__post_init__`` are exempt (no concurrent observers
   yet), as is any method whose name ends in ``_locked`` — the repo's
   convention for "caller holds the lock".
2. While any lock-ish context manager is held, no blocking calls:
   ``time.sleep``, ``.join()`` on thread-ish receivers, ``.get``/
   ``.put`` on queue-ish receivers. ``.wait()`` is deliberately NOT
   flagged — waiting on a Condition while holding it is the idiom.
3. Raw ``.acquire()``/``.release()`` on lock-ish receivers is flagged
   in favor of ``with`` (un-droppable on exceptions).

Heuristics resolve receivers by *name*, so ``"".join`` and
``ModelLease.release()`` do not false-positive: only receivers whose
last name segment matches the lock-ish/thread-ish/queue-ish patterns
below are considered.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Tuple

from repro.analysis.engine import (
    _ATTR_DECL,
    GUARDED_BY_COMMENT,
    FileContext,
    Finding,
    Rule,
    receiver_name,
)

#: `cond`/`sem` only as whole name segments (word-ish boundaries), so
#: receivers like `second` or `assembly` never read as locks.
_LOCKISH = re.compile(
    r"lock|mutex|condition|semaphore|(?:^|_)cond(?:$|_)|(?:^|_)sem(?:$|_)",
    re.IGNORECASE,
)
_THREADISH = re.compile(r"thread|worker|supervisor|proc(ess)?$", re.IGNORECASE)
_QUEUEISH = re.compile(r"queue", re.IGNORECASE)

#: Methods where guarded attributes may be touched without the lock.
_EXEMPT_METHODS = {"__init__", "__post_init__", "__del__"}


def _lockish_name(name: Optional[str]) -> bool:
    return bool(name and _LOCKISH.search(name))


def _with_item_lock(item: ast.withitem) -> Optional[str]:
    """The attribute/name a ``with`` item holds, if it looks lock-ish.

    Matches ``with self._lock:``, ``with engine._cond:``, and bare
    ``with lock:`` — anything whose final name segment is lock-ish.
    """
    expr = item.context_expr
    if isinstance(expr, ast.Attribute) and _lockish_name(expr.attr):
        return expr.attr
    if isinstance(expr, ast.Name) and _lockish_name(expr.id):
        return expr.id
    return None


class LockDisciplineRule(Rule):
    id = "lock-discipline"
    description = (
        "guarded-by attributes only under their lock; no blocking calls "
        "while holding a lock; no raw acquire()/release()"
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        guarded_by_class = self._guarded_declarations(ctx)
        for class_node, guarded in guarded_by_class:
            self._check_guarded_class(ctx, class_node, guarded, findings)
        self._check_blocking_and_raw(ctx, ctx.tree, frozenset(), findings)
        return sorted(findings)

    # -- check 1: guarded-by declarations ------------------------------
    def _guarded_declarations(
        self, ctx: FileContext
    ) -> List[Tuple[ast.ClassDef, Dict[str, str]]]:
        """Per-class ``{attr: lockname}`` maps from guarded-by comments,
        attributed to the innermost class spanning the comment line."""
        classes = [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef)
        ]
        declarations: Dict[int, Dict[str, str]] = {}
        for lineno, line in enumerate(ctx.lines, start=1):
            guard = GUARDED_BY_COMMENT.search(line)
            if not guard:
                continue
            attr = _ATTR_DECL.search(line.split("#", 1)[0])
            if not attr:
                continue
            owner = None
            for cls in classes:
                end = getattr(cls, "end_lineno", cls.lineno)
                if cls.lineno <= lineno <= end:
                    if owner is None or cls.lineno > owner.lineno:
                        owner = cls
            if owner is not None:
                declarations.setdefault(id(owner), {})[attr.group(1)] = guard.group(1)
        return [
            (cls, declarations[id(cls)])
            for cls in classes
            if id(cls) in declarations
        ]

    def _check_guarded_class(
        self,
        ctx: FileContext,
        class_node: ast.ClassDef,
        guarded: Dict[str, str],
        findings: List[Finding],
    ) -> None:
        for node in class_node.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name in _EXEMPT_METHODS or node.name.endswith("_locked"):
                continue
            self._check_guarded_body(ctx, node, guarded, frozenset(), findings)

    def _check_guarded_body(
        self,
        ctx: FileContext,
        node: ast.AST,
        guarded: Dict[str, str],
        held: frozenset,
        findings: List[Finding],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            child_held = held
            if isinstance(child, (ast.With, ast.AsyncWith)):
                acquired = {
                    lock
                    for lock in (_with_item_lock(item) for item in child.items)
                    if lock
                }
                child_held = held | frozenset(acquired)
            elif (
                isinstance(child, ast.Attribute)
                and isinstance(child.value, ast.Name)
                and child.value.id == "self"
                and child.attr in guarded
                and guarded[child.attr] not in held
            ):
                findings.append(
                    self.finding(
                        ctx,
                        child,
                        f"`self.{child.attr}` is declared `# guarded-by: "
                        f"{guarded[child.attr]}` but accessed without "
                        f"holding `self.{guarded[child.attr]}`",
                    )
                )
            self._check_guarded_body(ctx, child, guarded, child_held, findings)

    # -- checks 2 + 3: blocking-while-locked, raw acquire/release ------
    def _check_blocking_and_raw(
        self,
        ctx: FileContext,
        node: ast.AST,
        held: frozenset,
        findings: List[Finding],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            child_held = held
            if isinstance(child, (ast.With, ast.AsyncWith)):
                acquired = {
                    lock
                    for lock in (_with_item_lock(item) for item in child.items)
                    if lock
                }
                child_held = held | frozenset(acquired)
            if isinstance(child, ast.Call):
                self._check_call(ctx, child, held, findings)
            self._check_blocking_and_raw(ctx, child, child_held, findings)

    def _check_call(
        self,
        ctx: FileContext,
        call: ast.Call,
        held: frozenset,
        findings: List[Finding],
    ) -> None:
        func = call.func
        # Raw acquire/release on a lock-ish receiver, held or not.
        if isinstance(func, ast.Attribute) and func.attr in ("acquire", "release"):
            base = func.value
            base_name = (
                base.id
                if isinstance(base, ast.Name)
                else base.attr
                if isinstance(base, ast.Attribute)
                else None
            )
            if _lockish_name(base_name):
                findings.append(
                    self.finding(
                        ctx,
                        call,
                        f"raw `{base_name}.{func.attr}()`; use a `with` "
                        "block so the lock is released on exceptions",
                    )
                )
                return
        if not held:
            return
        held_desc = "/".join(sorted(held))
        dotted = ctx.dotted(func)
        if dotted == "time.sleep":
            findings.append(
                self.finding(
                    ctx,
                    call,
                    f"`time.sleep` while holding `{held_desc}`; sleep "
                    "outside the lock or use Condition.wait(timeout=...)",
                )
            )
        elif isinstance(func, ast.Attribute):
            receiver = receiver_name(func)
            if func.attr == "join" and receiver and _THREADISH.search(receiver):
                findings.append(
                    self.finding(
                        ctx,
                        call,
                        f"blocking `{receiver}.join()` while holding "
                        f"`{held_desc}`; join after releasing the lock",
                    )
                )
            elif (
                func.attr in ("get", "put")
                and receiver
                and _QUEUEISH.search(receiver)
            ):
                findings.append(
                    self.finding(
                        ctx,
                        call,
                        f"blocking queue `{receiver}.{func.attr}()` while "
                        f"holding `{held_desc}`",
                    )
                )
