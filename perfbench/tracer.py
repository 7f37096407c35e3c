"""In-memory span tracer driven from outside the program.

The benchmark wraps the program's public entry points (module
functions and class methods) with span recorders; nothing under
``src/`` knows it is traced. A span is ``(name, start, end, parent,
request id, thread)``; parents are tracked per thread, so a layer's
self time is its span minus the spans nested directly inside it.
Spans stay in memory and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        """``[name, start_s, end_s, parent_index, request_id, thread_id]``."""
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request_id: Optional[int] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = [name, time.perf_counter(), 0.0, parent, request_id, threading.get_ident()]
        self.spans.append(record)  # list.append is atomic under the GIL
        index = len(self.spans) - 1
        # The index of our own record: another thread may append in
        # between, so look it up by identity from the end.
        while self.spans[index] is not record:
            index -= 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(index)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def summary(self, exclude: Tuple[str, ...] = ()) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, ``total_s`` and ``self_s``.

        Spans nested (at any depth) inside a span named in ``exclude``
        are left out; the excluded span itself is kept.
        """
        child_time = [0.0] * len(self.spans)
        skipped = [False] * len(self.spans)
        for index, (name, start, end, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                # A parent always begins, so is appended, before its children.
                skipped[index] = skipped[parent] or self.spans[parent][0] in exclude
                if end:
                    child_time[parent] += end - start
        result: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _, _, _) in enumerate(self.spans):
            if not end or skipped[index]:
                continue
            entry = result.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return result

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request_id, thread in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent,
                         "rid": request_id, "thread": thread},
                        allow_nan=False,
                    )
                    + "\n"
                )


def wrap_kernels(tracer: Tracer) -> None:
    """The conv lowering, under both of its bindings."""
    import repro.quant.integer as quant_integer
    import repro.tensor.functional as functional

    tracer.wrap(functional, "conv2d", "tensor.functional.conv2d")
    tracer.wrap(functional, "im2col", "tensor.functional.im2col")
    tracer.wrap(functional, "col2im", "tensor.functional.col2im")
    # quant.integer imported im2col by name: wrap that binding too.
    tracer.wrap(quant_integer, "im2col", "tensor.functional.im2col")
