"""Spans around the calls the program makes between its own modules.

The tracer replaces module attributes (``shorcompile.cli.full_compile``,
``shorcompile.synth.plan_cascades``, ...) with timing wrappers, so every
call that goes through that name records a span: layer name, op index,
parent span, start and end. Spans stay in memory until ``write``. The
program's source is untouched; ``uninstall`` restores every attribute.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        # [name, op, parent index or -1, start, end]
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, self.op, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][4] = time.perf_counter()

    def patch(self, module, attr: str, name: str, on_result=None) -> None:
        """Record a span named ``name`` on every call through ``module.attr``."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def count_calls(self, module, attr: str, name: str) -> None:
        """Count calls through ``module.attr`` without timing them."""
        fn = getattr(module, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(module, attr, counted)
        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def total_ms(self, name: str) -> float:
        return 1e3 * sum(s[4] - s[3] for s in self.spans if s[0] == name)

    def self_ms(self, name: str) -> float:
        """Duration of ``name`` spans minus the time their direct children cover."""
        total = sum(s[4] - s[3] for s in self.spans if s[0] == name)
        for s in self.spans:
            if s[2] >= 0 and self.spans[s[2]][0] == name:
                total -= s[4] - s[3]
        return 1e3 * total

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, op, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "op": op, "parent": parent,
                                     "start": start, "end": end}) + "\n")
