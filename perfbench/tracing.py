"""Counting and timing wrappers around the program's public functions.

Each wrapper replaces a name in the module that looks it up at call time
(linetrack.solver.cost_and_gradient, linetrack.cli.read_frame_csv, ...),
so the program itself is never edited. A call records one span: the
layer, the wrapped name, its parent span, start and end. Spans stay in
memory; per-layer figures are reduced from them after the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    layer: str
    name: str
    parent: int
    t0: float
    t1: float = 0.0
    info: Any = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _targets: list[tuple[Any, str, str, Callable | None]] = field(default_factory=list)

    def add(self, module, attr: str, layer: str, info: Callable | None = None) -> None:
        """Trace module.attr as part of layer; info(args, result) adds detail."""
        self._targets.append((module, attr, layer, info))

    def _wrap(self, inner: Callable, attr: str, layer: str, info: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            span = Span(layer, attr, stack[-1] if stack else -1, time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = inner(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for module, attr, layer, info in self._targets:
                inner = getattr(module, attr)
                saved.append((module, attr, inner))
                setattr(module, attr, self._wrap(inner, attr, layer, info))
            yield self
        finally:
            for module, attr, inner in reversed(saved):
                setattr(module, attr, inner)

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.t1 - s.t0 for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.t1 - s.t0
        return own

    def write(self, path: Path) -> None:
        names = sorted({(s.layer, s.name) for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        base = self.spans[0].t0 if self.spans else 0.0
        doc = {
            "names": [list(n) for n in names],
            "spans": [
                [index[(s.layer, s.name)], s.parent,
                 round((s.t0 - base) * 1e6, 1), round((s.t1 - base) * 1e6, 1)]
                for s in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))
