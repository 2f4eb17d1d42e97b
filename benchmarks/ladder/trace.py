"""Span recorder for the traced pass of the ladder benchmark.

Spans are recorded *from outside* the program: the benchmark's ladder
drivers open one around each call into a ``repro`` layer. A span holds a
name, start, end, the id of the span that caused it and the workload id
all spans of one run share. They stay in memory and are written out
once, when the traced child exits.

A span's *self time* is its duration minus the part of that interval its
child spans cover, so nested and sibling children are each counted once
and a layer is never billed for the layers it calls.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    workload: str
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "workload": self.workload,
        }
        if self.attrs:
            row["attrs"] = self.attrs
        return row


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


class SpanRecorder:
    """In-memory spans for one workload run."""

    def __init__(
        self, workload: str, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._clock = clock
        self._open: List[int] = []
        self._children: Dict[Optional[int], List[Span]] = {}

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """Record the enclosed block as a child of the innermost open span."""
        span = Span(
            span_id=len(self.spans),
            name=name,
            start=self._clock(),
            end=float("nan"),
            parent=self._open[-1] if self._open else None,
            workload=self.workload,
            attrs=dict(attrs),
        )
        self._register(span)
        self._open.append(span.span_id)
        try:
            yield span
        finally:
            span.end = self._clock()
            self._open.pop()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        **attrs: object,
    ) -> Span:
        """Record a span whose times were measured elsewhere (for example
        a duration the program reports about itself)."""
        span = Span(
            len(self.spans), name, start, end, parent, self.workload, dict(attrs)
        )
        self._register(span)
        return span

    def _register(self, span: Span) -> None:
        self.spans.append(span)
        self._children.setdefault(span.parent, []).append(span)

    # -- queries -------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(span.duration for span in self.named(name))

    def self_time(self, span: Span) -> float:
        children = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in self._children.get(span.span_id, ())
        ]
        return span.duration - _covered([c for c in children if c[1] > c[0]])

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """``name -> {"count", "total_s", "self_s"}`` over all spans."""
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(
                span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += span.duration
            row["self_s"] += self.self_time(span)
        return table

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": self.workload,
                    "spans": [span.as_dict() for span in self.spans],
                    "by_name": self.by_name(),
                },
                handle,
                indent=1,
            )
