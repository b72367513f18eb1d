"""In-memory spans for the traced replay.

A span records (name, start, end, parent, op id). The op id of a span is
the id of the root span of the replayed op it belongs to, so two replays
of the same generated op stay apart; the root span carries the
workload's own op number in `label`. Spans live in a list
until the run ends, when :meth:`Tracer.dump` writes them out. Self time
is a span's duration minus the part of its interval that its direct
children cover; children of one parent never overlap here because the
replay is single-threaded, so their durations simply add up.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional


@dataclass
class Span:
    span_id: int
    name: str
    op_id: Optional[int]
    parent: Optional[int]
    start: float
    end: float = 0.0
    label: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans; `enabled=False` makes every span a no-op."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op_id: Optional[int] = None

    @contextmanager
    def op(self, op_number: int, kind: str) -> Iterator[None]:
        """Root span of one replayed operation; spans inside share its id."""
        if not self.enabled:
            yield
            return
        self._op_id = len(self.spans)
        try:
            with self.span(f"op.{kind}"):
                self.spans[self._op_id].label = op_number
                yield
        finally:
            self._op_id = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, self._op_id, parent, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp.span_id)
        try:
            yield
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[int, float]:
        """Self time (s) of every span, keyed by span id."""
        own = {sp.span_id: sp.duration for sp in self.spans}
        for sp in self.spans:
            if sp.parent is not None:
                own[sp.parent] -= sp.duration
        return own

    def durations(self, name: str) -> list[float]:
        return [sp.duration for sp in self.spans if sp.name == name]

    def per_op_totals(self, name: str) -> list[float]:
        """Summed duration of every `name` span within each op that has one."""
        totals: dict[Optional[int], float] = {}
        for sp in self.spans:
            if sp.name == name:
                totals[sp.op_id] = totals.get(sp.op_id, 0.0) + sp.duration
        return list(totals.values())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, median duration and total self time."""
        own = self.self_times()
        by_name: dict[str, list[Span]] = {}
        for sp in self.spans:
            by_name.setdefault(sp.name, []).append(sp)
        return {name: {"calls": len(sps),
                       "median_ms": 1e3 * statistics.median(s.duration for s in sps),
                       "self_total_ms": 1e3 * sum(own[s.span_id] for s in sps)}
                for name, sps in sorted(by_name.items())}

    def dump(self, path: Path, meta: dict) -> None:
        own = self.self_times()
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [{"id": sp.span_id, "name": sp.name, "op": sp.op_id, "label": sp.label,
                 "parent": sp.parent, "start_s": sp.start - t0,
                 "end_s": sp.end - t0, "self_s": own[sp.span_id]}
                for sp in self.spans]
        path.write_text(json.dumps({"meta": meta, "summary": self.summary(),
                                    "spans": rows}) + "\n")
