"""Spans recorded around calls into each layer, and self-time attribution.

A span is one timed call from the benchmark into a layer of the program:
a name (which is also the per-layer metric its self time is reported
under), a start and end on ``time.perf_counter`` (``CLOCK_MONOTONIC`` on
Linux, so pool workers and the parent share one timeline), the span it
nests in, the cell it belongs to and the process that recorded it.

Self time follows the choosing-metrics rule: a span's duration minus
the part of it that its child spans cover.  Spans of different worker
processes overlap in time, so :func:`attribute` shares every instant
equally among the innermost spans active at that instant; the shares
then sum to the wall time of the root span, and the root's own share is
the time no layer span covered ("other").
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Iterator


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    cell: str | None = None
    pid: int = 0


class Recorder:
    """Collects spans and counters for one process.

    Disarmed (``traced=False``) it records nothing: :meth:`span` hands
    back a shared no-op context manager and :meth:`count` returns at
    once, so the timed runs pay a few attribute lookups per layer call.
    """

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._cell: str | None = None
        self._null = nullcontext()

    def span(self, name: str, cell: str | None = None):
        if not self.traced:
            return self._null
        return self._span(name, cell)

    @contextmanager
    def _span(self, name: str, cell: str | None) -> Iterator[None]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        outer_cell = self._cell
        if cell is not None:
            self._cell = cell
        record = Span(sid, parent, name, time.perf_counter(), 0.0, self._cell, os.getpid())
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            self._cell = outer_cell

    def count(self, name: str, n: float = 1) -> None:
        if self.traced:
            self.counters[name] = self.counters.get(name, 0) + n

    def current(self) -> int | None:
        """Id of the innermost open span (``None`` outside any span)."""
        return self._stack[-1] if self._stack else None

    def ingest(self, spans: list[Span], counters: dict[str, float], parent: int | None) -> None:
        """Adopt spans and counters recorded by another process.

        Span ids are renumbered into this recorder; spans that were
        roots over there become children of ``parent`` (the pool call
        that produced them).
        """
        if not self.traced:
            return
        offset = len(self.spans)
        for span in spans:
            self.spans.append(
                Span(
                    span.sid + offset,
                    parent if span.parent is None else span.parent + offset,
                    span.name,
                    span.start,
                    span.end,
                    span.cell,
                    span.pid,
                )
            )
        for name, n in counters.items():
            self.count(name, n)


def _depth(span: Span, by_id: dict[int, Span]) -> int:
    depth = 0
    while span.parent is not None:
        span = by_id[span.parent]
        depth += 1
    return depth


def attribute(spans: list[Span], root: Span) -> tuple[dict[str, float], dict[str, float]]:
    """Self time per span name over ``root``'s interval.

    Returns ``(share, busy)``.  ``share`` splits every instant equally
    among the innermost spans active then, so its values sum to
    ``root.end - root.start``; the root's name collects the time no
    other span covered.  ``busy`` gives each innermost span the whole
    instant, so overlapping worker spans each count in full: it is the
    per-process time a layer spent, the base for per-event rates.
    """
    by_id = {span.sid: span for span in spans}
    depth = {span.sid: _depth(span, by_id) for span in spans}
    events = []
    for span in spans:
        start = max(span.start, root.start)
        end = min(span.end, root.end)
        if end <= start:  # covers no time (and its children none either)
            continue
        # At one instant: ends before starts, inner ends first, outer
        # starts first, so a parent is always open before its child.
        events.append((start, 1, depth[span.sid], span.sid))
        events.append((end, 0, -depth[span.sid], span.sid))
    events.sort()
    active_children: dict[int, int] = {}
    active: set[int] = set()
    leaves: set[int] = set()
    share: dict[str, float] = {}
    busy: dict[str, float] = {}
    for i, (at, kind, _, sid) in enumerate(events):
        parent = by_id[sid].parent
        if kind == 1:
            active.add(sid)
            active_children[sid] = 0
            leaves.add(sid)
            if parent in active:
                active_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in active:
                active_children[parent] -= 1
                if active_children[parent] == 0:
                    leaves.add(parent)
        if i + 1 < len(events) and leaves:
            dt = events[i + 1][0] - at
            if dt > 0:
                part = dt / len(leaves)
                for leaf in leaves:
                    name = by_id[leaf].name
                    share[name] = share.get(name, 0.0) + part
                    busy[name] = busy.get(name, 0.0) + dt
    return share, busy
