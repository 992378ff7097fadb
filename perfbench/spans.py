"""Spans around layer calls, recorded from the benchmark's own files.

:class:`Tracer` replaces a function or method attribute of a program
module or class with a wrapper that records one span per call (name,
start, end, parent, request id) in memory; :meth:`Tracer.uninstall`
puts the originals back and :meth:`Tracer.dump` writes the spans as
JSONL. No source file of the program changes.

The parent of a span is the innermost span open in the same
``contextvars`` context, which asyncio keeps per task, so interleaved
requests on one event loop do not adopt each other's spans. Spans from
different processes on one machine share ``time.perf_counter``
(CLOCK_MONOTONIC), so client and server spans join into one tree.

:func:`self_times` folds a span forest into per-layer self time: a
span's duration minus the part of it its children cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time

__all__ = ["Tracer", "current_rid", "self_times", "self_time_table"]

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)
_RID = contextvars.ContextVar("perfbench_rid", default=None)


def current_rid():
    """Request id of the innermost open span in this context (or None)."""
    return _RID.get()


class Tracer:
    """Records spans in memory; ``tag`` keeps span ids unique per process."""

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._undo: list = []

    def record(self, name, start, end, *, parent=None, rid=None, sid=None, **attrs) -> str:
        sid = sid or f"{self.tag}{next(self._ids)}"
        span = {"id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "rid": rid}
        span.update(attrs)
        self.spans.append(span)
        return sid

    def wrap(self, owner, attr: str, name, *, root=None, after=None) -> None:
        """Trace every call of ``owner.attr``.

        ``name`` is a string or ``f(args, kwargs) -> str``. ``root``, when
        given, is ``f(args, kwargs) -> (parent, rid, attrs)`` and starts a
        new tree instead of nesting under the caller's open span.
        ``after`` is ``f(args, kwargs, result) -> attrs`` for attributes
        only known once the call returned; a ``parent`` or ``rid`` key
        there re-homes the span.
        """
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot trace {owner}.{attr}: not a plain function")
        tracer = self

        def enter(args, kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            if root is None:
                parent, rid, attrs = _CURRENT.get(), _RID.get(), {}
            else:
                parent, rid, attrs = root(args, kwargs)
            sid = f"{tracer.tag}{next(tracer._ids)}"
            tokens = (_CURRENT.set(sid), _RID.set(rid))
            return label, parent, rid, attrs, sid, tokens

        def leave(state, start, args, kwargs, result):
            label, parent, rid, attrs, sid, tokens = state
            end = time.perf_counter()
            _RID.reset(tokens[1])
            _CURRENT.reset(tokens[0])
            if after is not None:
                attrs = {**attrs, **after(args, kwargs, result)}
                parent, rid = attrs.pop("parent", parent), attrs.pop("rid", rid)
            tracer.record(label, start, end, parent=parent, rid=rid, sid=sid, **attrs)

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                state = enter(args, kwargs)
                start = time.perf_counter()
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    leave(state, start, args, kwargs, result)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                state = enter(args, kwargs)
                start = time.perf_counter()
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    leave(state, start, args, kwargs, result)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def substitute(self, owner, attr: str, value) -> None:
        """Replace ``owner.attr`` with ``value`` until :meth:`uninstall`."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans, roots, extra_children=None) -> dict:
    """Self time per span name over the trees under ``roots``.

    A span counts only the part of it inside its parent's (clipped)
    interval: a server read that started waiting before the client sent
    is charged from the send on. ``extra_children`` maps a span id to
    further child spans that are not linked by ``parent`` (a group-commit
    batch serves several requests, so it is a child of each request's
    admission wait). A shared child counts in full under every parent:
    each of them waited for all of it.
    """
    children: dict = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    extra_children = extra_children or {}
    totals: dict = {}
    stack = [(root, root["start"], root["end"]) for root in roots]
    while stack:
        span, lo, hi = stack.pop()
        lo, hi = max(lo, span["start"]), min(hi, span["end"])
        if hi <= lo:
            continue
        kids = children.get(span["id"], []) + extra_children.get(span["id"], [])
        covered = _covered([(k["start"], k["end"]) for k in kids], lo, hi)
        entry = totals.setdefault(span["name"], [0, 0.0])
        entry[0] += 1
        entry[1] += hi - lo - covered
        stack.extend((kid, lo, hi) for kid in kids)
    return totals


def self_time_table(totals: dict, roots: int, unit_scale=1e3, unit="ms") -> list[str]:
    """Printable rows: calls, self time per root, and share of the sum."""
    grand = sum(seconds for _, seconds in totals.values()) or 1.0
    rows = [f"  {'layer':<34}{'calls':>8}{'self/' + unit:>12}{'share':>8}"]
    for name, (calls, seconds) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        rows.append(
            f"  {name:<34}{calls:>8}{seconds * unit_scale / roots:>12.4f}"
            f"{seconds / grand:>8.1%}"
        )
    return rows
