"""Span recording around the program's layer entry points.

The traced run wraps public entry points from the benchmark's own
files.  :meth:`SpanRecorder.wrap` times each call through the program's
own :class:`~repro.obs.tracing.Tracer` into an in-memory sink, so spans
keep the ``repro-trace-v1`` schema (``repro trace`` reads the JSONL file
:meth:`SpanRecorder.write_jsonl` writes).  :func:`patch_all` installs
the wrappers where each name's caller looks it up, on an
:class:`~contextlib.ExitStack` whose ``close()`` puts every original
back, so an untraced run executes unpatched code.

Each span's ``attrs`` carry the call or session id it belongs to
(``ctx``, from :data:`CTX`) and whatever the wrapper's ``note`` hook
reads off the call.  A layer's self time is its span's duration minus
the part of that interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import os
from collections.abc import Callable, Iterable, Sequence
from typing import Any
from unittest import mock

from repro.obs.clock import Clock
from repro.obs.tracing import InMemoryTraceSink, JsonlTraceSink, Tracer

__all__ = ["CTX", "SpanRecorder", "covered_length", "patch_all", "self_times"]

#: The call or session id that spans started now belong to.  A context
#: variable, so each service session's asyncio task keeps its own.
CTX: contextvars.ContextVar[str | None] = contextvars.ContextVar("perfbench_ctx", default=None)


class SpanRecorder:
    """A :class:`Tracer` writing into memory, plus call wrappers."""

    def __init__(self, clock: Clock | None = None) -> None:
        self.sink = InMemoryTraceSink()
        self.tracer = Tracer(self.sink, clock)
        self._pid = os.getpid()

    @property
    def records(self) -> list[dict]:
        return self.sink.records

    def wrap(
        self,
        name: str,
        fn: Callable,
        note: Callable[[tuple, dict, Any], dict | None] | None = None,
    ) -> Callable:
        """A wrapper recording one span per call of ``fn``.

        ``note(args, kwargs, result)`` returns attributes added to the
        span once the call has returned, outside its interval.  Calls in
        a forked pool worker pass straight through: their spans could
        never reach this process.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != rec._pid:
                return fn(*args, **kwargs)
            ctx = CTX.get()
            attrs = {} if ctx is None else {"ctx": ctx}
            try:
                with rec.tracer.span(name, **attrs):
                    result = fn(*args, **kwargs)
            except BaseException as exc:
                # The span closed (and was emitted) on the way out.
                rec.records[-1]["attrs"]["error"] = type(exc).__name__
                raise
            if note is not None:
                rec.records[-1]["attrs"].update(note(args, kwargs, result) or {})
            return result

        return wrapper

    def write_jsonl(self, path: str) -> None:
        with JsonlTraceSink(path) as out:
            for record in self.records:
                out.emit(record)


def patch_all(patches: Iterable[tuple[object, str, Callable[[Any], Any]]]) -> contextlib.ExitStack:
    """Replace each ``owner.name`` with ``make(original)``.

    Returns the stack of patches; closing it restores every original.
    If one patch fails, those already made are undone before raising.
    """
    with contextlib.ExitStack() as stack:
        for owner, name, make in patches:
            stack.enter_context(mock.patch.object(owner, name, make(getattr(owner, name))))
        return stack.pop_all()


def covered_length(intervals: Sequence[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(records: Sequence[dict]) -> list[float]:
    """Each span record's duration minus the time its children cover,
    with children clipped to the parent's interval and overlaps counted
    once.  Records may come in any order (a tracer emits children
    before their parents)."""
    where = {r["span"]: i for i, r in enumerate(records)}
    children: list[list[tuple[float, float]]] = [[] for _ in records]
    for r in records:
        i = where.get(r["parent"])
        if i is None:
            continue
        parent = records[i]
        lo = max(r["start_s"], parent["start_s"])
        hi = min(r["start_s"] + r["duration_s"], parent["start_s"] + parent["duration_s"])
        children[i].append((lo, hi))
    return [
        max(r["duration_s"] - covered_length(kids), 0.0) for r, kids in zip(records, children)
    ]
