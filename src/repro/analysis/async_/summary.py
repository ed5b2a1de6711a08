"""Async-aware records of the per-function summary.

The one summary walk (:mod:`repro.analysis.graph.summarize`) records,
per function, everything the concurrency rules need:

* **await sites** — what a coroutine suspends on, whether the wait is
  bounded (a ``timeout=``/``wall_guard_s=`` keyword or the positional
  timeout slot of the known primitives), and the method name so R015
  can recognize ``park``/``get``/``join`` on unresolvable receivers;
* **lock regions** — ``with``/``async with`` spans whose context
  expression *shapes* like a lock (``self._lock``, ``self._locks[i]``,
  a local/module variable, or a getter call).  Whether the shape really
  is a lock is decided at graph time against the recorded constructors,
  so summaries stay config-independent and cache-stable;
* **spawn/run sites** — ``<sched>.spawn(coro(...))`` and
  ``<sched>.run(coro(...))`` with the statically resolvable task
  target and, for runs, whether a ``wall_guard_s`` guard is passed;
* **blocking calls** — ``time.sleep``, ``open``/``io.open``,
  ``subprocess.*``/``os.system``: wall-clock work no scheduler task or
  lock region may do;
* **state writes** — assignments to ``self.<attr>`` and declared
  module globals, the raw material of the R016 race check.
"""

from __future__ import annotations

import dataclasses

from ..records import CallTarget, Record

__all__ = [
    "AsyncInfo",
    "AwaitSite",
    "BlockingSite",
    "EMPTY_ASYNC_INFO",
    "LockSite",
    "RunSite",
    "SpawnSite",
    "StateWrite",
]


@dataclasses.dataclass(frozen=True)
class AwaitSite(Record):
    """One ``await <call>(...)`` inside a coroutine."""

    target: CallTarget | None  # when statically classifiable
    line: int
    method: str  # last attribute segment ("park", "get", "join", ...)
    receiver: str  # lowercased receiver text, "" for bare names
    has_timeout: bool


@dataclasses.dataclass(frozen=True)
class LockSite(Record):
    """One ``with``/``async with`` item whose context expression shapes
    like a lock.  ``shape`` is how the expression was spelled:
    ``self_attr``/``self_item`` (``self._lock`` / ``self._locks[i]``),
    ``name`` (local or module variable), or ``call``/``self_call`` (a
    getter whose return the graph layer resolves)."""

    shape: str
    name: str  # attribute / variable / getter text
    line: int
    end_line: int
    ctor: CallTarget | None = None  # what the variable was assigned from
    getter: CallTarget | None = None  # the lock-returning call


@dataclasses.dataclass(frozen=True)
class SpawnSite(Record):
    """``<sched>.spawn(task(...))`` — a task root when resolvable."""

    target: CallTarget | None
    line: int


@dataclasses.dataclass(frozen=True)
class RunSite(Record):
    """``<sched>.run(main(...))`` — the root task plus guard status."""

    target: CallTarget | None
    line: int
    has_guard: bool


@dataclasses.dataclass(frozen=True)
class BlockingSite(Record):
    """A call that blocks the hosting thread (sleep, file I/O, ...)."""

    detail: str
    line: int


@dataclasses.dataclass(frozen=True)
class StateWrite(Record):
    """An assignment to shared state: ``Class.attr`` for ``self.<attr>``
    targets, a bare name for declared module globals."""

    attr: str
    line: int
    is_global: bool = False


@dataclasses.dataclass(frozen=True)
class AsyncInfo(Record):
    """Everything the concurrency rules need from one function."""

    is_async: bool = False
    awaits: tuple[AwaitSite, ...] = ()
    locks: tuple[LockSite, ...] = ()
    spawns: tuple[SpawnSite, ...] = ()
    runs: tuple[RunSite, ...] = ()
    blocking: tuple[BlockingSite, ...] = ()
    writes: tuple[StateWrite, ...] = ()
    returns_lock_attr: str | None = None
    returns_lock_item: bool = False


EMPTY_ASYNC_INFO = AsyncInfo()
