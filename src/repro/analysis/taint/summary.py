"""Taint-aware records of the per-function summary.

The one summary walk (:mod:`repro.analysis.graph.summarize`) records,
per function and in a *config-independent* form, the raw material the
secret-flow rules need.  Nothing here decides what is secret — that is
the :class:`~repro.analysis.taint.model.TaintModel`'s job at graph
time, against ``[tool.reprolint.taint]`` — so summaries stay stable in
the content-hash cache across policy changes:

* **value expressions** — every expression the dataflow cares about is
  flattened into a :class:`ValueExpr`: the names and attribute reads
  outside any call (:class:`Atom`), plus one :class:`CallUse` per call,
  each carrying its own receiver/argument ``ValueExpr`` so a sanitizer
  call can cut the taint of everything underneath it;
* **assignments** — ``x = expr`` (including tuple unpacking, ``+=``,
  annotated and ``for``-target forms) as name targets plus the value
  expression, the edges of the per-function dataflow;
* **returns** — what the function hands back, the edges of the
  interprocedural return-level fixed point;
* **calls** — candidate sink sites (print/logging/metrics/pickle are
  classified at graph time from the target, method and receiver text);
  only calls that could carry taint (non-empty receiver or argument
  expression) are kept;
* **raises / asserts** — exception-constructor arguments and assert
  messages, the R018 material;
* **compares** — ``==`` / ``!=`` sites with both sides' expressions,
  the R020 material.
"""

from __future__ import annotations

import dataclasses

from ..records import CallTarget, Record

__all__ = [
    "Atom",
    "AssignRecord",
    "CallUse",
    "CompareRecord",
    "DataclassField",
    "EMPTY_TAINT_INFO",
    "EMPTY_VALUE",
    "MessageRecord",
    "ReturnRecord",
    "TaintInfo",
    "ValueExpr",
]


@dataclasses.dataclass(frozen=True)
class Atom(Record):
    """One taintable leaf read: a bare name or an attribute access.

    ``kind`` is ``name`` or ``attr``; ``ident`` the variable name or
    the final attribute segment (``config.protocol_secret`` records
    ``attr:protocol_secret``).  ``text`` is the spelled form, kept for
    flow-chain evidence only.
    """

    kind: str
    ident: str
    line: int
    text: str = ""


@dataclasses.dataclass(frozen=True)
class ValueExpr(Record):
    """A flattened expression: loose atoms plus nested calls."""

    atoms: tuple[Atom, ...] = ()
    calls: tuple[CallUse, ...] = ()

    def is_empty(self) -> bool:
        return not self.atoms and not self.calls


EMPTY_VALUE = ValueExpr()


@dataclasses.dataclass(frozen=True)
class CallUse(Record):
    """One call inside a value expression, with its own sub-expressions.

    ``target`` is the classified call target when statically resolvable
    (None for builtins and methods on arbitrary objects); ``method`` the
    final callable segment (``print``, ``hex``, ``info``); ``receiver``
    the lowercased receiver text for shape heuristics
    (``self.instrumentation``, ``logger``).  ``recv`` and ``args`` carry
    the receiver's and the merged positional/keyword arguments' value
    expressions — taint passes *through* an unknown call (``str(x)``,
    ``x.hex()``) but a sanitizer cut applies to everything inside.
    """

    target: CallTarget | None
    method: str
    receiver: str
    line: int
    recv: ValueExpr = EMPTY_VALUE
    args: ValueExpr = EMPTY_VALUE


@dataclasses.dataclass(frozen=True)
class AssignRecord(Record):
    """``targets = value``: name targets only (attribute targets are
    covered by the name-based source policy, not the local dataflow)."""

    targets: tuple[str, ...]
    value: ValueExpr
    line: int


@dataclasses.dataclass(frozen=True)
class ReturnRecord(Record):
    value: ValueExpr
    line: int


@dataclasses.dataclass(frozen=True)
class MessageRecord(Record):
    """R018 material: ``kind`` is ``raise`` (exception-constructor
    arguments) or ``assert`` (the assert message expression)."""

    kind: str
    value: ValueExpr
    line: int


@dataclasses.dataclass(frozen=True)
class CompareRecord(Record):
    """One ``==`` / ``!=`` site; ``text`` is the unparsed comparison
    (used as the finding snippet, stable under line moves)."""

    op: str
    value: ValueExpr
    line: int
    text: str = ""


@dataclasses.dataclass(frozen=True)
class TaintInfo(Record):
    """Everything the secret-flow rules need from one function."""

    params: tuple[str, ...] = ()
    assigns: tuple[AssignRecord, ...] = ()
    returns: tuple[ReturnRecord, ...] = ()
    calls: tuple[CallUse, ...] = ()
    messages: tuple[MessageRecord, ...] = ()
    compares: tuple[CompareRecord, ...] = ()


EMPTY_TAINT_INFO = TaintInfo()


@dataclasses.dataclass(frozen=True)
class DataclassField(Record):
    """One annotated field of a ``@dataclass`` body (R021 material)."""

    name: str
    line: int
    repr_hidden: bool  # field(..., repr=False)
