"""Summary records: the shared :class:`CallTarget` and one JSON codec.

Every record a module summary caches — call targets, effects, lock and
await sites, taint value expressions, the summaries themselves — is a
frozen dataclass deriving from :class:`Record`.  ``to_dict`` /
``from_dict`` are derived from ``dataclasses.fields`` and the resolved
type hints (built once per class), so adding a field to a record needs
no serialization code.  The codec understands nested records,
``X | None``, ``tuple[X, ...]``, fixed tuples, and ``dict[str, X]`` /
``dict[int, X]`` (int keys travel as JSON strings).  A field equal to
its default is omitted, which keeps the summary cache small: most
functions have no async or taint records at all.

This module is a leaf — it imports nothing from the analyzer — so the
graph, async and taint record modules can all type a call target as
``CallTarget | None`` without an import cycle.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from typing import Any, Callable

__all__ = ["CallTarget", "Record"]

_Codec = tuple[Callable[[Any], Any], Callable[[Any], Any]]

#: Field sentinel: no default, so the value is always written.
_REQUIRED = object()


def _identity(value: Any) -> Any:
    return value


def _codec(tp: Any) -> _Codec:
    """(encode, decode) for one resolved type hint; JSON scalars pass
    through as ``_identity``."""
    if tp in (str, int, bool):
        return _identity, _identity
    if isinstance(tp, type) and issubclass(tp, Record):
        return tp.to_dict, tp.from_dict
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (types.UnionType, typing.Union):
        (inner,) = [arg for arg in args if arg is not type(None)]
        enc, dec = _codec(inner)
        return (
            lambda v: None if v is None else enc(v),
            lambda d: None if d is None else dec(d),
        )
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        enc, dec = _codec(args[0])
        if enc is _identity:
            return list, tuple
        return (
            lambda v: [enc(item) for item in v],
            lambda d: tuple([dec(item) for item in d]),
        )
    if origin is tuple:
        codecs = [_codec(arg) for arg in args]
        return (
            lambda v: [enc(item) for (enc, _), item in zip(codecs, v)],
            lambda d: tuple([dec(item) for (_, dec), item in zip(codecs, d)]),
        )
    if origin is dict:
        key_tp, value_tp = args
        enc, dec = _codec(value_tp)
        if key_tp is int:
            return (
                lambda v: {str(k): enc(item) for k, item in v.items()},
                lambda d: {int(k): dec(item) for k, item in d.items()},
            )
        return (
            lambda v: {k: enc(item) for k, item in v.items()},
            lambda d: {k: dec(item) for k, item in d.items()},
        )
    raise TypeError(f"no summary codec for {tp!r}")


class _Spec:
    """Per-class codec tables: ``(field, encoder, default or _REQUIRED)``
    per field, and a decoder per field name (None for JSON scalars)."""

    def __init__(self, cls: type) -> None:
        hints = typing.get_type_hints(cls)
        self.encoders: list[tuple[str, Callable | None, Any]] = []
        self.decoders: dict[str, Callable | None] = {}
        for field in dataclasses.fields(cls):
            enc, dec = _codec(hints[field.name])
            if field.default is not dataclasses.MISSING:
                default = field.default
            elif field.default_factory is not dataclasses.MISSING:
                default = field.default_factory()
            else:
                default = _REQUIRED
            self.encoders.append(
                (field.name, None if enc is _identity else enc, default)
            )
            self.decoders[field.name] = None if dec is _identity else dec


#: Built on first use, not at class creation: records refer to each
#: other (``CallUse`` <-> ``ValueExpr``) before both exist.
_SPECS: dict[type, _Spec] = {}


def _spec(cls: type) -> _Spec:
    spec = _SPECS.get(cls)
    if spec is None:
        spec = _SPECS[cls] = _Spec(cls)
    return spec


class Record:
    """Mixin giving a frozen dataclass its JSON form."""

    __slots__ = ()

    def to_dict(self) -> dict:
        out = {}
        for name, enc, default in _spec(type(self)).encoders:
            value = getattr(self, name)
            if value is default or (default is not _REQUIRED and value == default):
                continue
            out[name] = value if enc is None else enc(value)
        return out

    @classmethod
    def from_dict(cls, data: dict):
        decoders = _spec(cls).decoders
        kwargs = {}
        for name, value in data.items():
            dec = decoders[name]
            kwargs[name] = value if dec is None else dec(value)
        return cls(**kwargs)


@dataclasses.dataclass(frozen=True)
class CallTarget(Record):
    """One outgoing call (or callable reference) from a function.

    ``kind``: ``dotted`` (absolute dotted path through an import),
    ``local`` (same-module function/class, possibly ``Cls.method``) or
    ``self`` (method on the enclosing class).  ``ref`` marks a callable
    passed as an argument rather than called — a may-call edge.
    """

    kind: str
    target: str
    line: int
    ref: bool = False
