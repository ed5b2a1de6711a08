"""Shared effect vocabulary: which calls are RNG / wall-clock / pool fan-out.

The per-file rules (R001/R002/R003) and the whole-program summarizer
(:mod:`repro.analysis.graph.summarize`) must agree on what counts as
"unseeded randomness", "a wall-clock read" and "an engine map" —
otherwise a call the per-file rule flags could propagate differently
through the call graph.  Both layers classify a fully resolved dotted
path (``numpy.random.rand``, ``time.perf_counter``) through
:func:`rng_effect` / :func:`clock_effect`, and an engine fan-out call
through :func:`engine_map_args`.
"""

from __future__ import annotations

import ast

__all__ = [
    "RNG_ALLOWED_NUMPY",
    "WALL_CLOCK_PATHS",
    "clock_effect",
    "engine_map_args",
    "rng_effect",
]

#: ExecutionEngine methods that pickle a task function and its payloads
#: to the worker processes.
_ENGINE_MAP_METHODS = frozenset({"map", "map_batches"})

#: numpy.random attributes that construct explicit generators/seeds
#: rather than drawing from the hidden global state.
RNG_ALLOWED_NUMPY = frozenset(
    {
        "default_rng",
        "SeedSequence",
        "Generator",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Fully qualified callables that read the real clock.
WALL_CLOCK_PATHS = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("time", "process_time"),
        ("time", "process_time_ns"),
        ("datetime", "datetime", "now"),
        ("datetime", "datetime", "utcnow"),
        ("datetime", "date", "today"),
    }
)


def rng_effect(path: tuple[str, ...]) -> str | None:
    """The offending dotted name when ``path`` draws from global RNG
    state, else None (seeded constructors are allowed)."""
    if len(path) == 3 and path[:2] == ("numpy", "random") and path[2] not in RNG_ALLOWED_NUMPY:
        return ".".join(path)
    if len(path) == 2 and path[0] == "random":
        return ".".join(path)
    return None


def clock_effect(path: tuple[str, ...]) -> str | None:
    """The offending dotted name when ``path`` reads the wall clock."""
    if path in WALL_CLOCK_PATHS:
        return ".".join(path)
    return None


def engine_map_args(
    call: ast.Call,
) -> tuple[ast.expr | None, ast.expr | None] | None:
    """(task function, payloads) argument expressions when ``call`` is an
    ``<engine>.map(fn, tasks)`` / ``<engine>.map_batches(fn, tasks)``
    fan-out (the receiver's text names an engine), else None.  Either
    argument may be positional or the ``fn=`` / ``tasks=`` keyword."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr in _ENGINE_MAP_METHODS):
        return None
    if "engine" not in ast.unparse(func.value).lower():
        return None
    fn = call.args[0] if call.args else None
    tasks = call.args[1] if len(call.args) > 1 else None
    for keyword in call.keywords:
        if keyword.arg == "fn":
            fn = keyword.value
        elif keyword.arg == "tasks":
            tasks = keyword.value
    return fn, tasks
