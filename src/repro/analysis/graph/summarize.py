"""Per-module summaries: what the whole-program pass needs from one file.

A :class:`ModuleSummary` is everything the call-graph layer knows about
a module — bindings, per-function call sites and direct effects, class
pickle hazards, ``ExecutionEngine.map``/``map_batches`` sites,
referenced names, and the suppression table — in a JSON-serializable
form so summaries can be content-hash cached across lint runs (see
:mod:`.cache`).

Effect detection reuses the per-file machinery: literal dotted calls are
resolved through :meth:`~repro.analysis.context.ModuleContext.
resolve_dotted` (the same import-alias tables R001/R002 use) and
classified by :mod:`repro.analysis.effects`, so the two layers cannot
disagree about what counts as randomness or a clock read.  An effect on
a line carrying the corresponding per-file suppression (``R001`` for
RNG, ``R002`` for clock) is treated as *blessed* and not recorded — a
justified inline suppression extends to the whole-program rules.

Calls the module cannot resolve locally (a name imported from another
project module) are recorded as absolute dotted targets; the resolver in
:mod:`.callgraph` follows them through re-export chains — the exact
cross-module laundering the per-file rules are blind to.

The module is summarized in **one breadth-first walk** (``ast.walk``
order).  Each node is handed to the :class:`_FunctionWalk` of the
top-level function or method it sits in, which records call sites,
effects, map sites, assignments, the async records
(:mod:`repro.analysis.async_.summary`) and the taint records
(:mod:`repro.analysis.taint.summary`) as it goes, and to the
:class:`_ClassWalk` of its top-level class.  Lookups that depend on the
whole body — the constructor behind a lock or payload name (last
assignment in walk order wins) and which names a ``global`` statement
declares — are resolved when the walk is done.
"""

from __future__ import annotations

import ast
import dataclasses
from collections import deque

from ..async_.summary import (
    EMPTY_ASYNC_INFO,
    AsyncInfo,
    AwaitSite,
    BlockingSite,
    LockSite,
    RunSite,
    SpawnSite,
    StateWrite,
)
from ..context import ModuleContext
from ..effects import clock_effect, engine_map_args, rng_effect
from ..records import CallTarget, Record
from ..taint.summary import (
    EMPTY_TAINT_INFO,
    EMPTY_VALUE,
    AssignRecord,
    Atom,
    CallUse,
    CompareRecord,
    DataclassField,
    MessageRecord,
    ReturnRecord,
    TaintInfo,
    ValueExpr,
)
from .symbols import Binding, collect_bindings, module_name_for

__all__ = [
    "Effect",
    "Hazard",
    "PayloadItem",
    "MapSite",
    "FunctionSummary",
    "ClassSummary",
    "ModuleSummary",
    "summarize_module",
    "error_summary",
]

#: Current summary schema; bump to invalidate every cache entry.
#: v2 added the async/concurrency fields (``AsyncInfo`` per function,
#: constructor tables per class/module) consumed by R012-R016.
#: v3 added the secret-flow fields (``TaintInfo`` per function,
#: dataclass field tables per class) consumed by R017-R021.
#: v4 serializes every record through one codec (field names as keys,
#: defaults omitted; see :mod:`repro.analysis.records`).
SUMMARY_VERSION = 4


@dataclasses.dataclass(frozen=True)
class Effect(Record):
    """A direct RNG/clock effect observed inside one function."""

    kind: str  # "rng" | "clock"
    detail: str  # offending dotted callable, e.g. "numpy.random.rand"
    line: int


@dataclasses.dataclass(frozen=True)
class Hazard(Record):
    """A pickle hazard: an attribute or payload element that cannot
    cross a process boundary (open file, lambda, enabled handle)."""

    kind: str  # "open" | "lambda" | "instrumentation"
    attr: str  # attribute name for class hazards, "" for inline ones
    line: int


@dataclasses.dataclass(frozen=True)
class PayloadItem(Record):
    """A named object packed into a pool payload, with the constructor
    call it was locally assigned from (when statically visible)."""

    name: str
    ctor: CallTarget | None
    line: int


@dataclasses.dataclass(frozen=True)
class MapSite(Record):
    """One ``ExecutionEngine.map(fn, payloads)`` / ``map_batches`` call site."""

    line: int
    func: str  # enclosing function qual ("" at class level)
    fn: CallTarget | None  # the task callable, when resolvable
    fn_lambda: bool
    payloads: tuple[PayloadItem, ...]
    hazards: tuple[Hazard, ...]  # inline payload hazards (lambda/open/...)


@dataclasses.dataclass(frozen=True)
class FunctionSummary(Record):
    """Calls out of, and effects inside, one function or method."""

    qual: str  # "name" or "Class.name"
    line: int
    public: bool
    calls: tuple[CallTarget, ...]
    effects: tuple[Effect, ...]
    async_info: AsyncInfo = EMPTY_ASYNC_INFO
    taint_info: TaintInfo = EMPTY_TAINT_INFO


@dataclasses.dataclass(frozen=True)
class ClassSummary(Record):
    name: str
    line: int
    public: bool
    methods: tuple[str, ...]
    hazards: tuple[Hazard, ...]
    #: (attr, constructor target, from_container) for every
    #: ``self.<attr> = Ctor(...)`` (or list/dict of ctor calls) in the
    #: class body — how the lock-set dataflow identifies lock attributes
    #: without baking lock-class names into the cached summary.
    attr_ctors: tuple[tuple[str, CallTarget, bool], ...] = ()
    #: Annotated fields of a ``@dataclass`` body — R021 checks the
    #: secret-named ones for ``field(repr=False)``.  Empty for ordinary
    #: classes.
    fields: tuple[DataclassField, ...] = ()


@dataclasses.dataclass(frozen=True)
class ModuleSummary(Record):
    """Everything the program graph keeps about one module."""

    module: str
    path: str
    is_package: bool
    bindings: dict[str, Binding]
    exports: tuple[str, ...] | None
    functions: dict[str, FunctionSummary]
    classes: dict[str, ClassSummary]
    refs: tuple[str, ...]
    suppressions: dict[int, tuple[str, ...]]
    map_sites: tuple[MapSite, ...]
    #: Module-level ``NAME = Ctor(...)`` assignments, so a lock bound at
    #: module scope keeps one identity across every function using it.
    var_ctors: dict[str, CallTarget] = dataclasses.field(default_factory=dict)
    error: str | None = None

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        rules = self.suppressions.get(line, ())
        return rule_id in rules or "all" in rules or "*" in rules


def error_summary(path: str, message: str) -> ModuleSummary:
    """Placeholder summary for a file that could not be analyzed."""
    module, is_package = module_name_for(path)
    return ModuleSummary(
        module=module,
        path=path,
        is_package=is_package,
        bindings={},
        exports=None,
        functions={},
        classes={},
        refs=(),
        suppressions={},
        map_sites=(),
        error=message,
    )


# ----------------------------------------------------------------------
# Expression helpers
# ----------------------------------------------------------------------

#: Keyword names that bound a wait or a run.
_TIMEOUT_KEYWORDS = frozenset({"timeout", "wall_guard_s"})

#: Positional-argument count at which a known primitive's wait becomes
#: bounded (``park(waiter, timeout)``, ``get(timeout)``,
#: ``run(main, wall_guard_s)``).
_TIMEOUT_ARITY = {"park": 2, "get": 1, "run": 2}

#: Dotted externals that block the hosting thread.
_BLOCKING_PREFIXES = ("subprocess.", "os.system", "shutil.")

#: Hard cap on recorded taint items per function; a generated
#: megafunction cannot blow up the summary cache.
_MAX_ITEMS = 200

#: Container methods whose argument taints the receiver name
#: (``out.append(secret)`` makes ``out`` secret).
_MUTATOR_METHODS = frozenset(
    {"append", "add", "extend", "insert", "update", "setdefault", "put"}
)


def _dotted_parts(expr: ast.expr) -> tuple[str, list[str]] | None:
    """(base name, attribute chain) for a plain dotted expression."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.reverse()
    return node.id, parts


def _classify_target(
    expr: ast.expr, bindings: dict[str, Binding], cls_name: str | None
) -> CallTarget | None:
    """Resolve a call/reference expression against the module bindings."""
    dotted = _dotted_parts(expr)
    if dotted is None:
        return None
    base, parts = dotted
    line = getattr(expr, "lineno", 0)
    if base == "self" and cls_name is not None and len(parts) == 1:
        return CallTarget("self", f"{cls_name}.{parts[0]}", line)
    binding = bindings.get(base)
    if binding is None:
        return None
    if binding.kind == "import":
        return CallTarget("dotted", ".".join([binding.target, *parts]), line)
    if binding.kind == "func" and not parts:
        return CallTarget("local", base, line)
    if binding.kind == "class":
        if not parts:
            return CallTarget("local", base, line)
        if len(parts) == 1:
            return CallTarget("local", f"{base}.{parts[0]}", line)
    return None


def _is_open_call(node: ast.Call, bindings: dict[str, Binding]) -> bool:
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open" and "open" not in bindings:
        return True
    target = _classify_target(func, bindings, None)
    return target is not None and target.kind == "dotted" and target.target == "io.open"


def _is_enabled_instrumentation(target: CallTarget | None) -> bool:
    return (
        target is not None
        and target.target.endswith("Instrumentation.enabled")
    )


def _is_self_attr(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    )


def _method_name(func: ast.expr) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _receiver_text(func: ast.expr) -> str:
    if isinstance(func, ast.Attribute):
        return ast.unparse(func.value).lower()
    return ""


def _first_call_in(expr: ast.expr) -> ast.Call | None:
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Call):
            return sub
    return None


def _has_timeout(call: ast.Call, method: str) -> bool:
    for keyword in call.keywords:
        if keyword.arg in _TIMEOUT_KEYWORDS:
            return True
    arity = _TIMEOUT_ARITY.get(method)
    return arity is not None and len(call.args) >= arity


def _name_targets(target: ast.expr) -> list[str]:
    """Names an assignment target rebinds (``d[k] = v`` taints ``d``)."""
    out: list[str] = []
    for sub in ast.walk(target):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, (ast.Store, ast.Del)):
            out.append(sub.id)
        elif isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name):
            out.append(sub.value.id)
    return out


def _atom_key(atom: Atom) -> tuple[int, str]:
    return atom.line, atom.ident


# ----------------------------------------------------------------------
# The per-function collector
# ----------------------------------------------------------------------


class _FunctionWalk:
    """Everything one top-level function or method body contributes,
    fed node by node in walk order; :meth:`summary` finishes it."""

    def __init__(
        self,
        ctx: ModuleContext,
        bindings: dict[str, Binding],
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qual: str,
        cls_name: str | None,
    ) -> None:
        self.ctx = ctx
        self.bindings = bindings
        self.node = node
        self.qual = qual
        self.cls_name = cls_name
        # call graph
        self.calls: list[CallTarget] = []
        self.effects: list[Effect] = []
        self.map_calls: list[tuple[ast.Call, ast.expr | None, ast.expr | None]] = []
        #: local name -> value expression (last assignment wins)
        self.assigns: dict[str, ast.expr] = {}
        # async
        self.awaits: list[AwaitSite] = []
        self.locks: list[LockSite] = []
        self.spawns: list[SpawnSite] = []
        self.runs: list[RunSite] = []
        self.blocking: list[BlockingSite] = []
        #: self-attribute writes plus *candidate* global writes, filtered
        #: against the ``global`` declarations once the walk is done
        self.writes: list[StateWrite] = []
        self.globals_declared: set[str] = set()
        self.returned: tuple[str, bool] | None = None
        # taint
        self.t_assigns: list[AssignRecord] = []
        self.t_returns: list[ReturnRecord] = []
        self.t_calls: list[CallUse] = []
        self.messages: list[MessageRecord] = []
        self.compares: list[CompareRecord] = []
        self._uses: dict[ast.Call, CallUse] = {}

    def classify(self, expr: ast.expr) -> CallTarget | None:
        return _classify_target(expr, self.bindings, self.cls_name)

    # -- value expressions ----------------------------------------------

    def value_expr(self, *exprs: ast.expr | None) -> ValueExpr:
        atoms: list[Atom] = []
        calls: list[CallUse] = []
        stack: list[ast.AST] = [e for e in exprs if e is not None]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Call):
                calls.append(self.call_use(node))
                continue  # the CallUse owns everything underneath
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                atoms.append(Atom("name", node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                # Field-sensitive: a plain dotted read is typed by its
                # attribute names alone (sched.times is public even when
                # sched holds a nonce; cfg.protocol_secret is secret by
                # name).  The base name is NOT recorded — only a
                # non-trivial base (call, subscript) keeps being walked.
                atoms.append(Atom("attr", node.attr, node.lineno, ast.unparse(node)))
                base = node.value
                while isinstance(base, ast.Attribute):
                    atoms.append(
                        Atom("attr", base.attr, base.lineno, ast.unparse(base))
                    )
                    base = base.value
                if not isinstance(base, ast.Name):
                    stack.append(base)
                continue
            stack.extend(ast.iter_child_nodes(node))
        if not atoms and not calls:
            return EMPTY_VALUE
        atoms.sort(key=_atom_key)
        calls.sort(key=lambda c: (c.line, c.method))
        return ValueExpr(atoms=tuple(atoms), calls=tuple(calls))

    def call_use(self, node: ast.Call) -> CallUse:
        """The call's :class:`CallUse`, built once per node (the walk and
        every enclosing value expression share it)."""
        use = self._uses.get(node)
        if use is None:
            func = node.func
            recv = (
                self.value_expr(func.value)
                if isinstance(func, ast.Attribute)
                else EMPTY_VALUE
            )
            arg_exprs = [
                arg.value if isinstance(arg, ast.Starred) else arg for arg in node.args
            ]
            arg_exprs.extend(keyword.value for keyword in node.keywords)
            use = self._uses[node] = CallUse(
                target=self.classify(func),
                method=_method_name(func),
                receiver=_receiver_text(func),
                line=node.lineno,
                recv=recv,
                args=self.value_expr(*arg_exprs),
            )
        return use

    # -- calls ----------------------------------------------------------

    def visit_call(self, node: ast.Call) -> None:
        use = self.call_use(node)
        resolved = self.ctx.resolve_dotted(node.func)
        if not self._record_effect(node, resolved):
            if use.target is not None:
                self.calls.append(use.target)
            map_args = engine_map_args(node)
            if map_args is not None:
                self.map_calls.append((node, *map_args))
            self._record_callable_refs(node)
        self._record_task_site(node, use)
        self._record_blocking(node, use, resolved)
        self._record_call_taint(node, use)

    def _record_effect(self, node: ast.Call, resolved: list[str] | None) -> bool:
        """True when the call is a tracked external effect (recorded or
        blessed by a per-file suppression) — either way, not an edge."""
        if resolved is None:
            return False
        path = tuple(resolved)
        for kind, detail, per_file_rule in (
            ("rng", rng_effect(path), "R001"),
            ("clock", clock_effect(path), "R002"),
        ):
            if detail is None:
                continue
            if not self.ctx.is_suppressed(node, per_file_rule):
                self.effects.append(Effect(kind, detail, node.lineno))
            return True
        return False

    def _record_callable_refs(self, node: ast.Call) -> None:
        """Bare function names passed as arguments become may-call edges."""
        for arg in [*node.args, *[kw.value for kw in node.keywords]]:
            if not isinstance(arg, ast.Name):
                continue
            binding = self.bindings.get(arg.id)
            if binding is None or binding.kind not in ("func", "import"):
                continue
            target = self.classify(arg)
            if target is not None:
                self.calls.append(dataclasses.replace(target, ref=True))

    def _record_task_site(self, node: ast.Call, use: CallUse) -> None:
        """``<sched>.spawn(task(...))`` / ``<sched>.run(main(...))``."""
        if use.method not in ("spawn", "run") or "sched" not in use.receiver:
            return
        task = node.args[0] if node.args else None
        target = self.classify(task.func) if isinstance(task, ast.Call) else None
        if use.method == "spawn":
            self.spawns.append(SpawnSite(target, node.lineno))
        else:
            self.runs.append(RunSite(target, node.lineno, _has_timeout(node, "run")))

    def _record_blocking(
        self, node: ast.Call, use: CallUse, resolved: list[str] | None
    ) -> None:
        if _is_open_call(node, self.bindings):
            self.blocking.append(BlockingSite("open", node.lineno))
        elif resolved is not None and tuple(resolved) == ("time", "sleep"):
            self.blocking.append(BlockingSite("time.sleep", node.lineno))
        elif (
            use.target is not None
            and use.target.kind == "dotted"
            and use.target.target.startswith(_BLOCKING_PREFIXES)
        ):
            self.blocking.append(BlockingSite(use.target.target, node.lineno))

    def _record_call_taint(self, node: ast.Call, use: CallUse) -> None:
        if use.recv.is_empty() and use.args.is_empty():
            return  # literal-only call: cannot carry taint into a sink
        self.t_calls.append(use)
        # out.append(secret) taints out — container mutators are the
        # only way list-building loops feed the return dataflow.
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.attr in _MUTATOR_METHODS
            and not use.args.is_empty()
        ):
            self.t_assigns.append(AssignRecord((func.value.id,), use.args, node.lineno))

    # -- awaits and lock regions -----------------------------------------

    def visit_await(self, node: ast.Await) -> None:
        call = node.value
        if not isinstance(call, ast.Call):
            return
        use = self.call_use(call)
        self.awaits.append(
            AwaitSite(
                target=use.target,
                line=node.lineno,
                method=use.method,
                receiver=use.receiver,
                has_timeout=_has_timeout(call, use.method),
            )
        )

    def visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        end_line = node.end_lineno or node.lineno
        for item in node.items:
            site = self._lock_site(item.context_expr, node.lineno, end_line)
            if site is not None:
                self.locks.append(site)

    def _lock_site(self, expr: ast.expr, line: int, end_line: int) -> LockSite | None:
        # self._lock / self._locks[i]; a "name" site's ctor is filled in
        # after the walk, from the last assignment to the name.
        if isinstance(expr, ast.Subscript):
            inner = expr.value
            if _is_self_attr(inner):
                return LockSite("self_item", inner.attr, line, end_line)
            if isinstance(inner, ast.Name):
                return LockSite("name", inner.id, line, end_line)
            return None
        if isinstance(expr, ast.Attribute):
            if _is_self_attr(expr):
                return LockSite("self_attr", expr.attr, line, end_line)
            return None
        if isinstance(expr, ast.Name):
            return LockSite("name", expr.id, line, end_line)
        if isinstance(expr, ast.Call):
            getter = self.classify(expr.func)
            if getter is None:
                return None
            return LockSite(
                "call", _method_name(expr.func), line, end_line, getter=getter
            )
        return None

    # -- assignments -----------------------------------------------------

    def visit_assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.assigns[target.id] = node.value
        self._record_writes(node, node.targets)
        self._record_assign_taint(node, node.targets, node.value)

    def visit_ann_assign(self, node: ast.AnnAssign) -> None:
        if node.value is None:
            return
        if isinstance(node.target, ast.Name):
            self.assigns[node.target.id] = node.value
        self._record_writes(node, [node.target])
        self._record_assign_taint(node, [node.target], node.value)

    def visit_aug_assign(self, node: ast.AugAssign) -> None:
        self._record_writes(node, [node.target])
        self._record_assign_taint(node, [node.target], node.value)

    def visit_for(self, node: ast.For | ast.AsyncFor) -> None:
        self._record_assign_taint(node, [node.target], node.iter)

    def visit_global(self, node: ast.Global) -> None:
        self.globals_declared.update(node.names)

    def _record_writes(self, node: ast.stmt, targets: list[ast.expr]) -> None:
        for target in targets:
            expr = target.value if isinstance(target, ast.Subscript) else target
            if _is_self_attr(expr) and self.cls_name is not None:
                self.writes.append(StateWrite(f"{self.cls_name}.{expr.attr}", node.lineno))
            elif isinstance(expr, ast.Name):
                self.writes.append(StateWrite(expr.id, node.lineno, is_global=True))

    def _record_assign_taint(
        self, node: ast.stmt, targets: list[ast.expr], value: ast.expr
    ) -> None:
        names: list[str] = []
        for target in targets:
            names.extend(_name_targets(target))
        if not names:
            return
        expr = self.value_expr(value)
        if isinstance(node, ast.AugAssign):
            # x += secret keeps x's own taint too; the read is implicit.
            atoms = (*expr.atoms, Atom("name", names[0], node.lineno))
            expr = ValueExpr(atoms=tuple(sorted(atoms, key=_atom_key)), calls=expr.calls)
        if not expr.is_empty():
            self.t_assigns.append(AssignRecord(tuple(names), expr, node.lineno))

    # -- returns, raises, asserts, compares ------------------------------

    def visit_return(self, node: ast.Return) -> None:
        if node.value is None:
            return
        if self.returned is None:
            # ``return self.<attr>`` / ``return self.<attr>[...]`` — the
            # shape of a lock getter; lockness is decided at graph time.
            expr = node.value
            item = isinstance(expr, ast.Subscript)
            if item:
                expr = expr.value
            if _is_self_attr(expr):
                self.returned = (expr.attr, item)
        value = self.value_expr(node.value)
        if not value.is_empty():
            self.t_returns.append(ReturnRecord(value, node.lineno))

    def visit_raise(self, node: ast.Raise) -> None:
        exc = node.exc
        if exc is None:
            return
        if isinstance(exc, ast.Call):
            value = self.value_expr(*exc.args, *[k.value for k in exc.keywords])
        else:
            value = self.value_expr(exc)
        if not value.is_empty():
            self.messages.append(MessageRecord("raise", value, node.lineno))

    def visit_assert(self, node: ast.Assert) -> None:
        if node.msg is None:
            return
        value = self.value_expr(node.msg)
        if not value.is_empty():
            self.messages.append(MessageRecord("assert", value, node.lineno))

    def visit_compare(self, node: ast.Compare) -> None:
        ops = [op for op in node.ops if isinstance(op, (ast.Eq, ast.NotEq))]
        if not ops:
            return
        value = self.value_expr(node.left, *node.comparators)
        if value.is_empty():
            return
        op = "==" if isinstance(ops[0], ast.Eq) else "!="
        self.compares.append(CompareRecord(op, value, node.lineno, ast.unparse(node)[:120]))

    # -- after the walk --------------------------------------------------

    def _ctor_of(self, name: str) -> CallTarget | None:
        """The constructor call the name was last assigned from."""
        assigned = self.assigns.get(name)
        call = _first_call_in(assigned) if assigned is not None else None
        return self.classify(call.func) if call is not None else None

    def map_sites(self) -> list[MapSite]:
        sites = []
        for node, fn_arg, payload_arg in self.map_calls:
            fn_lambda = isinstance(fn_arg, ast.Lambda)
            fn_target = None
            if fn_arg is not None and not fn_lambda:
                fn_target = self.classify(fn_arg)
            payloads, hazards = self._analyze_payloads(payload_arg)
            sites.append(
                MapSite(
                    line=node.lineno,
                    func=self.qual,
                    fn=fn_target,
                    fn_lambda=fn_lambda,
                    payloads=tuple(payloads),
                    hazards=tuple(hazards),
                )
            )
        return sites

    def _analyze_payloads(
        self, payload_arg: ast.expr | None
    ) -> tuple[list[PayloadItem], list[Hazard]]:
        if payload_arg is None:
            return [], []
        expr = payload_arg
        # A bare name: chase the local assignment that built the list.
        if isinstance(expr, ast.Name) and expr.id in self.assigns:
            expr = self.assigns[expr.id]
        payloads: list[PayloadItem] = []
        hazards: list[Hazard] = []
        seen: set[str] = set()
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Lambda):
                hazards.append(Hazard("lambda", "", sub.lineno))
            elif isinstance(sub, ast.Call):
                if _is_open_call(sub, self.bindings):
                    hazards.append(Hazard("open", "", sub.lineno))
                elif _is_enabled_instrumentation(self.classify(sub.func)):
                    hazards.append(Hazard("instrumentation", "", sub.lineno))
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if sub.id in seen:
                    continue
                seen.add(sub.id)
                ctor_expr = self.assigns.get(sub.id)
                if isinstance(ctor_expr, ast.Call):
                    ctor = self.classify(ctor_expr.func)
                    if ctor is not None:
                        payloads.append(PayloadItem(sub.id, ctor, sub.lineno))
        return payloads, hazards

    def summary(self) -> FunctionSummary:
        node = self.node
        returned_attr, returned_item = self.returned or (None, False)
        async_info = AsyncInfo(
            is_async=isinstance(node, ast.AsyncFunctionDef),
            awaits=tuple(self.awaits),
            locks=tuple(
                dataclasses.replace(site, ctor=self._ctor_of(site.name))
                if site.shape == "name"
                else site
                for site in self.locks
            ),
            spawns=tuple(self.spawns),
            runs=tuple(self.runs),
            blocking=tuple(self.blocking),
            writes=tuple(
                write
                for write in self.writes
                if not write.is_global or write.attr in self.globals_declared
            ),
            returns_lock_attr=returned_attr,
            returns_lock_item=returned_item,
        )
        return FunctionSummary(
            qual=self.qual,
            line=node.lineno,
            public=not node.name.startswith("_"),
            calls=tuple(self.calls),
            effects=tuple(self.effects),
            async_info=async_info,
            taint_info=self._taint_info(),
        )

    def _taint_info(self) -> TaintInfo:
        # Functions that move no data worth tracking get the empty info
        # (their parameters alone are not worth caching).
        if not (
            self.t_assigns or self.t_returns or self.t_calls
            or self.messages or self.compares
        ):
            return EMPTY_TAINT_INFO
        args = self.node.args
        params = [
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            if a.arg not in ("self", "cls")
        ]
        params.extend(extra.arg for extra in (args.vararg, args.kwarg) if extra)

        def capped(records, key):
            return tuple(sorted(records, key=key)[:_MAX_ITEMS])

        def by_line(record):
            return record.line

        return TaintInfo(
            params=tuple(params),
            assigns=capped(self.t_assigns, by_line),
            returns=capped(self.t_returns, by_line),
            calls=capped(self.t_calls, lambda c: (c.line, c.method)),
            messages=capped(self.messages, by_line),
            compares=capped(self.compares, by_line),
        )


#: Node type -> the :class:`_FunctionWalk` handler that records it.
_VISITORS = {
    ast.Call: _FunctionWalk.visit_call,
    ast.Await: _FunctionWalk.visit_await,
    ast.With: _FunctionWalk.visit_with,
    ast.AsyncWith: _FunctionWalk.visit_with,
    ast.Assign: _FunctionWalk.visit_assign,
    ast.AnnAssign: _FunctionWalk.visit_ann_assign,
    ast.AugAssign: _FunctionWalk.visit_aug_assign,
    ast.For: _FunctionWalk.visit_for,
    ast.AsyncFor: _FunctionWalk.visit_for,
    ast.Global: _FunctionWalk.visit_global,
    ast.Return: _FunctionWalk.visit_return,
    ast.Raise: _FunctionWalk.visit_raise,
    ast.Assert: _FunctionWalk.visit_assert,
    ast.Compare: _FunctionWalk.visit_compare,
}


# ----------------------------------------------------------------------
# Classes
# ----------------------------------------------------------------------


class _ClassWalk:
    """``self.<attr> = ...`` assignments anywhere in one class body:
    pickle hazards (open file / lambda / enabled ``Instrumentation``)
    and the constructor table (first assignment per attribute wins)."""

    def __init__(self, bindings: dict[str, Binding]) -> None:
        self.bindings = bindings
        self.hazards: list[Hazard] = []
        self.ctors: dict[str, tuple[CallTarget, bool]] = {}

    def visit_assign(self, node: ast.Assign) -> None:
        value = node.value
        for target in node.targets:
            if not _is_self_attr(target):
                continue
            if isinstance(value, ast.Lambda):
                self.hazards.append(Hazard("lambda", target.attr, node.lineno))
            elif isinstance(value, ast.Call):
                if _is_open_call(value, self.bindings):
                    self.hazards.append(Hazard("open", target.attr, node.lineno))
                elif _is_enabled_instrumentation(
                    _classify_target(value.func, self.bindings, None)
                ):
                    self.hazards.append(
                        Hazard("instrumentation", target.attr, node.lineno)
                    )
            if target.attr in self.ctors:
                continue
            # A list/dict of ctor calls (sharded lock pools) counts too.
            call = _first_call_in(value)
            if call is None:
                continue
            ctor = _classify_target(call.func, self.bindings, None)
            if ctor is not None:
                self.ctors[target.attr] = (ctor, not isinstance(value, ast.Call))

    def summary(self, node: ast.ClassDef, methods: list[str]) -> ClassSummary:
        return ClassSummary(
            name=node.name,
            line=node.lineno,
            public=not node.name.startswith("_"),
            methods=tuple(methods),
            hazards=tuple(self.hazards),
            attr_ctors=tuple(
                (attr, ctor, container)
                for attr, (ctor, container) in sorted(self.ctors.items())
            ),
            fields=_dataclass_fields(node),
        )


def _is_dataclass_decorator(node: ast.expr) -> bool:
    expr = node.func if isinstance(node, ast.Call) else node
    if isinstance(expr, ast.Attribute):
        return expr.attr == "dataclass"
    return isinstance(expr, ast.Name) and expr.id == "dataclass"


def _field_hides_repr(value: ast.expr | None) -> bool:
    """True for ``field(..., repr=False)`` (any ``*field`` callable)."""
    if not isinstance(value, ast.Call) or _method_name(value.func) != "field":
        return False
    for keyword in value.keywords:
        if keyword.arg == "repr" and isinstance(keyword.value, ast.Constant):
            return keyword.value.value is False
    return False


def _dataclass_fields(node: ast.ClassDef) -> tuple[DataclassField, ...]:
    """Annotated fields of a ``@dataclass`` class body (empty for
    ordinary classes)."""
    if not any(_is_dataclass_decorator(d) for d in node.decorator_list):
        return ()
    return tuple(
        DataclassField(sub.target.id, sub.lineno, _field_hides_repr(sub.value))
        for sub in node.body
        if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)
    )


# ----------------------------------------------------------------------
# The module walk
# ----------------------------------------------------------------------


def _collect_var_ctors(
    tree: ast.Module, bindings: dict[str, Binding]
) -> dict[str, CallTarget]:
    """Module-level ``NAME = Ctor(...)`` assignments."""
    out: dict[str, CallTarget] = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        ctor = _classify_target(node.value.func, bindings, None)
        if ctor is None:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                out.setdefault(target.id, ctor)
    return out


_Scope = tuple[_FunctionWalk | None, _ClassWalk | None]


def _walk(tree: ast.Module, scopes: dict[ast.AST, _Scope]) -> tuple[str, ...]:
    """One breadth-first pass over the module, in ``ast.walk`` order.

    Every node goes to the collectors of the top-level function/method
    and class it sits in (``scopes`` maps each such root node to them;
    descendants inherit).  Walk order restricted to one subtree is that
    subtree's own ``ast.walk`` order, so every collector sees its nodes
    exactly as a walk of its own body would.  Returns the module's
    referenced identifiers — loaded names plus attribute names, the
    coarse usage relation R009 runs on.
    """
    refs: set[str] = set()
    todo: deque[tuple[ast.AST, _Scope | None]] = deque([(tree, None)])
    while todo:
        node, scope = todo.popleft()
        kind = type(node)
        if kind is ast.Name:
            if type(node.ctx) is ast.Load:
                refs.add(node.id)
        elif kind is ast.Attribute:
            refs.add(node.attr)
        if scope is not None:
            function, cls = scope
            if function is not None:
                visit = _VISITORS.get(kind)
                if visit is not None:
                    visit(function, node)
            if cls is not None and kind is ast.Assign:
                cls.visit_assign(node)
        for child in ast.iter_child_nodes(node):
            todo.append((child, scopes.get(child, scope)))
    return tuple(sorted(refs))


def summarize_module(ctx: ModuleContext, path: str | None = None) -> ModuleSummary:
    """Build the whole-program summary of one parsed module."""
    report_path = path if path is not None else ctx.path
    module, is_package = module_name_for(report_path)
    bindings, exports = collect_bindings(ctx.tree, module, is_package)

    functions: list[_FunctionWalk] = []
    classes: list[tuple[ast.ClassDef, _ClassWalk, list[str]]] = []
    scopes: dict[ast.AST, _Scope] = {}
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            walk = _FunctionWalk(ctx, bindings, node, node.name, None)
            functions.append(walk)
            scopes[node] = (walk, None)
        elif isinstance(node, ast.ClassDef):
            cls_walk = _ClassWalk(bindings)
            scopes[node] = (None, cls_walk)
            methods = []
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{node.name}.{sub.name}"
                    walk = _FunctionWalk(ctx, bindings, sub, qual, node.name)
                    functions.append(walk)
                    scopes[sub] = (walk, cls_walk)
                    methods.append(sub.name)
            classes.append((node, cls_walk, methods))
    refs = _walk(ctx.tree, scopes)

    return ModuleSummary(
        module=module,
        path=report_path,
        is_package=is_package,
        bindings=bindings,
        exports=tuple(exports) if exports is not None else None,
        functions={walk.qual: walk.summary() for walk in functions},
        classes={
            node.name: cls_walk.summary(node, methods)
            for node, cls_walk, methods in classes
        },
        refs=refs,
        suppressions=ctx.suppression_table(),
        map_sites=tuple(site for walk in functions for site in walk.map_sites()),
        var_ctors=_collect_var_ctors(ctx.tree, bindings),
    )
