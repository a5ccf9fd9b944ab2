"""Parallel-safety rules: REP008–REP010 and REP013.

The sharded pipeline's bit-identical GDSII contract (see
``docs/PERFORMANCE.md``) holds only while shard workers are pure,
picklable, module-level functions and all parallelism routes through
the one executor.  These rules enforce that statically, using the
:class:`~repro.check.rules.context.AnalysisContext` to find
``run_sharded`` call sites and trace the worker functions and shared
state dispatched through them:

* **REP008** — one executor: no raw ``multiprocessing``,
  ``concurrent.futures`` or ``os.fork`` outside ``repro/parallel``
  (the same shape as REP007's one clock).
* **REP009** — shard-worker purity: no writes to shared-state
  parameters, no ``global``/``nonlocal`` rebinding, no mutating calls
  (``.append``/``.update``/``setattr``/...) on shared objects in any
  function reachable from a ``run_sharded`` call site.
* **REP010** — picklability: worker functions and shared state must be
  module-level (no lambdas, closures or locally-defined classes), and
  shared dataclasses must not carry file handles, locks, tracers or
  threads.
* **REP013** — thread ownership: long-lived ``threading.Thread`` /
  ``queue.Queue`` machinery lives only in the modules built to
  supervise it — ``repro/parallel`` (executor backends),
  ``repro/service`` (the socket server's accept and connection
  threads) and ``repro/obs`` (RSS sampler).  Compute code that wants
  concurrency goes through ``run_sharded``, where spans/metrics are
  adopted and worker failures propagate.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence, Set, Tuple

from ..findings import Finding, Severity
from .base import ModuleContext, Rule, _call_name, _root_name, register
from .context import AnalysisContext, ShardedCall

__all__ = [
    "RawExecutorRule",
    "ShardWorkerPurityRule",
    "ShardPicklabilityRule",
    "ThreadOwnershipRule",
]


# ----------------------------------------------------------------------
# REP008 — one executor: no raw pools/forks outside repro/parallel
# ----------------------------------------------------------------------

_EXECUTOR_MODULES = {"multiprocessing", "concurrent"}
_FORK_CALLS = {"os.fork", "os.forkpty", "os.register_at_fork"}


@register
class RawExecutorRule(Rule):
    """Raw process/thread-pool machinery outside ``repro/parallel``.

    The determinism contract lives in one place:
    :func:`repro.parallel.run_sharded` shards an ordered work list
    contiguously and merges results (and worker spans/metrics) in
    shard order.  A raw ``ProcessPoolExecutor`` or ``os.fork``
    elsewhere bypasses the contract — results merge in completion
    order, worker observability is lost, and the serial-fallback and
    sanitizer guarantees do not apply.  Same shape as REP007's one
    clock: one executor.
    """

    code = "REP008"
    summary = "raw multiprocessing/concurrent.futures/os.fork outside repro/parallel"
    default_severity = Severity.ERROR
    #: the one sanctioned home of pools and forks
    allowed = ("repro/parallel/",)

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not ctx.in_scope(self.allowed)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top in _EXECUTOR_MODULES and self._is_executor(alias.name):
                        yield self.finding(
                            ctx,
                            node,
                            f"import of {alias.name} outside repro/parallel; "
                            "dispatch through repro.parallel.run_sharded",
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.split(".")[0] in _EXECUTOR_MODULES and self._is_executor(
                    module if module != "concurrent" else "concurrent.futures"
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"import from {module} outside repro/parallel; "
                        "dispatch through repro.parallel.run_sharded",
                    )
                elif module == "os":
                    for alias in node.names:
                        if f"os.{alias.name}" in _FORK_CALLS:
                            yield self.finding(
                                ctx,
                                node,
                                f"os.{alias.name} import outside repro/parallel; "
                                "dispatch through repro.parallel.run_sharded",
                            )
            elif isinstance(node, ast.Call):
                resolved = ctx.analysis.resolve(node.func)
                if resolved in _FORK_CALLS:
                    yield self.finding(
                        ctx,
                        node,
                        f"raw {resolved}() outside repro/parallel; "
                        "dispatch through repro.parallel.run_sharded",
                    )

    @staticmethod
    def _is_executor(module: str) -> bool:
        """True for multiprocessing[.*] and concurrent.futures[.*]."""
        if module.split(".")[0] == "multiprocessing":
            return True
        return module == "concurrent.futures" or module.startswith("concurrent.futures.")


# ----------------------------------------------------------------------
# REP009 — shard-worker purity
# ----------------------------------------------------------------------

#: method calls that mutate their receiver in place
_MUTATING_METHODS = {
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "add",
    "discard",
    "sort",
    "reverse",
    "write",
    "writelines",
}

#: maximum call-chain depth followed from a worker function
_MAX_DEPTH = 5


@register
class ShardWorkerPurityRule(Rule):
    """Writes to shared state inside shard workers.

    ``run_sharded`` ships ``shared`` to each pool worker *once* (pool
    initializer) and reuses it across that worker's shards — and under
    the serial backend it is not copied at all.  A worker that
    mutates it therefore sees different state depending on which
    shards ran before it on the same worker, which is exactly the
    nondeterminism class PR 5 fixed by hand.  The rule follows every
    function reachable from a ``run_sharded`` call site (module-local
    calls, shared-state arguments tracked positionally and by
    keyword) and flags writes, in-place mutation, and
    ``global``/``nonlocal`` rebinding.
    """

    code = "REP009"
    summary = "shard worker mutates shared state or rebinds global/nonlocal"
    default_severity = Severity.ERROR

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        analysis = ctx.analysis
        reported: Set[Tuple[int, int, str]] = set()
        for call in analysis.sharded_calls:
            fn_def = self._worker_def(analysis, call)
            if fn_def is None:
                continue
            shared = self._worker_shared_params(fn_def)
            for node, message in self._violations(
                analysis, fn_def, shared, visited=set(), depth=0
            ):
                key = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0), message)
                if key in reported:
                    continue
                reported.add(key)
                yield self.finding(ctx, node, message)

    @staticmethod
    def _worker_def(
        analysis: AnalysisContext, call: ShardedCall
    ) -> Optional[ast.FunctionDef]:
        if isinstance(call.fn, ast.Name):
            return analysis.local_function(call.fn.id)
        return None

    @staticmethod
    def _worker_shared_params(fn_def: ast.FunctionDef) -> Set[str]:
        """The worker's shared-state parameter (``fn(shared, shard)``)."""
        params = [a.arg for a in fn_def.args.args]
        return {params[0]} if params else set()

    def _violations(
        self,
        analysis: AnalysisContext,
        fn_def: ast.FunctionDef,
        shared_params: Set[str],
        visited: Set[Tuple[str, Tuple[str, ...]]],
        depth: int,
    ) -> Iterator[Tuple[ast.AST, str]]:
        """Purity violations in ``fn_def`` and functions it calls."""
        key = (fn_def.name, tuple(sorted(shared_params)))
        if key in visited or depth > _MAX_DEPTH:
            return
        visited.add(key)
        roots = set(shared_params)
        for node in ast.walk(fn_def):
            # aliases: `state = shared` / `cache = shared.cache` share
            # the underlying objects; copies (`list(shared.x)`) do not.
            if isinstance(node, ast.Assign):
                value_root = _root_name(node.value)
                if (
                    value_root in roots
                    and isinstance(node.value, (ast.Name, ast.Attribute, ast.Subscript))
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            roots.add(target.id)
        for node in ast.walk(fn_def):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                kind = "global" if isinstance(node, ast.Global) else "nonlocal"
                yield (
                    node,
                    f"{kind} rebinding in {fn_def.name}() reachable from a "
                    "run_sharded call site; shard workers must not touch "
                    "shared module state",
                )
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets: Sequence[ast.expr]
                if isinstance(node, ast.Assign):
                    targets = node.targets
                else:
                    targets = [node.target]
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        root = _root_name(target)
                        if root in roots:
                            yield (
                                node,
                                f"write to shared state {root!r} in "
                                f"{fn_def.name}(); shard workers must treat "
                                "shared state as read-only",
                            )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        root = _root_name(target)
                        if root in roots:
                            yield (
                                node,
                                f"del on shared state {root!r} in "
                                f"{fn_def.name}(); shard workers must treat "
                                "shared state as read-only",
                            )
            elif isinstance(node, ast.Call):
                yield from self._call_violations(analysis, fn_def, node, roots, visited, depth)

    def _call_violations(
        self,
        analysis: AnalysisContext,
        fn_def: ast.FunctionDef,
        node: ast.Call,
        roots: Set[str],
        visited: Set[Tuple[str, Tuple[str, ...]]],
        depth: int,
    ) -> Iterator[Tuple[ast.AST, str]]:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
            root = _root_name(func.value)
            if root in roots:
                yield (
                    node,
                    f".{func.attr}() mutates shared state {root!r} in "
                    f"{fn_def.name}(); build results locally and return them",
                )
        elif isinstance(func, ast.Name) and func.id in ("setattr", "delattr"):
            if node.args and _root_name(node.args[0]) in roots:
                yield (
                    node,
                    f"{func.id}() on shared state in {fn_def.name}(); "
                    "shard workers must treat shared state as read-only",
                )
        elif isinstance(func, ast.Name):
            callee = analysis.local_function(func.id)
            if callee is not None:
                passed = self._shared_params_of_callee(callee, node, roots)
                if passed:
                    yield from self._violations(
                        analysis, callee, passed, visited, depth + 1
                    )

    @staticmethod
    def _shared_params_of_callee(
        callee: ast.FunctionDef, call: ast.Call, roots: Set[str]
    ) -> Set[str]:
        """Callee parameters that receive shared-state arguments."""
        params = [a.arg for a in callee.args.args]
        passed: Set[str] = set()
        for pos, arg in enumerate(call.args):
            if _root_name(arg) in roots and isinstance(
                arg, (ast.Name, ast.Attribute, ast.Subscript)
            ):
                if pos < len(params):
                    passed.add(params[pos])
        for kw in call.keywords:
            if kw.arg is not None and _root_name(kw.value) in roots:
                if kw.arg in params:
                    passed.add(kw.arg)
        return passed


# ----------------------------------------------------------------------
# REP010 — picklability of workers and shared state
# ----------------------------------------------------------------------

#: type identifiers that cannot travel to a pool worker
_UNPICKLABLE_TYPES = {
    "IO",
    "TextIO",
    "BinaryIO",
    "Lock",
    "RLock",
    "Condition",
    "Event",
    "Semaphore",
    "BoundedSemaphore",
    "Barrier",
    "Thread",
    "Tracer",
    "Popen",
    "socket",
}

#: constructor calls whose results cannot travel to a pool worker
_UNPICKLABLE_CTORS = {
    "open",
    "Lock",
    "RLock",
    "Condition",
    "Event",
    "Semaphore",
    "BoundedSemaphore",
    "Barrier",
    "Thread",
    "Tracer",
    "Popen",
    "socket",
}


@register
class ShardPicklabilityRule(Rule):
    """Unpicklable workers or shared state at ``run_sharded`` sites.

    The process backend pickles the worker function and shared state
    into every pool worker; lambdas, closures and locally-defined
    classes fail there with an opaque ``PicklingError`` — or worse,
    force a silent serial fallback in code that degrades gracefully.
    Shared dataclasses carrying file handles, locks, tracers or
    threads are pickled but arrive broken (a lock's state does not
    cross a fork boundary meaningfully).  Everything dispatched
    through ``run_sharded`` must be module-level and inert.
    """

    code = "REP010"
    summary = "unpicklable worker fn or shared state passed to run_sharded"
    default_severity = Severity.ERROR

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        analysis = ctx.analysis
        for call in analysis.sharded_calls:
            yield from self._check_fn(ctx, analysis, call)
            yield from self._check_shared(ctx, analysis, call)

    def _check_fn(
        self, ctx: ModuleContext, analysis: AnalysisContext, call: ShardedCall
    ) -> Iterator[Finding]:
        fn = call.fn
        if fn is None:
            return
        if isinstance(fn, ast.Lambda):
            yield self.finding(
                ctx,
                fn,
                "lambda passed as run_sharded worker; workers must be "
                "module-level functions (pickled into pool workers)",
            )
        elif isinstance(fn, ast.Call):
            yield self.finding(
                ctx,
                fn,
                "worker built by a call expression (e.g. functools.partial) "
                "is not a module-level function; ship parameters in the "
                "shared state instead",
            )
        elif isinstance(fn, ast.Name):
            if analysis.local_function(fn.id) is not None:
                return
            nested = analysis.nested_function(fn.id)
            if nested is not None:
                qualname, _ = nested
                yield self.finding(
                    ctx,
                    fn,
                    f"worker {fn.id!r} is defined inside {qualname}() — a "
                    "closure cannot be pickled into pool workers; move it "
                    "to module level",
                )

    def _check_shared(
        self, ctx: ModuleContext, analysis: AnalysisContext, call: ShardedCall
    ) -> Iterator[Finding]:
        shared = call.shared
        if shared is None:
            return
        if isinstance(shared, (ast.Lambda, ast.GeneratorExp)):
            kind = "lambda" if isinstance(shared, ast.Lambda) else "generator"
            yield self.finding(
                ctx,
                shared,
                f"{kind} passed as run_sharded shared state is not "
                "picklable; pass plain data",
            )
            return
        ctor = self._constructor_of(analysis, call, shared)
        if ctor is None:
            return
        cls_name = ctor.func.id if isinstance(ctor.func, ast.Name) else None
        if cls_name is None:
            return
        nested = analysis.nested_class(cls_name)
        if nested is not None:
            qualname, _ = nested
            yield self.finding(
                ctx,
                shared,
                f"shared state is an instance of {cls_name!r} defined "
                f"inside {qualname}(); locally-defined classes cannot be "
                "pickled into pool workers",
            )
            return
        cls = analysis.classes.get(cls_name)
        if cls is not None and _is_dataclass(cls):
            yield from self._check_dataclass_fields(ctx, cls)

    @staticmethod
    def _constructor_of(
        analysis: AnalysisContext, call: ShardedCall, shared: ast.expr
    ) -> Optional[ast.Call]:
        """The ``Cls(...)`` call the shared expression traces back to."""
        if isinstance(shared, ast.Call):
            return shared
        if isinstance(shared, ast.Name):
            value = analysis.value_of(shared.id, call.enclosing)
            if isinstance(value, ast.Call):
                return value
        return None

    def _check_dataclass_fields(
        self, ctx: ModuleContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        for stmt in cls.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            bad = _annotation_identifiers(stmt.annotation) & _UNPICKLABLE_TYPES
            if bad:
                field_name = (
                    stmt.target.id if isinstance(stmt.target, ast.Name) else "?"
                )
                yield self.finding(
                    ctx,
                    stmt,
                    f"shared dataclass {cls.name!r} field {field_name!r} is "
                    f"typed {sorted(bad)[0]} — file handles, locks, tracers "
                    "and threads must not ride in run_sharded shared state",
                )
                continue
            if stmt.value is not None:
                yield from self._check_field_default(ctx, cls, stmt)

    def _check_field_default(
        self, ctx: ModuleContext, cls: ast.ClassDef, stmt: ast.AnnAssign
    ) -> Iterator[Finding]:
        value = stmt.value
        if not isinstance(value, ast.Call):
            return
        name = _call_name(value)
        if name in _UNPICKLABLE_CTORS:
            yield self.finding(
                ctx,
                value,
                f"shared dataclass {cls.name!r} default calls {name}(); "
                "the result cannot ride in run_sharded shared state",
            )
            return
        if name == "field":
            for kw in value.keywords:
                if kw.arg == "default_factory" and isinstance(kw.value, ast.Name):
                    if kw.value.id in _UNPICKLABLE_CTORS:
                        yield self.finding(
                            ctx,
                            kw.value,
                            f"shared dataclass {cls.name!r} default_factory "
                            f"{kw.value.id!r} builds an unpicklable object",
                        )


# ----------------------------------------------------------------------
# REP013 — thread ownership: threads and queues live with a supervisor
# ----------------------------------------------------------------------

#: constructors that spawn or feed long-lived threads
_THREAD_QUEUE_CALLS = {
    "threading.Thread",
    "threading.Timer",
    "queue.Queue",
    "queue.SimpleQueue",
    "queue.LifoQueue",
    "queue.PriorityQueue",
    "_thread.start_new_thread",
}


@register
class ThreadOwnershipRule(Rule):
    """Raw thread/queue construction outside a supervising module.

    An ad-hoc ``threading.Thread`` in compute code escapes every
    contract the repo's concurrency machinery provides: its spans and
    metrics land on the thread's default tracer instead of the run
    record, nothing reports it when it dies, and its timing leaks
    into results in completion order.  The supervised homes —
    ``repro/parallel`` (executor backends), ``repro/service`` (socket
    server, whose connection threads install the service's tracer and
    registry for every request) and ``repro/obs`` (RSS sampler) —
    own their threads' lifecycle; compute code dispatches through
    ``run_sharded``.
    Synchronisation primitives (locks, conditions, events) are fine
    anywhere — only thread *spawning* and work *queues* are scoped.
    """

    code = "REP013"
    summary = "threading.Thread/queue.Queue outside repro/parallel, repro/service, repro/obs"
    default_severity = Severity.ERROR
    #: the sanctioned homes of thread supervision
    allowed = ("repro/parallel/", "repro/service/", "repro/obs/")

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not ctx.in_scope(self.allowed)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.analysis.resolve(node.func)
            if resolved in _THREAD_QUEUE_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"raw {resolved}() outside a supervising module; "
                    "dispatch through repro.parallel.run_sharded",
                )


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _annotation_identifiers(node: ast.expr) -> Set[str]:
    """Every bare identifier mentioned in a type annotation."""
    out: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            # string annotations: re-parse and recurse
            try:
                inner = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            out.update(_annotation_identifiers(inner.body))
    return out
