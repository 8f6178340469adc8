"""In-memory spans around the program's public functions.

:func:`install` replaces each function named in :data:`ENGINE_TARGETS`
(and, in the server process, :data:`SERVICE_TARGETS`) with a
wrapper that records one span per call, in the namespace its callers
look it up in (a module global or a class attribute).  Nothing under
``src/`` changes; the wrappers live only in the process that installed
them and only from the moment they are installed.

A span is ``[name, start_ns, end_ns, parent, op, count]``: ``parent``
indexes the enclosing span of the same thread in the recorder's list
(``-1`` for a root), ``op`` is the benchmark operation the call served
and ``count`` an optional size (rows, bytes, closure pairs).  Times are
``time.monotonic_ns()``, which on Linux reads ``CLOCK_MONOTONIC`` and so
compares across the benchmark's processes.
"""

from __future__ import annotations

import functools
import importlib
import threading
from time import monotonic_ns
from typing import Any, Callable, List, Optional, Tuple

#: ``(module, attribute path, span name)``.  Where callers import a
#: function by name, it is wrapped in each importing module.
ENGINE_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    # database layer
    ("repro.engine.database", "Database.create_table", "database.write"),
    ("repro.engine.database", "Database.snapshot", "database.write"),
    # prepare path: sqlpgq, analysis, session
    ("repro.engine.session", "parse_statement", "sqlpgq.parse"),
    ("repro.engine.database", "parse_statement", "sqlpgq.parse"),
    ("repro.engine.session", "compile_query", "sqlpgq.compile"),
    ("repro.sqlpgq.compiler", "compile_query", "sqlpgq.compile"),
    ("repro.engine.session", "analyze_query", "analysis.semantic"),
    ("repro.analysis.dataflow", "analyze_plan", "analysis.dataflow"),
    # Connection.prepare and Connection.execute's statement LRU both
    # compile through the PreparedStatement constructor.
    ("repro.engine.session", "PreparedStatement.__init__", "session.prepare"),
    # view build: pgq, graph.compact, planner.stats
    ("repro.pgq.evaluator", "materialize_compact_graph", "views.materialize"),
    ("repro.graph.compact", "CompactGraph.__init__", "compact.encode"),
    ("repro.engine.planned", "collect_graph_statistics", "planner.stats"),
    # execution: planner, engine.session
    ("repro.planner.physical", "PlanCache.plan_for", "planner.plan"),
    ("repro.graph.compact", "closure_masks", "planner.fixpoint"),
    ("repro.engine.session", "Connection.execute", "session.execute"),
)

#: Targets only the server process installs.  The in-process closure
#: workload has no service layer and times decode and order itself.
SERVICE_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.service.app", "QueryService.handle", "service.handle"),
    ("repro.service.app", "parse_json", "service.json_decode"),
    ("repro.service.protocol", "QueryRequest.from_payload", "service.json_decode"),
    ("repro.service.app", "encode", "service.json_encode"),
    ("repro.service.pool", "ConnectionPool.acquire", "service.pool.acquire"),
    ("repro.service.pool", "ConnectionPool.refresh", "service.pool.refresh"),
    # span names come from the property wrapper: decode, then order
    ("repro.engine.session", "QueryResult.rows", ""),
)


class Recorder:
    """The spans of one process, in the order they opened."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Wrappers stay installed while disabled and record nothing.
        self.enabled = True
        self._local = threading.local()

    # -- op and stack bookkeeping --------------------------------------- #
    def set_op(self, op: int) -> None:
        self._local.op = op

    def current_op(self) -> int:
        return getattr(self._local, "op", -1)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Optional[int]:
        """Start a span; None when ``name`` is already open on this thread
        (a recursive or re-exported call folds into the outer span) or
        while the recorder is disabled."""
        if not self.enabled:
            return None
        stack = self._stack()
        spans = self.spans
        for index in stack:
            if spans[index][0] == name:
                return None
        span = [name, monotonic_ns(), 0, stack[-1] if stack else -1, self.current_op(), 0]
        spans.append(span)
        index = len(spans) - 1
        stack.append(index)
        return index

    def close(self, index: Optional[int], count: int = 0) -> None:
        if index is None:
            return
        span = self.spans[index]
        span[2] = monotonic_ns()
        if count:
            span[5] = count
        self._stack().pop()  # spans nest: the one closing is the innermost

    def span(self, name: str, count: int = 0) -> "_Span":
        return _Span(self, name, count)


def vmhwm_kb(pid: str = "self") -> int:
    """Peak resident set size (``VmHWM``) of a process, in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"VmHWM missing from /proc/{pid}/status")


class _Span:
    __slots__ = ("recorder", "name", "index", "count")

    def __init__(self, recorder: Recorder, name: str, count: int):
        self.recorder = recorder
        self.name = name
        self.count = count

    def __enter__(self) -> "_Span":
        self.index = self.recorder.open(self.name)
        return self

    def __exit__(self, *exc_info) -> None:
        self.recorder.close(self.index, self.count)


# --------------------------------------------------------------------- #
# Wrappers
# --------------------------------------------------------------------- #
def _timed(recorder: Recorder, name: str, func: Callable) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            return func(*args, **kwargs)
        finally:
            recorder.close(index)

    return wrapper


def _handle(recorder: Recorder, name: str, func: Callable) -> Callable:
    """``QueryService.handle``: takes the op id from the ``?op=`` query
    string the benchmark's client appends, and counts response bytes."""

    @functools.wraps(func)
    def wrapper(self, method, path, body=b""):
        _, _, query = path.partition("?")
        op = -1
        for part in query.split("&"):
            key, _, value = part.partition("=")
            if key == "op" and value.isdigit():
                op = int(value)
        recorder.set_op(op)
        index = recorder.open(name)
        response = None
        try:
            response = func(self, method, path, body)
            return response
        finally:
            recorder.close(index, len(response[2]) if response is not None else 0)
            recorder.set_op(-1)

    return wrapper


def _plan_for(recorder: Recorder, name: str, func: Callable) -> Callable:
    """``PlanCache.plan_for``: the span's count is 1 on a cache miss (a
    call during which the cache's own miss counters moved)."""

    @functools.wraps(func)
    def wrapper(self, *args, **kwargs):
        misses = self.misses + self.uncacheable
        index = recorder.open(name)
        try:
            return func(self, *args, **kwargs)
        finally:
            recorder.close(index, int(self.misses + self.uncacheable != misses))

    return wrapper


def _closure_masks(recorder: Recorder, name: str, func: Callable) -> Callable:
    """``closure_masks``: the span's count is the number of closure pairs."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        result = None
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            if index is not None:
                pairs = sum(bin(mask).count("1") for mask in result[0]) if result else 0
                recorder.close(index, pairs)

    return wrapper


def _acquire(recorder: Recorder, name: str, func: Callable) -> Callable:
    """``ConnectionPool.acquire``: times entering the lease (the wait)."""

    class _TimedLease:
        def __init__(self, manager):
            self._manager = manager

        def __enter__(self):
            index = recorder.open(name)
            try:
                return self._manager.__enter__()
            finally:
                recorder.close(index)

        def __exit__(self, *exc_info):
            return self._manager.__exit__(*exc_info)

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        return _TimedLease(func(*args, **kwargs))

    return wrapper


def _rows_property(recorder: Recorder, prop: property) -> property:
    """``QueryResult.rows``: drains the row source first (``len`` — the
    same bulk materialization ``rows`` does) under ``session.decode``,
    then times the ordering ``rows`` adds under ``session.order``."""
    getter = prop.fget

    def rows(self):
        if not recorder.enabled:
            return getter(self)
        index = recorder.open("session.decode")
        try:
            count = len(self)
        finally:
            recorder.close(index)
        index = recorder.open("session.order")
        try:
            return getter(self)
        finally:
            recorder.close(index, count)

    return property(rows, doc=prop.__doc__)


_SPECIAL = {
    "QueryService.handle": _handle,
    "PlanCache.plan_for": _plan_for,
    "closure_masks": _closure_masks,
    "ConnectionPool.acquire": _acquire,
}


def install(recorder: Recorder, *, server: bool) -> List[str]:
    """Wrap every target; returns the targets that no longer exist.

    ``server=False`` skips the service layer and ``QueryResult.rows``.
    A missing target is reported, not fatal: its layer then reads 0.
    """
    missing: List[str] = []
    targets = ENGINE_TARGETS + (SERVICE_TARGETS if server else ())
    for module_name, path, name in targets:
        try:
            owner: Any = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}:{path}")
            continue
        if isinstance(raw, property):
            setattr(owner, attribute, _rows_property(recorder, raw))
            continue
        wrap = _SPECIAL.get(path, _timed)
        if isinstance(raw, classmethod):
            setattr(owner, attribute, classmethod(wrap(recorder, name, raw.__func__)))
        else:
            setattr(owner, attribute, wrap(recorder, name, raw))
    return missing
