"""Per-layer ledger: spans of one traced phase -> time per layer per op.

Every op of the traced phase has one root span named ``op``.  Spans
recorded in the server process hang under the client's ``service.wire``
span of the same op, so the wire's self time is what the client saw
minus what ``QueryService.handle`` took.  A span's self time is its
duration minus the time its children cover; the root's self time is the
op's unattributed time.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Sequence

NAME, START, END, PARENT, OP, COUNT = range(6)


def merge(client: List[list], server: List[list]) -> List[list]:
    """Append the server's spans to the client's, re-parenting each server
    root under the client ``service.wire`` span of its op.  Server spans
    that served no op (metrics scrapes) are dropped."""
    wire = {span[OP]: index for index, span in enumerate(client) if span[NAME] == "service.wire"}
    spans = [list(span) for span in client]
    remap: Dict[int, int] = {}
    for index, span in enumerate(server):
        if span[OP] < 0 or span[OP] not in wire:
            continue
        copy = list(span)
        if span[PARENT] < 0:
            copy[PARENT] = wire[span[OP]]
        else:
            if span[PARENT] not in remap:
                continue
            copy[PARENT] = remap[span[PARENT]]
        remap[index] = len(spans)
        spans.append(copy)
    return spans


def analyze(spans: Sequence[list], kinds: Dict[int, str]) -> dict:
    """The ledger of one traced phase.

    ``kinds`` maps op id -> op kind; only ops in it are counted.
    Returns per-layer inclusive and self milliseconds per op, call
    counts, the unattributed time, and the per-kind closure figures.
    """
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    roots = [
        index
        for index, span in enumerate(spans)
        if span[NAME] == "op" and span[PARENT] < 0 and span[OP] in kinds
    ]
    counted = {spans[index][OP] for index in roots}
    ops = len(roots)
    inclusive: Dict[str, float] = defaultdict(float)
    self_time: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    counts: Dict[str, int] = defaultdict(int)
    for index, span in enumerate(spans):
        if span[OP] not in counted:
            continue
        duration = span[END] - span[START]
        covered = sum(spans[c][END] - spans[c][START] for c in children[index])
        inclusive[span[NAME]] += duration
        self_time[span[NAME]] += max(duration - covered, 0)
        calls[span[NAME]] += 1
        counts[span[NAME]] += span[COUNT]

    op_ms = []
    unattributed_ms = []
    for index in roots:
        span = spans[index]
        duration = span[END] - span[START]
        covered = sum(spans[c][END] - spans[c][START] for c in children[index])
        op_ms.append(duration / 1e6)
        unattributed_ms.append(max(duration - covered, 0) / 1e6)

    # Useful work of the closure: output rows per closure pair, per op
    # kind.  Warm ops reuse a memoized closure, so its size comes from
    # whichever fixpoint span ran (cold set-up runs included).
    closure_pairs = max(
        (span[COUNT] for span in spans if span[NAME] == "planner.fixpoint"), default=0
    )
    rows_by_kind: Dict[str, List[int]] = defaultdict(list)
    for span in spans:
        if span[NAME] == "session.order" and span[OP] in counted:
            rows_by_kind[kinds[span[OP]]].append(span[COUNT])
    rows_per_pair = {
        kind: statistics.fmean(rows) / closure_pairs
        for kind, rows in sorted(rows_by_kind.items())
        if closure_pairs
    }

    def per_op(table: Dict[str, float]) -> Dict[str, float]:
        return {name: value / 1e6 / ops for name, value in sorted(table.items())} if ops else {}

    median_op = statistics.median(op_ms) if op_ms else 0.0
    median_unattributed = statistics.median(unattributed_ms) if unattributed_ms else 0.0
    return {
        "ops": ops,
        "median_op_ms": median_op,
        "unattributed_ms": median_unattributed,
        "unattributed_share": median_unattributed / median_op if median_op else 0.0,
        "inclusive_ms_per_op": per_op(inclusive),
        "self_ms_per_op": per_op(self_time),
        "calls_per_op": {name: n / ops for name, n in sorted(calls.items())} if ops else {},
        "counts": dict(sorted(counts.items())),
        "closure_pairs": closure_pairs,
        "rows_per_pair": rows_per_pair,
    }


def layer_metrics(ledger: dict) -> Dict[str, float]:
    """The span-derived per-layer metrics of BENCHMARK.json."""
    inclusive = ledger["inclusive_ms_per_op"]
    self_ms = ledger["self_ms_per_op"]
    calls = ledger["calls_per_op"]
    counts = ledger["counts"]
    plan_calls = calls.get("planner.plan", 0.0) * ledger["ops"]
    ratios = ledger["rows_per_pair"].values()
    return {
        "service.handle_ms": inclusive.get("service.handle", 0.0),
        "service.json_decode_ms": inclusive.get("service.json_decode", 0.0),
        "service.json_encode_ms": inclusive.get("service.json_encode", 0.0),
        "service.pool.acquire_wait_ms": inclusive.get("service.pool.acquire", 0.0),
        "service.pool.refresh_ms": inclusive.get("service.pool.refresh", 0.0),
        "database.write_ms": inclusive.get("database.write", 0.0),
        "sqlpgq.parse_ms": inclusive.get("sqlpgq.parse", 0.0),
        "sqlpgq.compile_ms": inclusive.get("sqlpgq.compile", 0.0),
        "analysis.semantic_ms": inclusive.get("analysis.semantic", 0.0),
        "analysis.dataflow_ms": inclusive.get("analysis.dataflow", 0.0),
        "session.prepare_ms": inclusive.get("session.prepare", 0.0),
        "views.materialize_ms": inclusive.get("views.materialize", 0.0),
        "compact.encode_ms": inclusive.get("compact.encode", 0.0),
        "planner.stats_ms": inclusive.get("planner.stats", 0.0),
        "planner.plan_ms": inclusive.get("planner.plan", 0.0),
        "planner.plan_cache_hit_ratio": (
            1.0 - counts.get("planner.plan", 0) / plan_calls if plan_calls else 0.0
        ),
        "planner.fixpoint_ms": inclusive.get("planner.fixpoint", 0.0),
        "planner.execute_self_ms": self_ms.get("session.execute", 0.0),
        "planner.rows_per_pair": min(ratios) if ratios else 0.0,
        "session.execute_ms": inclusive.get("session.execute", 0.0),
        "session.decode_ms": inclusive.get("session.decode", 0.0),
        "session.order_ms": inclusive.get("session.order", 0.0),
        "trace.unattributed_ms": ledger["unattributed_ms"],
        "trace.unattributed_share": ledger["unattributed_share"],
    }
