#!/usr/bin/env python3
"""End-to-end benchmark of the planned engine on the bank dataset.

    python3 perfbench/run.py --workload closure --seed 7 --seconds 30 --trace 0

Run from any directory; the program is imported from the checkout's
``src``.  Every workload loads the same seeded tables (800 accounts,
3,200 transfers) into a separate engine process and checks every answer
against the plain-Python reference in ``data.py``.

Workloads (closed loop: each caller waits for its reply):

``closure``
    In-process, one caller, warm snapshot: the full closure pairs
    statement and its sources-only projection, alternately, every row
    consumed with ``to_list()``.  primary = pairs, secondary = sources.
``lookup``
    Out-of-process server, two clients on one keep-alive connection
    each, a 50/50 mix of the one-hop and the bounded ``->{1,3}`` lookup.
    primary = bounded, secondary = hop.
``refresh``
    The same server and read mix with one client, plus a fixed number
    of writes that slide the ``Transfer`` window by 40 rows.  Each write
    is followed by at least ten reads.  primary = write start to the
    first read on the new snapshot received, secondary = the write.

With ``--trace 0`` the result line carries the end-to-end metrics; with
``--trace 1`` the first half of the time runs untraced and the second
half with the wrappers of ``tracing.py`` installed, and the result line
carries the per-layer metrics.  A full record (and, traced, the spans)
is written under ``perfbench/out/``.  The last line of standard output
is the JSON result.
"""

from __future__ import annotations

import argparse
import http.client
import itertools
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

import data
import ledger
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: Fresh set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Writes per refresh run: fixed, because the server's memory grows with
#: every write and ``peak_rss_mb`` must compare across runs.
REFRESH_WRITES = 16
#: Reads that follow each write at least.
READS_PER_WRITE = 10
LOOKUP_CLIENTS = 2
#: The whole run stops with an error past this many seconds.
WATCHDOG_S = 170


@dataclass
class Op:
    kind: str
    phase: str
    began_ns: int
    latency_ns: int = 0
    params: Dict[str, Any] = field(default_factory=dict)
    version: int = 0
    rows: Optional[List[Tuple]] = None
    error: Optional[str] = None
    ok: bool = False


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #
def latency(op: Op) -> float:
    """An op's latency in ns; a failed op misses every latency figure."""
    return op.latency_ns if op.ok else math.inf


def median_ms(values_ns: List[float]) -> float:
    return statistics.median(values_ns) / 1e6 if values_ns else 0.0


def percentile_ms(values_ns: List[float], share: float) -> float:
    """Nearest-rank percentile."""
    if not values_ns:
        return 0.0
    ordered = sorted(values_ns)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)] / 1e6


# --------------------------------------------------------------------- #
# The engine process
# --------------------------------------------------------------------- #
class EngineProcess:
    """``engine_host.py`` in a child process, fed its inputs on stdin."""

    def __init__(self, mode: str, spec: dict, seed: int):
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        # Hash layout follows the seed like every other input does.
        env["PYTHONHASHSEED"] = str(seed % 4294967296)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "engine_host.py"), mode],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=str(ROOT),
            env=env,
            text=True,
        )
        self.send(json.dumps(spec))

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"engine process exited with {self.proc.wait()}")
        return json.loads(line)

    def vmhwm_mb(self) -> float:
        return tracing.vmhwm_kb(str(self.proc.pid)) / 1024.0

    def finish(self, command: Optional[str] = None) -> dict:
        """Send ``command`` (if any), close stdin, return the last line."""
        if command is not None:
            self.send(command)
        out, _ = self.proc.communicate(timeout=120)
        if self.proc.returncode != 0:
            raise RuntimeError(f"engine process exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def table_spec(ibans: List[str], rows: List[data.Transfer]) -> dict:
    return {"accounts": ibans, "transfers": [list(row) for row in rows]}


# --------------------------------------------------------------------- #
# closure
# --------------------------------------------------------------------- #
def run_closure(args) -> dict:
    ibans, rows = data.bank_tables(args.seed)
    pairs, sources = data.closure_reference(rows)
    spec = table_spec(ibans, rows)
    spec.update(
        statements=[
            ["pairs", data.PAIRS, data.digest(data.ordered(pairs))],
            ["sources", data.SOURCES, data.digest(data.ordered(sources))],
        ],
        seconds=args.seconds,
        trace=args.trace,
        setups=SETUPS,
    )
    del pairs, sources
    engine = EngineProcess("closure", spec, args.seed)
    try:
        result = engine.finish()
    finally:
        engine.kill()

    ops = [
        Op(kind, phase, 0, latency_ns=latency, rows=None, error=error, ok=ok)
        for kind, latency, ok, _count, phase, error in result["ops"]
    ]
    rows_per_op = statistics.fmean(entry[3] for entry in result["ops"])
    untraced = [op for op in ops if op.phase == "untraced"]

    def cycle_ms(subset: List[Op]) -> float:
        return sum(
            median_ms([latency(op) for op in subset if op.kind == kind])
            for kind in ("pairs", "sources")
        )

    record = {
        "ops": ops,
        "setup_s": result["setup_s"],
        "properties": {
            "accounts": data.ACCOUNTS,
            "transfers": data.TRANSFERS,
            "ops": len(ops),
            "rows_per_op": rows_per_op,
            "writes": 0,
        },
    }
    if not args.trace:
        record["metrics"] = end_to_end(
            untraced,
            untraced,
            result["cache"]["untraced"]["elapsed_s"],
            primary=[latency(op) for op in untraced if op.kind == "pairs"],
            secondary=[latency(op) for op in untraced if op.kind == "sources"],
            setups=result["setup_s"],
            peak_rss_mb=result["vmhwm_kb"] / 1024.0,
        )
        return record

    traced = [op for op in ops if op.phase == "traced"]
    first_traced = len(ops) - len(traced)
    kinds = {first_traced + i: op.kind for i, op in enumerate(traced)}
    book = ledger.analyze(result["spans"], kinds)
    cache = result["cache"]["traced"]
    metrics = ledger.layer_metrics(book)
    metrics.update(
        {
            "service.wire_ms": 0.0,
            "service.response_bytes": 0.0,
            "cache.views_built": cache["after"]["views_built"] - cache["before"]["views_built"],
            "cache.entries": cache["after"]["entries"],
            "cache.gc_evicted": cache["after"]["gc_evicted"],
            "workload.repeat_share": repeat_share(traced),
            "trace.overhead_ratio": cycle_ms(traced) / cycle_ms(untraced),
        }
    )
    record.update(metrics=metrics, ledger=book, spans=result["spans"], missing=result["missing"])
    return record


def end_to_end(
    measured: List[Op],
    reads: List[Op],
    elapsed_s: float,
    *,
    primary: List[float],
    secondary: List[float],
    setups: List[float],
    peak_rss_mb: float,
) -> Dict[str, float]:
    """The end-to-end metrics; only ops that succeeded count as done."""
    done = [op.latency_ns for op in reads if op.ok]
    return {
        "setup_s": statistics.median(setups),
        "primary_p50_ms": median_ms(primary),
        "secondary_p50_ms": median_ms(secondary),
        "latency_mean_ms": statistics.fmean(done) / 1e6 if done else math.inf,
        "latency_p95_ms": percentile_ms([latency(op) for op in reads], 0.95),
        "throughput_ops_s": sum(op.ok for op in measured) / elapsed_s,
        "peak_rss_mb": peak_rss_mb,
    }


def repeat_share(ops: List[Op]) -> float:
    """Share of reads whose (statement, params) appeared earlier in the run."""
    seen = set()
    repeats = reads = 0
    for op in sorted(ops, key=lambda op: op.began_ns):
        if op.kind == "write":
            continue
        key = (op.kind, tuple(sorted(op.params.items())))
        reads += 1
        repeats += key in seen
        seen.add(key)
    return repeats / reads if reads else 0.0


# --------------------------------------------------------------------- #
# lookup and refresh: the server workloads
# --------------------------------------------------------------------- #
class Service:
    """One server process plus a client for ``/metrics`` scrapes."""

    def __init__(self, spec: dict, seed: int, warm: List[Tuple[str, str, Dict]]):
        from repro.service import ServiceClient

        began = monotonic_ns()
        self.engine = EngineProcess("serve", spec, seed)
        try:
            self.port = self.engine.receive()["port"]
            self.client_factory = lambda: ServiceClient(port=self.port)
            self.warm_ops: List[Op] = []
            with self.client_factory() as client:
                for kind, sql, params in warm:
                    op = Op(kind, "setup", monotonic_ns(), params=params)
                    try:
                        op.rows = client.query(sql, params).rows
                    except Exception as exc:  # counted as a failed op
                        op.error = f"{type(exc).__name__}: {exc}"
                    self.warm_ops.append(op)
        except BaseException:
            self.engine.kill()
            raise
        self.setup_s = (monotonic_ns() - began) / 1e9
        self.scraper = self.client_factory()

    def scrape(self) -> Dict[str, float]:
        values = {}
        for line in self.scraper.metrics().splitlines():
            if line and not line.startswith("#"):
                key, _, value = line.rpartition(" ")
                values[key] = float(value)
        return values

    def stop(self) -> dict:
        self.scraper.close()
        return self.engine.finish("stop")

    def kill(self) -> None:
        self.scraper.close()
        self.engine.kill()


def tag_requests(recorder: tracing.Recorder) -> None:
    """Append the thread's op id to each request path (``?op=N``), so the
    server's spans can be joined to the client's."""
    original = http.client.HTTPConnection.request

    def request(self, method, url, *args, **kwargs):
        op = recorder.current_op()
        if op >= 0:
            url = f"{url}?op={op}"
        return original(self, method, url, *args, **kwargs)

    http.client.HTTPConnection.request = request


class Checker:
    """Reference answers per (kind, params, table version), memoized."""

    def __init__(self, versions: List[List[data.Transfer]]):
        self.versions = versions
        self._graphs: Dict[int, Dict] = {}
        self._answers: Dict[Tuple, set] = {}

    def check(self, op: Op) -> None:
        if op.kind == "write" or op.error is not None:
            op.ok = op.error is None
            return
        key = (op.kind, tuple(sorted(op.params.items())), op.version)
        expected = self._answers.get(key)
        if expected is None:
            rows = self.versions[op.version]
            if op.kind == "hop":
                expected = data.hop_reference(rows, op.params["minimum"])
            else:
                graph = self._graphs.get(op.version)
                if graph is None:
                    graph = self._graphs[op.version] = data.successors(rows)
                expected = data.bounded_reference(graph, op.params["acct"])
            self._answers[key] = expected
        op.ok = data.same_multiset(op.rows, expected)
        if not op.ok:
            op.error = "result differs from the reference"


class ServiceRun:
    """The frame lookup and refresh share: ``SETUPS`` fresh servers in
    turn (the last one serves the run), phases with ``/metrics`` scrapes
    around them, ops timed on the client, every answer checked."""

    def __init__(self, args):
        self.args = args
        self.ibans, rows = data.bank_tables(args.seed)
        self.ranking = data.popularity(args.seed, self.ibans)
        #: ``Transfer`` contents per table version (refresh appends).
        self.versions = [rows]
        warm = [
            ("hop", data.HOP, {"minimum": 950}),
            ("bounded", data.BOUNDED, {"acct": self.ibans[0]}),
        ]
        self.setups: List[float] = []
        self.ops: List[Op] = []
        self.service: Optional[Service] = None
        for _ in range(SETUPS):
            if self.service is not None:
                self.service.stop()
            self.service = Service(table_spec(self.ibans, rows), args.seed, warm)
            self.setups.append(self.service.setup_s)
            self.ops.extend(self.service.warm_ops)
        self.recorder: Optional[tracing.Recorder] = None
        self.op_ids = itertools.count()
        #: Op id -> kind, for the traced ops.
        self.kinds: Dict[int, str] = {}
        self.scrapes: Dict[str, Tuple[dict, dict]] = {}
        self.elapsed: Dict[str, float] = {}
        self.missing: List[str] = []
        self.peak_rss_mb = 0.0
        self.server_spans: List[list] = []

    def phases(self, writes: int = 0):
        """Yield ``(phase, start_ns, end_ns, writes)`` for the measured
        phases: the whole run untraced, or, traced, an untraced half and
        then a half with the wrappers installed on both sides."""
        seconds = self.args.seconds
        plan = [("untraced", seconds, writes)]
        if self.args.trace:
            plan = [("untraced", seconds / 2, writes // 2), ("traced", seconds / 2, writes - writes // 2)]
        for phase, length, phase_writes in plan:
            if phase == "traced":
                self.recorder = tracing.Recorder()
                tag_requests(self.recorder)
                self.service.engine.send("trace")
                self.missing = self.service.engine.receive()["missing"]
            before = self.service.scrape()
            began = monotonic_ns()
            yield phase, began, began + int(length * 1e9), phase_writes
            self.elapsed[phase] = (monotonic_ns() - began) / 1e9
            self.scrapes[phase] = (before, self.service.scrape())

    def call(self, op: Op, action: Callable[[], Any]) -> Any:
        """Time ``action`` as ``op``; traced, as spans ``op`` > ``service.wire``."""
        recorder = self.recorder
        op.began_ns = monotonic_ns()
        result = None
        try:
            if recorder is None:
                result = action()
            else:
                op_id = next(self.op_ids)
                self.kinds[op_id] = op.kind
                recorder.set_op(op_id)
                try:
                    with recorder.span("op"), recorder.span("service.wire"):
                        result = action()
                finally:
                    recorder.set_op(-1)
        except Exception as exc:  # every failure counts, none stops the run
            op.error = f"{type(exc).__name__}: {exc}"
        op.latency_ns = monotonic_ns() - op.began_ns
        return result

    def read(self, client, drawn: Tuple[str, str, Dict], phase: str, version: int = 0) -> Op:
        kind, sql, params = drawn
        op = Op(kind, phase, 0, params=params, version=version)
        response = self.call(op, lambda: client.query(sql, params))
        if response is not None:
            op.rows = response.rows
        return op

    def stop(self) -> None:
        self.peak_rss_mb = self.service.engine.vmhwm_mb()
        self.server_spans = self.service.stop()["spans"]

    def kill(self) -> None:
        if self.service is not None:
            self.service.kill()

    def check(self) -> None:
        checker = Checker(self.versions)
        for op in self.ops:
            checker.check(op)

    def record(self, primary: List[float], secondary: List[float]) -> dict:
        """The metrics of this run (after :meth:`check`)."""
        measured = [op for op in self.ops if op.phase != "setup"]
        untraced = [op for op in measured if op.phase == "untraced"]
        reads = [op for op in untraced if op.kind != "write"]
        record = {
            "ops": self.ops,
            "setup_s": self.setups,
            "properties": read_properties(measured),
            "server": server_figures(self.scrapes["untraced"], reads),
        }
        if not self.args.trace:
            record["metrics"] = end_to_end(
                untraced,
                reads,
                self.elapsed["untraced"],
                primary=primary,
                secondary=secondary,
                setups=self.setups,
                peak_rss_mb=self.peak_rss_mb,
            )
            return record

        traced = [op for op in measured if op.phase == "traced"]
        spans = ledger.merge(self.recorder.spans, self.server_spans)
        book = ledger.analyze(spans, self.kinds)
        metrics = ledger.layer_metrics(book)
        sizes = [
            span[ledger.COUNT]
            for span in spans
            if span[ledger.NAME] == "service.handle" and self.kinds.get(span[ledger.OP]) != "write"
        ]
        metrics.update(cache_delta(*self.scrapes["traced"]))
        metrics.update(
            {
                # From the untraced half: no wrapper sits on either side.
                "service.wire_ms": record["server"]["wire_mean_ms"],
                "service.response_bytes": statistics.fmean(sizes) if sizes else 0.0,
                "workload.repeat_share": repeat_share(traced),
                "trace.overhead_ratio": median_ms(
                    [latency(op) for op in traced if op.kind != "write"]
                )
                / median_ms([latency(op) for op in reads]),
            }
        )
        record.update(metrics=metrics, ledger=book, spans=spans, missing=self.missing)
        return record


def run_lookup(args) -> dict:
    run = ServiceRun(args)
    try:
        mixes = [
            data.ReadMix(random.Random(f"lookup-{args.seed}-{i}"), run.ranking)
            for i in range(LOOKUP_CLIENTS)
        ]
        clients = [run.service.client_factory() for _ in range(LOOKUP_CLIENTS)]
        for phase, _began, deadline, _writes in run.phases():
            results: List[List[Op]] = [[] for _ in clients]

            def worker(index: int) -> None:
                while monotonic_ns() < deadline:
                    results[index].append(run.read(clients[index], mixes[index].next(), phase))

            threads = [
                threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(len(clients))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            run.ops.extend(op for out in results for op in out)
        for client in clients:
            client.close()
        run.stop()
    finally:
        run.kill()
    run.check()
    untraced = [op for op in run.ops if op.phase == "untraced"]
    return run.record(
        primary=[latency(op) for op in untraced if op.kind == "bounded"],
        secondary=[latency(op) for op in untraced if op.kind == "hop"],
    )


def run_refresh(args) -> dict:
    run = ServiceRun(args)
    window = data.TransferWindow(args.seed, run.ibans, run.versions[0])
    mix = data.ReadMix(random.Random(f"refresh-reads-{args.seed}"), run.ranking)
    cycles: Dict[str, List[Tuple[Op, Op]]] = {}
    rss_by_write: List[float] = []
    try:
        with run.service.client_factory() as client:
            for phase, began, end, phase_writes in run.phases(REFRESH_WRITES):
                cycles[phase] = []
                slot = (end - began) // phase_writes
                for cycle in range(phase_writes):
                    table = window.advance()
                    run.versions.append(table)
                    write = Op("write", phase, 0)
                    run.call(
                        write,
                        lambda: client.create_table("Transfer", data.TRANSFER_COLUMNS, table),
                    )
                    run.ops.append(write)
                    # The first read after a write is a hop, so every
                    # refresh time measures the same statement.
                    first = run.read(client, mix.hop(), phase, len(run.versions) - 1)
                    run.ops.append(first)
                    cycles[phase].append((write, first))
                    rss_by_write.append(run.service.engine.vmhwm_mb())
                    reads = 1
                    while reads < READS_PER_WRITE or monotonic_ns() < began + (cycle + 1) * slot:
                        run.ops.append(run.read(client, mix.next(), phase, len(run.versions) - 1))
                        reads += 1
        run.stop()
    finally:
        run.kill()
    run.check()

    def refresh_ns(write: Op, first: Op) -> float:
        """Write start until the first read on the new snapshot is in."""
        if not (write.ok and first.ok):
            return math.inf
        return first.began_ns + first.latency_ns - write.began_ns

    record = run.record(
        primary=[refresh_ns(*cycle) for cycle in cycles["untraced"]],
        secondary=[latency(write) for write, _first in cycles["untraced"]],
    )
    record.update(
        vmhwm_mb_by_write=rss_by_write,
        refresh_ms={
            phase: [refresh_ns(*cycle) / 1e6 for cycle in pairs] for phase, pairs in cycles.items()
        },
    )
    return record


def read_properties(ops: List[Op]) -> dict:
    reads = [op for op in ops if op.kind != "write"]
    return {
        "accounts": data.ACCOUNTS,
        "transfers": data.TRANSFERS,
        "ops": len(ops),
        "reads": len(reads),
        "writes": len(ops) - len(reads),
        "rows_per_op": statistics.fmean(len(op.rows or ()) for op in reads) if reads else 0.0,
        "repeat_share": repeat_share(reads),
        "distinct_accounts": len({op.params["acct"] for op in reads if op.kind == "bounded"}),
    }


def server_seconds(before: Dict[str, float], after: Dict[str, float], route: str) -> float:
    """Mean server-side request seconds of ``route`` between two scrapes."""
    name = "repro_service_request_seconds"
    label = '{route="%s"}' % route
    total = after.get(f"{name}_sum{label}", 0.0) - before.get(f"{name}_sum{label}", 0.0)
    count = after.get(f"{name}_count{label}", 0.0) - before.get(f"{name}_count{label}", 0.0)
    return total / count if count else 0.0


def cache_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    gauge = "repro_snapshot_cache_"
    return {
        "cache.views_built": after.get(gauge + "views_built", 0.0)
        - before.get(gauge + "views_built", 0.0),
        "cache.entries": after.get(gauge + "entries", 0.0),
        "cache.gc_evicted": after.get(gauge + "gc_evicted", 0.0),
    }


def server_figures(scrape: Tuple[dict, dict], reads: List[Op]) -> dict:
    """Server-side figures of the untraced phase, from the ``/metrics``
    scrapes around it: request seconds per route, snapshot-cache and
    plan-cache counters, and the wire time they leave of the reads."""
    before, after = scrape
    server_ms = 1000.0 * server_seconds(before, after, "/query")
    client_ms = statistics.fmean(op.latency_ns / 1e6 for op in reads) if reads else 0.0
    tracked = (
        "repro_service_request_seconds_sum",
        "repro_service_request_seconds_count",
        "repro_snapshot_cache_",
        "repro_plan_cache_",
    )
    return {
        "client_read_mean_ms": client_ms,
        "server_query_mean_ms": server_ms,
        "wire_mean_ms": client_ms - server_ms,
        "deltas": {
            key: value - before.get(key, 0.0)
            for key, value in sorted(after.items())
            if key.startswith(tracked)
        },
        **cache_delta(before, after),
    }


# --------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------- #
UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "peak_rss_mb": "MB",
    "service.response_bytes": "bytes",
    "cache.views_built": "count",
    "cache.entries": "count",
    "cache.gc_evicted": "count",
    "planner.plan_cache_hit_ratio": "ratio",
    "planner.rows_per_pair": "ratio",
    "workload.repeat_share": "ratio",
    "trace.unattributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def unit_of(name: str) -> str:
    return UNITS.get(name, "ms")


def host() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("closure", "lookup", "refresh"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    def expire(signum, frame):
        raise TimeoutError(f"benchmark ran past {WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(WATCHDOG_S)
    run = {"closure": run_closure, "lookup": run_lookup, "refresh": run_refresh}[args.workload]
    record = run(args)
    signal.alarm(0)

    ops: List[Op] = record.pop("ops")
    failed = [op for op in ops if not op.ok]
    metrics = record["metrics"]
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.4f} {unit_of(name)}")
    print(f"  {'error_ratio':32s} {len(failed) / max(len(ops), 1):14.4f} ratio")
    for key, value in record["properties"].items():
        print(f"  property {key:23s} {value}")
    book = record.get("ledger")
    if book:
        print(f"  ledger over {book['ops']} traced ops: inclusive / self ms per op, calls per op")
        for name, inclusive in book["inclusive_ms_per_op"].items():
            self_ms = book["self_ms_per_op"][name]
            calls = book["calls_per_op"][name]
            print(f"    {name:28s} {inclusive:12.4f} {self_ms:12.4f} {calls:8.2f}")
    for op in failed[:5]:
        print(f"  FAILED {op.kind} {op.params} v{op.version}: {op.error}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        host=host(),
        attempted=len(ops),
        failed=len(failed),
        latencies_ms=[[op.kind, op.phase, round(op.latency_ns / 1e6, 3)] for op in ops],
        errors=[f"{op.kind} {op.params}: {op.error}" for op in failed[:20]],
    )
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(ops),
                "failed": len(failed),
                "metrics": {
                    name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
