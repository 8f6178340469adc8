"""The process that runs the engine, so its memory is measured alone.

Started by ``run.py`` with ``PYTHONPATH`` naming the checkout's ``src``;
reads one JSON line of inputs on stdin.  Two modes:

``closure``
    Loads the tables into a fresh ``Database`` several times, timing each
    set-up (load plus the first run of each statement), then runs the
    two closure statements alternately on one planned connection for the
    given seconds.  With ``trace`` the second half of the time runs with
    the wrappers of ``tracing.py`` installed.  Prints one JSON line.

``serve``
    Loads the tables and serves them with ``repro.service.Server`` (the
    service CLI's defaults: planned engine, pool of 8) on an ephemeral
    port, printed as the first line.  Then reads commands: ``trace``
    installs the wrappers, ``stop`` (or end of input) stops the server
    and prints the recorded spans.
"""

from __future__ import annotations

import json
import sys
from time import monotonic_ns

from repro.engine.database import Database
from repro.service import Server

import data
import tracing


def load(spec: dict) -> Database:
    database = Database()
    database.create_table(
        "Account", data.ACCOUNT_COLUMNS, [(iban,) for iban in spec["accounts"]]
    )
    database.create_table("Transfer", data.TRANSFER_COLUMNS, spec["transfers"])
    database.execute(data.DDL)
    return database


def run_closure(spec: dict) -> dict:
    statements = spec["statements"]  # [[kind, sql, reference digest], ...]
    setups = []
    database = connection = None
    expected = {}
    recorder = None
    missing = []
    for attempt in range(spec["setups"]):
        if connection is not None:
            connection.close()
            database.close()
        last = attempt == spec["setups"] - 1
        if last and spec["trace"]:
            # Warm runs reuse the memoized closure, so the closure's size
            # is only seen in the last set-up's cold fixpoint (op -2).
            recorder = tracing.Recorder()
            missing = tracing.install(recorder, server=False)
            recorder.set_op(-2)
        start = monotonic_ns()
        database = load(spec)
        connection = database.connect(engine="planned")
        first = [connection.execute(sql).to_list() for _kind, sql, _ref in statements]
        setups.append((monotonic_ns() - start) / 1e9)
        if last:
            # The last set-up's answers are checked in full; later runs of
            # the same statement must then repeat them exactly.
            for (kind, _sql, reference), rows in zip(statements, first):
                good = data.digest(rows) == reference
                expected[kind] = (len(rows), hash(tuple(rows))) if good else None
        del first

    ops = []
    phases = [("untraced", spec["seconds"])]
    if spec["trace"]:
        half = spec["seconds"] / 2.0
        phases = [("untraced", half), ("traced", half)]
    cache = {}
    for phase, seconds in phases:
        if recorder is not None:
            recorder.enabled = phase == "traced"
        cache[phase] = {"before": database.snapshot_cache.stats()}
        start = monotonic_ns()
        deadline = start + int(seconds * 1e9)
        index = 0
        while index % len(statements) or monotonic_ns() < deadline:
            kind, sql, _ref = statements[index % len(statements)]
            index += 1
            error = None
            began = monotonic_ns()
            try:
                if phase == "untraced":
                    rows = connection.execute(sql).to_list()
                else:
                    op = len(ops)
                    recorder.set_op(op)
                    with recorder.span("op"):
                        result = connection.execute(sql)
                        with recorder.span("session.decode"):
                            count = len(result)
                        with recorder.span("session.order", count):
                            result.rows
                        rows = result.to_list()
                    recorder.set_op(-1)
                    del result
            except Exception as exc:  # every failure counts, none stops the run
                error = f"{type(exc).__name__}: {exc}"
                rows = []
            elapsed = monotonic_ns() - began
            want = expected.get(kind)
            ok = error is None and want is not None and want == (len(rows), hash(tuple(rows)))
            if not ok and error is None:
                error = "result differs from the reference"
            ops.append([kind, elapsed, ok, len(rows), phase, error])
            del rows
        cache[phase]["after"] = database.snapshot_cache.stats()
        cache[phase]["elapsed_s"] = (monotonic_ns() - start) / 1e9
    connection.close()
    database.close()
    return {
        "setup_s": setups,
        "ops": ops,
        "cache": cache,
        "vmhwm_kb": tracing.vmhwm_kb(),
        "spans": recorder.spans if recorder is not None else [],
        "missing": missing,
    }


def serve(spec: dict) -> None:
    database = load(spec)
    server = Server(database, port=0, engine="planned", pool_size=8)
    server.start()
    print(json.dumps({"port": server.port}), flush=True)
    recorder = None
    missing = []
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace":
                recorder = tracing.Recorder()
                missing = tracing.install(recorder, server=True)
                print(json.dumps({"missing": missing}), flush=True)
            elif command == "stop":
                break
    finally:
        server.stop()
        database.close()
    spans = recorder.spans if recorder is not None else []
    print(json.dumps({"spans": spans, "missing": missing}), flush=True)


def main() -> int:
    mode = sys.argv[1]
    spec = json.loads(sys.stdin.readline())
    if mode == "closure":
        print(json.dumps(run_closure(spec)), flush=True)
    elif mode == "serve":
        serve(spec)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
