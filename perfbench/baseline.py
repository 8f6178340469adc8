#!/usr/bin/env python3
"""Append one entry to the committed per-layer ledger, ``ledger.json``.

Reads the records ``run.py`` left in ``perfbench/out/`` for one seed —
an untraced (``--trace 0``) and a traced (``--trace 1``) run of every
workload — and appends them, with a host fingerprint, to the entry list
in ``perfbench/ledger.json``.  Earlier entries are kept, so the file is
the benchmark's history::

    for w in closure lookup refresh; do for t in 0 1; do
      python3 perfbench/run.py --workload $w --seed 7 --seconds 30 --trace $t
    done; done
    python3 perfbench/baseline.py --seed 7 --note "what changed"
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

from run import host

HERE = Path(__file__).resolve().parent
LEDGER = HERE / "ledger.json"
WORKLOADS = ("closure", "lookup", "refresh")


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=HERE.parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def workload_entry(name: str, seed: int) -> dict:
    untraced = json.loads((HERE / "out" / f"{name}-seed{seed}-trace0.json").read_text())
    traced = json.loads((HERE / "out" / f"{name}-seed{seed}-trace1.json").read_text())
    book = traced["ledger"]
    entry = {
        "seconds": untraced["seconds"],
        "end_to_end": untraced["metrics"],
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
        "properties": untraced["properties"],
        "per_layer": traced["metrics"],
        "traced_properties": traced["properties"],
        "ledger": {
            "ops": book["ops"],
            "median_op_ms": book["median_op_ms"],
            "unattributed_ms": book["unattributed_ms"],
            "unattributed_share": book["unattributed_share"],
            "inclusive_ms_per_op": book["inclusive_ms_per_op"],
            "self_ms_per_op": book["self_ms_per_op"],
            "calls_per_op": book["calls_per_op"],
            "closure_pairs": book["closure_pairs"],
            "rows_per_pair": book["rows_per_pair"],
            "tracing_overhead": traced["metrics"]["trace.overhead_ratio"],
            "missing_targets": traced.get("missing", []),
        },
    }
    for key in ("server", "vmhwm_mb_by_write"):
        if key in untraced:
            entry[key] = untraced[key]
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--note", default="")
    args = parser.parse_args()
    history = json.loads(LEDGER.read_text()) if LEDGER.exists() else {"entries": []}
    history["entries"].append(
        {
            "recorded": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            "git": git_sha(),
            "note": args.note,
            "seed": args.seed,
            "host": host(),
            "workloads": {name: workload_entry(name, args.seed) for name in WORKLOADS},
        }
    )
    LEDGER.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n")
    print(f"{LEDGER}: {len(history['entries'])} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
