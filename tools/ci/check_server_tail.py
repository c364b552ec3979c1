#!/usr/bin/env python3
"""Validate BENCH_server_tail.json (CI smoke gate).

The server tail-latency benchmark is the repo's answer to "where do the
pauses land"; CI runs it in short duration mode and this script fails
the job if the output lost a system, a percentile key, or its
provenance stamp — the shapes the plotting/tracking tooling consumes.
Every system must carry `sweeps` and every counter of the runtime's
counter table, read from the rows of src/metrics/counters.h so the
check cannot drift from what the benchmark emits. It also checks that
the reported times agree with each other: the four sweep phases fit
inside the sweeps' wall time, the STW windows fit inside the mark phase,
and STW time is reported exactly when STW pauses were counted.

Usage: check_server_tail.py [path-to-BENCH_server_tail.json]
"""

import json
import os
import re
import sys

SCHEMA_VERSION = 3
COUNTERS_H = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "..", "..", "src", "metrics", "counters.h")
EXPECTED_SYSTEMS = ("baseline", "markus", "ffmalloc", "minesweeper")
LATENCY_KEYS = ("count", "mean_ns", "p50_ns", "p90_ns", "p99_ns",
                "p999_ns", "max_ns")
DIGEST_KEYS = ("op_latency_ns", "alloc_pause_ns", "stw_pause_ns")
PHASE_KEYS = ("phase_dirty_scan_ns", "phase_mark_ns", "phase_drain_ns",
              "phase_release_ns")


def table_counters(path=COUNTERS_H):
    """Exported names of the counter table's rows, X(id, name, kind)."""
    with open(path) as f:
        text = f.read()
    names = re.findall(r"^\s*X\(k\w+, (\w+), k(?:Event|Gauge)\)", text,
                       re.MULTILINE)
    if not names:
        raise ValueError(f"no counter rows found in {path}")
    return names


def consistency_errors(name, sys_doc):
    """Relations between the totals that hold by construction: every
    phase is timed inside its sweep, and the STW window inside mark."""
    errors = []
    phases = sum(sys_doc[k] for k in PHASE_KEYS)
    if phases > sys_doc["sweep_wall_ns"]:
        errors.append(f"{name}: phase sum {phases} > sweep_wall_ns "
                      f"{sys_doc['sweep_wall_ns']}")
    stw = sys_doc["stw_ns"]
    if stw > sys_doc["phase_mark_ns"]:
        errors.append(f"{name}: stw_ns {stw} > phase_mark_ns "
                      f"{sys_doc['phase_mark_ns']}")
    if (stw > 0) != (sys_doc["stw_pause_ns"]["count"] > 0):
        errors.append(f"{name}: stw_ns {stw} but stw_pause_ns "
                      f"count {sys_doc['stw_pause_ns']['count']}")
    return errors


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_server_tail.json"
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_server_tail: cannot read {path}: {e}",
              file=sys.stderr)
        return 1

    try:
        total_keys = ["sweeps"] + table_counters()
    except (OSError, ValueError) as e:
        print(f"check_server_tail: cannot read the counter table: {e}",
              file=sys.stderr)
        return 1

    errors = []
    for key in ("schema_version", "git_describe", "systems"):
        if key not in doc:
            errors.append(f"missing top-level key {key!r}")
    if doc.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        errors.append(f"schema_version {doc['schema_version']} != "
                      f"{SCHEMA_VERSION}")
    systems = doc.get("systems", {})

    for name in EXPECTED_SYSTEMS:
        sys_doc = systems.get(name)
        if sys_doc is None:
            errors.append(f"missing system {name!r}")
            continue
        if not sys_doc.get("ok", False):
            errors.append(f"system {name!r} run failed (ok != true)")
        for digest in DIGEST_KEYS:
            d = sys_doc.get(digest)
            if not isinstance(d, dict):
                errors.append(f"{name}: missing digest {digest!r}")
                continue
            for k in LATENCY_KEYS:
                if k not in d:
                    errors.append(f"{name}.{digest}: missing key {k!r}")
            # A run with zero timed operations means the workload (or
            # the histogram plumbing) silently broke.
            if digest == "op_latency_ns" and d.get("count", 0) <= 0:
                errors.append(f"{name}: zero timed operations")
        for k in total_keys:
            if k not in sys_doc:
                errors.append(f"{name}: missing key {k!r}")

    if not errors:
        for name in EXPECTED_SYSTEMS:
            errors += consistency_errors(name, systems[name])
    if errors:
        for e in errors:
            print(f"check_server_tail: {e}", file=sys.stderr)
        return 1

    ops = {n: systems[n]["op_latency_ns"]["count"]
           for n in EXPECTED_SYSTEMS}
    print(f"check_server_tail: OK ({path}; ops per system: {ops})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
