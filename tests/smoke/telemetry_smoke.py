#!/usr/bin/env python3
"""Telemetry smoke check: one batch per pricing mode, with 8 workers
appending to one query log. Each run writes exactly one valid record
per fleet query, slot pricing hits the shared cost cache, and the
metrics and trace exports are valid JSON."""

import json

from smoke_util import check, parse_args, run

args = parse_args(__doc__)
queries = f"{args.data}/fleet_queries.txt"
run(args.cli, "batch", "--queries", queries, "--workers", "8",
    "--pricing", "slot", "--metrics-out", "metrics_slot.json",
    "--trace-out", "trace.json", "--query-log", "query_log_slot.jsonl",
    "--slow-query-ms", "1", "--log-level", "info")
run(args.cli, "batch", "--queries", queries, "--workers", "8",
    "--pricing", "exact", "--metrics-out", "metrics_exact.json",
    "--query-log", "query_log_exact.jsonl", "--log-level", "info")

for path in ("metrics_exact.json", "trace.json"):
    with open(path) as f:
        json.load(f)
for mode in ("slot", "exact"):
    with open(f"query_log_{mode}.jsonl") as f:
        lines = f.read().splitlines()
    check(len(lines) == 6, f"{mode}: {len(lines)} query records, not 6")
    for line in lines:
        record = json.loads(line)
        check(record["mode"] == "batch" and "total_seconds" in record, record)
        check(record["pricing"] == mode, record)
        check(record["world.version"] >= 1, record)
        check(record["cpu_ms"] > 0, record)
with open("metrics_slot.json") as f:
    counters = json.load(f)["metrics"]["counters"]
check(counters.get("slotcache.hits", 0) > 0,
      f"slot-pricing batch recorded no cache hits: {counters}")
print(f"telemetry smoke OK: 6 records per mode, "
      f"{counters['slotcache.hits']} slot-cache hits")
