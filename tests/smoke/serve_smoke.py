#!/usr/bin/env python3
"""Route-server smoke check over real sockets: stepped load with a world
publish landing mid-step, live introspection, and a SIGTERM drain that
answers everything in flight. Leaves loadgen's BENCH_serve.json in
--out for tools/bench_compare.py."""

import json

from smoke_util import Server, check, http, http_json, parse_args, run

args = parse_args(__doc__)
with Server(args.cli, "serve", "--http-workers", "4", "--trace",
            "--profile", "--profile-interval-ms", "2",
            "--query-log", "query_log_serve.jsonl",
            "--access-log", "access.log") as server:
    # loadgen exits non-zero on a 5xx, a transport error, a conservation
    # failure, a missing request-id echo, or a publish that never
    # surfaced a new world version.
    run(args.loadgen, "--port", server.port,
        "--queries", f"{args.data}/fleet_queries.txt",
        "--concurrency", "1,2,4,8", "--requests-per-step", "120",
        "--publish-mid-step", "--profile-out", "serve_prof.folded",
        "--out", "BENCH_serve.json")
    metrics = http(server.url + "/metrics").splitlines()
    # Introspection must answer while the server is up.
    trace = http_json(server.url + "/debug/trace")
    queries = http_json(server.url + "/debug/queries?n=16")
    worlds = http_json(server.url + "/debug/worlds")
    profile = http_json(server.url + "/debug/profile?format=json")
    output = server.stop()
check(any(line.startswith("drained:") for line in output.splitlines()),
      "no drained: line after SIGTERM")

# Requests are counted once, by endpoint and status.
check(any(line.startswith('serve_requests{endpoint="/plan",status="200"}')
          for line in metrics),
      '/metrics has no serve_requests{endpoint="/plan",status="200"} series')

report = json.load(open("BENCH_serve.json"))
values = {(s["name"], json.dumps(s["labels"], sort_keys=True)): s["value"]
          for s in report["samples"]}
total = {name: value for (name, labels), value in values.items()
         if labels == "{}"}
steps = [labels for (name, labels) in values if name == "cpu_seconds"]
check(total["requests"] > 0 and total["ok"] == total["requests"],
      f"not every request answered ok: {total}")
for name in ("http_4xx", "http_5xx", "transport_errors",
             "conservation_failures", "request_id_missing"):
    check(total[name] == 0, f"{name} = {total[name]}")
check(total["world_version_max"] > total["world_version_min"],
      "the mid-step publish never moved the world version")
check(steps and all(values[("cpu_seconds", s)] > 0 for s in steps),
      "a load step burned no server CPU")
check(any(values[("window_p99_ms", s)] > 0 for s in steps),
      "the server's window p99 read 0 in every step")
check(total["batch_ok"] >= 1, "no /batch probe answered ok")

# At least one mlc.search span's parent chain walks back to an ingress
# serve.request span: cross-thread parenting over real sockets.
spans = {e["args"]["span_id"]: (e["name"], e["args"].get("parent_id", ""))
         for e in trace["traceEvents"] if e.get("args")}
parented = 0
for event in trace["traceEvents"]:
    if event["name"] != "mlc.search" or not event.get("args"):
        continue
    at = event["args"].get("parent_id", "")
    for _ in range(16):
        if at not in spans:
            break
        name, at = spans[at]
        if name == "serve.request":
            parented += 1
            break
check(parented >= 1, "no mlc.search span chains to serve.request")
check(queries["enabled"] and queries["count"] >= 1, queries)
check("trace_id" in json.dumps(queries["queries"][0]), queries["queries"][0])
check(worlds["current_version"] >= 2, worlds)
check(any(row["current"] for row in worlds["lineage"]), worlds)

# The profiler sampled the live load across the batch pool's thread hop.
folds = [line for line in open("serve_prof.folded").read().splitlines()
         if line.strip()]
check(any(line.startswith("serve.request;batch.query;mlc.search")
          for line in folds),
      f"no serve.request;batch.query;mlc.search fold in {folds[:20]}")
check(profile["running"] and profile["samples_total"] > 0, profile)
check(total["profile_folds"] >= 1 and total["profile_has_batch_stack"] == 1,
      "loadgen's report holds no batch profile stack")
print(f"serve smoke OK: {total['ok']:.0f} requests, worlds "
      f"v{total['world_version_min']:.0f}..v{total['world_version_max']:.0f}"
      f", {parented} parented mlc.search spans, {len(folds)} folds")
