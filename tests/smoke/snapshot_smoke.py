#!/usr/bin/env python3
"""Persistent-world smoke check: the CLI's snapshot tooling round-trips
a world, a journaling server persists a publish to --world-dir before
it becomes visible, and a fresh process boots from the journal serving
the same routes and a conserving /explain ledger."""

import os

from smoke_util import Server, check, http_json, parse_args, run

args = parse_args(__doc__)
for action in ("save", "inspect", "load"):
    run(args.cli, "snapshot", action, "world.scsnap")

PLAN = '{"origin":0,"destination":63,"departure":"09:30"}'
# First boot builds the city from text inputs and journals it as v1.
with Server(args.cli, "serve1", "--world-dir", "worlds") as server:
    before = http_json(server.url + "/plan", PLAN)
    publish = http_json(server.url + "/world/publish", "")
    journal = http_json(server.url + "/debug/worlds")["journal"]
    server.stop()
for name in ("world-1.scsnap", "world-2.scsnap", "MANIFEST"):
    check(os.path.exists(f"worlds/{name}"), f"worlds/{name} was not written")
with open("worlds/MANIFEST") as manifest:
    check("world-2.scsnap" in manifest.read(), "MANIFEST omits world-2")

# Second boot restores v2 straight from the journal, with no text build.
with Server(args.cli, "serve2", "--world-dir", "worlds") as server:
    health = http_json(server.url + "/healthz")
    after = http_json(server.url + "/plan", PLAN)
    explain = http_json(f"{server.url}/explain/{after['query_id']}")
    output = server.stop()
check("restored world v2" in output, "the restart did not restore v2")
check(health["world_version"] == 2, health)
check(publish["journal"]["enabled"], publish)
check(publish["journal"]["persisted_version"] == 2, publish)
check(journal["snapshots_on_disk"] == 2, journal)
check(journal["persist_failures"] == 0, journal)
# The publish re-derived the same recipe, so routes match across the
# process restart.
check(before["candidates"] == after["candidates"],
      "candidates differ across the restart")
check(explain["conserves"] is True, explain)
print(f"snapshot smoke OK: restored v2, {len(after['candidates'])} "
      "identical candidates, conserving explain")
