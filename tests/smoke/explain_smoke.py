#!/usr/bin/env python3
"""Explain smoke check: the CLI plans on the bundled downtown graph and
scene, replays the recommended route's energy ledger (exit 4 when it
does not conserve) and writes it as JSON and as annotated GeoJSON."""

import json

from smoke_util import check, parse_args, run

args = parse_args(__doc__)
run(args.cli, "explain", "--graph", f"{args.data}/demo_downtown.graph",
    "--scene", f"{args.data}/demo_downtown.scene", "--from-node", "0",
    "--to-node", "63", "--time", "09:30", "--ledger-out", "ledger.json",
    "--geojson", "explain.geojson")
with open("ledger.json") as f:
    json.load(f)
with open("explain.geojson") as f:
    geojson = json.load(f)
check(geojson.get("type") == "FeatureCollection", geojson.get("type"))
print("explain smoke OK")
