#!/usr/bin/env python3
"""Compare a benchmark report against its committed baseline.

Usage: tools/bench_compare.py BASELINE.json CURRENT.json [--update]

Every report (perf_batch_scaling, perf_mlc_scaling, perf_coldstart and
loadgen's BENCH_serve.json) has the layout bench/bench_report.h writes:

    {"bench": NAME,
     "samples": [{"name", "labels", "value", "unit", "gate"}, ...]}

A sample is identified by its name and labels. Its gate is null or
bounds its value absolutely ("min": value >= min, "max": value <= max)
or against the baseline sample with the same name and labels
("min_ratio": value >= min_ratio * baseline, "max_ratio" likewise;
both 1 pins the value exactly).

Exits 1 when a gate of the current report fails, when a ratio gate has
no baseline value, or when a sample gated in the baseline is missing or
ungated in the current report. Each bench sets its own thresholds
(EXPERIMENTS.md says why). --update rewrites the baseline from the
current report and exits 0.
"""

import argparse
import json
import os
import shutil
import sys

# gate key -> (comparison, whether the bound scales the baseline value)
BOUNDS = {"min": (">=", False), "max": ("<=", False),
          "min_ratio": (">=", True), "max_ratio": ("<=", True)}
NUMBER = (int, float)


def cell(value):
    """Integers in full (a count off by one must show), other numbers to
    six digits, '-' for none."""
    if not isinstance(value, NUMBER):
        return "-"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def load(path):
    """The report's bench name and its samples keyed by (name, labels)."""
    with open(path) as f:
        report = json.load(f)
    samples = {}
    for sample in report.get("samples", []):
        labels = ",".join(f"{k}={v}" for k, v in
                          sorted((sample.get("labels") or {}).items()))
        if (sample["name"], labels) in samples:
            raise SystemExit(f"error: {path}: duplicate sample "
                             f"{sample['name']} {labels}")
        samples[(sample["name"], labels)] = sample
    return report.get("bench"), samples


def describe(gate):
    if gate.get("min_ratio") == gate.get("max_ratio") == 1 and len(gate) == 2:
        return "== baseline"
    return ", ".join(f"{op} {gate[key]:g}" + ("x baseline" if ratio else "")
                     for key, (op, ratio) in BOUNDS.items() if key in gate)


def failures(sample, base):
    """Why the sample's gate fails against its baseline sample (or None);
    a null value (the writer's NaN or infinity) fails every bound."""
    gate = sample.get("gate") or {}
    value, base_value = sample.get("value"), (base or {}).get("value")
    out = []
    for key, (op, ratio) in BOUNDS.items():
        if key not in gate:
            continue
        if ratio and not isinstance(base_value, NUMBER):
            out.append(f"{key}: no baseline value")
            continue
        limit = gate[key] * base_value if ratio else gate[key]
        if not (isinstance(value, NUMBER) and
                (value >= limit if op == ">=" else value <= limit)):
            out.append(f"{cell(value)} is not {op} {cell(limit)}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed benchmark report")
    parser.add_argument("current", help="freshly produced report")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current report")
    args = parser.parse_args()

    base_bench, baseline = load(args.baseline)
    bench, current = load(args.current)
    if bench != base_bench:
        raise SystemExit(f"error: {bench!r} report against {base_bench!r}")

    rows, failed = [], []
    for (name, labels), sample in current.items():
        base = baseline.get((name, labels))
        base_value, value = (base or {}).get("value"), sample.get("value")
        delta = (f"{(value - base_value) / base_value * 100:+.1f}%" if
                 isinstance(value, NUMBER) and isinstance(base_value, NUMBER)
                 and base_value else "")
        why = failures(sample, base)
        gate = describe(sample.get("gate") or {})
        rows.append([name, labels, cell(base_value), cell(value), delta,
                     sample.get("unit", ""), gate,
                     "FAIL: " + "; ".join(why) if why else
                     ("ok" if gate else "")])
        failed += [f"{name}{{{labels}}}: {reason}" for reason in why]
    for (name, labels), base in baseline.items():
        if base.get("gate") and not (current.get((name, labels)) or {}).get(
                "gate"):
            state = "ungated" if (name, labels) in current else "missing"
            failed.append(f"{name}{{{labels}}}: gated in the baseline, "
                          f"{state} in the current report")

    headers = ["sample", "labels", "baseline", "current", "delta", "unit",
               "gate", "verdict"]
    widths = [max(len(row[i]) for row in rows + [headers])
              for i in range(len(headers))]
    for row in [headers] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())

    if args.update:
        shutil.copyfile(args.current, args.baseline)
        print(f"updated {args.baseline} from {args.current}")
        return 0

    for message in failed:
        print(f"FAIL: {message}", file=sys.stderr)
    verdict = "FAIL" if failed else "OK"
    gated = [row for row in rows if row[6]]
    print(f"{verdict}: {bench}, {len(gated)} gated, {len(failed)} failed")
    if os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(os.environ["GITHUB_STEP_SUMMARY"], "a") as f:
            f.write(f"### bench_compare: {bench} — {verdict}\n\n"
                    f"| {' | '.join(headers)} |\n|{'---|' * len(headers)}\n"
                    + "".join(f"| {' | '.join(row)} |\n" for row in gated)
                    + "".join(f"\n**FAIL: {m}**\n" for m in failed) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
