#!/usr/bin/env python3
"""Perf-trajectory gate over every BENCH_*.json file.

For each committed baseline bench/baselines/BENCH_<stem>.baseline.json,
reads the fresh BENCH_<stem>.json of the same stem from FRESH_DIR (written
by bench::Report, bench/bench_common.h) and fails when:

  * the fresh file is missing or unreadable;
  * the bench names or the quick flags differ (quick grids are smaller and
    not comparable with full runs);
  * a baseline metric is missing from the fresh file;
  * a metric regressed by more than the baseline's "tolerance", in the
    direction its "better" field names. For lower-is-better metrics a zero
    baseline allows no slack, so a stall count going from 0 to 1 fails.

The tolerance lives in each baseline file: loose for wall-clock files
(micro), tight for simulated ones whose numbers are exact per seed.
Improvements beyond the tolerance pass and print a hint to refresh the
baseline (EXPERIMENTS.md, "The BENCH files and their gate").

Usage:
    check_bench.py FRESH_DIR [BASELINE_DIR]

BASELINE_DIR defaults to the baselines/ directory next to this script.
Exit codes: 0 pass, 1 any failure above, 2 usage error.
"""

import json
import os
import sys

SUFFIX = ".baseline.json"


def load(path):
    """The parsed report, or None (with a message) if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"FAIL {path}: cannot read ({err})")
        return None


def regressed(measured, expected, better, tolerance):
    slack = tolerance * abs(expected)
    if better == "lower":
        return measured > expected + slack
    return measured < expected - slack


def improved(measured, expected, better, tolerance):
    return regressed(expected, measured, better, tolerance)


def check_file(fresh_path, base_path):
    """Gate one fresh file against its baseline; returns the failure count."""
    base = load(base_path)
    if base is None:
        return 1
    if not os.path.exists(fresh_path):
        print(f"FAIL {fresh_path}: missing (did the bench run?)")
        return 1
    fresh = load(fresh_path)
    if fresh is None:
        return 1
    name = os.path.basename(fresh_path)
    if fresh.get("bench") != base.get("bench"):
        print(f"FAIL {name}: bench {fresh.get('bench')!r} != baseline "
              f"{base.get('bench')!r}")
        return 1
    if bool(fresh.get("quick")) != bool(base.get("quick")):
        print(f"FAIL {name}: quick={bool(fresh.get('quick'))} run compared "
              f"against a quick={bool(base.get('quick'))} baseline")
        return 1

    tolerance = float(base["tolerance"])
    measured = {m["metric"]: float(m["value"]) for m in fresh["metrics"]}
    failures = improvements = 0
    for metric in base["metrics"]:
        key, expected, better = metric["metric"], float(metric["value"]), metric["better"]
        value = measured.get(key)
        if value is None:
            print(f"FAIL {name} {key}: missing from the fresh file")
            failures += 1
        elif regressed(value, expected, better, tolerance):
            print(f"FAIL {name} {key}: {value:g} vs baseline {expected:g} "
                  f"({better} is better, tolerance {tolerance:g})")
            failures += 1
        elif improved(value, expected, better, tolerance):
            print(f"better {name} {key}: {value:g} vs baseline {expected:g}")
            improvements += 1
    for key in sorted(set(measured) - {m["metric"] for m in base["metrics"]}):
        print(f"note {name} {key}: not in the baseline (new metric?)")

    verdict = "FAIL" if failures else "ok"
    print(f"{verdict} {name}: {len(base['metrics'])} metrics, {failures} "
          f"regressed, {improvements} improved (tolerance {tolerance:g})")
    if improvements and not failures:
        print(f"hint: {name} improved; refresh its baseline "
              "(EXPERIMENTS.md, \"The BENCH files and their gate\")")
    return failures


def main(argv):
    if len(argv) not in (2, 3) or argv[1].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    fresh_dir = argv[1]
    base_dir = argv[2] if len(argv) == 3 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "baselines")
    baselines = sorted(f for f in os.listdir(base_dir) if f.endswith(SUFFIX))
    if not baselines:
        print(f"FAIL {base_dir}: no *{SUFFIX} files")
        return 1
    failures = 0
    for base_name in baselines:
        fresh_name = base_name[: -len(SUFFIX)] + ".json"
        failures += check_file(os.path.join(fresh_dir, fresh_name),
                               os.path.join(base_dir, base_name))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
