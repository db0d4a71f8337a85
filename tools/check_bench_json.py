#!/usr/bin/env python3
"""Gate for the CI perf trajectory: fail if BENCH.json is missing, empty,
or malformed.

The perf-smoke job uploads BENCH.json as the per-commit perf record; an
empty or unparseable file means the trajectory silently stops being
recorded, which is exactly the failure mode this script exists to catch.

Usage:
    check_bench_json.py BENCH.json [--require PREFIX]...

Every row must name its host (logical CPUs, effective parallelism, build
type and compiler), so a figure is never read without the machine that
produced it. Each --require PREFIX demands at least one row whose name
starts with PREFIX, so the job also fails when a whole bench family stops
reporting (e.g. a bench exits early before recording).
"""

import argparse
import json
import math
import re
import sys

NAME_RE = re.compile(r"^[a-z0-9_]+$")
REQUIRED_KEYS = {"name": str, "n": int, "ns_per_op": (int, float), "items_per_sec": (int, float)}
# Optional provenance fields newer writers add; rows from older writers
# lack them, so they are validated only when present.
TIMESTAMP_RE = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z$")
COMMIT_RE = re.compile(r"^[0-9A-Za-z_.-]{1,64}$")
HOST_STRINGS = ("build_type", "compiler")


def fail(msg: str) -> None:
    print(f"BENCH.json check FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def check_host(i: int, row: dict) -> None:
    """The host context: logical CPUs, effective parallelism, build type
    and compiler."""
    host = row["host"]
    if not isinstance(host, dict):
        fail(f"row {i} host is not an object: {row!r}")
    cpus = host.get("logical_cpus")
    if not isinstance(cpus, int) or isinstance(cpus, bool) or cpus <= 0:
        fail(f"row {i} host.logical_cpus is not a positive integer: {row!r}")
    par = host.get("effective_parallelism")
    if (not isinstance(par, (int, float)) or isinstance(par, bool)
            or not math.isfinite(par) or par < 0):
        fail(f"row {i} host.effective_parallelism is not a finite non-negative number: {row!r}")
    for key in HOST_STRINGS:
        if not isinstance(host.get(key), str) or not host[key]:
            fail(f"row {i} host.{key} is not a non-empty string: {row!r}")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("path")
    ap.add_argument("--require", action="append", default=[],
                    help="require at least one row whose name starts with this prefix")
    args = ap.parse_args()

    try:
        with open(args.path, encoding="utf-8") as f:
            data = json.load(f)
    except FileNotFoundError:
        fail(f"{args.path} does not exist")
    except json.JSONDecodeError as e:
        fail(f"{args.path} is not valid JSON: {e}")

    if not isinstance(data, list):
        fail("top-level value must be a JSON array of rows")
    if not data:
        fail("trajectory is empty (zero rows recorded)")

    for i, row in enumerate(data):
        if not isinstance(row, dict):
            fail(f"row {i} is not an object: {row!r}")
        for key, types in REQUIRED_KEYS.items():
            if key not in row:
                fail(f"row {i} is missing key {key!r}: {row!r}")
            if not isinstance(row[key], types) or isinstance(row[key], bool):
                fail(f"row {i} key {key!r} has wrong type: {row!r}")
        if not NAME_RE.match(row["name"]):
            fail(f"row {i} name is not a bench identifier: {row['name']!r}")
        if row["n"] <= 0:
            fail(f"row {i} has non-positive n: {row!r}")
        for key in ("ns_per_op", "items_per_sec"):
            v = float(row[key])
            if not math.isfinite(v) or v < 0:
                fail(f"row {i} key {key!r} is not a finite non-negative number: {row!r}")
        if "timestamp" in row:
            if not isinstance(row["timestamp"], str) or not TIMESTAMP_RE.match(row["timestamp"]):
                fail(f"row {i} timestamp is not ISO-8601 UTC (YYYY-MM-DDTHH:MM:SSZ): {row!r}")
        if "commit" in row:
            if not isinstance(row["commit"], str) or not COMMIT_RE.match(row["commit"]):
                fail(f"row {i} commit is not an identifier-safe revision string: {row!r}")
        if "host" not in row:
            fail(f"row {i} has no host context: {row!r}")
        check_host(i, row)

    names = [row["name"] for row in data]
    for prefix in args.require:
        if not any(n.startswith(prefix) for n in names):
            fail(f"no row from required bench family {prefix!r} "
                 f"(recorded families: {sorted(set(names))})")

    print(f"BENCH.json OK: {len(data)} rows, families {sorted(set(names))}")


if __name__ == "__main__":
    main()
