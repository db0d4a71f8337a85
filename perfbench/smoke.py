#!/usr/bin/env python3
"""Smoke self-test of the benchmark: a few ops per workload.

  python3 perfbench/smoke.py

Checks, for every workload in BENCHMARK.json:
  * untraced and traced runs print exactly the metrics BENCHMARK.json names,
    each with its unit, and no op fails (error_rate 0);
  * traced runs attribute at least 95% of op time to layer spans on the
    single-client workloads (flow, verify, sweep);
  * every serve layer ran: svc.dedup_waits, svc.evictions,
    cell.instances_materialized and svc.lint_report_hit_rate are nonzero;
  * a corrupted output is counted as exactly one failed op.
Exits nonzero on the first failed check.
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = {"flow": 1, "verify": 1, "sweep": 1, "serve": 2}
SERVE_NONZERO = ["svc.dedup_waits", "svc.evictions", "cell.instances_materialized",
                 "svc.lint_report_hit_rate"]


def run(workload, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", str(SECONDS[workload]), *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (w["name"] for w in spec["workloads"]):
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = run(w, "--trace", str(trace))
            check(done.returncode == 0, f"{w} trace={trace} exits 0")
            res = json.loads(done.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in names}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{w} trace={trace} prints every metric with its unit")
            check(res["attempted"] > 0 and res["failed"] == 0 and res["correct"],
                  f"{w} trace={trace} error_rate 0 ({res['failed']}/{res['attempted']})")
            if trace == 1:
                m = {k: v["value"] for k, v in res["metrics"].items()}
                if w != "serve":
                    check(m["trace.coverage_pct"] >= 95,
                          f"{w} spans cover {m['trace.coverage_pct']:.1f}% of op time")
                else:
                    for name in SERVE_NONZERO:
                        check(m[name] > 0, f"serve {name} = {m[name]:.4g} is nonzero")
        done = run(w, "--self-check")
        check(done.returncode == 0 and "self-check passed" in done.stdout,
              f"{w} counts a corrupted output as one failed op")
    print("smoke passed")


if __name__ == "__main__":
    main()
