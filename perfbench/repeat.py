#!/usr/bin/env python3
"""Run workloads several times with distinct seeds and report each
end-to-end metric's median and spread (interquartile range over the
median) against its bound in BENCHMARK.json.

  python3 perfbench/repeat.py                          # every workload, 10 runs
  python3 perfbench/repeat.py --workloads serve --runs 5 --seed-base 100

A spread under a third of the bound is reported as steady. setup_s has no
spread requirement, only its median's stability between repeated sets.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args()

    metrics = spec["end_to_end"]
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        failed = attempted = 0
        for k in range(args.runs):
            res = run_once(workload, args.seed_base + k, args.seconds)
            print(f"   seed {args.seed_base + k}: " + " ".join(
                f"{name} {m['value']:.5g}" for name, m in res["metrics"].items()), flush=True)
            failed += res["failed"]
            attempted += res["attempted"]
            for name, m in res["metrics"].items():
                values[name].append(m["value"])
        print(f"== {workload}: {args.runs} runs, {attempted} ops, {failed} failed")
        for m in metrics:
            name, bound, vals = m["name"], m["bound"], values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            verdict = ""
            if name != "setup_s":
                verdict = "steady" if spread < bound / 3 else ("ok" if spread <= bound else "WIDE")
                worst = max(worst, spread / bound)
            print(f"  {name:16s} {med:12.6g} {m['unit']:4s} q1 {q1:10.5g} q3 {q3:10.5g}"
                  f"  spread {spread:6.3f} / bound {bound:.3f} {verdict}", flush=True)
    print(f"worst spread/bound over bounded metrics: {worst:.3f}")


if __name__ == "__main__":
    main()
