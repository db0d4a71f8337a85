#!/usr/bin/env python3
"""Build the library and the perfbench program, then run one workload.

Run from the repository root:

  python3 perfbench/run.py --workload flow --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload serve --seed 1 --seconds 2 --self-check
  python3 perfbench/run.py --record    # rewrite perfbench/expected/ from this build

The build lands in .bench_build/perfbench (one RelWithDebInfo configuration,
see perfbench/CMakeLists.txt); traced runs write their Chrome trace-event
JSON to .bench_build/traces/. The last line of standard output is the JSON
result; on any failure the script exits nonzero without printing one.

Reported times are scaled to reference host speed by a fixed kernel timed
between ops (see perfbench/src/main.cpp), because a shared host runs the
same work at very different speeds from one minute to the next. Each
metric line also prints the unscaled figure.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool decide what is stale.

    Compiler temporaries go under .bench_build too, so a run writes
    nothing outside the checkout."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def code_id():
    """The commit when this is a git checkout, else a digest of src/."""
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["flow", "verify", "sweep", "serve"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="corrupt one output and require exactly one failed op")
    ap.add_argument("--record", action="store_true",
                    help="rewrite the expected-output tables from this build")
    args = ap.parse_args()
    if not args.record and not args.workload:
        ap.error("--workload is required")

    if not build():
        return 1
    cmd = [str(BUILD / "perfbench"), "--data", str(HERE / "expected")]
    if args.record:
        cmd.append("--record")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--commit", code_id()]
        if args.self_check:
            cmd.append("--self-check")
        if args.trace:
            traces = BUILD_ROOT / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=None if args.record else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 1
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        log(f"perfbench exited with code {done.returncode}")
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
