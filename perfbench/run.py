#!/usr/bin/env python3
"""Stack benchmark entry point: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
library and the benchmark into $CARGO_TARGET_DIR (default .bench_build);
build output goes to stderr. The metric names and units come from
BENCHMARK.json. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}},
with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1; a layer the workload never crosses reads 0). The exit code is
non-zero on a wrong payload or a failed build, and then no result is
printed unless the run itself completed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds; returns the build directory or None."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    rc = subprocess.run(["cmake", "--build", out, "-j", jobs],
                        stdout=sys.stderr, stderr=sys.stderr).returncode
    return out if rc == 0 else None


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_binary(cmd):
    """Runs cmd, passing stderr through; returns (exit code, stdout lines)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, out.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        log(f"cannot read the benchmark definition: {e}")
        return 1
    if not args.selftest and args.workload not in {w["name"] for w in bench["workloads"]}:
        log(f"unknown workload {args.workload!r}")
        return 2

    out = build()
    if out is None:
        log("build failed")
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git-sha", git_sha(),
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    rc, lines = run_binary(cmd)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"no result (exit code {rc})")
        return rc or 1

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    got = result.get("metrics", {})
    metrics = {}
    for m in declared:
        v = got.get(m["name"])
        if v is None and not args.trace:
            log(f"end-to-end metric {m['name']} missing from the run")
            return 1
        if v is not None and v["unit"] != m["unit"]:
            log(f"metric {m['name']} has unit {v['unit']}, declared {m['unit']}")
            return 1
        metrics[m["name"]] = {"value": v["value"] if v else 0.0, "unit": m["unit"]}
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": bool(result["correct"]) and rc == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}), flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
