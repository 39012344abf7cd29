#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve-benign --seed 1 --seconds 25 --trace 0

Run it from the repository root. The first run configures and builds
perfbench/ (the libraries in src/ plus dfsm_perfbench) as a Release
build under .bench_build/perfbench; later runs only rebuild what changed.
Build output goes to standard error; standard output carries the
program's "context" and "report" lines and, last, the JSON result.

Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "dfsm_perfbench")
WORKLOADS = ["serve-benign", "serve-attack", "corpus-1m", "analyze-wide"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def jobs():
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    return str(max(1, min(4, n)))


def build():
    """Configures (once) and builds dfsm_perfbench; returns False on failure."""
    out = sys.stderr
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=out, stderr=out).returncode != 0:
            log("configure failed")
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "dfsm_perfbench",
           "-j", jobs()]
    if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
        log("build failed")
        return False
    return os.path.exists(BINARY)


def source_id():
    """The commit when run from a git checkout, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--size", default="full", choices=["full", "tiny"],
                    help="tiny: the self-test input size")
    ap.add_argument("--sabotage", choices=["colsnap-byte", "monitor-accept-all"],
                    help="corrupt one input on purpose (self-test)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1

    tmpdir = os.path.join(ROOT, ".bench_build", f"perfbench-tmp-{os.getpid()}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--size", args.size, "--tmpdir", tmpdir, "--commit", source_id()]
    if args.sabotage:
        cmd += ["--sabotage", args.sabotage]
    if args.trace == "1":
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.tsv")]
    env = {k: v for k, v in os.environ.items() if k != "DFSM_THREADS"}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        code = 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
