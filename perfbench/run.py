#!/usr/bin/env python3
"""Builds (on first use) and runs one perfbench workload.

    python3 perfbench/run.py --workload <serve_tiles|batch_large_window|hw_sim>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark and the library sources under
src/ are compiled into .bench_build/perfbench (Release). The last line of
standard output is the result JSON; the exit status is non-zero when the
build fails, an output check fails, or the run is refused.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "swc_perfbench")
WORKLOADS = ("serve_tiles", "batch_large_window", "hw_sim")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no library sources at {os.path.join(ROOT, 'src')}; run from a full checkout")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "swc_perfbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
        except OSError as err:
            log(f"cannot run {cmd[0]}: {err}")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return os.path.isfile(BINARY)


def source_digest():
    """Content hash of the sources the binary is built from (the checkout
    may not be a git repository)."""
    h = hashlib.sha256()
    for base in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=False)
        return out.stdout.strip() or "none"
    except OSError:
        return "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not build():
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{args.seconds:g}", "--trace", args.trace,
           "--meta", f"git_rev={git_rev()} src_digest={source_digest()}"]
    if args.trace == "1":
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        log(f"{args.workload} exited with status {done.returncode}")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
