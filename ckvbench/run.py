#!/usr/bin/env python3
"""Build and run the ckv serving benchmark.

Run from the repository root:

    python3 ckvbench/run.py --workload decode-heavy --seed 1 --seconds 20 --trace 0

The first run configures and builds ckvbench/ (which pulls in the ckv
library from src/) into .bench_build/ckvbench; later runs rebuild
incrementally. The benchmark binary prints a report and, as its last stdout
line, one JSON object with the keys correct, attempted, failed and metrics.
With --trace 1 the host spans of the run's first trace are written to
.bench_out/<workload>-seed<seed>.trace.json (Chrome trace-event JSON, loads
in Perfetto).

Exits non-zero, without a result line, when the sources are missing or the
build fails, and with the binary's code when a correctness check fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "ckvbench"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("prefill-heavy", "decode-heavy", "contended")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def run_checked(command, timeout):
    """Runs a build step with its output on stderr; returns its exit code."""
    try:
        return subprocess.run(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(command)}")
        return 1


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "serve").is_dir():
        log(f"the ckv sources (CMakeLists.txt, src/) are missing under {ROOT}")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if run_checked(configure, BUILD_TIMEOUT_S) != 0:
            log("cmake configure failed")
            return False
    if run_checked(["cmake", "--build", str(BUILD_DIR), "--target", "ckv_bench",
                    "-j", jobs], BUILD_TIMEOUT_S) != 0:
        log("build failed")
        return False
    return True


def commit_id():
    """The source commit, when the checkout is a git work tree."""
    if shutil.which("git") is None:
        return "unknown"
    try:
        result = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10, check=False)
    except subprocess.TimeoutExpired:
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 2

    command = [str(BUILD_DIR / "ckv_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--commit", commit_id()]
    if args.trace == 1:
        OUT_DIR.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json")]
    # Its own process group, so a timeout stops its pass processes too.
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as bench:
        try:
            stdout, stderr = bench.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(bench.pid, signal.SIGKILL)
            bench.communicate()
            log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
            return 3
    sys.stderr.write(stderr)
    lines = stdout.rstrip("\n").split("\n")
    if bench.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(f"benchmark exited with code {bench.returncode}")
        return bench.returncode or 3
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
