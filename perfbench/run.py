#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the engine library and the benchmark
program (perfbench/flexbench.cc) under .bench_build/ in the checkout; later
calls rebuild only what changed. Build output goes to .bench_build/perfbench.log,
and a result file with provenance to .bench_build/results/.

The last line of standard output is the program's JSON result. The exit code
is non-zero when the build fails, the program times out, or an output oracle
fails. A failed build prints no result.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("chain-saturate", "hotitems-ckpt-kill", "join-open")
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
RESULTS_DIR = BUILD_ROOT / "results"
BUILD_LOG = BUILD_ROOT / "perfbench.log"
PROGRAM_TIMEOUT_S = 170


def build():
    """Configures (first call only) and builds flexbench. Returns its path."""
    BUILD_ROOT.mkdir(exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    with open(BUILD_LOG, "a") as log:
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return None
        cmd = ["cmake", "--build", str(BUILD_DIR), "-j", jobs]
        if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
            return None
    program = BUILD_DIR / "flexbench"
    return program if program.exists() else None


def source_sha():
    """sha256 over the engine and benchmark sources, path by path."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    program = build()
    if program is None:
        sys.stderr.write(f"perfbench: build failed; see {BUILD_LOG}\n")
        return 1

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(program), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(RESULTS_DIR), "--git-sha", git_sha(),
           "--source-sha", source_sha()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("perfbench: flexbench timed out\n")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
