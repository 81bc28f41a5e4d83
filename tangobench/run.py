#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 tangobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout.  The first run configures and builds
(Release) into .bench_build/tangobench; later runs rebuild only what changed.
Prints a host manifest line, the benchmark's own output and, as the last
line, the result object.  When the sources are missing or the build fails it
exits nonzero without printing a result.
"""
import argparse
import ctypes
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "tangobench")
BINARY = os.path.join(BUILD, "tangobench")
BUILD_JOBS = "4"
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag, as `setarch -R` sets it


def fail(message, code):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no Tango sources under {ROOT}/src; run from a checkout", 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "tangobench", "-j", BUILD_JOBS])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"build step failed: {' '.join(step)} (log: {log_path})", 3)


def no_aslr():
    """Runs in the child before exec: turns address-space randomisation off.

    The mesh workloads hold ~700 MB of pointer-linked state, and with a fresh
    random layout per process their timed-window metrics scattered more
    between runs (README.md, "Measured spreads").  Where the personality call
    is refused the run goes ahead with the layout randomised.
    """
    libc = ctypes.CDLL(None)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def cmake_cache():
    values = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
        for line in cache:
            key, sep, value = line.strip().partition("=")
            if sep and not key.startswith(("//", "#")):
                values[key.split(":")[0]] = value
    return values


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.splitlines()[0].strip() if out.returncode == 0 and out.stdout else None


def manifest(args):
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
    except OSError:
        pass
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER")
    sha = first_line(["git", "rev-parse", "HEAD"])
    dirty = None
    if sha is not None:
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, cwd=ROOT)
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "compiler": first_line([compiler, "--version"]) if compiler else None,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "git_sha": sha,
        "dirty": dirty,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()
    print(json.dumps({"manifest": manifest(args)}), flush=True)
    run = subprocess.run([BINARY, "--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", repr(args.seconds), "--trace", str(args.trace)],
                         cwd=ROOT, timeout=170, preexec_fn=no_aslr)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
