#!/usr/bin/env python3
"""End-to-end ALPHA path benchmark: builds the program from source, runs one
workload, checks its outputs and prints every metric by name and unit.

    python3 pathbench/run.py --workload stream-c16|paced-base|relay-mix \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to .bench_build/ there;
spans of a traced run go to .bench_build/traces/ and every result, with its
provenance, to .bench_build/results/. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
Exits non-zero, without that line, when the build fails, and with
correct=false when any correctness check failed. Seed 1 is the default;
seed 7919 is held out for re-checking claims. See pathbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import subprocess
import sys

WORKLOADS = ("stream-c16", "paced-base", "relay-mix")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD, "pathbench")
BINARY = os.path.join(BUILD_DIR, "alpha_pathbench")


def build():
    """Configures and builds (incrementally) the Release benchmark binary."""
    tmp = os.path.join(BUILD, "tmp")  # the compiler's scratch files too
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD_DIR, "-j", jobs]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("pathbench: build failed (%s)\n" % log_path)
                return False
    return True


def read_first(path, prefix=None):
    try:
        with open(path) as f:
            for line in f:
                if prefix is None:
                    return line.strip()
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the program and benchmark sources: identifies the code
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "pathbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def provenance(args, build_info):
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    build_type = compiler = None
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
                elif line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
    except OSError:
        pass
    return {
        "cpu_model": read_first("/proc/cpuinfo", "model name")
        or platform.processor() or "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "governor": read_first(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        or "unreadable",
        "compiler": compiler,
        "build_type": build_type,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "alpha_build_info": build_info,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "traffic": "127.0.0.1 loopback, not a real link",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not build():
        return 1
    traces = os.path.join(BUILD, "traces")
    results = os.path.join(BUILD, "results")
    os.makedirs(traces, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", traces]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes)
                         else (e.stdout or ""))
        sys.stderr.write("pathbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        sys.stderr.write("pathbench: no result line (exit %d)\n"
                         % proc.returncode)
        return proc.returncode or 1
    build_info = next((l.split(":", 1)[1].strip() for l in lines
                       if l.startswith("alpha_build_info:")), None)
    prov = provenance(args, build_info)
    for line in lines[:-1]:
        print(line)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results, name), "w") as f:
        json.dump({"provenance": prov, "result": result,
                   "exit_code": proc.returncode}, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
