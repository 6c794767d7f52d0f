#!/usr/bin/env python3
"""Host-throughput benchmark of the DRAM-Locker simulator.

Builds perfbench/ (a CMake package that compiles ../src) into
.bench_build/perfbench, runs one workload in its own process with a fixed
DL_THREADS, and forwards its output.  The last line of stdout is the JSON
result; with --trace 1 the traced driver gives the per-layer metrics.

  python3 perfbench/run.py --workload serve-locker --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --record-digests   # rewrite perfbench/digests.json

Exit code 0 when every check passed, 1 when a campaign failed a check (the
result is still printed), 2 when nothing could be measured.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DIGESTS = os.path.join(HERE, "digests.json")

# Threads per workload: "nproc" = all cores up to MAX_THREADS.
WORKLOADS = {
    "serve-locker": "nproc",
    "chaos-scrub": 1,
    "hammer-sweep": "nproc",
    "bfa-victim": 1,
}
MAX_THREADS = 4
# The default seed and one held-out seed whose report digests are recorded.
RECORDED_SEEDS = (1, 2)
CHILD_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(target):
    """Configures (once per checkout) and builds `target`; False on failure."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(BUILD)  # configured from another checkout
    jobs = str(min(MAX_THREADS, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(cache):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return True


def threads_for(workload):
    cores = min(MAX_THREADS, os.cpu_count() or 1)
    return cores if WORKLOADS[workload] == "nproc" else 1


def load_digests():
    with open(DIGESTS, encoding="utf-8") as f:
        return json.load(f)


def run_workload(workload, seed, seconds, trace, expect):
    """Runs the driver; returns (exit code, stdout lines)."""
    target = "perfbench_traced" if trace else "perfbench"
    if not build(target):
        return 2, []
    cmd = [os.path.join(BUILD, target), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--out", os.path.join(BUILD, "runs")]
    if expect:
        cmd += ["--expect", expect]
    env = dict(os.environ, DL_THREADS=str(threads_for(workload)))
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} exceeded {CHILD_TIMEOUT_S} s")
        return 2, []
    return proc.returncode, proc.stdout.splitlines()


def is_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and
            set(result) == {"correct", "attempted", "failed", "metrics"})


def record_digests():
    digests = {"about": "CRC32 of each workload's report_json per seed: "
                        f"{RECORDED_SEEDS[0]} is the default seed, "
                        f"{RECORDED_SEEDS[1]} the held-out seed."}
    for workload in WORKLOADS:
        digests[workload] = {}
        for seed in RECORDED_SEEDS:
            code, lines = run_workload(workload, seed, 1, False, None)
            found = [m.group(1) for m in
                     (re.match(r"report_crc32 ([0-9a-f]{8})", l) for l in lines)
                     if m]
            if code != 0 or not found:
                log(f"perfbench: {workload} seed {seed} failed; not recorded")
                return 2
            digests[workload][str(seed)] = found[0]
            log(f"{workload} seed {seed}: {found[0]}")
    with open(DIGESTS, "w", encoding="utf-8") as f:
        json.dump(digests, f, indent=2)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=RECORDED_SEEDS[0])
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="rerun the recorded seeds and rewrite digests.json")
    args = ap.parse_args()
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    expect = load_digests().get(args.workload, {}).get(str(args.seed))
    code, lines = run_workload(args.workload, args.seed, args.seconds,
                               args.trace == 1, expect)
    if code not in (0, 1) or not lines or not is_result(lines[-1]):
        log("\n".join(lines))
        log(f"perfbench: {args.workload} produced no result (exit {code})")
        return 2
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
