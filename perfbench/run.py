#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serial_solve --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root.  The driver (perfbench_driver, built from
perfbench/CMakeLists.txt against the library sources in src/) is compiled
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later runs reuse the build.  The driver's output is passed through;
its last line is the result JSON.  The metric names in it are checked
against BENCHMARK.json, and any failure (build, run, timeout, mismatch)
exits non-zero without a result line.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def run(cmd, timeout, capture=False):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"timed out after {timeout} s: {' '.join(cmd)}")
        return None, None
    return proc.returncode, out


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        code, _ = run(cmd, BUILD_TIMEOUT_S)
        if code != 0:
            if os.path.isdir(build_dir):
                shutil.rmtree(build_dir)  # reconfigure from scratch next time
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    code, _ = run(["cmake", "--build", build_dir, "--target", "perfbench_driver",
                   "-j", jobs], BUILD_TIMEOUT_S)
    if code != 0:
        return None
    return build_dir


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build_dir = build()
    if build_dir is None:
        log("build failed")
        return 2
    driver = os.path.join(build_dir, "perfbench_driver")

    if args.selftest:
        code, _ = run([driver, "--selftest"], RUN_TIMEOUT_S)
        return 0 if code == 0 else 1

    spans = os.path.join(build_dir, f"spans_{args.workload}_{args.seed}.json")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", spans]
    code, out = run(cmd, RUN_TIMEOUT_S, capture=True)
    if code is None:
        return 3
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if code != 0:
        log(f"driver exited with {code}")
        return 1

    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log("driver printed no result line")
        return 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(bool(args.trace))
    if got != want:
        log(f"metrics differ from BENCHMARK.json: printed {sorted(got.items())}, "
            f"declared {sorted(want.items())}")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
