#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the Typhoon libraries, typhoon_hostd
and the perfbench binary from source (Release) into $CARGO_TARGET_DIR or
.bench_build, then runs one workload. The binary's output is relayed; its
last line is the result object. Exits non-zero, printing no result, when
the build or the run fails.
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
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("Typhoon sources (src/) not found next to perfbench/")
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build directory configured for another checkout is reset.
        with open(cache) as f:
            home = [ln.split("=", 1)[1].strip() for ln in f
                    if ln.startswith("CMAKE_HOME_DIRECTORY:")]
        if home and os.path.realpath(home[0]) != os.path.realpath(HERE):
            os.remove(cache)
            shutil.rmtree(os.path.join(build_dir, "CMakeFiles"),
                          ignore_errors=True)
    with open(log_path, "w") as log:
        if not os.path.isfile(cache):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                shutil.rmtree(os.path.join(build_dir, "CMakeFiles"),
                              ignore_errors=True)
                try:
                    os.remove(os.path.join(build_dir, "CMakeCache.txt"))
                except OSError:
                    pass
                fail(f"configure failed, see {log_path}")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
               "typhoon_hostd", "-j", jobs]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            fail(f"build failed, see {log_path}")
    return (os.path.join(build_dir, "perfbench"),
            os.path.join(build_dir, "typhoon", "typhoon", "typhoon_hostd"))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    binary, hostd = build(build_dir)

    span_dir = os.path.join(build_dir, "spans")
    os.makedirs(span_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--hostd", hostd, "--out-dir", span_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"perfbench exited with {proc.returncode}")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
