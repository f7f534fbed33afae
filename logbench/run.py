#!/usr/bin/env python3
"""Build and run one logsim benchmark workload.

    python3 logbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                            [--small] [--inject mismatch|stall]

Run from the repository root.  Builds logbench/ (a CMake package over the
library sources in ../src) as a Release build under .bench_build/, then runs
the workload.  The last line of stdout is the run's JSON result; its metric
names and units are checked against BENCHMARK.json when that file is
present.  With --trace 1 the Chrome trace of the run is written to
.bench_build/traces/.  Exits non-zero, without a result line, when the
library sources are missing or the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "logbench")
WORKLOADS = ("ge_sweep", "ge_revisit", "scale_topo", "serve_handles")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("logbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_digest():
    """Digest of the library and benchmark sources: the checkout the
    benchmark runs in carries no version-control metadata."""
    h = hashlib.sha256()
    for top in ("src", "include", "tools", "logbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "logbench", "logsimd"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (see .bench_build/build.log)")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are " + ", ".join(sorted(result)))
    expected = expected_metrics(trace)
    if expected is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
                sorted(set(expected) - set(got)), sorted(set(got) - set(expected))))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--inject", choices=("mismatch", "stall"),
                    help="self-test hook: corrupt one prediction, or stall "
                         "the serve generator, to prove the check fires")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at %s/src: run from a full checkout"
             % ROOT)
    build()

    cmd = [os.path.join(BUILD, "logbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--logsimd", os.path.join(BUILD, "logsimd"),
           "--commit", source_digest()]
    if args.small:
        cmd.append("--small")
    if args.inject:
        cmd += ["--inject", args.inject]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]

    # Own process group, so a timeout also takes down the daemon the
    # serve workload starts.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        fail("%s exited with code %d" % (args.workload, proc.returncode))
    check_result(lines[-1], args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
