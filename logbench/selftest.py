#!/usr/bin/env python3
"""Tests of the benchmark itself, on the small-size mode of every workload.

    python3 logbench/selftest.py

Run from the repository root.  For each workload it checks that an untraced
and a traced run finish correct with no failed attempts and print every
metric BENCHMARK.json names, that the accuracy rows are sane, and that the
checks fire: a corrupted prediction must make the run incorrect (oracle),
and so must a stalled serve generator (generator lag).  Last, it checks
that a directory holding only BENCHMARK.json and logbench/ exits non-zero
without printing a result.  Exits non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("ge_sweep", "ge_revisit", "scale_topo", "serve_handles")


def run(workload, trace, *extra, cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "7",
           "--seconds", "2", "--trace", str(trace), "--small", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=600)


def result_of(proc, what):
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        raise SystemExit("FAIL %s: exit code %d" % (what, proc.returncode))
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def expect(cond, what):
    if not cond:
        raise SystemExit("FAIL " + what)
    print("ok   " + what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in WORKLOADS:
        r = result_of(run(w, 0), w)
        expect(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
               "%s: correct, no failed attempts" % w)
        m = {k: v["value"] for k, v in r["metrics"].items()}
        expect(set(m) == {e["name"] for e in spec["end_to_end"]},
               "%s: every end-to-end metric" % w)
        expect(all(m[k] > 0 for k in ("jobs_per_s", "p50_us", "p99_us",
                                      "sustained_per_s", "setup_s",
                                      "peak_rss_mb")),
               "%s: timings and rates are positive" % w)
        expect(0 < m["std_err_pct"] < 100 and 0 < m["bracket_pct"] <= 100,
               "%s: accuracy rows in range" % w)

        t = result_of(run(w, 1), w + " traced")
        expect(t["correct"] and t["failed"] == 0,
               "%s traced: correct, no failed attempts" % w)
        expect(set(t["metrics"]) == {e["name"] for e in spec["per_layer"]},
               "%s traced: every per-layer metric" % w)
        expect(os.path.exists(os.path.join(
            ROOT, ".bench_build", "traces", "%s-seed7.json" % w)),
               "%s traced: trace file written" % w)

        bad = result_of(run(w, 0, "--inject", "mismatch"), w + " mismatch")
        expect(not bad["correct"] and bad["failed"] > 0,
               "%s: a corrupted prediction is caught by the oracle" % w)

    stalled = result_of(run("serve_handles", 0, "--inject", "stall"),
                        "serve_handles stall")
    expect(not stalled["correct"],
           "serve_handles: a stalled generator invalidates the run")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "logbench"))
    proc = run("ge_sweep", 0, cwd=bare,
               script=os.path.join(bare, "logbench", "run.py"))
    expect(proc.returncode != 0 and not proc.stdout.strip().startswith("{"),
           "without the library sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)
    print("all benchmark self-tests passed")


if __name__ == "__main__":
    main()
