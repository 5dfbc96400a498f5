#!/usr/bin/env python3
"""Self-test of the golite benchmark. Run from the repository root:

    python3 perfbench/check.py [--seconds 2] [--held-out-seed 7]

Checks, each on short runs:
  * BENCHMARK.json lists exactly the metrics golbench prints;
  * every workload passes its correctness checks with 0 failed
    operations on the default seed (which compares against the
    committed oracles) and on a held-out seed;
  * `detect` verdicts and RunReport fingerprints are identical at 1
    and at 2 workers;
  * the traced run of every workload reproduces the untraced outputs
    (golbench fails the run otherwise; for detect this includes every
    RunReport fingerprint) and reports every per-layer metric, with
    the layers the workload exercises non-zero;
  * the `search` oracle agrees with baselines/BENCH_explore.json where
    the settings coincide: fuzzer executions to the first bug (same
    seed, budget and predicate), DPOR executions to the first bug, and
    every kernel certified there is certified here.
Exits non-zero on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("detect", "search", "artifacts", "serve")

# Per-layer metrics that must be non-zero on the workload that
# exercises their layer.
EXERCISED = {
    "detect": ["runtime.self_us_p50", "runtime.spawns", "race.events",
               "race.ns_per_event", "race.reports", "waitgraph.events",
               "waitgraph.ns_per_event", "waitgraph.partial_deadlocks",
               "parallel.run_s", "parallel.busy_ratio"],
    "search": ["runtime.self_us_p50", "explore.executions",
               "explore.self_us_per_exec", "explore.execs_to_bug",
               "explore.certified", "fuzz.executions", "fuzz.execs_to_bug",
               "fuzz.coverage_states", "fuzz.self_us_per_exec"],
    "artifacts": ["scanner.generate_mb_per_s", "scanner.count_mb_per_s",
                  "scanner.generate_share", "scanner.primitives"],
    "serve": ["runtime.self_us_per_req", "runtime.max_live_goroutines",
              "runtime.blocks_sleep", "runtime.blocks_netio", "race.events",
              "race.ns_per_event", "race.peak_clock_slots",
              "race.arena_bytes", "load.requests_sent", "load.responses",
              "load.goroutines_created", "load.queue_p999_ms"],
}


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def run(workload, seed, seconds, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    tag = f"{workload} seed={seed} trace={trace} {' '.join(extra)}".strip()
    if not result["correct"] or result["failed"] != 0:
        fail(f"{tag}: correct={result['correct']} failed={result['failed']}"
             f"\n{proc.stderr[-2000:]}")
    print(f"ok   {tag}: attempted {result['attempted']}")
    return result, lines[:-1]


def digest_lines(lines):
    return sorted(l for l in lines if "digest" in l)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=2)
    parser.add_argument("--held-out-seed", type=int, default=7)
    args = parser.parse_args()
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for seed in (1, args.held_out_seed):
        for w in WORKLOADS:
            result, _ = run(w, seed, args.seconds, 0)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != e2e:
                fail(f"{w}: end-to-end metrics {got} != BENCHMARK.json {e2e}")

    one, one_lines = run("detect", args.held_out_seed, args.seconds, 0,
                         "--workers", "1", "--fingerprints")
    two, two_lines = run("detect", args.held_out_seed, args.seconds, 0,
                         "--workers", "2", "--fingerprints")
    if digest_lines(one_lines) != digest_lines(two_lines):
        fail(f"detect digests differ between 1 and 2 workers: "
             f"{digest_lines(one_lines)} vs {digest_lines(two_lines)}")
    print("ok   detect verdicts and fingerprints equal at 1 and 2 workers")

    for w in WORKLOADS:
        result, _ = run(w, 1, args.seconds, 1, "--fingerprints")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != layer:
            fail(f"{w}: per-layer metrics {sorted(got)} != BENCHMARK.json")
        zero = [m for m in EXERCISED[w] + ["obs.trace_overhead", "obs.spans"]
                if result["metrics"][m]["value"] <= 0]
        if zero:
            fail(f"{w}: traced run reports zero for {zero}")

    base = json.load(open(os.path.join(ROOT, "baselines",
                                       "BENCH_explore.json")))
    oracle = {}
    for line in open(os.path.join(HERE, "oracles", "search.txt")):
        kernel, *fields = line.split()
        oracle[kernel] = dict(f.split("=") for f in fields)
    for row in base["kernels"]:
        mine = oracle.get(row["id"])
        if mine is None:
            fail(f"search oracle lacks {row['id']}")
        if int(mine["fuzz_to_bug"]) != row["fuzz_execs"]:
            fail(f"{row['id']}: fuzz_to_bug {mine['fuzz_to_bug']} != "
                 f"baseline {row['fuzz_execs']}")
        if int(mine["dpor_to_bug"]) != row["dpor_execs"]:
            fail(f"{row['id']}: dpor_to_bug {mine['dpor_to_bug']} != "
                 f"baseline {row['dpor_execs']}")
    for cert in base["certificates"]:
        if cert["certified"] and oracle[cert["id"]]["cert"] != "certified":
            fail(f"{cert['id']} is certified in the baseline, not here")
    print(f"ok   search oracle agrees with BENCH_explore.json on "
          f"{len(base['kernels'])} kernels")
    print("all checks passed")


if __name__ == "__main__":
    main()
