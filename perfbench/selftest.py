#!/usr/bin/env python3
"""Quick self-test of the benchmark: output schema and correctness gates.

    python3 perfbench/selftest.py [workload ...]

Runs every workload (or the named ones) briefly, untraced and traced, and
checks that
  * the last line is exactly {"correct", "attempted", "failed", "metrics"}
    with the metrics BENCHMARK.json declares for that mode, finite values
    and matching units, and non-zero end-to-end values;
  * the result file records provenance (commit, backend, CPU features,
    nproc, build type) and every correctness gate of the workload passed;
  * a traced run wrote its Chrome trace;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
Exits 1 on the first failed check.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
GATES = {
    "campaign-float": {"trial_status", "digest_repeat"},
    "campaign-int8": {"trial_status", "digest_repeat"},
    "search-bnb": {"trial_status", "digest_repeat", "bnb_not_worse"},
    "serve-guarded": {"serve_pristine_accuracy", "generator_lag"},
}


def fail(msg):
    print(f"selftest: FAIL {msg}")
    sys.exit(1)


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "2", "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    tag = f"{workload} trace={trace}"
    if r.returncode != 0:
        fail(f"{tag}: exit {r.returncode}\n{r.stderr[-2000:]}")
    result = json.loads(r.stdout.strip().split("\n")[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{tag}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{tag}: correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{tag}: attempted={result['attempted']}")
    want = declared(trace)
    if set(result["metrics"]) != set(want):
        fail(f"{tag}: metric names differ from BENCHMARK.json")
    for name, m in result["metrics"].items():
        if m["unit"] != want[name] or not math.isfinite(m["value"]):
            fail(f"{tag}: bad metric {name}: {m}")
        if not trace and m["value"] == 0:
            fail(f"{tag}: end-to-end metric {name} is 0")

    path = os.path.join(OUT_DIR, "results",
                        f"{workload}-seed1-trace{trace}.json")
    with open(path) as f:
        full = json.load(f)
    prov = full["provenance"]
    for key in ("commit", "backend", "cpu", "build_type"):
        if not prov.get(key) or prov[key] == "unknown":
            fail(f"{tag}: provenance {key}={prov.get(key)!r}")
    if prov["nproc"] < 1:
        fail(f"{tag}: provenance nproc={prov['nproc']}")
    missing = GATES[workload] - set(full["gates"])
    if missing:
        fail(f"{tag}: gates not run: {sorted(missing)}")
    if trace and not os.path.isfile(
            os.path.join(OUT_DIR, f"trace-{workload}.json")):
        fail(f"{tag}: no Chrome trace")
    print(f"selftest: ok   {tag}: {len(result['metrics'])} metrics, "
          f"gates {sorted(full['gates'])}")


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "campaign-float", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, capture_output=True,
                       text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if r.returncode == 0 or '"metrics"' in r.stdout:
        fail("benchmark ran without the library sources")
    print("selftest: ok   sources missing -> exit "
          f"{r.returncode}, no result")


def main():
    workloads = sys.argv[1:] or list(GATES)
    for w in workloads:
        if w not in GATES:
            fail(f"unknown workload {w}")
        for trace in (0, 1):
            check_run(w, trace)
    check_bare_directory()
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
