#!/usr/bin/env python3
"""Builds and runs the rowpress-dnn end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first run configures and builds the
library and the perfbench binary from source into .bench_build/perfbench
and trains the four Table-I family models into .bench_build/out/cache;
later runs reuse both.  The binary's report goes to standard output; its
last line is the result object
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
whose metrics are exactly BENCHMARK.json's end_to_end list (--trace 0) or
per_layer list (--trace 1).  The full result, with provenance (commit,
kernel backend, CPU features, nproc, build type) and the correctness
gates that passed, is also written to .bench_build/out/results/.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
WORKLOADS = ["campaign-float", "campaign-int8", "search-bnb", "serve-guarded"]
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def commit_stamp():
    """Git commit when the checkout is a repository, else a digest of the
    sources the benchmark builds from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0 and r.stdout.strip():
            dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                    "--", "src", "perfbench"],
                                   capture_output=True, text=True).stdout.strip()
            return r.stdout.strip() + ("-dirty" if dirty else "")
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources (src/) not found next to perfbench/; "
            "run from a full checkout")
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            die("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        die("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_benchmark(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_stamp(), "--out-dir", OUT_DIR]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"perfbench exceeded {RUN_TIMEOUT_S} s", 3)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        die(f"perfbench exited with code {proc.returncode}", 1)
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    started = time.time()
    lines = run_benchmark(binary, args)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write("\n".join(lines) + "\n")
        die("perfbench printed no result line", 1)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")

    # Check the metrics against BENCHMARK.json.  A per-layer metric of a
    # layer the workload does not run is absent and reads 0.
    declared = declared_metrics(args.trace)
    got = result["metrics"]
    metrics = {}
    for name, unit in declared.items():
        if name in got:
            if got[name]["unit"] != unit:
                die(f"metric {name}: unit {got[name]['unit']} != {unit}", 1)
            metrics[name] = got[name]
        elif args.trace:
            metrics[name] = {"value": 0.0, "unit": unit}
        else:
            die(f"end-to-end metric {name} missing", 1)
    undeclared = sorted(set(got) - set(declared))
    if undeclared:
        die("metrics missing from BENCHMARK.json: " + ", ".join(undeclared), 1)

    result["metrics"] = metrics
    result["wall_s"] = time.time() - started
    results_dir = os.path.join(OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-"
                                     f"trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    print(f"result: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
