#!/usr/bin/env python3
"""Builds and runs the TimeKD pipeline benchmark from the repository root.

    python3 perfbench/run.py --workload fit|distill|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Each run first builds `timekd_perfbench` (perfbench/CMakeLists.txt, on top
of the repository's own libraries) into .bench_build/perfbench, then runs
one workload in one process. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. A traced run also
writes a Chrome trace to .bench_build/perfbench/traces/, readable with
`timekd_cli trace --in <file>`. Every run stores its full record (result,
end-to-end values, provenance) in .bench_build/perfbench/results/; when an
untraced record of the same workload, seed and sources exists, a traced
run prints the tracing overhead against it.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "timekd_perfbench")
# What must exist besides perfbench/ for the benchmark to build.
REQUIRED = ["CMakeLists.txt", os.path.join("src", "core", "timekd.h")]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    for rel in REQUIRED:
        if not os.path.exists(rel):
            fail(f"{rel} not found: run from the root of a TimeKD checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                     "-DTIMEKD_SANITIZE=", "-DTIMEKD_DEBUG_CHECKS=OFF",
                     "-DTIMEKD_WERROR=OFF"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    run_build_step(["cmake", "--build", BUILD_DIR, "--target",
                    "timekd_perfbench", "-j", str(nproc())])


def run_child(cmd, timeout, **kwargs):
    """Runs `cmd` to completion and returns (returncode, stdout). The child
    never outlives this process: a timeout, SIGTERM or SIGINT kills it and
    waits for it before exiting."""
    proc = subprocess.Popen(cmd, text=True, **kwargs)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"exceeded {timeout} s: {' '.join(cmd)}", code=3)
    return proc.returncode, out


def run_build_step(cmd):
    # Build output goes to stderr: stdout carries only the report.
    returncode, _ = run_child(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                              stderr=sys.stderr)
    if returncode != 0:
        fail(f"build step failed ({returncode}): {' '.join(cmd)}")


def source_digest():
    """SHA-256 over the sources the benchmark builds: it identifies the code
    in a checkout exported without git metadata, where there is no SHA."""
    h = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in sorted(paths):
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.exists(".git") or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def child_env():
    # TIMEKD_* knobs (thread count, telemetry dumps, log level) would change
    # what is measured or write files; the benchmark sets what it needs.
    return {k: v for k, v in os.environ.items() if not k.startswith("TIMEKD_")}


def parse_end_to_end(lines):
    values = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] == "end_to_end":
            name, value = parts[-3], parts[-2]
            values[name] = float(value)
    return values


def print_overhead(record, results_dir, args):
    untraced = os.path.join(results_dir,
                            f"{args.workload}-seed{args.seed}-trace0.json")
    if not os.path.exists(untraced):
        print("tracing overhead: no untraced run of this workload and seed "
              "to compare with")
        return
    with open(untraced) as f:
        base = json.load(f)
    if base["provenance"]["source_sha256"] != \
            record["provenance"]["source_sha256"]:
        print("tracing overhead: the untraced record is from other sources")
        return
    for name in ["fit_s", "predict_b1_p50_us", "predict_b1_p99_us",
                 "predict_b32_samples_per_s"]:
        a = base["end_to_end"].get(name)
        b = record["end_to_end"].get(name)
        if a and b is not None:
            print(f"tracing overhead {name}: traced {b:.6g} - untraced "
                  f"{a:.6g} = {b - a:+.6g} ({100.0 * (b - a) / a:+.1f}%)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["fit", "distill", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required")

    build()
    if args.self_test:
        sys.exit(run_child([BINARY, "--self-test"], RUN_TIMEOUT_S,
                           env=child_env())[0])

    results_dir = os.path.join(BUILD_DIR, "results")
    traces_dir = os.path.join(BUILD_DIR, "traces")
    scratch_dir = os.path.join(BUILD_DIR, "scratch")
    for d in (results_dir, traces_dir, scratch_dir):
        os.makedirs(d, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch-dir", scratch_dir,
           "--trace-out", os.path.join(traces_dir, f"{tag}.trace.json")]
    returncode, out = run_child(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                                env=child_env())
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("RESULT "):
        sys.stdout.write(out)
        fail(f"benchmark exited {returncode} without a result",
             code=returncode or 3)
    result = json.loads(lines[-1][len("RESULT "):])
    provenance = {}
    for line in lines[:-1]:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
    provenance["git_sha"] = git_sha()
    provenance["source_sha256"] = source_digest()
    record = {"provenance": provenance, "result": result,
              "end_to_end": parse_end_to_end(lines[:-1])}
    with open(os.path.join(results_dir, f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1)

    for line in lines[:-1]:
        print(line)
    print("provenance-sources " + json.dumps(
        {"git_sha": provenance["git_sha"],
         "source_sha256": provenance["source_sha256"]}))
    if args.trace:
        print_overhead(record, results_dir, args)
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(0 if returncode == 0 and result["failed"] == 0 else 1)


if __name__ == "__main__":
    main()
