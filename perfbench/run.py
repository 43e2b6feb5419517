#!/usr/bin/env python3
"""Builds and runs the NOUS end-to-end benchmark.

From the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --smoke

The first call configures and builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's one-line JSON result.

--smoke runs every workload briefly, untraced and traced, and checks
that every metric BENCHMARK.json and README.md name is printed, finite
and carries its unit.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk_build", "durable_ingest", "serve_under_ingest")
RUN_TIMEOUT_S = 170

# Workload-specific end-to-end readings printed as "detail" lines; the
# JSON result carries them through the generic end_to_end names.
DETAILS = {
    "bulk_build": {"ingest_docs_per_s": "1/s", "finalize_s": "s"},
    "durable_ingest": {
        "ingest_docs_per_s": "1/s",
        "ingest_ack_p50_ms": "ms",
        "ingest_ack_p99_ms": "ms",
        "follower_lag_p50_ms": "ms",
        "follower_lag_p99_ms": "ms",
    },
    "serve_under_ingest": {
        "query_p50_ms": "ms",
        "query_p99_ms": "ms",
        "path_query_p99_ms": "ms",
        "query_goodput_per_s": "1/s",
        "visible_p99_ms": "ms",
    },
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(d if os.path.isabs(d) else os.path.join(ROOT, d),
                        "perfbench")


def build():
    """Returns the benchmark binary, or None when the build fails."""
    bdir = os.path.join(build_root(), "build")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", bdir, "--target", "nous_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(bdir, "nous_perfbench")


def source_sha():
    """sha256 over the sources the benchmark builds (src/ and perfbench/)."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(binary, workload, seed, seconds, trace, capture=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", os.path.join(build_root(), "run"),
           "--git-sha", git_sha(), "--source-sha", source_sha()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None


def finite_number(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(binary, workload, 1, 2, trace, capture=True)
            tag = "%s trace=%d" % (workload, trace)
            if proc is None or proc.returncode != 0:
                problems.append("%s: exit %s" % (
                    tag, None if proc is None else proc.returncode))
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (tag, sorted(result)))
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append("%s: incorrect or failed ops" % tag)
            expected = spec["per_layer" if trace else "end_to_end"]
            metrics = result.get("metrics", {})
            if sorted(metrics) != sorted(m["name"] for m in expected):
                problems.append("%s: metric set differs from BENCHMARK.json"
                                % tag)
            for m in expected:
                got = metrics.get(m["name"], {})
                if not finite_number(got.get("value")) or \
                        got.get("unit") != m["unit"]:
                    problems.append("%s: %s = %s" % (tag, m["name"], got))
            printed = {}
            for line in lines:
                parts = line.split()
                if len(parts) == 5 and parts[0] in ("detail", "e2e", "layer"):
                    printed[parts[1]] = (float(parts[2]), parts[3])
            for name, unit in DETAILS[workload].items():
                value, got_unit = printed.get(name, (float("nan"), None))
                if not math.isfinite(value) or got_unit != unit:
                    problems.append("%s: detail %s missing" % (tag, name))
            for marker in ("run header {", "failed_op_ratio "):
                if not any(line.startswith(marker) for line in lines):
                    problems.append("%s: no '%s' line" % (tag, marker))
            if trace and not any(l.startswith("largest self time on the ")
                                 for l in lines):
                problems.append("%s: no self-time table" % tag)
            log("smoke: %s done" % tag)
    for p in problems:
        log("smoke: FAIL %s" % p)
    log("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    if args.smoke:
        return smoke(binary)
    proc = run(binary, args.workload, args.seed, args.seconds, args.trace)
    return 1 if proc is None else proc.returncode


if __name__ == "__main__":
    sys.exit(main())
