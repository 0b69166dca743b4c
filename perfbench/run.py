#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Builds the simulator and the rc-perfbench program from this checkout's
sources, then runs one workload:

    python3 perfbench/run.py --workload cmp64_fig9 --seed 1 --seconds 60 --trace 0

The last line of standard output is the JSON result of rc-perfbench
({"correct", "attempted", "failed", "metrics"}); build logs go to standard
error. Artifacts (provenance, per-set samples, spans) are written under
.bench_out/. The build directory is $CARGO_TARGET_DIR when set, else
.bench_build/. See perfbench/README.md for workloads and metrics.

The arguments are checked here, before a build that can take minutes, and
again by rc-perfbench, which can also be run on its own.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference_digests.txt")


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    """Where the benchmark is built: $CARGO_TARGET_DIR, else .bench_build/."""
    return os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def workload_names():
    """The workloads named in BENCHMARK.json at the root of the checkout."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return [w["name"] for w in json.load(f)["workloads"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        die(f"cannot read the workload list from {ROOT}/BENCHMARK.json: {e}")


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Build the simulator and run one benchmark workload.")
    p.add_argument("--workload", required=True, choices=workload_names())
    p.add_argument("--seed", type=int, default=1,
                   help="workload seed (default 1)")
    p.add_argument("--seconds", type=int, default=60,
                   help="host seconds to measure (default 60)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    a = p.parse_args(argv)
    if a.seed < 0:
        p.error("--seed must be >= 0")
    if not 1 <= a.seconds <= 3600:
        p.error("--seconds must be in 1..3600")
    return a


def git_commit():
    """HEAD of the benchmark's own source tree, not of the working directory."""
    try:
        head = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
        lines = head.stdout.split()
        # A checkout without git metadata nested inside some other
        # repository must not report that repository's commit.
        if (head.returncode != 0 or len(lines) != 2
                or os.path.realpath(lines[0]) != os.path.realpath(ROOT)):
            return "unknown (no git metadata in the source tree)"
        dirty = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
             "perfbench"], capture_output=True, text=True, timeout=30)
        suffix = "-dirty" if dirty.stdout.strip() else ""
        return lines[1] + suffix
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"


def source_digest():
    """sha256 over the simulator and benchmark sources, stable across copies."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
                h.update(b"\0")
    return h.hexdigest()


def binary_path():
    return os.path.join(build_dir(), "rc-perfbench")


def build():
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "rc-perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return binary_path()


def main(argv):
    a = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"simulator sources not found under {ROOT}/src; run from a "
            "full checkout of the repository")
    binary = build()
    # The simulator reads RC_* variables (shards, tick mode, checkers,
    # telemetry); the benchmark fixes them all by clearing them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RC_")}
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out-dir", os.path.join(ROOT, ".bench_out"),
           "--commit", git_commit(), "--source-digest", source_digest(),
           "--reference", REFERENCE]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
