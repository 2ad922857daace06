#!/usr/bin/env python3
"""psme benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Run from the repository root. Builds psme_bench and libpsme from source in one
CMake configure (perfbench/CMakeLists.txt) under $CARGO_TARGET_DIR (default
.bench_build), runs psme_bench, stamps the source identity into its meta
line, appends both lines to <build dir>/results.jsonl, and prints the result
line last. Exits non-zero without a result when the sources or the build are
missing, or when psme_bench fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wave-wide", "wave-skewed", "soar-learn", "query-churn")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures once, then builds incrementally (a no-op when current)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("psme sources (src/CMakeLists.txt) not found next to perfbench/")
    log = sys.stderr
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=log, stderr=log)
        if rc != 0:
            die("cmake configure failed", 1)
    rc = subprocess.call(["cmake", "--build", bdir, "-j", "3"], stdout=log, stderr=log)
    if rc != 0:
        die("build failed", 1)
    exe = os.path.join(bdir, "psme_bench")
    if not os.path.isfile(exe):
        die("psme_bench missing after build", 1)
    return exe


def source_identity():
    """The git commit when the tree is a git checkout, and always a digest of
    the sources the benchmark compiles (src/ and perfbench/)."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return sha, h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        die("--seed must be >= 0 and --seconds in 1..600")

    bdir = build_dir()
    exe = build(bdir)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        tdir = os.path.join(bdir, "traces")
        os.makedirs(tdir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(tdir, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        die("psme_bench timed out", 1)
    sys.stderr.write(proc.stderr)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if len(lines) < 2:
        sys.stderr.write(proc.stdout)
        die(f"psme_bench exited {proc.returncode} without a result", 1)
    meta = json.loads(lines[-2])
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        die(f"malformed result line: {lines[-1]}", 1)
    sha, digest = source_identity()
    meta["meta"]["git_sha"] = sha
    meta["meta"]["source_digest"] = digest
    with open(os.path.join(bdir, "results.jsonl"), "a") as f:
        f.write(json.dumps(meta) + "\n" + json.dumps(result) + "\n")
    print(json.dumps(meta))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
