#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/src/wcqbench.cpp).

    python3 perfbench/run.py --workload pairwise-1t --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Builds the benchmark from this checkout with CMake into $CARGO_TARGET_DIR
(default .bench_build), runs one workload, checks every result, and prints
as its last line one JSON object: correct, attempted, failed and metrics
(the end-to-end metrics with --trace 0, the per-layer ones with --trace 1).
The full record, with provenance, goes to <build>/results/, and a traced
run's spans to <build>/trace/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("pairwise-1t", "burst-4t", "backlog-4t")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(out):
    if not (ROOT / "include" / "wcq" / "queue.hpp").is_file():
        fail(f"no library sources under {ROOT / 'include'}; run from a full checkout")
    cache = out / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}" not in cache.read_text():
        shutil.rmtree(out)  # configured for another checkout
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 3)


def git(*args):
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return None
    p = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else None


def source_digest():
    """sha256 over every file the benchmark binary is built from."""
    h = hashlib.sha256()
    for top in ("include", "src", "perfbench"):
        for f in sorted((ROOT / top).rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def provenance():
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "source_sha256": source_digest(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not args.selftest and args.seconds < 1:
        ap.error("--seconds must be at least 1")

    out = build_dir()
    build(out)
    if args.selftest:
        sys.exit(subprocess.run([str(out / "wcqbench_selftest")]).returncode)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(out / "wcqbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        (out / "trace").mkdir(exist_ok=True)
        cmd += ["--trace-out", str(out / "trace" / f"{tag}.csv")]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"wcqbench did not finish within {RUN_TIMEOUT_S} s", 4)
    sys.stderr.write(p.stderr)
    result = None
    for line in p.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        fail(f"wcqbench exited {p.returncode} without a result", p.returncode or 5)

    result["provenance"].update(provenance())
    (out / "results").mkdir(exist_ok=True)
    (out / "results" / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    sys.exit(0 if p.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
