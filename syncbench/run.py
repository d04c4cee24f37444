#!/usr/bin/env python3
"""Builds and runs the end-to-end sync benchmark.

Run from the repository root:

    python3 syncbench/run.py --workload word_txn --seed 1 --seconds 30 --trace 0

The first run configures and builds syncbench/ (which compiles ../src) in
Release into $CARGO_TARGET_DIR/syncbench, or .bench_build/syncbench when the
variable is unset; later runs rebuild only what changed.  The bench binary
then runs the layer-coverage self-check and the measured passes.  Its
result document, with provenance added here, and the Chrome trace of a
traced run go to <build dir>/results/.  The last line of stdout is the
result JSON: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1.  Exits non-zero, printing no result, when the build or the run
fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
WORKLOADS = ("word_txn", "wechat_inplace", "import_move")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"syncbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    return target / "syncbench"


def build(out):
    """Configures and builds the bench; returns the binary's path."""
    out.mkdir(parents=True, exist_ok=True)
    tmp = out / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))  # keep compiler temp files inside
    log_path = out / "build.log"
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (out / "Makefile").exists():
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "w") as log:
        for cmd in (configure, ["cmake", "--build", str(out), "-j", jobs]):
            result = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=env, check=False)
            if result.returncode != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                fail(f"build failed: {' '.join(cmd)}")
    return out / "sync_bench"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over every file the bench compiles (src/ and syncbench/)."""
    digest = hashlib.sha256()
    for top in (REPO_ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(REPO_ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (REPO_ROOT / ".git").exists():  # e.g. an exported checkout
        return "unknown"
    try:
        result = subprocess.run(["git", "-C", str(REPO_ROOT), "rev-parse",
                                 "HEAD"], capture_output=True, text=True,
                                check=False)
    except OSError:
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    results = out / "results"
    results.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(results)]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"bench did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").splitlines()
    if not lines:
        fail(f"bench printed nothing (exit {run.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("\n".join(lines))
        fail(f"bench printed no result (exit {run.returncode})")

    stem = f"{args.workload}-seed{args.seed}" + ("-traced" if args.trace else "")
    doc_path = results / f"{stem}.json"
    doc = json.loads(doc_path.read_text())
    provenance = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": doc["build"]["compiler"],
        "build_type": doc["build"]["build_type"],
        "dcfs_chk": doc["build"]["dcfs_chk"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }
    doc["provenance"] = provenance
    doc_path.write_text(json.dumps(doc, indent=2) + "\n")

    print("\n".join(lines[:-1]))
    print("provenance: " + json.dumps(provenance))
    print(json.dumps(result))
    sys.exit(0 if run.returncode == 0 and result.get("correct") else 1)


if __name__ == "__main__":
    main()
