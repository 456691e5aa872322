#!/usr/bin/env python3
"""Build and run the fgbench binary from the root of an FG checkout.

    python3 fgbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--record FILE]

Configures and builds fgbench/ (which compiles the FG libraries from src/)
into $CARGO_TARGET_DIR/fgbench, default .bench_build/fgbench, runs one
measurement, and passes the binary's output through: metric lines, a
labels line, and the result object as the last line.  --record appends
{"labels": ..., "result": ...} to FILE as one JSON line, the history that
fgbench/compare.py reads.  Every file the run writes stays under the build
directory.
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
BENCH = ROOT / "fgbench"
WORKLOADS = ("dsort-u16", "csort-u16", "dsort-p64-tasks", "permute-shift")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 175


def fail(msg):
    print(f"fgbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_rev():
    """git HEAD where there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for d in (ROOT / "src", BENCH):
        for p in sorted(d.rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:12]


def build(build_dir, env):
    if not (build_dir / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       check=True, stdout=sys.stderr, env=env,
                       timeout=BUILD_TIMEOUT)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr, env=env,
                   timeout=BUILD_TIMEOUT)
    return build_dir / "fgbench"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", type=Path)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "sort" / "dsort.hpp").exists():
        fail(f"no FG sources under {ROOT / 'src'}")

    out_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = out_dir / "fgbench"
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        binary = build(build_dir, env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    work = out_dir / f"run-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(work), "--rev", source_rev()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if args.record and proc.returncode == 0:
        lines = proc.stdout.strip().splitlines()
        labels = next(json.loads(l)["labels"] for l in lines
                      if l.startswith('{"labels"'))
        with args.record.open("a") as f:
            f.write(json.dumps({"labels": labels,
                                "result": json.loads(lines[-1])}) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
