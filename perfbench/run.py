#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload replay_enoc16 --seed 1 --seconds 15 --trace 0

Run from the repository root. The first run configures and builds the
simulator libraries and the benchmark into .bench_build/ (RelWithDebInfo, as
the repository defaults to); later runs only re-check the build. Build output
goes to stderr. The benchmark's report goes to stdout and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.

Workloads: capture_enoc16, replay_enoc16, explore_optical16 (see
BENCHMARK.json and bench.cpp for what each one runs and why).
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("capture_enoc16", "replay_enoc16", "explore_optical16")
BUILD_TYPE = "RelWithDebInfo"


def source_id(root: Path) -> str:
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    if (root / ".git").exists():
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha1()
    for base in (root / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and ".bench_build" not in p.parts:
                h.update(str(p.relative_to(root)).encode())
                h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def build(root: Path, build_dir: Path) -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    tmp = build_dir.parent / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return build_dir / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = HERE.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no simulator sources under {root / 'src'}; run "
              "from a full checkout of the repository", file=sys.stderr)
        return 2
    out_dir = root / ".bench_build"
    binary = build(root, out_dir / "cmake")
    work = out_dir / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--config-dir", str(HERE), "--workdir", str(work),
           "--commit", source_id(root)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
