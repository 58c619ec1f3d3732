#!/usr/bin/env python3
"""Steadiness mode: repeats the benchmark and reports each metric's spread.

    python3 perfbench/steady.py --workload replay_enoc16 --runs 10
    python3 perfbench/steady.py --workload explore_optical16 --runs 5 --sets 2

Runs `run.py` once per seed (seeds first-seed .. first-seed+runs-1), and for
each metric prints the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median against the metric's bound in BENCHMARK.json.
A timing is steady when its spread is below a third of its bound. With
--sets 2 the whole set runs twice: each second-set median must not be worse
than the first by more than the bound, and every simulated metric (units %,
count, cycles, B and share) and every digest must repeat exactly per seed.
Exits 1 when any of these fails; setup_s is exempt from the spread check.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SIMULATED_UNITS = {"%", "count", "cycles", "B", "share"}


def spread(values):
    """(q3 - q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med, q1, med, q3


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    delta = second - first if better == "lower" else first - second
    return delta / first


def parse_run(stdout):
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next((l.split()[2] for l in lines if l.startswith("digest ")), None)
    return result, digest


def run_set(args):
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            sys.exit(f"steady: run failed (seed {seed}, exit {out.returncode})")
        result, digest = parse_run(out.stdout)
        if not result["correct"] or result["failed"]:
            sys.exit(f"steady: seed {seed} failed {result['failed']} of "
                     f"{result['attempted']} operations")
        runs.append((seed, result["metrics"], digest))
        print(f"  seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())),
            flush=True)
    return runs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    declared = {m["name"]: m for m in
                spec["per_layer" if args.trace else "end_to_end"]}

    sets = []
    for i in range(args.sets):
        print(f"set {i + 1}: {args.runs} runs of {args.workload}", flush=True)
        sets.append(run_set(args))

    ok = True
    print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name, m in sorted(declared.items()):
        medians = []
        for runs in sets:
            values = [metrics[name]["value"] for _, metrics, _ in runs]
            s, q1, med, q3 = spread(values)
            medians.append(med)
            bound = m.get("bound")
            if bound is None:
                verdict = ""
            elif s < bound / 3:
                verdict = "steady"
            elif s <= bound:
                verdict = "within bound"
            else:
                verdict = "exempt" if name == "setup_s" else "TOO WIDE"
                ok = ok and name == "setup_s"
            print(f"{name:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{s:>8.2%} {bound if bound else '':>6}  {verdict}")
        if len(sets) == 2 and m.get("bound") is not None:
            w = worse_by(medians[0], medians[1], m["better"])
            if w > m["bound"]:
                ok = False
                print(f"  {name}: second median worse by {w:.2%}")
    if len(sets) == 2:
        for (seed, a, da), (_, b, db) in zip(*sets):
            if da != db:
                ok = False
                print(f"  seed {seed}: digest {da} != {db}")
            for name, v in a.items():
                if v["unit"] in SIMULATED_UNITS and v["value"] != b[name]["value"]:
                    ok = False
                    print(f"  seed {seed}: simulated {name} differs")
    print("steady: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
