#!/usr/bin/env python3
"""Perf-regression gate over the committed Bechamel snapshot.

Compares the host-side ns/run estimates of two ``BENCH_bechamel.json``
files.  They are noisy, so the gate is loose (default 25%).  (The seeded
macro suite, ``BENCH_macro.json``, is deterministic and compared exactly
by ``dsm diff``.)

The gate fails when a case slowed down by more than the threshold;
improvements past the threshold are reported too (refresh the baseline to
bank them).  Cases present on only one side are reported but never fail,
so the suite can grow without lockstep edits.

Usage: bench_gate.py BASELINE FRESH [--threshold PCT]
"""

import argparse
import json
import sys


def load_estimates(path):
    with open(path) as f:
        snapshot = json.load(f)
    estimates = snapshot.get("estimates")
    if not isinstance(estimates, dict) or not estimates:
        sys.exit(f"bench_gate: {path}: no estimates object")
    return snapshot.get("unit", "?"), estimates


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--threshold", type=float, default=25.0,
                    help="max tolerated slowdown, percent (default: 25)")
    args = ap.parse_args()

    unit, base = load_estimates(args.baseline)
    _, fresh = load_estimates(args.fresh)

    failures = []
    improvements = []
    print(f"{'case':48s} {'baseline':>12s} {'fresh':>12s} {'delta':>8s}  ({unit})")
    for name in sorted(base):
        if name not in fresh:
            print(f"{name:48s} {base[name]:12.1f} {'gone':>12s}")
            continue
        delta = (fresh[name] - base[name]) / base[name] * 100.0
        flag = ""
        if delta > args.threshold:
            flag = "  << REGRESSION"
            failures.append((name, delta))
        elif delta < -args.threshold:
            flag = "  << improvement"
            improvements.append((name, delta))
        print(f"{name:48s} {base[name]:12.1f} {fresh[name]:12.1f} {delta:+7.1f}%{flag}")
    for name in sorted(set(fresh) - set(base)):
        print(f"{name:48s} {'new':>12s} {fresh[name]:12.1f}")

    if improvements:
        print(f"\nbench_gate: {len(improvements)} case(s) improved more than "
              f"{args.threshold:.0f}% — consider refreshing the baseline:")
        for name, delta in improvements:
            print(f"  {name}: {delta:+.1f}%")
    if failures:
        print(f"\nbench_gate: {len(failures)} case(s) regressed more than "
              f"{args.threshold:.0f}%:", file=sys.stderr)
        for name, delta in failures:
            print(f"  {name}: {delta:+.1f}%", file=sys.stderr)
        sys.exit(1)
    print(f"\nbench_gate: OK ({len(base)} cases within {args.threshold:.0f}%)")


if __name__ == "__main__":
    main()
