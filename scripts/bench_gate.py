#!/usr/bin/env python3
"""Perf-regression gate over the committed Bechamel snapshot.

Compares the host-side ns/run estimates of two ``BENCH_bechamel.json``
files.  They are noisy, so the gate is loose (default 25%).  (The seeded
macro suite, ``BENCH_macro.json``, is gated by ``dsm diff``.)

The gate fails when a case slowed down by more than the threshold;
improvements past the threshold are reported too (refresh the baseline to
bank them).  Cases present on only one side are reported but never fail,
so the suite can grow without lockstep edits.

Usage: bench_gate.py BASELINE FRESH [--threshold PCT]

The threshold can also be set through the ``BENCH_GATE_PCT`` environment
variable (an explicit ``--threshold`` still wins), so CI can loosen or
tighten the gate without editing the workflow-pinned command line.
"""

import argparse
import json
import os
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
    env_pct = os.environ.get("BENCH_GATE_PCT")
    try:
        default_pct = float(env_pct) if env_pct else 25.0
    except ValueError:
        sys.exit(f"bench_gate: BENCH_GATE_PCT={env_pct!r} is not a number")
    ap.add_argument("--threshold", type=float, default=default_pct,
                    help="max tolerated slowdown, percent "
                         "(default: $BENCH_GATE_PCT or 25)")
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
