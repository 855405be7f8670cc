#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

Usage:

  python3 scripts/e2e_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
      [--pairs 10] [--seconds S] [--seed N] [--quick]

PARENT_DIR and CHANGE_DIR are two checkouts (they may be the same one).
The script builds bench/e2e/e2e.exe in each with dune, then runs one
benchmark process at a time: pair i runs the parent first when i is
even and the change first when it is odd, so a drift in host speed
falls on both sides alike.  Each process reports one median per
end-to-end metric of BENCHMARK.json (read from CHANGE_DIR); the script
prints each side's median and quartiles of those values over the pairs,
the change of the medians against the metric's bound, how many pairs
the change won on host_s (ties count for neither side), and a verdict:
a gain needs at least ten pairs, the change winning at least nine tenths
of them, and the medians differing by more than the parent's
interquartile range.

--seconds defaults to run_seconds of BENCHMARK.json, or to 0 (one cycle
of repeats) with --quick, which runs the benchmark on its tiny inputs.
Exits 0 once every run finished with no failed check, whatever the
verdict; 1 if a run failed; 2 on a usage or build error.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "bench", "e2e", "e2e.exe")
SIMULATED = {"sim_ms", "messages"}
MIN_PAIRS = 10
WIN_SHARE = 0.9


def fail(msg, code=2):
    print(f"e2e_pairs: {msg}", file=sys.stderr)
    sys.exit(code)


def build(tree):
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(["dune", "build", "--root", tree, "./bench/e2e/e2e.exe"],
                          cwd=tree, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"{tree}: dune build failed", done.returncode)


def run(tree, workload, seed, seconds, quick):
    """One benchmark process in [tree]; returns its result JSON."""
    cmd = [os.path.join(tree, EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if quick:
        cmd.append("--quick")
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        fail(f"{tree}: {workload} exited with code {done.returncode}", 1)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quantile(xs, p):
    """Linear interpolation between closest ranks, as the benchmark does."""
    a = sorted(xs)
    pos = p * (len(a) - 1)
    i = int(pos)
    if i + 1 >= len(a):
        return a[i]
    return a[i] + (pos - i) * (a[i + 1] - a[i])


def quartiles(xs):
    return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--workload", required=True, help="workload of BENCHMARK.json")
    p.add_argument("--pairs", type=int, default=MIN_PAIRS, help="pairs of runs (default 10)")
    p.add_argument("--seconds", type=float, help="host seconds of timed runs per process")
    p.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    p.add_argument("--quick", action="store_true", help="tiny inputs, for smoke tests")
    args = p.parse_args()
    if args.pairs < 1:
        fail("--pairs must be positive")
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for tree in trees.values():
        if not os.path.exists(os.path.join(tree, "dune-project")):
            fail(f"{tree}: not the root of a checkout")
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    seconds = args.seconds
    if seconds is None:
        seconds = 0 if args.quick else spec["run_seconds"]
    for tree in sorted(set(trees.values())):
        build(tree)

    values = {side: {m["name"]: [] for m in spec["end_to_end"]} for side in trees}
    failed = {side: 0 for side in trees}
    wins = losses = 0
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        host = {}
        for side in order:
            res = run(trees[side], args.workload, args.seed, seconds, args.quick)
            failed[side] += res["failed"]
            for name, vals in values[side].items():
                vals.append(res["metrics"][name]["value"])
            host[side] = res["metrics"]["host_s"]["value"]
        wins += host["change"] < host["parent"]
        losses += host["change"] > host["parent"]
        print(f"pair {i + 1:2d} ({order[0]} first): host_s parent {host['parent']:.6g} s, "
              f"change {host['change']:.6g} s", flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs, {seconds:g} s per process")
    print("%-12s %-7s %36s %36s %9s %7s" % (
        "metric", "unit", "parent q1 / median / q3", "change q1 / median / q3",
        "change", "bound"))
    for m in spec["end_to_end"]:
        name = m["name"]
        qp, qc = quartiles(values["parent"][name]), quartiles(values["change"][name])
        delta = (qc[1] - qp[1]) / qp[1] if qp[1] else 0.0
        if name in SIMULATED:
            note = "equal" if values["parent"][name] == values["change"][name] else "DIFFER"
        else:
            worse = delta if m["better"] == "lower" else -delta
            note = "WORSE than bound" if worse > m["bound"] else ""
        print("%-12s %-7s %36s %36s %+8.1f%% %6.0f%%  %s" % (
            name, m["unit"], " ".join("%11.5g" % v for v in qp),
            " ".join("%11.5g" % v for v in qc), 100 * delta, 100 * m["bound"], note))
    print(f"failed runs: parent {failed['parent']}, change {failed['change']}")

    q1, parent_med, q3 = quartiles(values["parent"]["host_s"])
    gap, iqr = parent_med - quartiles(values["change"]["host_s"])[1], q3 - q1
    ties = args.pairs - wins - losses
    print(f"host_s: change won {wins}/{args.pairs} pairs, lost {losses}, tied {ties}")
    if args.pairs < MIN_PAIRS:
        verdict = f"too few pairs to claim a gain ({args.pairs} < {MIN_PAIRS})"
    elif wins >= WIN_SHARE * args.pairs and gap > iqr:
        verdict = f"gain (won {wins}/{args.pairs}, median gap {gap:.4g} s > parent IQR {iqr:.4g} s)"
    else:
        verdict = (f"no gain (won {wins}/{args.pairs}, needs {WIN_SHARE:.0%}; "
                   f"median gap {gap:.4g} s, parent IQR {iqr:.4g} s)")
    print(f"verdict: {verdict}")
    sys.exit(1 if failed["parent"] or failed["change"] else 0)


if __name__ == "__main__":
    main()
