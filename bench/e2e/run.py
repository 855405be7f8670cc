#!/usr/bin/env python3
"""Build and run the end-to-end DSM host-cost benchmark (see README.md).

Run from the repository root:

  python3 bench/e2e/run.py --workload jacobi-hbrc --seed 0 --seconds 15 --trace 0
      one workload in one process; the last stdout line is the JSON result
  python3 bench/e2e/run.py --seed 0
      the whole suite: each workload in its own process, one at a time
  python3 bench/e2e/run.py --sets 2 --seed 0
      the suite twice; compares each end-to-end metric's medians
  python3 bench/e2e/run.py --quick
      smoke test on tiny inputs; exits 1 if a check fails

The benchmark is built from source with dune first.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "bench", "e2e", "e2e.exe")
# Simulated metrics are deterministic for a seed: two sets must agree exactly.
SIMULATED = {"sim_ms", "messages"}


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of a complete checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        ["dune", "build", "--root", ".", "./bench/e2e/e2e.exe"],
        env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail("dune build failed", done.returncode)


def run_one(workload, seed, seconds, trace, quick=False, echo=True):
    """Runs one workload process; returns (result JSON, detail JSON or None)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(done.stdout)
    if done.returncode != 0:
        fail(f"{workload} exited with code {done.returncode}", 1)
    lines = done.stdout.strip().splitlines()
    detail = next((json.loads(line[len("e2e-detail "):]) for line in lines
                   if line.startswith("e2e-detail ")), None)
    return json.loads(lines[-1]), detail


def suite(spec, seed, seconds, trace, quick=False, echo=True):
    results = {}
    for w in spec["workloads"]:
        name = w["name"]
        if echo:
            print(f"=== {name} (seed {seed}) ===", flush=True)
        results[name] = run_one(name, seed, seconds, trace, quick, echo)
    return results


def print_table(spec, results):
    metrics = [m["name"] for m in spec["end_to_end"]] + ["fail_share"]
    print("\n%-20s" % "workload" + "".join("%16s" % m for m in metrics))
    for name, (res, _) in results.items():
        row = [res["metrics"][m]["value"] for m in metrics[:-1]]
        row.append(res["failed"] / res["attempted"])
        print("%-20s" % name + "".join("%16.6g" % v for v in row))
    print("%-20s" % "unit" + "".join(
        "%16s" % m["unit"] for m in spec["end_to_end"]) + "%16s" % "ratio")


def compare_sets(spec, sets):
    """Prints both medians, both IQRs and whether two sets agree."""
    agree_all = True
    print("\n%-20s %-12s %14s %14s %12s %12s  %s" % (
        "workload", "metric", "median 1", "median 2", "IQR 1", "IQR 2", "agree"))
    for w in spec["workloads"]:
        name = w["name"]
        for m in spec["end_to_end"]:
            key, bound = m["name"], m["bound"]
            meds, iqrs = [], []
            for s in sets:
                res, detail = s[name]
                meds.append(res["metrics"][key]["value"])
                q = (detail or {}).get(key)
                iqrs.append(q[2] - q[0] if q else 0.0)
            if key in SIMULATED:
                ok = meds[0] == meds[1]
            else:
                ok = abs(meds[1] - meds[0]) <= bound * meds[0]
            agree_all &= ok
            print("%-20s %-12s %14.6g %14.6g %12.4g %12.4g  %s" % (
                name, key, meds[0], meds[1], iqrs[0], iqrs[1],
                "yes" if ok else f"NO (bound {bound:.0%})"))
        shares = [s[name][0]["failed"] / s[name][0]["attempted"] for s in sets]
        ok = shares[0] == shares[1] == 0
        agree_all &= ok
        print("%-20s %-12s %14.6g %14.6g %12s %12s  %s" % (
            name, "fail_share", shares[0], shares[1], "-", "-",
            "yes" if ok else "NO"))
    return agree_all


def smoke(spec, seed):
    """Quick self-check of the benchmark itself on tiny inputs."""
    checks = []
    e2e = suite(spec, seed, 0, 0, quick=True, echo=False)
    traced = [suite(spec, seed, 0, 1, quick=True, echo=False) for _ in range(2)]
    for kind, res in (("end_to_end", e2e), ("per_layer", traced[0])):
        for name, (r, _) in res.items():
            for m in spec[kind]:
                got = r["metrics"].get(m["name"])
                checks.append((f"{name}: {m['name']} printed in {m['unit']}",
                               got is not None and got["unit"] == m["unit"]))
    for res in [e2e] + traced:
        for name, (r, _) in res.items():
            checks.append((f"{name}: fail_share is 0",
                           r["correct"] and r["failed"] == 0))

    def simulated(r):
        return {k: v["value"] for k, v in r["metrics"].items()
                if v["unit"] in ("count", "sim_us", "sim_ms")
                and not k.startswith("host.")}

    for name in e2e:
        checks.append((f"{name}: simulated metrics repeat across invocations",
                       simulated(traced[0][name][0]) == simulated(traced[1][name][0])))
    plain, observed = e2e["jacobi-wu"][0], e2e["jacobi-wu-observed"][0]
    same = all(plain["metrics"][k] == observed["metrics"][k] for k in SIMULATED)
    tp, to = (simulated(t[0]) for t in (traced[0]["jacobi-wu"], traced[0]["jacobi-wu-observed"]))
    same &= all(tp[k] == to[k] for k in tp if k.startswith(("core.", "net.", "mem.")))
    checks.append(("jacobi-wu-observed: simulated metrics equal jacobi-wu's", same))
    for what, ok in checks:
        if not ok:
            print("FAIL", what)
    passed = sum(ok for _, ok in checks)
    print(f"smoke: {passed}/{len(checks)} checks passed")
    return passed == len(checks)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", help="run one workload (default: the suite)")
    p.add_argument("--seed", type=int, default=0, help="engine tie seed")
    p.add_argument("--seconds", type=float, help="host seconds of timed runs "
                   "per workload (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="end-to-end (0) or per-layer (1) metrics")
    p.add_argument("--trace-out", help="with --workload: write the traced "
                   "run's spans to this file")
    p.add_argument("--sets", type=int, default=1, help="run the suite N times")
    p.add_argument("--quick", action="store_true", help="smoke test")
    args = p.parse_args()
    build()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload:
        cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        if args.trace_out:
            cmd += ["--trace-out", args.trace_out]
        sys.exit(subprocess.run(cmd).returncode)
    if args.quick:
        sys.exit(0 if smoke(spec, args.seed) else 1)
    sets = []
    for i in range(args.sets):
        sets.append(suite(spec, args.seed, seconds, args.trace))
        if args.trace == 0:
            print_table(spec, sets[-1])
    if args.sets >= 2 and args.trace == 0:
        sys.exit(0 if compare_sets(spec, sets[:2]) else 1)


if __name__ == "__main__":
    main()
