#!/usr/bin/env python3
"""Map sampler.c's samples to symbols: a flat profile, or the callers of one
symbol.

  hostprof.py BINARY SAMPLES [--top N] [--callers SUBSTRING]

Under the flat profile, a per-module rollup sums the samples by OCaml
module (Dsmpm2_sim.Engine, Stdlib.Hashtbl, ...); each runtime function
(caml_modify, caml_perform, ...) and each other C symbol keeps a row of
its own.

A caller is the symbol of the first stack word, above the interrupted
frame, that points into the binary's code: a return address, usually, but
a stale word can stand in for it, so read callers as an estimate.
"""

import argparse
import bisect
import collections
import re
import subprocess


def symbols(binary):
    out = subprocess.run(["nm", "-n", "--defined-only", binary],
                         capture_output=True, text=True, check=True).stdout
    syms = [(int(a, 16), name) for a, kind, name in
            (line.split(maxsplit=2) for line in out.splitlines()
             if len(line.split()) == 3)
            if kind in "TtWw"]
    return [a for a, _ in syms], [pretty(n) for _, n in syms]


def pretty(name):
    """camlDsmpm2_sim__Engine__push_123 -> Dsmpm2_sim.Engine.push"""
    m = re.fullmatch(r"caml([A-Z][\w.]*?)(?:_\d+)?", name)
    return m.group(1).replace("__", ".") if m else name


def module(name):
    """Dsmpm2_pm2.Marcel.Mutex.lock -> Dsmpm2_pm2.Marcel; caml_modify stays"""
    if not name[:1].isupper():
        return name
    return ".".join(name.split(".")[:2])


def print_counts(counts, total, top):
    for name, n in counts.most_common(top):
        print(f"{100.0 * n / total:6.2f}% {n:8d}  {name}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("binary")
    ap.add_argument("samples")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--callers", metavar="SUBSTRING")
    args = ap.parse_args()
    addrs, names = symbols(args.binary)
    with open(args.samples) as f:
        base = int(f.readline().split()[1], 16)
        rows = [[int(w, 16) - base for w in line.split()] for line in f]

    def lookup(a):
        i = bisect.bisect_right(addrs, a) - 1
        return names[i] if i >= 0 and a < addrs[-1] + 4096 else None

    if args.callers:
        counts = collections.Counter(
            next((s for s in map(lookup, row[1:]) if s), "?")
            for row in rows if args.callers in (lookup(row[0]) or ""))
    else:
        counts = collections.Counter(lookup(row[0]) or "(outside the binary)"
                                     for row in rows)
    total = sum(counts.values())
    print(f"{total} samples" + (f" in *{args.callers}*" if args.callers else ""))
    print_counts(counts, total, args.top)
    if not args.callers:
        modules = collections.Counter()
        for name, n in counts.items():
            modules[module(name)] += n
        print("\nper module")
        print_counts(modules, total, args.top)


if __name__ == "__main__":
    main()
