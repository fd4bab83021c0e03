#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 perfbench/selftest.py [--seed N]

Runs the deterministic part of each workload's traced run (--counts)
twice with one seed and once with the next seed.  The query and write
stream digests and the exact counts (io.*, cache.*, planner.*, srv rows
and bytes) must repeat bit for bit for the same seed and must change
with the seed.  Exits non-zero on any failure.
"""

import json
import subprocess
import sys

WORKLOADS = ["serve_small", "engine_large", "cache_rw"]


def counts(workload, seed):
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", "1", "--counts"],
        stdout=subprocess.PIPE, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit("%s seed %d: exit %d" % (workload, seed, out.returncode))
    lines = out.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    digests = [l for l in lines if "digest" in l]
    metrics = {k: v["value"] for k, v in summary["metrics"].items()}
    return digests, metrics


def main():
    seed = 1
    if len(sys.argv) == 3 and sys.argv[1] == "--seed":
        seed = int(sys.argv[2])
    ok = True
    for w in WORKLOADS:
        a, b, c = counts(w, seed), counts(w, seed), counts(w, seed + 1)
        nonzero = sorted(k for k, v in a[1].items() if v != 0)
        same = a == b
        differs = a[0] != c[0] and a[1] != c[1]
        print("%-13s same seed repeats: %-5s other seed differs: %-5s"
              % (w, same, differs))
        print("  %d digests, %d non-zero counts: %s"
              % (len(a[0]), len(nonzero), ", ".join(nonzero)))
        if not same:
            for k in sorted(a[1]):
                if a[1][k] != b[1].get(k):
                    print("  %s: %r vs %r" % (k, a[1][k], b[1].get(k)))
        ok = ok and same and differs and len(a[0]) > 0 and len(nonzero) > 0
    print("determinism self-test: %s" % ("pass" if ok else "FAIL"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
