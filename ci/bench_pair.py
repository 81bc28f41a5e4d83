#!/usr/bin/env python3
"""Paired same-host benchmark gate: a base checkout against a head checkout.

    python3 ci/bench_pair.py --base <dir> --head <dir>

Reads the head's BENCHMARK.json for the command that runs one workload, the
workloads, and the end-to-end metrics with their direction and bound.  Runs
every workload PAIRS times in each tree at --seconds SECONDS with tracing
off, alternating which tree goes first; pair i runs seed i + 1 on both
sides.  A timing compared with another host's, or with a recorded history,
measures the hosts as much as the code, so both sides always run here, back
to back.

For each (workload, metric) it prints both medians, the head's gain (positive
is better) and the base's spread, (Q3 - Q1) / median, with one verdict:

  improved    every head run beats every base run, or the head wins at least
              9 pairs in 10 and its median gain exceeds the spread;
  regressed   the median is worse by more than the bound and the spread
              resolves it: the spread is within the bound, or every head run
              is worse than every base run;
  unresolved  the spread is wider than the bound, so the runs cannot tell;
  unchanged   otherwise.

Exit codes: 0 pass; 1 a metric regressed, a head run is not correct, or the
head failed a larger share of its operations than the base; 2 a run printed
no result line.  Only the Python standard library is used.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 5
SECONDS = 4


def run_once(tree, command, workload, seed):
    """Runs one timed workload in `tree` and returns its result object."""
    out = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(SECONDS), "--trace", "0"],
                         cwd=tree, capture_output=True, text=True)
    for line in reversed(out.stdout.splitlines()):
        if line.startswith('{"correct"') and out.returncode == 0:
            return json.loads(line)
    sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
    print(f"bench_pair: no result line from {workload} seed {seed} in {tree} "
          f"(exit {out.returncode})", file=sys.stderr)
    sys.exit(2)


def collect(base, head, command, workload):
    """Returns the base's and the head's result objects, in pair order."""
    runs = ([], [])
    for i in range(PAIRS):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            runs[side].append(run_once((base, head)[side], command, workload, i + 1))
    return runs


def verdict(base, head, better, bound):
    """Classifies one positive metric from its runs (equal-length lists, pair order).

    Returns (verdict, base median, head median, head gain, base spread).
    """
    sign = 1 if better == "higher" else -1
    med_b, med_h = statistics.median(base), statistics.median(head)
    q1, _, q3 = statistics.quantiles(base, n=4)
    spread = (q3 - q1) / med_b
    gain = sign * (med_h - med_b) / med_b
    gains = [sign * (h - b) for h in head for b in base]
    wins = sum(sign * (h - b) > 0 for h, b in zip(head, base))
    if min(gains) > 0:
        v = "improved"
    elif -gain > bound and (spread <= bound or max(gains) < 0):
        v = "regressed"
    elif spread > bound:
        v = "unresolved"
    elif wins >= 0.9 * len(base) and gain > spread:
        v = "improved"
    else:
        v = "unchanged"
    return v, med_b, med_h, gain, spread


def failed_share(results):
    return sum(r["failed"] for r in results) / max(1, sum(r["attempted"] for r in results))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="checkout of the base commit")
    parser.add_argument("--head", required=True, help="checkout of the head commit")
    args = parser.parse_args(argv)
    with open(os.path.join(args.head, "BENCHMARK.json")) as f:
        spec = json.load(f)

    failures = []
    print(f"{PAIRS} pairs per workload at --seconds {SECONDS}, base {args.base}, "
          f"head {args.head}\n")
    print("| workload | metric | base median | head median | head gain | base spread "
          "| bound | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in (w["name"] for w in spec["workloads"]):
        base, head = collect(args.base, args.head, spec["command"], workload)
        for m in spec["end_to_end"]:
            v, med_b, med_h, gain, spread = verdict(
                [r["metrics"][m["name"]]["value"] for r in base],
                [r["metrics"][m["name"]]["value"] for r in head], m["better"], m["bound"])
            print(f"| {workload} | {m['name']} | {med_b:.4g} | {med_h:.4g} | {gain:+.3f} "
                  f"| {spread:.3f} | {m['bound']} | {v} |")
            if v == "regressed":
                failures.append(f"{workload} {m['name']} worse by {-gain:.3f} "
                                f"(bound {m['bound']}, base spread {spread:.3f})")
        if not all(r["correct"] for r in head):
            failures.append(f"{workload}: a head run reports correct: false")
        if failed_share(head) > failed_share(base):
            failures.append(f"{workload}: head failed share {failed_share(head):.3g} "
                            f"> base {failed_share(base):.3g}")

    print()
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("PASS: no metric regressed beyond its bound; head runs correct")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
