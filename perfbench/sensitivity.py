#!/usr/bin/env python3
"""Interleaved paper-wsj runs of two builds of this benchmark.

Builds the benchmark without its `serving` feature in two checkouts (the
paper-wsj workload needs only the engine API), then runs them in ten
interleaved pairs, alternating which side runs first, and prints the
first-page and all-rows geomeans per pair plus the per-query best times
(the lowest of each query's calls in a run).

    python3 perfbench/sensitivity.py <old-checkout> <new-checkout> [seconds]

Each checkout must contain a copy of this `perfbench` directory.
"""
import json
import os
import re
import statistics
import subprocess
import sys


def build(root):
    target = os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--no-default-features",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
        check=True, env=env)
    return os.path.join(target, "release", "lpath-perfbench")


def run(binary, cwd, seed, seconds):
    p = subprocess.run(
        [binary, "--workload", "paper-wsj", "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True, cwd=cwd)
    out = json.loads(p.stdout.strip().splitlines()[-1])
    per_query = {}
    for line in p.stderr.splitlines():
        m = re.match(r"Q(\d+)\s+all_rows_us\s+([\d.]+)\s+first_page_us\s+([\d.]+)", line)
        if m:
            per_query[int(m.group(1))] = (float(m.group(2)), float(m.group(3)))
    metrics = out["metrics"]
    return {
        "correct": out["correct"],
        "first": metrics["first_page_geomean_us"]["value"],
        "all": metrics["all_rows_geomean_us"]["value"],
        "per_query": per_query,
    }


def main():
    old_root, new_root = sys.argv[1], sys.argv[2]
    seconds = sys.argv[3] if len(sys.argv) > 3 else "40"
    sides = {"old": (build(old_root), old_root), "new": (build(new_root), new_root)}
    pairs = []
    for i in range(10):
        order = ["old", "new"] if i % 2 == 0 else ["new", "old"]
        pair = {side: run(*sides[side], 101 + i, seconds) for side in order}
        pairs.append(pair)
        print(f"pair {i} ({order[0]} first): first_page old {pair['old']['first']:.1f} "
              f"new {pair['new']['first']:.1f}  all_rows old {pair['old']['all']:.1f} "
              f"new {pair['new']['all']:.1f}", flush=True)
    worse = sum(p["new"]["first"] > p["old"]["first"] for p in pairs)
    print(f"first_page_geomean_us worse on new in {worse} of {len(pairs)} pairs")
    for key in ("first", "all"):
        for side in ("old", "new"):
            v = [p[side][key] for p in pairs]
            q1, med, q3 = statistics.quantiles(v, n=4)
            print(f"{key:5} {side}: median {med:.1f} quartiles {q1:.1f} {q3:.1f}")
    print("query  page1 old  page1 new  ratio |   all old    all new  ratio")
    for q in range(1, 24):
        def med(side, k):
            return statistics.median(p[side]["per_query"][q][k] for p in pairs)
        ratio_p = statistics.median(p["new"]["per_query"][q][1] / p["old"]["per_query"][q][1] for p in pairs)
        ratio_a = statistics.median(p["new"]["per_query"][q][0] / p["old"]["per_query"][q][0] for p in pairs)
        print(f"Q{q:<4} {med('old', 1):10.1f} {med('new', 1):10.1f} {ratio_p:6.2f} | "
              f"{med('old', 0):9.1f} {med('new', 0):10.1f} {ratio_a:6.2f}")


if __name__ == "__main__":
    main()
