#!/usr/bin/env python3
"""Compare two source trees on one benchmark workload in alternated pairs.

    python3 tools/ab_pairs.py TREE_A TREE_B --workload W --pairs N

TREE_A is the base (say, the parent commit) and TREE_B the change; each is a
jchsim checkout.  The script

- refuses two trees whose ``perfbench/`` or ``BENCHMARK.json`` differ, since
  both sides must be measured by the same benchmark code and settings;
- copies both trees, without ``.git`` and run outputs, into one temporary
  directory as ``a`` and ``b``: sibling paths of equal length, because the
  benchmark's wall times were seen to move by a few percent with the length
  of the checkout's path alone;
- runs N pairs of ``perfbench/run.py --workload W`` (untraced, seed 1, the
  benchmark's own run length), one run of each copy per pair, A first in
  the even pairs and B first in the odd ones;
- prints every run's end-to-end metrics and minor page faults (the whole
  benchmark process's, from ``resource.RUSAGE_CHILDREN``), then each side's
  median of the faults, which shows a shift of the allocator's state that no
  metric names, and for each metric of ``BENCHMARK.json`` each side's median
  and quartiles, the pairs that B wins (ties count for neither) and two
  verdicts:
  - "gain" or "no gain": a gain may be claimed when B wins at least nine
    tenths of the pairs and its median beats A's by more than the distance
    between A's quartiles;
  - "held" when B's median is worse than A's by no more than the metric's
    ``bound`` in ``BENCHMARK.json``, read as a fraction of A's median, and
    "worse" beyond it; "unresolved" when A's quartiles lie further apart
    than the bound, unless every run of B beats every run of A.

Exit status: 0 when every run completed and was correct, 1 when a run
failed or reported failed jobs, 2 on bad arguments.  Uses the standard
library only; the temporary copies are removed at the end.
"""
from __future__ import annotations

import argparse
import filecmp
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# left out of the copies: version control, caches and earlier run outputs
IGNORED = (".git", ".perfbench_out", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks")
# the share of pairs the change must win before a gain may be claimed
WIN_SHARE = 0.9


def benchmark_differences(a: Path, b: Path) -> list:
    """Relative paths of benchmark files that differ between the trees or
    exist in one of them only."""
    names = {p.relative_to(t).as_posix() for t in (a, b)
             for p in [t / "BENCHMARK.json", *(t / "perfbench").rglob("*")]
             if p.is_file() and "__pycache__" not in p.parts}
    return sorted(n for n in names
                  if not ((a / n).is_file() and (b / n).is_file()
                          and filecmp.cmp(a / n, b / n, shallow=False)))


def run_once(tree: Path, workload: str) -> dict:
    """The last-line JSON record of one untraced benchmark run from ``tree``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name}: perfbench exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list) -> tuple:
    """(median, lower quartile, upper quartile) of a list of numbers."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def regression(a: list, b: list, sign: float, bound: float) -> str:
    """"held", "worse" or "unresolved": whether B's median is worse than A's
    by more than ``bound`` times A's median, or A's own spread is too wide to
    tell; ``sign`` is 1 where lower is better and -1 where higher is."""
    (ma, qa1, qa3), (mb, _, _) = summary(a), summary(b)
    if all(sign * (x - y) > 0 for x in a for y in b):
        return "held"
    if qa3 - qa1 > bound * abs(ma):
        return "unresolved"
    return "worse" if sign * (mb - ma) > bound * abs(ma) else "held"


def minor_faults() -> int:
    """Minor page faults of all the finished benchmark runs so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt


def report(metrics: list, runs: dict, faults: dict) -> None:
    """Each side's median of minor faults, then per metric: each side's
    median and quartiles, B's wins and the verdicts."""
    pairs = len(runs["a"])
    print(f"\nminor page faults per run: A median {statistics.median(faults['a']):.0f}, "
          f"B median {statistics.median(faults['b']):.0f}")
    print(f"\n{'metric':<14} {'unit':<5} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30}"
          f" {'B wins':>7}  verdicts")
    for m in metrics:
        a = [r["metrics"][m["name"]]["value"] for r in runs["a"]]
        b = [r["metrics"][m["name"]]["value"] for r in runs["b"]]
        sign = 1.0 if m["better"] == "lower" else -1.0  # sign * (A - B) > 0: B is better
        wins = sum(sign * (x - y) > 0 for x, y in zip(a, b))
        (ma, qa1, qa3), (mb, qb1, qb3) = summary(a), summary(b)
        gain = wins >= WIN_SHARE * pairs and sign * (ma - mb) > qa3 - qa1
        print(f"{m['name']:<14} {m['unit']:<5} {ma:>12.5g} [{qa1:.5g}, {qa3:.5g}]"
              f" {mb:>12.5g} [{qb1:.5g}, {qb3:.5g}] {wins:>3}/{pairs:<3}  "
              f"{'gain' if gain else 'no gain'}, {regression(a, b, sign, m['bound'])} "
              f"(median gap {sign * (ma - mb):+.3g}, A quartile spread {qa3 - qa1:.3g}, "
              f"bound {m['bound'] * abs(ma):.3g})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    trees = [args.tree_a.resolve(), args.tree_b.resolve()]
    for tree in trees:
        if not (tree / "perfbench" / "run.py").is_file() or not (tree / "src" / "jchsim").is_dir():
            print(f"ab_pairs: {tree} is not a jchsim checkout", file=sys.stderr)
            return 2
    if args.pairs < 1:
        print("ab_pairs: --pairs must be at least 1", file=sys.stderr)
        return 2
    spec = json.loads((trees[0] / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"ab_pairs: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    differ = benchmark_differences(*trees)
    if differ:
        print("ab_pairs: the trees' benchmarks differ: " + ", ".join(differ), file=sys.stderr)
        return 2

    runs, faults, failures = {"a": [], "b": []}, {"a": [], "b": []}, 0
    # a termination signal unwinds the with block, so the copies are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        copies = {}
        for side, tree in zip("ab", trees):
            copies[side] = Path(tmp) / side
            shutil.copytree(tree, copies[side], ignore=shutil.ignore_patterns(*IGNORED))
        print(f"ab_pairs: {args.workload}, {args.pairs} pairs; A = {trees[0]}, B = {trees[1]}")
        for pair in range(args.pairs):
            for side in ("ab" if pair % 2 == 0 else "ba"):
                before = minor_faults()
                try:
                    record = run_once(copies[side], args.workload)
                except RuntimeError as exc:
                    print(f"ab_pairs: {exc}", file=sys.stderr)
                    return 1
                runs[side].append(record)
                faults[side].append(minor_faults() - before)
                failures += record["failed"] > 0 or not record["correct"]
                values = ", ".join(f"{k} {v['value']:.5g}" for k, v in record["metrics"].items())
                print(f"  pair {pair} {side.upper()}: {values}; correct {record['correct']}, "
                      f"failed {record['failed']}/{record['attempted']}, "
                      f"minor faults {faults[side][-1]}", flush=True)
    report(spec["end_to_end"], runs, faults)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
