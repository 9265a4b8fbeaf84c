#!/usr/bin/env python3
"""Run every shipped config under two source trees and compare the files.

    python3 tools/compare_outputs.py SRC_A SRC_B

Each argument is a checkout or its ``src`` directory.  For each tree, in
fresh interpreters, the script runs every ``configs/*.cfg`` of this checkout
in csv and in json, ``ramp_time_dependent.cfg`` with ``--strict-ramp``,
``jchsim selfcheck``, and every config that ``perfbench/workloads.py`` of
this checkout builds for the benchmark's seed 1 (27 configs, whose
detunings, decays, drives and hoppings are drawn at random), with the
format and flags of its benchmark job.  It prints each file that differs,
with the count of numbers that differ and the largest absolute and the
largest relative difference among them, |a - b| / max(|a|, |b|): a value
that is itself a difference of nearly equal numbers may move by a tiny
absolute amount and yet by many ulps.

Exit status: 0 when the outputs agree up to numeric differences, 1 on a
structural difference (a run whose exit code differs, a file written on one
side only, or text that differs outside its numbers), 2 on bad arguments.
OpenBLAS runs one thread unless ``OPENBLAS_NUM_THREADS`` is set.
"""
from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
SEED = 1  # the benchmark's seed


def source_dir(arg: str) -> Path | None:
    """The directory holding the ``jchsim`` package, given a checkout or its src."""
    path = Path(arg).resolve()
    for candidate in (path / "src", path):
        if (candidate / "jchsim" / "__init__.py").is_file():
            return candidate
    return None


def runs(config_dir: Path) -> list:
    """(name, jchsim arguments) of every run; each run writes into its own
    directory.  The benchmark's configs are written into ``config_dir``."""
    found = [(f"{cfg.stem}-{fmt}", ["run", str(cfg), "--format", fmt])
             for cfg in sorted(CONFIGS.glob("*.cfg")) for fmt in ("csv", "json")]
    found.append(("ramp_time_dependent-strict",
                  ["run", str(CONFIGS / "ramp_time_dependent.cfg"), "--strict-ramp"]))
    found.append(("selfcheck", ["selfcheck"]))
    sys.dont_write_bytecode = True  # perfbench/ is only read
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    for workload in workloads.WORKLOADS:
        for job in workloads.build(workload, SEED):
            if job.config is not None:  # selfcheck already runs above
                path = config_dir / f"{workload}-{job.name}.cfg"
                path.write_text(job.config_text())
                found.append((path.stem, ["run", str(path), "--format", job.fmt, *job.flags]))
    return found


def run_tree(src: Path, out: Path, jobs: list) -> dict:
    """Exit code of each of ``jobs`` (see ``runs``) under ``src``; the files
    go to out/<run name>/."""
    env = {"OPENBLAS_NUM_THREADS": "1", **os.environ, "PYTHONPATH": str(src)}
    codes = {}
    for name, args in jobs:
        target = out / name
        target.mkdir(parents=True)
        if args[0] == "selfcheck":
            args = [*args, "--output", str(target / "selfcheck.json")]
        else:
            args = [*args, "--output-dir", str(target)]
        proc = subprocess.run([sys.executable, "-m", "jchsim.cli", *args],
                              env=env, capture_output=True, text=True)
        codes[name] = proc.returncode
        print(f"  {src}: {name} exit {proc.returncode}", file=sys.stderr)
    return codes


def numeric_difference(text_a: str, text_b: str):
    """(count, largest absolute difference, largest relative difference) of
    the numbers that differ, or None when the texts differ outside their
    numbers."""
    if NUMBER.sub("#", text_a) != NUMBER.sub("#", text_b):
        return None
    pairs = [(float(x), float(y))
             for x, y in zip(NUMBER.findall(text_a), NUMBER.findall(text_b)) if x != y]
    # x != y as text, so max(|a|, |b|) is 0 only for two spellings of zero
    diffs = [(abs(a - b), abs(a - b) / max(abs(a), abs(b)) if a or b else 0.0)
             for a, b in pairs]
    return (len(diffs), max((d for d, _ in diffs), default=0.0),
            max((r for _, r in diffs), default=0.0))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sources = [source_dir(arg) for arg in args]
    for arg, src in zip(args, sources):
        if src is None:
            print(f"no jchsim package in {arg} or {arg}/src", file=sys.stderr)
            return 2
    structural = identical = 0
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / side for side in ("a", "b")]
        (Path(tmp) / "configs").mkdir()
        jobs = runs(Path(tmp) / "configs")
        codes = [run_tree(src, out, jobs) for src, out in zip(sources, outs)]
        for name in codes[0]:
            if codes[0][name] != codes[1][name]:
                print(f"STRUCTURE {name}: exit {codes[0][name]} against {codes[1][name]}")
                structural += 1
        files = [{p.relative_to(out) for p in out.rglob("*") if p.is_file()} for out in outs]
        for rel in sorted(files[0] ^ files[1]):
            print(f"STRUCTURE {rel}: written on one side only")
            structural += 1
        for rel in sorted(files[0] & files[1]):
            a, b = ((out / rel).read_text() for out in outs)
            if a == b:
                identical += 1
                continue
            diff = numeric_difference(a, b)
            if diff is None:
                print(f"STRUCTURE {rel}: text differs outside its numbers")
                structural += 1
            else:
                print(f"differs {rel}: {diff[0]} numbers, largest |difference| {diff[1]:.3g}, "
                      f"largest relative {diff[2]:.3g}")
    print(f"{identical} files byte-identical, {structural} structural differences")
    return 1 if structural else 0


if __name__ == "__main__":
    raise SystemExit(main())
