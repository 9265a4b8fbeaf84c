#!/usr/bin/env python3
"""Record the benchmark of one source tree in ``BENCH_<label>.json``.

    python3 tools/bench_record.py LABEL [TREE]

TREE is a jchsim checkout (default: this one).  With OpenBLAS pinned to one
thread, the script

- runs ``perfbench/run.py`` of this checkout from TREE for every workload of
  ``BENCHMARK.json``, once with ``--trace 0`` and once with ``--trace 1``
  (seed 1, the benchmark's own run length), and copies the gated end-to-end
  metrics, the per-layer metrics, correctness and the failed-job count;
- copies from each ``.perfbench_out/<workload>-1-trace<k>/record.json`` the
  environment (python, numpy, BLAS, BLAS threads, nproc) and every job's
  largest Hilbert dimension D and superoperator dimension D^2;
- times ``jchsim run`` of every ``configs/*.cfg`` of TREE and ``jchsim
  selfcheck`` in process, REPEATS times each in one fresh interpreter, and
  keeps the median of each in seconds (``wall_s``) and as a ratio to the
  benchmark's reference kernel timed before and after it (``wall_rel``),
  which cancels most of the host's drift in speed.

It writes ``BENCH_<label>.json`` in the root of this checkout and exits 1 if
any benchmark run was not correct.  Uses the standard library plus numpy.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
REPEATS = 3
# times each config and selfcheck in one interpreter, with the benchmark's
# reference kernel before and after each run: argv = src, perfbench dir,
# out dir, repeats, config paths; prints {name: [[seconds, ref seconds], ...]}
TIMER = """
import json, sys, time
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
from jchsim.cli import main
from reference import seconds as reference
out, repeats = Path(sys.argv[3]), int(sys.argv[4])
jobs = {Path(c).stem: ["run", c, "--output-dir", str(out / Path(c).stem)] for c in sys.argv[5:]}
jobs["selfcheck"] = ["selfcheck", "--output", str(out / "selfcheck.json")]
times = {}
for name, argv in jobs.items():
    times[name] = []
    for _ in range(repeats):
        before = reference()
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        times[name].append([elapsed, (before + reference()) / 2])
        if code != 0:
            sys.exit(f"{name} exited {code}")
print(json.dumps(times))
"""


def blas_env() -> dict:
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def perfbench(tree: Path, workload: str, trace: int) -> dict:
    """Metrics, correctness, environment and job sizes of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--trace", str(trace)],
        cwd=tree, env=blas_env(), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench {workload} trace {trace} failed:\n{proc.stderr[-2000:]}")
    summary = json.loads(lines[-1])
    record = json.loads((tree / ".perfbench_out" / f"{workload}-{SEED}-trace{trace}"
                         / "record.json").read_text())
    return {
        "correct": summary["correct"], "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: m["value"] for name, m in summary["metrics"].items()},
        "environment": record["environment"],
        "jobs": {job["name"]: {"D": job["D"], "D2": job["D2"]} for job in record["jobs"]},
    }


def config_times(tree: Path) -> dict:
    """Median in-process wall time of every shipped config and of selfcheck,
    in seconds and as a ratio to the reference kernel timed around it."""
    configs = sorted(str(p) for p in (tree / "configs").glob("*.cfg"))
    out = tree / ".perfbench_out" / "bench_record"
    proc = subprocess.run(
        [sys.executable, "-c", TIMER, str(tree / "src"), str(ROOT / "perfbench"), str(out),
         str(REPEATS), *configs],
        env=blas_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"timing the configs failed:\n{proc.stderr[-2000:]}")
    times = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: {"wall_s": statistics.median(t for t, _ in runs),
                   "wall_rel": statistics.median(t / ref for t, ref in runs)}
            for name, runs in times.items()}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    label = args[0]
    tree = Path(args[1] if len(args) == 2 else ROOT).resolve()
    if not (tree / "src" / "jchsim" / "__init__.py").is_file():
        print(f"no jchsim sources in {tree}/src", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    runs = {}
    for workload in workloads:
        for trace in (0, 1):
            print(f"perfbench {workload} trace {trace}", file=sys.stderr)
            runs[f"{workload}/trace{trace}"] = perfbench(tree, workload, trace)
    environment = runs[f"{workloads[0]}/trace0"]["environment"]
    record = {
        "label": label,
        "seed": SEED,
        "environment": environment,
        "workloads": {
            workload: {
                "correct": all(runs[f"{workload}/trace{t}"]["correct"] for t in (0, 1)),
                "failed": sum(runs[f"{workload}/trace{t}"]["failed"] for t in (0, 1)),
                "end_to_end": runs[f"{workload}/trace0"]["metrics"],
                "per_layer": runs[f"{workload}/trace1"]["metrics"],
                "jobs": runs[f"{workload}/trace0"]["jobs"],
            }
            for workload in workloads
        },
        "configs": {"repeats": REPEATS, "median": config_times(tree)},
    }
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0 if all(w["correct"] for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
