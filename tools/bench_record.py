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
  selfcheck`` in process, in one fresh interpreter, over REPEATS
  round-robin passes of every config, with the benchmark's reference kernel
  timed before each run and after the last; keeps the median of each in
  seconds (``wall_s``) and as a ratio to the mean of the reference times
  nearest it, across passes, as ``add_ratios`` of ``perfbench/run.py``
  does (``wall_rel``).  A slow spell of the host then moves the reference
  times of every config around it, not of one config alone.

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
sys.path.insert(0, str(ROOT / "perfbench"))
from run import add_ratios  # noqa: E402

SEED = 1
REPEATS = 3
# times every config and selfcheck in one interpreter, round robin: each pass
# runs every job once, with the benchmark's reference kernel before each job
# and after the last; argv = src, perfbench dir, out dir, repeats, config
# paths; prints {"names": [...], "passes": [{"job_s", "ref_s", "wall_s"}, ...]}
TIMER = """
import json, sys, time
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
from jchsim.cli import main
from reference import seconds as reference
out, repeats = Path(sys.argv[3]), int(sys.argv[4])
jobs = {Path(c).stem: ["run", c, "--output-dir", str(out / Path(c).stem)] for c in sys.argv[5:]}
jobs["selfcheck"] = ["selfcheck", "--output", str(out / "selfcheck.json")]
passes = []
for _ in range(repeats):
    job_s, ref_s = [], [reference()]
    for name, argv in jobs.items():
        start = time.perf_counter()
        code = main(argv)
        job_s.append(time.perf_counter() - start)
        ref_s.append(reference())
        if code != 0:
            sys.exit(f"{name} exited {code}")
    passes.append({"job_s": job_s, "ref_s": ref_s, "wall_s": sum(job_s)})
print(json.dumps({"names": list(jobs), "passes": passes}))
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
    in seconds and as a ratio to the reference times nearest it."""
    configs = sorted(str(p) for p in (tree / "configs").glob("*.cfg"))
    out = tree / ".perfbench_out" / "bench_record"
    proc = subprocess.run(
        [sys.executable, "-c", TIMER, str(tree / "src"), str(ROOT / "perfbench"), str(out),
         str(REPEATS), *configs],
        env=blas_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"timing the configs failed:\n{proc.stderr[-2000:]}")
    timed = json.loads(proc.stdout.strip().splitlines()[-1])
    passes = timed["passes"]
    add_ratios(passes)
    return {name: {"wall_s": statistics.median(p["job_s"][i] for p in passes),
                   "wall_rel": statistics.median(p["job_rel"][i] for p in passes)}
            for i, name in enumerate(timed["names"])}


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
