"""jchsim benchmark: seeded batches of ``jchsim run`` / ``jchsim selfcheck`` jobs.

Run from the root of a jchsim checkout (the sources are taken from ``src/``):

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 36 --trace 0

(``--seed`` defaults to 1, ``--seconds`` to ``run_seconds`` of BENCHMARK.json
and ``--trace`` to 0.)

One process generates the workload's config files from the seed, times a
fresh interpreter that imports jchsim and parses them (``setup_s``), runs one
untimed warm-up job, then repeats passes over the fixed job list through the
in-process CLI while at least half of another pass fits in ``--seconds``.
After each pass every job's result files are checked (``checks.py``).

A fixed reference kernel (``reference.py``) is timed before every job and
after the last one of a pass.  Besides wall times in seconds, the run reports
``wall_rel``, the mean pass wall time over the mean reference time, and
``job_rel``, every job's time over the mean of the reference times nearest
it.  A shared host flips between fast and slow states every few seconds and
can stay slow for minutes; both move job and reference times together, so
the ratios stay steady where the seconds do not.  Means, not medians, are
the right reference for a mixture of states that a long job averages over.
One large dense eigendecomposition (the two-cavity spectrum) slows only about
half as much as the reference in a slow state, so on ``spectra`` ``wall_rel``
is no steadier than ``wall_s``.
``BENCHMARK.json`` gates the ratios and ``setup_s``; the report prints the
seconds beside them.

``--trace 0`` reports the end-to-end metrics, measured untraced.  ``--trace 1``
spends half the time untraced and half with the layer tracer installed
(``tracer.py``), reports the per-layer metrics, checks that traced and
untraced result files are byte-identical, and writes the spans to
``.perfbench_out/<workload>-<seed>-trace1/spans.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report with the environment and the problem sizes.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
OUT_DIR = ".perfbench_out"
# setup_s is the median of SETUP_FIRST probes before the passes and up to
# SETUP_LATER more, one after a pass at most every 1/SETUP_LATER of the run,
# so that it sees the same drift of the host's speed as the passes
SETUP_FIRST, SETUP_LATER = 3, 8
# a job's time unit is the mean of this many reference times on each side
REF_WINDOW = 4
# a timing percentile is reported only with this many samples beyond it
TAIL_SAMPLES = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# On a two-core machine a second OpenBLAS thread doubled the CPU time of
# driven_dynamics without lowering its wall time, and its spin-waiting made
# every timing depend on the other core's load: over five seeds the spread
# of wall_s was 29% with two threads and 13% with one.
BLAS_THREADS = 1
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import jchsim; "
    "from jchsim.experiments import ExperimentConfig; "
    "[ExperimentConfig.from_file(p) for p in sys.argv[2:]]"
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment(np) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": _nproc(),
    }


class JobRunner:
    """Runs jobs through the in-process CLI and checks their results."""

    def __init__(self, cli, checks, jobs, config_dir: Path, reference):
        self.cli, self.checks, self.jobs = cli, checks, jobs
        self.reference = reference  # () -> seconds of the reference kernel
        self.configs = {}
        for job in jobs:
            if job.config is not None:
                path = config_dir / f"{job.name}.cfg"
                path.write_text(job.config_text())
                self.configs[job.name] = path

    def run(self, job, out_dir: Path):
        """(seconds, error or None) of one job; output is captured."""
        out_dir.mkdir(parents=True, exist_ok=True)
        argv = job.argv(self.configs.get(job.name), out_dir)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
            except Exception as exc:  # a job that raises is a failed job
                return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        if code != 0:
            return seconds, f"exit code {code}: {err.getvalue().strip()[-300:]}"
        return seconds, None

    def passes(self, budget_s: float, out_root: Path, tracer=None, after_pass=None) -> list:
        """Repeat passes over the job list while at least half of another
        pass fits in ``budget_s``; at least one pass.  ``after_pass`` is
        called after each pass's checks, inside the budget."""
        records = []
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            first_span = tracer.begin_pass() if tracer else 0
            times, errors, ref_s = [], [], [self.reference()]
            for job in self.jobs:
                if tracer:
                    tracer.begin_job(f"{len(records)}:{job.name}")
                seconds, error = self.run(job, out_root / job.name)
                if tracer:
                    tracer.end_job()
                times.append(seconds)
                errors.append(error)
                ref_s.append(self.reference())
            for i, job in enumerate(self.jobs):
                if errors[i] is None:
                    problems = self.checks.check(job, out_root / job.name)
                    errors[i] = "; ".join(problems) if problems else None
            records.append({
                # jobs run back to back, so the pass's wall time is their sum
                "wall_s": sum(times),
                "job_s": times,
                "ref_s": ref_s,
                "errors": {j.name: e for j, e in zip(self.jobs, errors) if e},
                "layers": tracer.pass_metrics(first_span) if tracer else None,
            })
            if after_pass:
                after_pass()
            now = time.perf_counter()
            if now - start + (now - pass_start) / 2 > budget_s:
                return records


def add_ratios(records: list) -> float:
    """Set each pass's ``job_rel``, every job's time in units of the mean of
    the REF_WINDOW reference times on either side of it (across passes), and
    return ``wall_rel``, the mean pass wall time in units of the mean
    reference time."""
    refs = [s for r in records for s in r["ref_s"]]
    first = 0  # index in refs of the reference time just before a pass
    for r in records:
        r["job_rel"] = [
            t / statistics.fmean(refs[max(0, first + i + 1 - REF_WINDOW):first + i + 1 + REF_WINDOW])
            for i, t in enumerate(r["job_s"])
        ]
        first += len(r["ref_s"])
    return statistics.fmean(r["wall_s"] for r in records) / statistics.fmean(refs)


def setup_seconds(src: Path, config_paths, repeats: int) -> list:
    """Wall times of fresh interpreters that import jchsim and parse every config."""
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(src), *map(str, config_paths)],
                       check=True, capture_output=True, timeout=60)
        out.append(time.perf_counter() - start)
    return out


def tail(samples: list):
    """(90th percentile or None, samples beyond it)."""
    if len(samples) < 2:
        return None, 0
    p90 = statistics.quantiles(samples, n=10)[-1]
    beyond = sum(s > p90 for s in samples)
    return (p90 if beyond >= TAIL_SAMPLES else None), beyond


def differing_files(a: Path, b: Path) -> list:
    """Relative paths whose bytes differ between two result trees."""
    names = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(str(n) for n in names
                  if not ((a / n).is_file() and (b / n).is_file()
                          and (a / n).read_bytes() == (b / n).read_bytes()))


def layer_value(name: str, traced: list, overhead: float, known_spans: set, counters: set) -> float:
    if name == "trace.overhead_frac":
        return overhead
    span, _, kind = name.rpartition(".")
    if name not in counters and not (span in known_spans and kind in ("calls", "busy_s", "self_s")):
        raise ValueError(f"per-layer metric {name!r} is not measured by the tracer")
    return float(statistics.median(r["layers"].get(name, 0.0) for r in traced))


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "jchsim" / "__init__.py").is_file():
        print(f"perfbench: no jchsim sources in {src}; run from the root of a jchsim checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy is imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import numpy as np
    import jchsim
    from jchsim import cli

    import checks
    import reference
    import tracer as tracing
    import workloads

    if Path(jchsim.__file__).resolve().parent != (src / "jchsim").resolve():
        print(f"perfbench: imported jchsim from {jchsim.__file__}, not {src}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = root / OUT_DIR / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    jobs = workloads.build(args.workload, args.seed)
    runner = JobRunner(cli, checks, jobs, work / "configs", reference.seconds)
    env = environment(np)

    setup = setup_seconds(src, runner.configs.values(), SETUP_FIRST)
    last_setup = [time.perf_counter()]

    def spread_setup():
        if (len(setup) < SETUP_FIRST + SETUP_LATER
                and time.perf_counter() - last_setup[0] >= seconds / SETUP_LATER):
            setup.extend(setup_seconds(src, runner.configs.values(), 1))
            last_setup[0] = time.perf_counter()

    reference.seconds()  # untimed, like the warm-up job
    warm_s, warm_error = runner.run(jobs[0], work / "warmup" / jobs[0].name)
    job_errors = {f"warmup:{jobs[0].name}": warm_error} if warm_error else {}
    problems = {}  # failures of the run itself, not of one job

    layer_metrics = {}
    if args.trace:
        plain = runner.passes(seconds / 2, work / "plain")
        wall_rel = add_ratios(plain)
        tracer = tracing.Tracer()
        before = tracing.snapshot()
        tracer.install()
        try:
            traced = runner.passes(seconds / 2, work / "traced", tracer)
        finally:
            tracer.uninstall()
        overhead = add_ratios(traced) / wall_rel - 1.0
        after = tracing.snapshot()
        if any(after.get(k) != v for k, v in before.items()):
            problems["tracer"] = "uninstall left patched names behind"
        for name in differing_files(work / "plain", work / "traced"):
            problems[f"identity:{name}"] = "traced result differs from untraced result"
        known = tracer.span_names()
        counters = set(tracing.COUNTERS) | {f"{layer}.errors" for layer in tracing.LAYERS}
        layer_metrics = {
            m["name"]: (layer_value(m["name"], traced, overhead, known, counters), m["unit"])
            for m in spec["per_layer"]
        }
        (work / "spans.json").write_text(json.dumps({
            "fields": ["id", "parent", "name", "start_s", "end_s", "child_s", "job", "outermost"],
            "spans": tracer.spans,
        }))
        records = plain + traced
    else:
        records = runner.passes(seconds, work / "plain", after_pass=spread_setup)
        wall_rel = add_ratios(records)

    untraced = [r for r in records if r["layers"] is None]
    pooled = [s for r in untraced for s in r["job_s"]]
    for i, r in enumerate(records):
        job_errors.update({f"pass{i}:{k}": v for k, v in r["errors"].items()})
    attempted = 1 + len(jobs) * len(records)
    failed = len(job_errors)
    p90, beyond = tail(pooled)
    e2e = {  # name: (value, unit)
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in untraced), "s"),
        "wall_rel": (wall_rel, "ref"),
        "job_s.p50": (statistics.median(pooled), "s"),
        "job_rel.p50": (statistics.median(s for r in untraced for s in r["job_rel"]), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ref_s": (statistics.fmean(s for r in untraced for s in r["ref_s"]), "s"),
    }

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} passes of {len(jobs)} jobs")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for job in jobs:
        print(f"  job {job.name}: {job.experiment} ({job.fmt}), D {job.dim}, D^2 {job.dim ** 2}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<14} {value:12.6g} {unit}")
    print(f"  {'job_s.p90':<14} " + (f"{p90:12.6g} s" if p90 is not None else
          f"{'n/a':>12}  ({beyond} samples beyond p90; needs {TAIL_SAMPLES})")
          + f"  ({len(pooled)} job samples)")
    print(f"  {'failed_frac':<14} {failed / attempted:12.6g} 1  ({failed}/{attempted})")
    for name, (value, unit) in layer_metrics.items():
        print(f"  {name:<44} {value:14.6g} {unit}")
    for key, message in list({**job_errors, **problems}.items())[:20]:
        print(f"  FAILED {key}: {message}")

    (work / "record.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env,
        "jobs": [{"name": j.name, "experiment": j.experiment, "format": j.fmt,
                  "D": j.dim, "D2": j.dim ** 2} for j in jobs],
        "setup_s": setup, "warmup_s": warm_s, "wall_rel": wall_rel,
        "passes": records, "failed_jobs": job_errors, "problems": problems,
    }, indent=1))

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer_metrics.items()}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": e2e[m["name"]][1]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": not (job_errors or problems), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
