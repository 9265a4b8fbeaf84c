"""Tests of the benchmark itself: smoke runs, tracer restore, traced/untraced
byte identity, reference ratios, output checks that fail, and refusal outside
a checkout.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for _path in (BENCH, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_pass(workload):
    result = _result(_bench("--workload", workload, "--seed", "3",
                            "--seconds", "0.1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + len(workloads.build(workload, 3))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_matches_untraced_bytes():
    result = _result(_bench("--workload", "driven_dynamics", "--seed", "4",
                            "--seconds", "0.1", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    work = ROOT / ".perfbench_out" / "driven_dynamics-4-trace1"
    plain = sorted(p.relative_to(work / "plain") for p in (work / "plain").rglob("*.*"))
    assert plain
    for rel in plain:
        assert (work / "plain" / rel).read_bytes() == (work / "traced" / rel).read_bytes()
    assert result["metrics"]["lindblad.superop_dim_max"]["value"] <= 100


def test_tracer_patches_every_binding_and_restores_it():
    import jchsim.lindblad
    import jchsim.protocols

    before = tracing.snapshot()
    original = jchsim.protocols.evolve_closed
    tracer = tracing.Tracer()
    originals = {id(func) for _, _, func in tracer.targets()}
    tracer.install()
    try:
        assert jchsim.protocols.evolve_closed is not original
        assert jchsim.protocols.evolve_closed.__wrapped__ is original
        assert jchsim.lindblad.evolve_closed is jchsim.protocols.evolve_closed
        assert "__wrapped__" in vars(jchsim.lindblad.Liouvillian.modes)
        # no jchsim module keeps an unwrapped binding of a traced function
        for name, mod in list(sys.modules.items()):
            if name.startswith("jchsim"):
                assert not any(id(v) in originals for v in vars(mod).values()), name
    finally:
        tracer.uninstall()
    after = tracing.snapshot()
    assert all(after.get(key) == value for key, value in before.items())
    assert jchsim.protocols.evolve_closed is original


def test_ratios_cancel_a_slow_host():
    import run

    def passes(speed):
        # two passes of two jobs; the host runs at 1/speed of full speed
        return [{"job_s": [0.5 * speed, 2.0 * speed], "wall_s": 2.5 * speed,
                 "ref_s": [0.05 * speed] * 3} for _ in range(2)]

    fast, slow = passes(1.0), passes(1.6)
    assert run.add_ratios(fast) == pytest.approx(50.0)
    assert run.add_ratios(slow) == pytest.approx(run.add_ratios(fast))
    assert [x for r in slow for x in r["job_rel"]] == pytest.approx([10.0, 40.0] * 2)


def test_checks_reject_broken_results(tmp_path):
    job = next(j for j in workloads.build("driven_dynamics", 5)
               if j.experiment == "driven_oscillation" and j.fmt == "json")
    payload = {
        "provenance": {},
        "summary": {"period_extracted": 1.05, "period_analytic": 1.0},
        "data": {"P_1plus": [0.2, 1.2], "P_1minus": [0.5, 0.5], "P_ground": [0.0, 0.0]},
    }
    (tmp_path / "driven_oscillation.json").write_text(json.dumps(payload))
    problems = checks.check(job, tmp_path)
    assert any("period" in p for p in problems)
    assert any("P_1plus" in p for p in problems)
    assert checks.check(job, tmp_path / "missing") != []


def test_seed_fixes_the_inputs():
    for workload in workloads.WORKLOADS:
        assert workloads.build(workload, 7) == workloads.build(workload, 7)
        assert workloads.build(workload, 7) != workloads.build(workload, 8)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "spectra", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
