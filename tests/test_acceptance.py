"""Acceptance suite: one test per release criterion, at the stated tolerances.

Every test prints a single PASS/FAIL line (run with ``pytest -s`` to see the
lines for passing criteria too).  Tolerances are pinned here and nowhere else.
"""
import math
import time

import numpy as np

from jchsim import (
    SystemParams,
    absorption_spectrum,
    absorption_spectrum_analytic,
    analytic_variance,
    annihilation_at,
    default_frequency_grid,
    driven_oscillation_run,
    effective_model,
    evolve_closed,
    find_peaks,
    hopping_interchange_probe,
    match_exact_energies,
    mechanism_table,
    numeric_variance,
    perturbation_report,
    ramp_experiment,
    site_polariton_ket,
    standard_liouvillian,
    steady_state,
    stroboscopic_generator,
)
from jchsim.perturbation import REPORT_LABELS
from jchsim.selfcheck import run_selfcheck


def _report(number: int, name: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_1_driven_oscillation_period():
    start = time.monotonic()
    params = SystemParams(
        delta=0.0, omega_c=1e4, atom_drive=50.0, atom_drive_detuning=500.0,
        cavity_drive_detuning=500.0, n_fock=4,
    )
    _, summary = driven_oscillation_run(params)
    period = summary["period_extracted"]
    period_dev = abs(period - 0.627) / 0.627
    analytic_exact = abs(summary["period_analytic"] - math.pi / math.sqrt(26.0))

    lossy, lossy_summary = driven_oscillation_run(params.with_(cavity_decay=0.1))
    heights = lossy_summary["maxima_heights"]
    decreasing = bool(np.all(np.diff(heights) < 0))
    runtime = time.monotonic() - start

    ok = period_dev < 0.03 and analytic_exact < 1e-12 and decreasing and runtime < 30.0
    line = _report(
        1,
        "driven oscillation",
        ok,
        f"period {period:.4f} (dev {period_dev:.2%} vs 0.627), "
        f"analytic {summary['period_analytic']:.4f}, "
        f"damped maxima decreasing {decreasing}, runtime {runtime:.1f}s",
    )
    assert ok, line


def test_criterion_2_rwa_probe_values():
    start = time.monotonic()
    params = SystemParams(delta=0.0, omega_c=1e4, hopping=0.1, n_fock=3, n_cavities=2)
    _, summary = hopping_interchange_probe(params)
    p_first, p_second = summary["max_p_up_from_1minus"], summary["max_p_up_from_2minus"]
    runtime = time.monotonic() - start

    ok = 0.01 <= p_first <= 0.03 and 0.06 <= p_second <= 0.10 and runtime < 60.0
    line = _report(
        2,
        "hopping interchange probabilities",
        ok,
        f"max P(0,1+) = {p_first:.4f} (target [0.01, 0.03]), "
        f"max P(1-,1+) = {p_second:.4f} (target [0.06, 0.10]), runtime {runtime:.1f}s",
    )
    assert ok, line


def test_criterion_3_spectrum_peaks():
    start = time.monotonic()
    # single cavity, resonant
    res = SystemParams(omega_c=100.0, delta=0.0, cavity_decay=0.5, atom_decay=0.5, n_fock=4)
    liouv = standard_liouvillian(res)
    rho_ss = steady_state(liouv)
    # spectra are computed on offsets from omega_c, the cavity frame
    grid = default_frequency_grid(res) - res.omega_c
    step = grid[1] - grid[0]
    numeric = absorption_spectrum(liouv, rho_ss, annihilation_at(res.dims, 0), grid)
    peaks0 = find_peaks(numeric)
    rel0 = np.max(
        np.abs(numeric.values - absorption_spectrum_analytic(res, grid).values)
    ) / absorption_spectrum_analytic(res, grid).values.max()
    resonant_ok = (
        abs(peaks0["positions"][0] + 1.0) < step
        and abs(peaks0["positions"][-1] - 1.0) < step
        and peaks0["asymmetry"] < 1e-3
        and rel0 < 0.005
    )

    # single cavity, detuned
    det = res.with_(delta=1.0)
    liouv_d = standard_liouvillian(det)
    numeric_d = absorption_spectrum(
        liouv_d, steady_state(liouv_d), annihilation_at(det.dims, 0), grid
    )
    peaks_d = find_peaks(numeric_d)
    rel_d = np.max(
        np.abs(numeric_d.values - absorption_spectrum_analytic(det, grid).values)
    ) / absorption_spectrum_analytic(det, grid).values.max()
    expected = ((1 - math.sqrt(5)) / 2, (1 + math.sqrt(5)) / 2)
    detuned_ok = (
        abs(peaks_d["positions"][0] - expected[0]) < step
        and abs(peaks_d["positions"][-1] - expected[1]) < step
        and rel_d < 0.005
    )

    # two cavities: splitting at J = g, symmetry restoration trend at J = 10 g
    def two_cavity_peaks(delta, hopping):
        p = SystemParams(
            omega_c=100.0, delta=delta, hopping=hopping, cavity_decay=0.5,
            atom_decay=0.5, n_fock=2, n_cavities=2,
        )
        liouv2 = standard_liouvillian(p)
        spec = absorption_spectrum(
            liouv2, steady_state(liouv2), annihilation_at(p.dims, 0),
            default_frequency_grid(p) - p.omega_c,
        )
        return find_peaks(spec)

    split = two_cavity_peaks(0.0, 1.0)
    asym_weak = two_cavity_peaks(1.0, 1.0)["asymmetry"]
    asym_strong = two_cavity_peaks(1.0, 10.0)["asymmetry"]
    two_cavity_ok = len(split["positions"]) == 4 and asym_strong < asym_weak
    runtime = time.monotonic() - start

    ok = resonant_ok and detuned_ok and two_cavity_ok and runtime < 120.0
    line = _report(
        3,
        "absorption spectra",
        ok,
        f"resonant peaks {np.round(peaks0['positions'], 3)} asym {peaks0['asymmetry']:.1e} "
        f"relErr {rel0:.1e}; detuned peaks {np.round(peaks_d['positions'], 3)}; "
        f"J=g gives {len(split['positions'])} peaks; asym {asym_weak:.3f} -> {asym_strong:.4f} "
        f"at J=10g; runtime {runtime:.0f}s",
    )
    assert ok, line


def test_criterion_4_stroboscopic_identity():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    params = SystemParams(delta=1.7, omega_c=50.0, n_fock=3)
    generator = stroboscopic_generator(params, 0)
    worst = 0.0
    for n in (1, 2, 3):
        lower = site_polariton_ket(params.dims, n, "-", params.g, params.delta)
        upper = site_polariton_ket(params.dims, n, "+", params.g, params.delta)
        for gt in rng.uniform(0.0, 2.0 * math.pi, 20):
            state = evolve_closed(generator, lower, np.array([0.0, gt]))[-1]
            expected = math.cos(gt * math.sqrt(n)) * lower
            expected -= math.sin(gt * math.sqrt(n)) * upper
            worst = max(worst, float(np.max(np.abs(state - expected))))
    runtime = time.monotonic() - start
    ok = worst < 1e-10 and runtime < 5.0
    line = _report(
        4, "stroboscopic rotation", ok,
        f"worst residual {worst:.2e} over n in 1..3, 20 random angles, runtime {runtime:.1f}s",
    )
    assert ok, line


def test_criterion_5_variance_cross_validation():
    start = time.monotonic()
    base = SystemParams(omega_c=1e4, n_fock=3, n_cavities=2)
    failures = []
    for hopping in (0.02, 0.05, 0.1):
        for delta in (0.0, 1.0, 5.0):
            for branch in ("-", "+"):
                p = base.with_(hopping=hopping, delta=delta)
                numeric = numeric_variance([p], [branch])[0]
                analytic = analytic_variance(effective_model(p, branch), hopping)
                if numeric >= 0.1:
                    bad = abs(numeric - analytic) / numeric >= 0.05
                else:
                    bad = abs(numeric - analytic) >= 0.005
                if bad:
                    failures.append((hopping, delta, branch, numeric, analytic))
    runtime = time.monotonic() - start
    ok = not failures and runtime < 300.0
    line = _report(
        5, "variance cross-validation", ok,
        f"{18 - len(failures)}/18 grid points within tolerance "
        f"(5% rel or 0.005 abs), runtime {runtime:.0f}s"
        + (f"; failures {failures}" if failures else ""),
    )
    assert ok, line


def test_criterion_6_mechanism_table():
    start = time.monotonic()
    rows = {row["mechanism"]: row for row in mechanism_table()}
    targets = {
        "hopping": {"coherence_max": 0.4, "interchange_probability": 0.2},
        "driving": {"coherence_max": 1.0, "interchange_probability": 1.0},
        "relaxation": {"coherence_max": 0.1, "interchange_probability": 0.0},
        "modulation": {"coherence_max": 1.0, "interchange_probability": 1.0},
    }
    deviations = {
        name: {
            key: abs(rows[name][key] - target)
            for key, target in expected.items()
        }
        for name, expected in targets.items()
    }
    worst = max(max(devs.values()) for devs in deviations.values())
    runtime = time.monotonic() - start
    ok = worst <= 0.1 and runtime < 180.0
    detail = ", ".join(
        f"{name}: C={rows[name]['coherence_max']:.2f} P={rows[name]['interchange_probability']:.2f}"
        for name in targets
    )
    line = _report(6, "mechanism table", ok, f"{detail}; worst deviation {worst:.3f}, runtime {runtime:.0f}s")
    assert ok, line


def test_criterion_7_ramp_sweeps():
    start = time.monotonic()
    params = SystemParams(omega_c=1e4, hopping=0.1, n_fock=3, n_cavities=2)
    deltas = np.geomspace(60.0, 0.1, 40)
    lower_ref, _ = ramp_experiment(params, deltas, 1, "1-,1-", time_dependent=False)
    upper_ref, _ = ramp_experiment(params, deltas, 1, "1+,1+", time_dependent=False)
    pulsed, _ = ramp_experiment(params, deltas, 1, "1-,1-", time_dependent=True)

    # static sweep: Mott-like floor at small detuning, high plateau at large
    small = [v for v, d in zip(lower_ref["var"], lower_ref["delta"]) if d <= 0.3]
    sweep_max = max(lower_ref["var"])
    static_ok = max(small) <= 0.2 and lower_ref["var"][0] >= 0.6 * sweep_max

    # pulsed sweep: every point rides one of the two reference curves
    def near(value, reference):
        if reference < 0.05:
            return abs(value - reference) < 0.02
        return abs(value - reference) / reference < 0.10

    alternating = all(
        near(pt, lo) or near(pt, up)
        for pt, lo, up in zip(pulsed["var"], lower_ref["var"], upper_ref["var"])
    )
    touches_upper = sum(
        1 for pt, lo, up in zip(pulsed["var"], lower_ref["var"], upper_ref["var"])
        if abs(pt - up) < abs(pt - lo)
    )
    oscillates = 10 < touches_upper < len(pulsed["var"]) - 10

    # largest detuning lands on the upper branch, the next on the lower
    p_up_pair = pulsed["p_1p_1p"][0]
    p_doublon = pulsed["p_2m_0"][1] + pulsed["p_0_2m"][1]
    states_ok = p_up_pair > 0.8 and p_doublon > 0.4
    runtime = time.monotonic() - start
    ok = static_ok and alternating and oscillates and states_ok
    line = _report(
        7, "detuning ramp", ok,
        f"static floor {max(small):.3f} (<=0.2), plateau ratio "
        f"{lower_ref['var'][0] / sweep_max:.2f} (>=0.6); pulsed points on reference curves "
        f"{alternating}, {touches_upper}/40 on the upper curve; "
        f"P(1+,1+)={p_up_pair:.3f}, P(2-,0)+P(0,2-)={p_doublon:.3f}; "
        f"runtime {runtime:.0f}s",
    )
    assert ok, line


def test_criterion_8_perturbation_oracle():
    start = time.monotonic()
    operating_point = SystemParams(
        delta=0.0, omega_c=1e4, atom_drive=0.01, cavity_drive=0.01,
        atom_drive_detuning=0.3, cavity_drive_detuning=0.3, n_fock=4,
    )
    report = perturbation_report(operating_point)
    exact = match_exact_energies(operating_point)
    residuals = {
        k: abs(exact[k][0] - report.perturbative_energy(k)) for k in REPORT_LABELS
    }
    residual_ok = all(r < 1e-5 for r in residuals.values())

    scan = []
    for eps in (0.04, 0.02, 0.01):
        p = operating_point.with_(atom_drive=eps, cavity_drive=eps)
        rep = perturbation_report(p)
        ex = match_exact_energies(p)
        scan.append(max(abs(ex[k][0] - rep.perturbative_energy(k)) for k in REPORT_LABELS))
    slope = float(np.polyfit(np.log([0.04, 0.02, 0.01]), np.log(scan), 1)[0])
    slope_ok = abs(slope - 3.0) <= 0.3
    runtime = time.monotonic() - start

    ok = residual_ok and slope_ok and runtime < 10.0
    detail = ", ".join(f"{k}: {v:.1e}" for k, v in residuals.items())
    line = _report(
        8, "perturbation oracle", ok,
        f"residuals {{{detail}}} (target < 1e-5), log-log slope {slope:.2f} "
        f"(target 3 +- 0.3), runtime {runtime:.1f}s",
    )
    assert ok, line


def test_criterion_9_invariant_suite():
    start = time.monotonic()
    checks = run_selfcheck()["checks"]
    required = (
        "evolve_trace_drift",
        "snapshot_positivity",
        "polariton_diagonalization",
        "ladder_reconstruction",
        "liouvillian_zero_mode",
        "branch_separability",
    )
    missing = [name for name in required if name not in checks]
    failed = [name for name, check in checks.items() if not check["passed"]]
    runtime = time.monotonic() - start
    ok = not missing and not failed and runtime < 120.0
    line = _report(
        9, "invariant suite", ok,
        f"{len(checks)} checks, failed {failed or 'none'}, runtime {runtime:.1f}s",
    )
    assert ok, line
