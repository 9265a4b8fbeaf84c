"""Output checks for one benchmark job, read back from its result files.

The checks test physical invariants, not stored bytes, so a change that only
moves the last digits still passes.  The standing acceptance failures
(criterion 2, the RWA probe targets, and criterion 8, the perturbation
oracle targets) are deliberately not gated.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

PROB_TOL = 1e-9
SUP_ERROR_LIMIT = 0.005  # single-cavity numeric vs closed-form spectrum
PERIOD_TOL = 0.03  # driven oscillation: extracted vs analytic period
# criterion-5 tolerances of the variance cross-validation
VAR_LARGE, VAR_REL_TOL, VAR_ABS_TOL = 0.1, 0.05, 0.005


def _parse_cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def load(experiment: str, fmt: str, out_dir: Path):
    """(provenance, summary, columns) of a ``jchsim run`` result."""
    if fmt == "json":
        payload = json.loads((out_dir / f"{experiment}.json").read_text())
        return payload["provenance"], payload["summary"], payload["data"]
    meta = json.loads((out_dir / f"{experiment}.summary.json").read_text())
    with open(out_dir / f"{experiment}.csv", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    header, body = rows[0], rows[1:]
    columns = {name: [_parse_cell(row[i]) for row in body] for i, name in enumerate(header)}
    return meta["provenance"], meta["summary"], columns


def _numeric(values) -> list:
    return [v for v in values if not isinstance(v, str)]


def _finite(columns: dict, problems: list):
    for name, values in columns.items():
        if not all(math.isfinite(v) for v in _numeric(values)):
            problems.append(f"column {name} is not finite")


def _probabilities(columns: dict, names, problems: list):
    for name in names:
        values = columns[name]
        if min(values) < -PROB_TOL or max(values) > 1.0 + PROB_TOL:
            problems.append(f"column {name} leaves [0, 1]: [{min(values)}, {max(values)}]")


def one_excitation_energies(prov: dict) -> np.ndarray:
    """Eigenvalues of the one-excitation block of the two-site JCH Hamiltonian,
    built here independently in the basis (photon 0, atom 0, photon 1, atom 1)."""
    wc, g, j = prov["params.omega_c"], prov["params.g"], prov["params.hopping"]
    wa = wc + prov["params.delta"]
    block = np.array([
        [wc, g, j, 0.0],
        [g, wa, 0.0, 0.0],
        [j, 0.0, wc, g],
        [0.0, 0.0, g, wa],
    ])
    return np.linalg.eigvalsh(block)


def _spectrum(prov, summary, columns, problems):
    error = summary["relative_sup_error"]
    if not error < SUP_ERROR_LIMIT:
        problems.append(f"relative_sup_error {error:.3e} >= {SUP_ERROR_LIMIT}")
    n_peaks = len(summary["peaks_numeric"]["positions"])
    if n_peaks != 2:
        problems.append(f"{n_peaks} peaks, expected 2")


def _two_cavity_spectrum(prov, summary, columns, problems):
    energies = one_excitation_energies(prov)
    peaks = summary["peaks_numeric"]
    if not peaks["positions"]:
        problems.append("no peaks")
    for pos, width in zip(peaks["positions"], peaks["widths"]):
        gap = float(np.min(np.abs(energies - pos)))
        if not gap <= width:
            problems.append(f"peak at {pos:.4f} is {gap:.3e} from the nearest "
                            f"one-excitation level, more than its width {width:.3e}")


def _driven_oscillation(prov, summary, columns, problems):
    ratio = summary["period_extracted"] / summary["period_analytic"]
    if not abs(ratio - 1.0) < PERIOD_TOL:
        problems.append(f"period off the analytic one by {abs(ratio - 1.0):.2%}")
    _probabilities(columns, ("P_1plus", "P_1minus", "P_ground"), problems)


def _rwa_probe(prov, summary, columns, problems):
    _probabilities(columns, ("p_up_from_1minus", "p_up_from_2minus"), problems)


def _ramp(prov, summary, columns, problems):
    _probabilities(columns, [n for n in columns if n.startswith("p_")], problems)
    if min(columns["var"]) < -PROB_TOL:
        problems.append("negative order parameter")


def _variance_compare(prov, summary, columns, problems):
    for j, delta, branch, num, ana in zip(
        columns["hopping"], columns["delta"], columns["branch"],
        columns["var_numeric"], columns["var_analytic"],
    ):
        err = abs(num - ana)
        ok = err / num < VAR_REL_TOL if num >= VAR_LARGE else err < VAR_ABS_TOL
        if not ok:
            problems.append(f"variance at J={j}, delta={delta}, branch {branch}: "
                            f"numeric {num:.4g} vs analytic {ana:.4g}")


def _table1(prov, summary, columns, problems):
    _probabilities(columns, ("coherence_max", "interchange_probability"), problems)


def _perturbation_report(prov, summary, columns, problems):
    _probabilities(columns, ("overlap",), problems)


_CHECKS = {
    "spectrum": _spectrum,
    "two_cavity_spectrum": _two_cavity_spectrum,
    "driven_oscillation": _driven_oscillation,
    "rwa_probe": _rwa_probe,
    "ramp": _ramp,
    "variance_compare": _variance_compare,
    "table1": _table1,
    "perturbation_report": _perturbation_report,
}


def check(job, out_dir: Path) -> list:
    """Problems found in the result files of ``job``; empty when it passed."""
    problems: list = []
    try:
        if job.config is None:
            report = json.loads((out_dir / "selfcheck.json").read_text())
            if report["passed"] is not True:
                failed = [k for k, v in report["checks"].items() if not v["passed"]]
                problems.append(f"selfcheck failed: {', '.join(failed)}")
            return problems
        prov, summary, columns = load(job.experiment, job.fmt, out_dir)
        _finite(columns, problems)
        _CHECKS[job.experiment](prov, summary, columns, problems)
    except (OSError, ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        problems.append(f"unreadable result: {type(exc).__name__}: {exc}")
    return problems
