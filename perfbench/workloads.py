"""Seeded job lists for the three benchmark workloads.

A job is one ``jchsim run`` or ``jchsim selfcheck`` invocation.  Every
physical parameter is drawn from the workload seed, inside ranges where the
output checks in ``checks.py`` hold; the program sees only the generated
config files.  No job sets a thread count: the BLAS pool is pinned by the
runner instead.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("spectra", "closed_sweeps", "driven_dynamics")


@dataclass(frozen=True)
class Job:
    """One CLI invocation: a config (``None`` for selfcheck) plus flags."""

    name: str
    experiment: str
    config: dict | None = None
    fmt: str = "csv"
    flags: tuple = ()
    # largest Hilbert-space dimension D the job works in; D^2 is the
    # dimension a dense superoperator on that space has
    dim: int = 0

    def config_text(self) -> str:
        lines = [f"experiment = {self.experiment}"]
        for key, value in self.config.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, (list, tuple)):
                value = ", ".join(_num(v) for v in value)
            elif isinstance(value, float):
                value = _num(value)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    def argv(self, config_path, out_dir) -> list:
        if self.config is None:
            return ["selfcheck", "--output", str(out_dir / "selfcheck.json")]
        return ["run", str(config_path), "--output-dir", str(out_dir),
                "--format", self.fmt, *self.flags]


def _num(value: float) -> str:
    return format(float(value), ".6g")


def _dim(n_fock: int, n_cavities: int) -> int:
    return (2 * (n_fock + 1)) ** n_cavities


def _spectra(rng: random.Random) -> list:
    # a dozen cheap single-cavity jobs give job_s.p50 enough samples in the
    # few passes that the 1296x1296 eig of the two-cavity job leaves room for
    jobs = []
    for i in range(12):
        # the closed form is exact only for equal cavity and atom decay
        # rates; a mismatch of 0.05 g already costs 0.6% sup error
        decay = rng.uniform(0.2, 0.8)
        jobs.append(Job(
            f"spectrum-{i}", "spectrum",
            {"delta": rng.uniform(-1.5, 1.5), "cavity_decay": decay, "atom_decay": decay},
            fmt="json" if i % 2 else "csv", dim=_dim(4, 1),
        ))
    jobs.append(Job(
        "two_cavity_spectrum-0", "two_cavity_spectrum",
        {
            "delta": rng.uniform(-1.0, 1.0),
            "hopping": rng.uniform(0.6, 1.4),
            "cavity_decay": rng.uniform(0.2, 0.8),
            "atom_decay": rng.uniform(0.2, 0.8),
        },
        dim=_dim(2, 2),
    ))
    return jobs


def _ramp(rng: random.Random, time_dependent: bool) -> dict:
    return {
        "hopping": rng.uniform(0.05, 0.2),
        "mode": rng.randrange(3),
        "initial": rng.choice(("1-,1-", "1+,1+")),
        "time_dependent": time_dependent,
        "delta_min": rng.uniform(0.05, 0.2),
        "delta_max": rng.uniform(40.0, 80.0),
    }


def _closed_sweeps(rng: random.Random) -> list:
    dim = _dim(3, 2)
    return [
        Job("rwa_probe-0", "rwa_probe", {"hopping": rng.uniform(0.05, 0.2)}, dim=dim),
        Job("variance_compare-0", "variance_compare", {
            "hopping_values": sorted(rng.uniform(0.02, 0.1) for _ in range(3)),
            "delta_values": sorted(rng.uniform(0.0, 5.0) for _ in range(3)),
        }, fmt="json", dim=dim),
        Job("ramp_static-0", "ramp", _ramp(rng, False), dim=dim),
        Job("ramp_time_dependent-0", "ramp", _ramp(rng, True), dim=dim),
        Job("ramp_strict-0", "ramp", _ramp(rng, True), fmt="json",
            flags=("--strict-ramp",), dim=dim),
    ]


def _driven(rng: random.Random, cavity_decay: float) -> dict:
    detuning = rng.uniform(400.0, 600.0)
    config = {
        "atom_drive": rng.uniform(40.0, 60.0),
        "atom_drive_detuning": detuning,
        "cavity_drive_detuning": detuning,
    }
    if cavity_decay:
        config["cavity_decay"] = cavity_decay
    return config


def _driven_dynamics(rng: random.Random) -> list:
    jobs = []
    for i in range(4):
        # delta = 0, so co-rotating drive frames need equal drive detunings
        detuning = rng.uniform(0.2, 0.5)
        jobs.append(Job(
            f"perturbation_report-{i}", "perturbation_report",
            {
                "atom_drive": rng.uniform(0.005, 0.02),
                "cavity_drive": rng.uniform(0.005, 0.02),
                "atom_drive_detuning": detuning,
                "cavity_drive_detuning": detuning,
            },
            fmt="json" if i % 2 else "csv", dim=_dim(4, 1),
        ))
    # selfcheck's largest system is its two-site pair at n_fock 2; table1's
    # is the two-site hopping row at n_fock 3
    jobs.append(Job("selfcheck-0", "selfcheck", fmt="json", dim=_dim(2, 2)))
    jobs.append(Job("table1-0", "table1", {"omega_c": rng.uniform(5e3, 2e4)}, dim=_dim(3, 2)))
    for fmt in ("csv", "json"):
        jobs.append(Job(f"driven_closed-{fmt}", "driven_oscillation",
                        _driven(rng, 0.0), fmt=fmt, dim=_dim(4, 1)))
        jobs.append(Job(f"driven_damped-{fmt}", "driven_oscillation",
                        _driven(rng, rng.uniform(0.05, 0.2)), fmt=fmt, dim=_dim(4, 1)))
    return jobs


_JOB_LISTS = {
    "spectra": _spectra,
    "closed_sweeps": _closed_sweeps,
    "driven_dynamics": _driven_dynamics,
}


def build(workload: str, seed: int) -> list:
    """The fixed job list of ``workload`` for ``seed``; the same seed gives
    the same list.  The first job is the cheapest and serves as warm-up."""
    if workload not in _JOB_LISTS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return _JOB_LISTS[workload](random.Random(f"{workload}:{seed}"))
