"""Machine-checkable invariant suite, run at reduced sizes.

The suite returns the report the CLI writes as JSON: whether every check
passed, and per named check its pass/fail and a one-line detail.
"""
from __future__ import annotations

import math

import numpy as np

from . import polariton
from .hamiltonians import (
    SystemParams,
    build_driven,
    build_hopping,
    build_jc,
    build_jch,
    stroboscopic_generator,
)
from .hilbert import (
    HilbertDims,
    Operator,
    annihilation_at,
    atomic_lowering,
    bare_ket,
    fock_annihilation,
    lowering_at,
    partial_trace,
    total_excitation,
)
from .lindblad import evolve, evolve_closed, standard_liouvillian, steady_state, trace_distance
from .perturbation import dressed_drive
from .protocols import _hold_amplitudes


def _check(value, bound) -> dict:
    ok = value < bound
    return {"passed": bool(ok), "detail": f"{value:.3e} {'<' if ok else '>='} {bound:.0e}"}


def _random_density(dims: HilbertDims, rng) -> Operator:
    d = dims.total_dim
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = raw @ raw.conj().T
    return Operator(dims, rho / np.trace(rho))


def run_selfcheck() -> dict:
    """Run every module's invariant checks at reduced sizes; returns the report
    ``{"passed", "checks": {name: {"passed", "detail"}}}``."""
    rng = np.random.default_rng(20240817)
    checks = {}
    single = SystemParams(delta=0.4, cavity_decay=0.3, atom_decay=0.2, n_fock=3)
    pair = SystemParams(delta=0.4, hopping=0.2, cavity_decay=0.3, atom_decay=0.2, n_fock=2,
                        n_cavities=2)

    # --- operator algebra -------------------------------------------------
    dims = single.dims
    a = fock_annihilation(dims)
    sm = atomic_lowering(dims)
    checks["adjoint_involution"] = _check(
        max(float(np.max(np.abs(op.dag().dag().data - op.data))) for op in (a, sm, a.dag() @ sm)),
        1e-15,
    )
    comm = (a @ a.dag() - a.dag() @ a).data
    below = dims.site_dim - 2  # the two top states feel the cutoff
    checks["ladder_commutator_below_cutoff"] = _check(
        float(np.max(np.abs(comm[:below, :below] - np.eye(below)))), 1e-12
    )
    pdims = pair.dims
    a0, a1 = annihilation_at(pdims, 0), annihilation_at(pdims, 1)
    s1 = lowering_at(pdims, 1)
    checks["site_commutation"] = _check(
        max(float(np.max(np.abs((x @ y - y @ x).data))) for x, y in ((a0, a1), (a0, s1.dag()))),
        1e-12,
    )
    rho2 = _random_density(pdims, rng)
    reduced = partial_trace(rho2, 0)
    trace_err = abs(np.trace(reduced.data) - 1.0)
    min_eig = float(np.linalg.eigvalsh(reduced.data).min())
    checks["partial_trace_trace"] = _check(float(trace_err), 1e-10)
    checks["partial_trace_positivity"] = _check(-min(min_eig, 0.0), 1e-10)

    # --- polariton basis --------------------------------------------------
    worst_diag = 0.0
    worst_complete = 0.0
    for delta in (-1.5, 0.0, 0.7, 8.0):
        p = single.with_(delta=delta)
        _, (basis,) = polariton.dressed_bases(p.dims, p.g, [delta])
        h = build_jc(p).data
        transformed = basis.conj().T @ h @ basis
        worst_diag = max(
            worst_diag,
            float(np.max(np.abs(transformed - np.diag(np.diag(transformed))))),
        )
        gram = basis @ basis.conj().T
        worst_complete = max(
            worst_complete, float(np.max(np.abs(gram - np.eye(p.dims.site_dim))))
        )
    checks["polariton_diagonalization"] = _check(worst_diag, 1e-10)
    checks["polariton_completeness"] = _check(worst_complete, 1e-12)

    # the driven Hamiltonian in the dressed basis, the overflow left out, is the
    # perturbation series' E0 on the diagonal plus its drive, read from the
    # raising operators of dressed_ladders
    worst_rebuild = 0.0
    for delta in (0.0, 1.3):
        p = single.with_(
            delta=delta, atom_drive=0.3, cavity_drive=0.1,
            atom_drive_detuning=delta + 0.5, cavity_drive_detuning=0.5,
        )
        _, (basis,) = polariton.dressed_bases(p.dims, p.g, [delta])
        dressed = basis.conj().T @ build_driven(p).data @ basis
        _, e0, v = dressed_drive(p)
        rebuilt = dressed[:-1, :-1] - np.diag(e0) - v
        worst_rebuild = max(worst_rebuild, float(np.max(np.abs(rebuilt))))
    checks["ladder_reconstruction"] = _check(worst_rebuild, 1e-10)

    # k_pm = a^dag[n+, (n-1)-] at delta equals k_mp = a^dag[n-, (n-1)+] at -delta
    labels, a_pos, _ = polariton.dressed_ladders(dims, 1.0, 1.1)
    _, a_neg, _ = polariton.dressed_ladders(dims, 1.0, -1.1)
    at = labels.index
    sym_err = max(abs(a_pos[at(f"{n}+"), at(f"{n - 1}-")] - a_neg[at(f"{n}-"), at(f"{n - 1}+")])
                  for n in (2, 3))
    checks["coefficient_detuning_symmetry"] = _check(float(sym_err), 1e-12)

    # --- Hamiltonians -----------------------------------------------------
    builders = [build_jc(pair), build_hopping(pair), build_jch(pair)]
    drive = single.with_(
        atom_drive=0.3, cavity_drive=0.1, atom_drive_detuning=0.9, cavity_drive_detuning=0.5
    )
    builders.append(build_driven(drive))
    builders.append(stroboscopic_generator(single, 1))
    checks["hamiltonian_hermiticity"] = _check(
        max(float(np.max(np.abs(h.data - h.data.conj().T))) for h in builders), 1e-12
    )
    n_total = total_excitation(pdims)
    h_latt = build_jch(pair)
    checks["excitation_conservation"] = _check(
        float(np.max(np.abs((h_latt @ n_total - n_total @ h_latt).data))), 1e-12
    )

    worst_rot = 0.0
    gen = stroboscopic_generator(single, 0)
    for n in (1, 2, 3):
        ket = polariton.site_polariton_ket(single.dims, n, "-", single.g, single.delta)
        for gt in (0.3, 1.1):
            amps = evolve_closed(gen, ket, np.array([0.0, gt]))[-1]
            expected = math.cos(gt * math.sqrt(n)) * ket - math.sin(
                gt * math.sqrt(n)
            ) * polariton.site_polariton_ket(single.dims, n, "+", single.g, single.delta)
            worst_rot = max(worst_rot, float(np.max(np.abs(amps - expected))))
    checks["stroboscopic_rotation"] = _check(worst_rot, 1e-10)

    # --- Lindblad engine ----------------------------------------------------
    liouv = standard_liouvillian(single)
    # Tr L[x] = tr . L vec(x) vanishes for every x when the trace row tr annihilates L
    trace_row = np.eye(dims.total_dim).reshape(-1)
    checks["generator_trace_preservation"] = _check(
        float(np.max(np.abs(trace_row @ liouv.data))), 1e-10
    )
    modes = liouv.modes()
    checks["liouvillian_zero_mode"] = _check(float(np.min(np.abs(modes.eigenvalues))), 1e-8)
    checks["liouvillian_stability"] = _check(float(modes.eigenvalues.real.max()), 1e-8)
    rho_ss = steady_state(liouv)
    checks["steady_state_residual"] = _check(
        float(np.max(np.abs(liouv.data @ rho_ss.data.reshape(-1)))), 1e-8
    )

    psi0 = bare_ket(dims, [(2, 0)])
    rho0 = Operator(dims, np.outer(psi0, psi0.conj()))
    traj = evolve(liouv, rho0, np.linspace(0.0, 6.0, 121))
    checks["evolve_trace_drift"] = _check(traj.trace_drift(), 1e-8)
    checks["snapshot_positivity"] = _check(-min(traj.min_eigenvalue(), 0.0), 1e-7)

    coarse = evolve(liouv, rho0, np.linspace(0.0, 1.0, 21))
    fine = evolve(liouv, rho0, np.linspace(0.0, 1.0, 41))
    dist = max(trace_distance(coarse.state(i), fine.state(2 * i)) for i in range(21))
    checks["evolve_step_halving"] = _check(float(dist), 1e-12)

    # --- branch separability (closed lattice, weak hopping) ----------------
    sep = pair.with_(cavity_decay=0.0, atom_decay=0.0, hopping=0.1, delta=0.5)
    _, labels, pairs, (amps,) = _hold_amplitudes(["1-,1-"], sep, [sep.delta], sep.hopping,
                                                 10.0 / sep.hopping, 201)
    # the upper-branch weight summed over both sites
    upper = np.array([lbl.endswith("+") for lbl in labels], dtype=float)
    up_weight = np.abs(amps) ** 2 @ (upper[pairs[0]] + upper[pairs[1]])
    checks["branch_separability"] = _check(float(up_weight.max()), 0.1)

    return {"passed": all(c["passed"] for c in checks.values()), "checks": checks}
