"""Weak-drive perturbation series of the driven cavity in the dressed basis.

The drive only connects neighbouring excitation manifolds, so its matrix in
the polariton basis is strictly off-diagonal: first-order energy shifts
vanish for every label.  Labels joined by a drive coupling that is not small
against their level gap (|V|/gap above :data:`CLUSTER_RATIO`) form a
quasi-degenerate cluster; every other label is a cluster of its own.  One
formula gives every shift through second order: the eigenvalues of the
cluster's second-order Loewdin effective Hamiltonian (Loewdin, J. Chem.
Phys. 19, 1396 (1951)), which on a lone label k is the Rayleigh-Schroedinger
sum sum_l |V_lk|^2 / (E0[k] - E0[l]).  Every coupling left between two
clusters has a gap of at least |V| / CLUSTER_RATIO, so no denominator of
the series is small and no separate degeneracy guard is needed.  Every
contributing term of a lone label, and one line per cluster, is also
recorded in a human-readable table so the sign and denominator of each
contribution can be audited one by one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hamiltonians import SystemParams, build_driven
from .polariton import GROUND, basis_transform, label, ladder_coefficients_for, polariton_energy

REPORT_LABELS = (GROUND, "1-", "1+", "2-", "2+")
# |V|/gap above which two coupled labels join one quasi-degenerate cluster
CLUSTER_RATIO = 0.05


def unperturbed_energies(params: SystemParams):
    """Dressed energies in the co-rotating drive frame (ground at zero)."""
    return {
        label(n, branch): polariton_energy(
            n, branch, params.g, params.delta, params.cavity_drive_detuning
        )
        for n in range(params.n_fock + 1)
        for branch in ("-", "+")
    }


def interaction_elements(params: SystemParams):
    """Matrix elements <m|V|k> of the drive between dressed labels.

    The step from manifold n-1 to n carries i (atom_drive w_atom + cavity_drive
    w_cavity) for each ladder family, with the weights of
    :func:`ladder_coefficients_for`; the two interchanging families start at
    n = 2.
    """
    om, al = params.atom_drive, params.cavity_drive
    elements = {}
    for n in range(1, params.n_fock + 1):
        co = ladder_coefficients_for(n, params.g, params.delta)
        families = [("+", "+", co.a_c_plus, co.c_plus), ("-", "-", co.a_c_minus, co.c_minus)]
        if n >= 2:
            families += [("+", "-", co.a_k_pm, co.k_pm), ("-", "+", co.a_k_mp, co.k_mp)]
        for upper, lower, atom_weight, cavity_weight in families:
            amp = 1j * (om * atom_weight + al * cavity_weight)
            elements[(label(n, upper), label(n - 1, lower))] = amp
            # V is Hermitian and amp imaginary: <lower|V|upper> = conj(amp) = -amp
            elements[(label(n - 1, lower), label(n, upper))] = -amp
    return elements


def _clusters(energies: dict, elements: dict):
    """Labels linked by a drive coupling with |V|/gap > CLUSTER_RATIO.

    Returns the clusters of two or more labels, each in label order, and the
    largest |V|/gap over all coupled pairs.
    """
    cluster_of = {k: {k} for k in energies}
    worst = 0.0
    for (a, b), v in elements.items():
        gap = abs(energies[a] - energies[b])
        ratio = 0.0 if v == 0 else (abs(v) / gap if gap else math.inf)
        worst = max(worst, ratio)
        if ratio > CLUSTER_RATIO and cluster_of[a] is not cluster_of[b]:
            merged = cluster_of[a] | cluster_of[b]
            for k in merged:
                cluster_of[k] = merged
    clusters = []
    for k in energies:
        members = tuple(m for m in energies if m in cluster_of[k])
        if len(members) > 1 and members not in clusters:
            clusters.append(members)
    return tuple(clusters), worst


def _pair_by_weight(weights: np.ndarray):
    """(row, column) pairs taken greedily by decreasing weight, each row and
    each column at most once; ties go to the lower flat index."""
    rows, cols = set(), set()
    for flat in np.argsort(-weights, axis=None, kind="stable"):
        i, j = divmod(int(flat), weights.shape[1])
        if i not in rows and j not in cols:
            rows.add(i)
            cols.add(j)
            yield i, j


def _lowdin_shifts(cluster, energies: dict, elements: dict, terms: list):
    """Second-order shifts of the labels in ``cluster`` from its Loewdin H_eff.

    H_eff[m, m'] = E0[m] d_mm' + V[m, m'] + 1/2 sum_l (V[m, l] V[l, m'] /
    (E0[m] - E0[l]) + V[m, l] V[l, m'] / (E0[m'] - E0[l])), with l outside the
    cluster.  It is diagonalised with E0 of the first label taken off its
    diagonal, so a lone label's shift is the plain sum of its
    Rayleigh-Schroedinger terms, with no rounding of E0 mixed in.  Labels and
    eigenvalues pair one to one by :func:`_pair_by_weight` on the weights of
    the eigenvectors.  The cluster rule leaves no coupling across a zero gap,
    so a zero amplitude is the only term whose gap may vanish.
    """
    ref = energies[cluster[0]]
    h = np.diag([complex(energies[m] - ref) for m in cluster])
    for i, m in enumerate(cluster):
        for j, mp in enumerate(cluster):
            h[i, j] += elements.get((m, mp), 0.0)
            for other in energies:
                amp = elements.get((m, other), 0.0) * elements.get((other, mp), 0.0)
                if other in cluster or amp == 0.0:
                    continue
                h[i, j] += 0.5 * (
                    amp / (energies[m] - energies[other]) + amp / (energies[mp] - energies[other])
                )
    values, vectors = np.linalg.eigh(h)
    shifts = {
        cluster[i]: float(values[j]) + (ref - energies[cluster[i]])
        for i, j in _pair_by_weight(np.abs(vectors) ** 2)
    }
    if len(cluster) > 1:
        listed = ", ".join(f"E2[{m}] = {shifts[m]:+.6e}" for m in cluster)
        terms.append(
            f"cluster {{{', '.join(cluster)}}}: eigenvalues of the second-order "
            f"Loewdin H_eff -> {listed}"
        )
        return shifts
    (k,) = cluster
    for other in energies:
        if (other, k) in elements:
            v = elements[(other, k)]
            term = abs(v) ** 2 / (energies[k] - energies[other]) if v else 0.0
            terms.append(f"E2[{k}] += |V[{other},{k}]|^2 / (E0[{k}] - E0[{other}]) = {term:+.6e}")
    return shifts


def match_exact_energies(params: SystemParams):
    """Dense-solve eigenvalues of the driven Hamiltonian paired one to one with
    the report labels by overlap, so that no exact level serves two labels."""
    energies, vectors = np.linalg.eigh(build_driven(params).data)
    basis = basis_transform(params.dims, params.g, params.delta)
    overlaps = np.stack([np.abs(vectors.conj().T @ basis.column(lbl)) for lbl in REPORT_LABELS])
    return {
        REPORT_LABELS[i]: (float(energies[j]), float(overlaps[i, j]))
        for i, j in sorted(_pair_by_weight(overlaps))
    }


@dataclass(frozen=True)
class PerturbationReport:
    """Bundle of the perturbation series for the five low-lying labels.

    ``e2`` holds each label's second-order shift from the Loewdin effective
    Hamiltonian of its cluster; ``clusters`` lists the clusters of two or more
    labels, and ``max_coupling_ratio`` is the largest |V|/gap over all
    coupled label pairs.
    """

    e0: dict
    e2: dict
    terms: tuple = field(default=())
    clusters: tuple = field(default=())
    max_coupling_ratio: float = 0.0

    def perturbative_energy(self, lbl: str) -> float:
        return self.e0[lbl] + self.e2[lbl]


def perturbation_report(params: SystemParams) -> PerturbationReport:
    if params.n_fock < 3:
        raise ValueError("the report needs n_fock >= 3: 2-/2+ couple to the third manifold")
    terms: list = []
    e0 = unperturbed_energies(params)
    elements = interaction_elements(params)
    clusters, max_ratio = _clusters(e0, elements)
    clustered = {k for cluster in clusters for k in cluster}
    lone = tuple((k,) for k in REPORT_LABELS if k not in clustered)
    shifts = {}
    for cluster in clusters + lone:
        shifts.update(_lowdin_shifts(cluster, e0, elements, terms))
    return PerturbationReport(
        e0={k: e0[k] for k in REPORT_LABELS},
        e2={k: shifts[k] for k in REPORT_LABELS},
        terms=tuple(terms),
        clusters=clusters,
        max_coupling_ratio=max_ratio,
    )
