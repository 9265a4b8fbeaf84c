"""Weak-drive perturbation series of the driven cavity in the dressed basis.

:func:`dressed_drive` gives the dressed energies E0 as one vector and the
drive V, read off :func:`dressed_ladders`, as one matrix, both in the label
order of :func:`dressed_bases`; the series works on them by index.  The drive
only connects neighbouring excitation manifolds, so V is strictly
off-diagonal: first-order energy shifts vanish for every label.  Labels joined
by a drive coupling that is not small against their level gap (|V|/gap above
:data:`CLUSTER_RATIO`) form a quasi-degenerate cluster; every other label is a
cluster of its own.  One formula gives every shift through second order: the
eigenvalues of the cluster's second-order Loewdin effective Hamiltonian
(Loewdin, J. Chem. Phys. 19, 1396 (1951)), which on a lone label k is the
Rayleigh-Schroedinger sum sum_l |V_lk|^2 / (E0[k] - E0[l]).  Every coupling
left between two clusters has a gap of at least |V| / CLUSTER_RATIO, so no
denominator of the series is small and no separate degeneracy guard is needed.
Every contributing term of a lone label, and one line per cluster, is also
recorded in a human-readable table so the sign and denominator of each
contribution can be audited one by one.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hamiltonians import SystemParams, build_driven
from .polariton import GROUND, dressed_bases, dressed_ladders, polariton_energy

REPORT_LABELS = (GROUND, "1-", "1+", "2-", "2+")
# |V|/gap above which two coupled labels join one quasi-degenerate cluster
CLUSTER_RATIO = 0.05


def dressed_drive(params: SystemParams):
    """(labels, e0, v): the dressed labels G, 1-, 1+, ..., n_fock+ (those of
    :func:`dressed_bases` without the overflow), their energies ``e0`` in the
    co-rotating drive frame (ground at zero), and the drive ``v[m, k] =
    <m|V|k>`` between them.

    The step from manifold n-1 to n carries i (atom_drive w_atom + cavity_drive
    w_cavity) for each ladder family, with the weights w read off
    :func:`dressed_ladders`; the two interchanging families start at n = 2.
    """
    g, delta, n_fock = params.g, params.delta, params.n_fock
    labels, a_dag, s_plus = dressed_ladders(params.dims, g, delta)
    e0 = np.array([0.0, *(polariton_energy(n, b, g, delta, params.cavity_drive_detuning)
                          for n in range(1, n_fock + 1) for b in "-+")])
    up = (params.atom_drive * s_plus + params.cavity_drive * a_dag)[:-1, :-1]
    return labels[:-1], e0, 1j * (up - up.T)


def _clusters(e0: np.ndarray, v: np.ndarray):
    """Labels linked by a drive coupling with |V|/gap > CLUSTER_RATIO.

    Returns the clusters of two or more labels as index tuples, each in label
    order and ordered by their first label, and the largest |V|/gap over all
    pairs (inf where a coupling meets a zero gap).
    """
    gap = np.abs(e0[:, None] - e0[None, :])
    with np.errstate(divide="ignore"):
        ratio = np.divide(np.abs(v), gap, out=np.zeros(gap.shape), where=v != 0)
    linked = (ratio > CLUSTER_RATIO) | np.eye(len(e0), dtype=bool)
    for _ in range(len(e0).bit_length()):  # closure: joined by any chain of links
        linked = linked @ linked
    clusters = []
    for row in linked.tolist():
        members = tuple(k for k, joined in enumerate(row) if joined)
        if len(members) > 1 and members not in clusters:
            clusters.append(members)
    return tuple(clusters), float(ratio.max())


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


def _lowdin_shifts(cluster, labels, e0: np.ndarray, v: np.ndarray, terms: list):
    """Second-order shifts of the labels at the indices ``cluster`` from its
    Loewdin H_eff.

    H_eff[m, m'] = E0[m] d_mm' + V[m, m'] + 1/2 sum_l (V[m, l] V[l, m'] /
    (E0[m] - E0[l]) + V[m, l] V[l, m'] / (E0[m'] - E0[l])), with l outside the
    cluster: the Hermitian part of A V_co^dag with A = V_co / (E0_c - E0_o).
    It is diagonalised with E0 of the first label taken off its diagonal, so a
    lone label's shift is the plain sum of its Rayleigh-Schroedinger terms,
    with no rounding of E0 mixed in.  Labels and eigenvalues pair one to one by
    :func:`_pair_by_weight` on the weights of the eigenvectors.  The cluster
    rule leaves no coupling across a zero gap, so a zero amplitude is the only
    term whose gap may vanish.
    """
    cluster = list(cluster)
    others = [k for k in range(len(e0)) if k not in cluster]
    v_c = v.take(cluster, axis=0)
    v_co = v_c.take(others, axis=1)
    e0_c = e0.take(cluster)
    # A = V_co / (E0_c - E0_o) where V_co != 0 (no such gap vanishes), else 0
    a = v_co / np.where(v_co != 0, np.subtract.outer(e0_c, e0.take(others)), 1.0)
    mixed = a @ v_co.conj().T
    ref = e0_c[0]
    h = np.diag(e0_c - ref) + v_c.take(cluster, axis=1) + 0.5 * (mixed + mixed.conj().T)
    values, vectors = np.linalg.eigh(h)
    shifts = {
        labels[cluster[i]]: float(values[j] + (ref - e0_c[i]))
        for i, j in _pair_by_weight(np.abs(vectors) ** 2)
    }
    if len(cluster) > 1:
        names = [labels[m] for m in cluster]
        listed = ", ".join(f"E2[{m}] = {shifts[m]:+.6e}" for m in names)
        terms.append(
            f"cluster {{{', '.join(names)}}}: eigenvalues of the second-order "
            f"Loewdin H_eff -> {listed}"
        )
        return shifts
    (k,) = cluster
    # one term per label of a neighbouring manifold; label i is in manifold (i + 1) // 2
    for other in (m for m in others if abs((m + 1) // 2 - (k + 1) // 2) == 1):
        amp = v[other, k]
        term = abs(amp) ** 2 / (e0[k] - e0[other]) if amp else 0.0
        terms.append(f"E2[{labels[k]}] += |V[{labels[other]},{labels[k]}]|^2 / "
                     f"(E0[{labels[k]}] - E0[{labels[other]}]) = {term:+.6e}")
    return shifts


def match_exact_energies(params: SystemParams):
    """Dense-solve eigenvalues of the driven Hamiltonian paired one to one with
    the report labels by overlap, so that no exact level serves two labels."""
    energies, vectors = np.linalg.eigh(build_driven(params).data)
    labels, (basis,) = dressed_bases(params.dims, params.g, [params.delta])
    overlaps = np.stack([np.abs(vectors.conj().T @ basis[:, labels.index(lbl)])
                         for lbl in REPORT_LABELS])
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
    labels, e0, v = dressed_drive(params)
    clusters, max_ratio = _clusters(e0, v)
    clustered = {k for cluster in clusters for k in cluster}
    lone = tuple((labels.index(k),) for k in REPORT_LABELS if labels.index(k) not in clustered)
    shifts = {}
    for cluster in clusters + lone:
        shifts.update(_lowdin_shifts(cluster, labels, e0, v, terms))
    return PerturbationReport(
        e0={k: float(e0[labels.index(k)]) for k in REPORT_LABELS},
        e2={k: shifts[k] for k in REPORT_LABELS},
        terms=tuple(terms),
        clusters=tuple(tuple(labels[k] for k in cluster) for cluster in clusters),
        max_coupling_ratio=max_ratio,
    )
