import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jchsim import (
    SystemParams,
    build_driven,
    dressed_bases,
    dressed_drive,
    match_exact_energies,
    mixing_angle,
    perturbation_report,
)
from jchsim.perturbation import CLUSTER_RATIO, REPORT_LABELS, _pair_by_weight
from jchsim import polariton


def _params(drive=0.01, delta_c=0.3, delta=0.0, n_fock=4):
    return SystemParams(
        delta=delta,
        omega_c=1e4,
        atom_drive=drive,
        cavity_drive=drive,
        atom_drive_detuning=delta + delta_c,
        cavity_drive_detuning=delta_c,
        n_fock=n_fock,
    )


# a detuning where every label pair is comfortably separated (the default
# operating point delta_c = 0.3 g sits almost on the 2-/3- crossing)
WELL_SEPARATED = 2.0


def _energies(p):
    """dressed_drive's energies keyed by label."""
    labels, e0, _ = dressed_drive(p)
    return dict(zip(labels, e0))


def _columns(p):
    """A function from a label to its column of the dressed basis at p.delta."""
    labels, (basis,) = dressed_bases(p.dims, p.g, [p.delta])
    return lambda lbl: basis[:, labels.index(lbl)]


class TestUnperturbedEnergies:
    def test_resonant_doublet(self):
        e0 = _energies(_params(delta_c=0.0))
        assert e0["G"] == 0.0
        assert e0["1-"] == pytest.approx(-1.0)
        assert e0["1+"] == pytest.approx(1.0)

    def test_ground_zero_always(self):
        assert _energies(_params(delta_c=0.7))["G"] == 0.0

    def test_degeneracy_scan_flags_ground_crossing(self):
        # scan oracle: |1-> crosses the ground level where delta_c = g
        crossings = []
        for delta_c in np.linspace(0.5, 1.5, 101):
            e0 = _energies(_params(delta_c=delta_c))
            crossings.append(abs(e0["1-"] - e0["G"]))
        assert np.min(crossings) == pytest.approx(0.0, abs=1e-12)
        assert np.linspace(0.5, 1.5, 101)[int(np.argmin(crossings))] == pytest.approx(1.0)


class TestDriveCoefficients:
    """The drive elements read from the raising operators of dressed_ladders."""

    @pytest.mark.parametrize("n_fock", [2, 4, 6])
    def test_labels_are_the_dressed_bases_without_the_overflow(self, n_fock):
        p = _params(n_fock=n_fock)
        labels, e0, v = dressed_drive(p)
        basis_labels, _ = dressed_bases(p.dims, p.g, [p.delta])
        assert labels == basis_labels[:-1] and basis_labels[-1] == polariton.OVERFLOW
        assert e0.shape == (len(labels),) and v.shape == (len(labels), len(labels))

    def test_all_zero_without_drives(self):
        assert not dressed_drive(_params(drive=0.0))[2].any()

    def test_atomic_only_first_manifold(self):
        p = SystemParams(
            delta=0.4, omega_c=1e4, atom_drive=0.05, cavity_drive=0.0,
            atom_drive_detuning=0.4 + 0.45, cavity_drive_detuning=0.45, n_fock=4,
        )
        theta = mixing_angle(1, p.g, p.delta)
        labels, _, v = dressed_drive(p)
        assert v[labels.index("1-"), labels.index("G")] == pytest.approx(
            -1j * 0.05 * math.sin(theta))

    def test_no_cross_terms_in_first_manifold(self):
        # the ground state has no branch: each n = 1 element is its
        # branch-keeping family alone
        p = _params()
        labels, _, v = dressed_drive(p)
        theta = mixing_angle(1, p.g, p.delta)
        cos, sin = math.cos(theta), math.sin(theta)
        ground, lo, up = (labels.index(k) for k in ("G", "1-", "1+"))
        assert set(np.flatnonzero(v[:, ground])) == set(np.flatnonzero(v[ground])) == {lo, up}
        assert v[up, ground] == 1j * (p.atom_drive * cos + p.cavity_drive * sin)
        assert v[lo, ground] == 1j * (p.atom_drive * -sin + p.cavity_drive * cos)

    def test_purely_imaginary(self):
        v = dressed_drive(_params(drive=0.03))[2]
        assert np.all(v.real == 0.0)


class TestSecondOrderEnergies:
    """Lone labels (no cluster at WELL_SEPARATED) against the textbook sum."""

    def test_matches_generic_matrix_formula(self):
        # independent oracle: the textbook second-order sum evaluated
        # directly on the full drive matrix in the dressed basis
        p = _params(drive=0.02, delta_c=WELL_SEPARATED)
        labels, e0, v = dressed_drive(p)
        assert np.max(np.abs(v - v.conj().T)) < 1e-15  # Hermitian drive
        report = perturbation_report(p)
        assert report.clusters == ()
        for k in REPORT_LABELS:
            ki = labels.index(k)
            direct = sum(
                abs(v[li, ki]) ** 2 / (e0[ki] - e0[li])
                for li in range(len(labels))
                if li != ki and v[li, ki] != 0
            )
            assert report.e2[k] == pytest.approx(direct, rel=1e-12)

    def test_first_order_vanishes(self):
        # the drive has no diagonal element in the dressed basis
        p = _params(delta_c=WELL_SEPARATED)
        assert not np.diagonal(dressed_drive(p)[2]).any()

    def test_quadratic_scaling_in_drive(self):
        p1 = SystemParams(
            omega_c=1e4, atom_drive=0.01, atom_drive_detuning=WELL_SEPARATED,
            cavity_drive_detuning=WELL_SEPARATED, n_fock=4,
        )
        p2 = p1.with_(atom_drive=0.02)
        e2_small = perturbation_report(p1).e2
        e2_large = perturbation_report(p2).e2
        for k in REPORT_LABELS:
            assert e2_large[k] == pytest.approx(4.0 * e2_small[k], rel=1e-12)

    def test_exact_diagonalization_oracle_away_from_crossings(self):
        p = _params(drive=0.01, delta_c=WELL_SEPARATED)
        report = perturbation_report(p)
        exact = match_exact_energies(p)
        for k in REPORT_LABELS:
            assert abs(exact[k][0] - report.perturbative_energy(k)) < 1e-5


class TestQuasiDegenerateClusters:
    def test_operating_point_lower_branch_forms_one_cluster(self):
        # at delta_c = 0.3 g the levels 1-..4- bunch within 0.13 g and the
        # drive couples 2-/3- with |V|/gap ~ 0.6: the whole lower ladder
        # must be treated together, or 2- is off by 3e-3
        report = perturbation_report(_params(drive=0.01, delta_c=0.3))
        assert report.clusters == (("1-", "2-", "3-", "4-"),)
        assert report.max_coupling_ratio == pytest.approx(0.60, abs=0.01)
        assert any(t.startswith("cluster {1-, 2-, 3-, 4-}:") for t in report.terms)

    def test_exact_crossing_is_left_to_its_cluster(self):
        # at delta_c = sqrt3 - sqrt2 the levels 2- and 3- coincide; no
        # Rayleigh-Schroedinger sum divides by their gap, so the report holds
        p = _params(drive=0.01, delta_c=math.sqrt(3) - math.sqrt(2), n_fock=4)
        e0 = _energies(p)
        assert abs(e0["2-"] - e0["3-"]) < 1e-12
        report = perturbation_report(p)
        assert any({"2-", "3-"} <= set(cluster) for cluster in report.clusters)
        exact = match_exact_energies(p)
        residual = max(abs(exact[k][0] - report.perturbative_energy(k)) for k in REPORT_LABELS)
        assert residual < 1e-5

    def test_no_cluster_when_well_separated(self):
        # the Rayleigh-Schroedinger convergence checks below rely on this
        for eps in (0.01, 0.02, 0.04):
            report = perturbation_report(_params(drive=eps, delta_c=WELL_SEPARATED))
            assert report.clusters == ()
            assert 0 < report.max_coupling_ratio < CLUSTER_RATIO
            assert not any(t.startswith("cluster") for t in report.terms)


class TestOneToOneOracle:
    def test_labels_with_one_best_level_take_distinct_levels(self):
        # here 1- and 2- have their largest overlaps on the same exact level;
        # paired one to one they take distinct levels, and each agrees with
        # the series
        p = _params(drive=0.0247, delta_c=0.368, delta=1.4)
        energies, vectors = np.linalg.eigh(build_driven(p).data)
        column = _columns(p)
        best = [np.argmax(np.abs(vectors.conj().T @ column(k))) for k in ("1-", "2-")]
        assert best[0] == best[1]
        exact = match_exact_energies(p)
        assert exact["1-"][0] != exact["2-"][0]
        report = perturbation_report(p)
        assert max(abs(exact[k][0] - report.perturbative_energy(k)) for k in REPORT_LABELS) < 1e-5

    @settings(deadline=None, max_examples=60)
    @given(st.floats(-1.5, 1.5), st.floats(-1.0, 3.0), st.floats(0.0, 0.03), st.floats(0.0, 0.03))
    @example(1.4, 0.368, 0.0247, 0.0247)
    def test_no_exact_level_is_claimed_by_two_labels(self, delta, delta_c, atom_drive,
                                                     cavity_drive):
        p = _params(delta_c=delta_c, delta=delta).with_(atom_drive=atom_drive,
                                                         cavity_drive=cavity_drive)
        energies, vectors = np.linalg.eigh(build_driven(p).data)
        column = _columns(p)
        claimed = []
        for k, (energy, overlap) in match_exact_energies(p).items():
            overlaps = np.abs(vectors.conj().T @ column(k))
            (level,) = np.flatnonzero((energies == energy) & (overlaps == overlap))
            claimed.append(level)
        assert len(set(claimed)) == len(REPORT_LABELS)

    @given(st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4), min_size=1, max_size=6))
    def test_pairing_is_one_to_one_and_greedy(self, rows):
        weights = np.array(rows, dtype=float)
        pairs = list(_pair_by_weight(weights))
        assert len(pairs) == min(weights.shape)
        assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)
        free = np.ones(weights.shape, dtype=bool)
        for i, j in pairs:
            assert weights[i, j] == weights[free].max()
            free[i, :] = free[:, j] = False


def _state_corrections(p, k, order):
    """Rayleigh-Schroedinger amplitudes of |k>^(order) on the other labels,
    summed from dressed_drive's drive matrix and energies."""
    labels, e0, v = dressed_drive(p)
    k = labels.index(k)
    out = {}
    for m in range(len(labels)):
        if m == k:
            continue
        if order == 1:
            amp = v[m, k] / (e0[k] - e0[m]) if v[m, k] else 0.0
        else:
            amp = sum(
                v[m, mid] * v[mid, k] / ((e0[k] - e0[m]) * (e0[k] - e0[mid]))
                for mid in range(len(labels))
                if mid != k and v[m, mid] and v[mid, k]
            )
        if amp != 0.0:
            out[labels[m]] = amp
    return out


def _exact_components(p, k):
    """Dressed-basis components of the exact driven eigenvector that continues
    |k>, phased so that its |k> component is real and positive."""
    labels, (basis,) = dressed_bases(p.dims, p.g, [p.delta])
    _, vectors = np.linalg.eigh(build_driven(p).data)
    dressed = basis.conj().T @ vectors
    k = labels.index(k)
    col = dressed[:, np.argmax(np.abs(dressed[k]))]
    col = col * abs(col[k]) / col[k]
    return dict(zip(labels[:-1], col))


class TestCorrectedStates:
    """State corrections built from the drive elements, checked against the
    exact eigenvectors of the driven Hamiltonian."""

    def test_interbranch_amplitude_only_at_second_order(self):
        p = _params(drive=0.01, delta_c=WELL_SEPARATED)
        first = _state_corrections(p, "1-", 1)
        second = _state_corrections(p, "1-", 2)
        assert "1+" not in first
        assert abs(second["1+"]) > 0
        # odd orders cannot return to the first manifold, so the next
        # correction to this weight is fourth order
        exact = _exact_components(p, "1-")
        assert abs(exact["1+"] - second["1+"]) < 1e-3 * abs(second["1+"])

    def test_first_order_reaches_adjacent_manifolds(self):
        # |1->^(1) reaches only the ground state and the second manifold
        p = _params(drive=0.01, delta_c=WELL_SEPARATED)
        first = _state_corrections(p, "1-", 1)
        assert set(first) == {"G", "2-", "2+"}
        exact = _exact_components(p, "1-")
        # the ground amplitude nearly cancels between the two drives, so the
        # exact check covers the second-manifold targets
        for target in ("2-", "2+"):
            assert abs(exact[target] - first[target]) < 1e-3 * abs(first[target])

    def test_second_order_interbranch_formula(self):
        # cross-check the compact closed-form expression for the |1+> weight
        # acquired by |1->: three interfering second-order paths
        p = _params(drive=0.013, delta_c=WELL_SEPARATED)
        labels, energies, matrix = dressed_drive(p)
        e0 = dict(zip(labels, energies))

        def v(upper, lower):
            return matrix[labels.index(upper), labels.index(lower)]

        # beta: branch-keeping steps; xi: branch-interchanging steps
        beta_minus_1, beta_plus_1 = v("1-", "G"), v("1+", "G")
        beta_minus_2, beta_plus_2 = v("2-", "1-"), v("2+", "1+")
        xi_to_minus_2, xi_to_plus_2 = v("2-", "1+"), v("2+", "1-")
        numerator = (
            -beta_minus_1 * beta_plus_1 / e0["1-"]
            - beta_minus_2 * xi_to_minus_2 / (e0["1-"] - e0["2-"])
            - xi_to_plus_2 * beta_plus_2 / (e0["1-"] - e0["2+"])
        )
        expected = numerator / (e0["1-"] - e0["1+"])
        second = _state_corrections(p, "1-", 2)
        assert second["1+"] == pytest.approx(expected, rel=1e-12)

    def test_weak_driving_keeps_branch_isolated(self):
        # drives at 0.1 g populate the same-branch ladder, not the other branch
        p = _params(drive=0.1, delta_c=0.0, n_fock=4)
        first = _state_corrections(p, "1-", 1)
        second = _state_corrections(p, "1-", 2)
        assert abs(second["1+"]) < 0.05 * abs(first["2-"])
        exact = _exact_components(p, "1-")
        assert abs(exact["1+"]) < 0.05 * abs(exact["2-"])

    def test_perturbed_ket_overlap_with_exact(self):
        p = _params(drive=0.01, delta_c=WELL_SEPARATED)
        column = _columns(p)
        vec = column("1-").astype(complex)
        for order in (1, 2):
            for target, amp in _state_corrections(p, "1-", order).items():
                vec = vec + amp * column(target)
        vec = vec / np.linalg.norm(vec)
        _, vectors = np.linalg.eigh(build_driven(p).data)
        overlaps = np.abs(vectors.conj().T @ vec)
        assert overlaps.max() > 1.0 - 1e-4

    def test_needs_third_manifold(self):
        with pytest.raises(ValueError, match="third manifold"):
            perturbation_report(_params(n_fock=2))
        # below n_fock = 3 the drive has no element out of the second manifold
        labels, _, v = dressed_drive(_params(n_fock=2))
        coupled = [labels[i] for i in np.flatnonzero(v.any(axis=0))]
        assert not any(polariton.parse_label(lbl)[0] > 2 for lbl in coupled)

    def test_top_manifold_gating(self):
        # the drive lifts |2-> into the top report-adjacent manifold and the
        # ladder stops at the cutoff
        p = _params(drive=0.01, delta_c=WELL_SEPARATED)
        first = _state_corrections(p, "2-", 1)
        assert {polariton.parse_label(t)[0] for t in first} == {1, 3}
        assert "3-" in first
        labels, _, v = dressed_drive(p)
        coupled = [labels[i] for i in np.flatnonzero(v.any(axis=0))]
        assert max(polariton.parse_label(lbl)[0] for lbl in coupled) == p.n_fock


class TestConvergenceOrder:
    def test_energy_residual_shrinks_superquadratically(self):
        # Richardson check away from level crossings: halving the drive
        # shrinks the post-second-order residual by far more than 4x
        residuals = []
        for eps in (0.04, 0.02, 0.01):
            p = _params(drive=eps, delta_c=WELL_SEPARATED)
            report = perturbation_report(p)
            exact = match_exact_energies(p)
            residuals.append(
                max(abs(exact[k][0] - report.perturbative_energy(k)) for k in REPORT_LABELS)
            )
        slopes = np.diff(np.log(residuals)) / np.diff(np.log([0.04, 0.02, 0.01]))
        # the drive only couples neighbouring manifolds, so odd energy orders
        # vanish identically and the residual scales as the fourth power
        assert np.all(slopes > 3.5)
        assert np.mean(slopes) == pytest.approx(4.0, abs=0.4)


# exact level crossings at delta = 0: 1- meets the ground level at delta_c = g,
# and 2- meets 3- at delta_c = (sqrt3 - sqrt2) g
CROSSINGS = (1.0, math.sqrt(3) - math.sqrt(2))


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([3, 4, 5]),
    st.floats(-1.5, 1.5),
    st.floats(-1.0, 3.0),
    st.floats(0.0, 0.03),
    st.floats(0.0, 0.03),
)
@example(4, 0.0, CROSSINGS[0], 0.01, 0.01)
@example(4, 0.0, CROSSINGS[1], 0.01, 0.01)
def test_report_keeps_every_coupling_between_clusters_small(
    n_fock, delta, delta_c, atom_drive, cavity_drive
):
    p = SystemParams(
        delta=delta, omega_c=1e4, atom_drive=atom_drive, cavity_drive=cavity_drive,
        atom_drive_detuning=delta + delta_c, cavity_drive_detuning=delta_c, n_fock=n_fock,
    )
    report = perturbation_report(p)
    labels, e0, v = dressed_drive(p)
    assert all(math.isfinite(shift) for shift in report.e2.values())
    cluster_of = {k: cluster for cluster in report.clusters for k in cluster}
    for a, b in np.ndindex(v.shape):
        if cluster_of.get(labels[a], labels[a]) != cluster_of.get(labels[b], labels[b]):
            assert abs(e0[a] - e0[b]) >= abs(v[a, b]) / CLUSTER_RATIO
    # a lone label has one term per label of an adjacent manifold
    manifold = [polariton.parse_label(lbl)[0] for lbl in labels]
    lone = [labels.index(k) for k in REPORT_LABELS if k not in cluster_of]
    coupled = {k: [m for m in range(len(labels)) if abs(manifold[m] - manifold[k]) == 1]
               for k in lone}
    assert len(report.terms) == len(report.clusters) + sum(map(len, coupled.values()))
    if not report.clusters:
        for k in lone:
            terms = [abs(v[m, k]) ** 2 / (e0[k] - e0[m]) for m in coupled[k] if v[m, k]]
            assert abs(report.e2[labels[k]] - sum(terms)) <= 1e-12 * sum(map(abs, terms))
    if delta == 0.0 and delta_c in CROSSINGS:
        exact = match_exact_energies(p)
        for k in REPORT_LABELS:
            assert abs(exact[k][0] - report.perturbative_energy(k)) < 1e-5


def _dict_clusters(energies: dict, elements: dict):
    """Label-keyed oracle of the cluster rule: labels linked by a drive
    coupling with |V|/gap > CLUSTER_RATIO, merged pair by pair."""
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


def _dict_lowdin_shifts(cluster, energies: dict, elements: dict, terms: list):
    """Label-keyed oracle of the Loewdin H_eff of ``cluster``, summed entry
    by entry over the labels outside it."""
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


def dict_series(p):
    """(clusters, max_coupling_ratio, terms, e2) of the series, computed on
    dicts keyed by label and label pair: the energies, and the drive on every
    pair of labels in adjacent manifolds, zero amplitudes included."""
    labels, e0, v = dressed_drive(p)
    energies = {lbl: float(e) for lbl, e in zip(labels, e0)}
    manifold = [polariton.parse_label(lbl)[0] for lbl in labels]
    elements = {(labels[m], labels[k]): complex(v[m, k]) for m, k in np.ndindex(v.shape)
                if abs(manifold[m] - manifold[k]) == 1}
    clusters, worst = _dict_clusters(energies, elements)
    clustered = {k for cluster in clusters for k in cluster}
    terms, shifts = [], {}
    for cluster in clusters + tuple((k,) for k in REPORT_LABELS if k not in clustered):
        shifts.update(_dict_lowdin_shifts(cluster, energies, elements, terms))
    return clusters, worst, tuple(terms), {k: shifts[k] for k in REPORT_LABELS}


@settings(deadline=None, max_examples=150)
@given(
    st.integers(3, 6),
    st.floats(-1.5, 1.5),
    st.floats(-1.0, 3.0),
    st.floats(0.0, 0.05),
    st.floats(0.0, 0.05),
)
@example(4, 0.0, 0.3, 0.01, 0.01)  # the lower ladder 1-..4- in one cluster
@example(4, 0.0, CROSSINGS[1], 0.01, 0.01)  # 2- and 3- at one level
@example(5, 0.0, CROSSINGS[0], 0.02, 0.0)  # 1- on the ground level
@example(3, 0.4, 2.0, 0.0, 0.0)  # no drive: every amplitude is zero
def test_series_matches_the_label_keyed_oracle(n_fock, delta, delta_c, atom_drive,
                                               cavity_drive):
    # the matrix form of the cluster rule and of H_eff against the loops it
    # replaced, over the drive's label pairs as a dict
    p = SystemParams(
        delta=delta, omega_c=1e4, atom_drive=atom_drive, cavity_drive=cavity_drive,
        atom_drive_detuning=delta + delta_c, cavity_drive_detuning=delta_c, n_fock=n_fock,
    )
    report = perturbation_report(p)
    clusters, worst, terms, e2 = dict_series(p)
    assert report.clusters == clusters
    assert report.max_coupling_ratio == worst
    assert report.terms == terms
    for k in REPORT_LABELS:
        assert abs(report.e2[k] - e2[k]) <= 1e-13
