import math

import numpy as np
import pytest

from jchsim import (
    NumericalError,
    SystemParams,
    build_driven,
    drive_coefficients,
    match_exact_energies,
    mixing_angle,
    perturbation_report,
    second_order_energies,
    unperturbed_energies,
)
from jchsim.perturbation import CLUSTER_RATIO, REPORT_LABELS, interaction_elements
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


class TestUnperturbedEnergies:
    def test_resonant_doublet(self):
        e0 = unperturbed_energies(_params(delta_c=0.0))
        assert e0["G"] == 0.0
        assert e0["1-"] == pytest.approx(-1.0)
        assert e0["1+"] == pytest.approx(1.0)

    def test_ground_zero_always(self):
        assert unperturbed_energies(_params(delta_c=0.7))["G"] == 0.0

    def test_degeneracy_scan_flags_ground_crossing(self):
        # scan oracle: |1-> crosses the ground level where delta_c = g
        crossings = []
        for delta_c in np.linspace(0.5, 1.5, 101):
            e0 = unperturbed_energies(_params(delta_c=delta_c))
            crossings.append(abs(e0["1-"] - e0["G"]))
        assert np.min(crossings) == pytest.approx(0.0, abs=1e-12)
        assert np.linspace(0.5, 1.5, 101)[int(np.argmin(crossings))] == pytest.approx(1.0)
        with pytest.raises(NumericalError, match="degenerate"):
            second_order_energies(_params(delta_c=1.0))


class TestDriveCoefficients:
    def test_all_zero_without_drives(self):
        co = drive_coefficients(_params(drive=0.0))
        assert all(v == 0 for v in co.beta_plus.values())
        assert all(v == 0 for v in co.beta_minus.values())

    def test_atomic_only_first_manifold(self):
        p = SystemParams(
            delta=0.4, omega_c=1e4, atom_drive=0.05, cavity_drive=0.0,
            atom_drive_detuning=0.4 + 0.45, cavity_drive_detuning=0.45, n_fock=4,
        )
        theta = mixing_angle(1, p.g, p.delta)
        co = drive_coefficients(p)
        assert co.beta_minus[1] == pytest.approx(-1j * 0.05 * math.sin(theta))

    def test_no_cross_terms_in_first_manifold(self):
        co = drive_coefficients(_params())
        assert 1 not in co.xi_to_plus and 1 not in co.xi_to_minus

    def test_purely_imaginary(self):
        co = drive_coefficients(_params(drive=0.03))
        for group in (co.beta_plus, co.beta_minus, co.xi_to_plus, co.xi_to_minus):
            assert all(v.real == 0.0 for v in group.values())


class TestSecondOrderEnergies:
    def test_matches_generic_matrix_formula(self):
        # independent oracle: assemble the full drive matrix in the dressed
        # basis and evaluate the textbook second-order sum directly
        p = _params(drive=0.02, delta_c=WELL_SEPARATED)
        e0 = unperturbed_energies(p)
        elements = interaction_elements(p)
        labels = list(e0)
        v = np.zeros((len(labels), len(labels)), dtype=complex)
        for (m, k), amp in elements.items():
            v[labels.index(m), labels.index(k)] = amp
        assert np.max(np.abs(v - v.conj().T)) < 1e-15  # Hermitian drive
        e2 = second_order_energies(p)
        for k in REPORT_LABELS:
            ki = labels.index(k)
            direct = sum(
                abs(v[li, ki]) ** 2 / (e0[k] - e0[labels[li]])
                for li in range(len(labels))
                if li != ki and v[li, ki] != 0
            )
            assert e2[k] == pytest.approx(direct, rel=1e-12)

    def test_first_order_vanishes(self):
        report = perturbation_report(_params(delta_c=WELL_SEPARATED))
        assert all(value == 0.0 for value in report.e1.values())

    def test_quadratic_scaling_in_drive(self):
        p1 = SystemParams(
            omega_c=1e4, atom_drive=0.01, atom_drive_detuning=WELL_SEPARATED,
            cavity_drive_detuning=WELL_SEPARATED, n_fock=4,
        )
        p2 = p1.with_(atom_drive=0.02)
        e2_small = second_order_energies(p1)
        e2_large = second_order_energies(p2)
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
        e0 = unperturbed_energies(p)
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


def _state_corrections(p, k, order):
    """Rayleigh-Schroedinger amplitudes of |k>^(order) on the other labels,
    summed from interaction_elements over unperturbed_energies."""
    e0 = unperturbed_energies(p)
    v = interaction_elements(p)
    out = {}
    for m in e0:
        if m == k:
            continue
        if order == 1:
            amp = v.get((m, k), 0.0) / (e0[k] - e0[m])
        else:
            amp = sum(
                v[(m, mid)] * v[(mid, k)] / ((e0[k] - e0[m]) * (e0[k] - e0[mid]))
                for mid in e0
                if mid != k and (m, mid) in v and (mid, k) in v
            )
        if amp != 0.0:
            out[m] = amp
    return out


def _exact_components(p, k):
    """Dressed-basis components of the exact driven eigenvector that continues
    |k>, phased so that its |k> component is real and positive."""
    basis = polariton.basis_transform(p.dims, p.g, p.delta)
    _, vectors = np.linalg.eigh(build_driven(p).data)
    dressed = basis.matrix.conj().T @ vectors
    col = dressed[:, np.argmax(np.abs(dressed[basis.index(k)]))]
    col = col * abs(col[basis.index(k)]) / col[basis.index(k)]
    return {lbl: col[basis.index(lbl)] for lbl in unperturbed_energies(p)}


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
        co = drive_coefficients(p)
        e0 = unperturbed_energies(p)
        numerator = (
            -co.beta_minus[1] * co.beta_plus[1] / e0["1-"]
            - co.beta_minus[2] * co.xi_to_minus[2] / (e0["1-"] - e0["2-"])
            - co.xi_to_plus[2] * co.beta_plus[2] / (e0["1-"] - e0["2+"])
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
        basis = polariton.basis_transform(p.dims, p.g, p.delta)
        vec = basis.column("1-").astype(complex)
        for order in (1, 2):
            for target, amp in _state_corrections(p, "1-", order).items():
                vec = vec + amp * basis.column(target)
        vec = vec / np.linalg.norm(vec)
        _, vectors = np.linalg.eigh(build_driven(p).data)
        overlaps = np.abs(vectors.conj().T @ vec)
        assert overlaps.max() > 1.0 - 1e-4

    def test_needs_third_manifold(self):
        with pytest.raises(ValueError, match="third manifold"):
            perturbation_report(_params(n_fock=2))
        # below n_fock = 3 the drive has no element out of the second manifold
        labels = {lbl for pair in interaction_elements(_params(n_fock=2)) for lbl in pair}
        assert not any(polariton.parse_label(lbl)[0] > 2 for lbl in labels)

    def test_top_manifold_gating(self):
        # the drive lifts |2-> into the top report-adjacent manifold and the
        # ladder stops at the cutoff
        p = _params(drive=0.01, delta_c=WELL_SEPARATED)
        first = _state_corrections(p, "2-", 1)
        assert {polariton.parse_label(t)[0] for t in first} == {1, 3}
        assert "3-" in first
        labels = {lbl for pair in interaction_elements(p) for lbl in pair}
        assert max(polariton.parse_label(lbl)[0] for lbl in labels) == p.n_fock


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
