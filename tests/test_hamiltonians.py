import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jchsim import (
    DimensionMismatchError,
    SystemParams,
    bare_ket,
    build_driven,
    build_hopping,
    build_jc,
    build_jch,
    polariton_energy,
    rabi_frequency,
    site_polariton_ket,
    stroboscopic_generator,
    total_excitation,
)
from jchsim import polariton
from jchsim.hamiltonians import _jch_over_detunings
from jchsim.perturbation import dressed_drive
from jchsim.lindblad import evolve_closed

from conftest import ladder_matrix


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(g=0.0)
    with pytest.raises(ValueError):
        SystemParams(cavity_decay=-0.1)


class TestBareBuilders:
    def test_jc_spectrum_matches_dressed_energies(self):
        # dense eigensolver oracle against the closed-form doublets in the
        # cavity frame, where the cutoff remainder |n_fock, e> sits at delta
        for delta in (0.0, 1.2):
            p = SystemParams(delta=delta, n_fock=4)
            eigenvalues = np.sort(np.linalg.eigvalsh(build_jc(p).data))
            expected = [0.0, p.delta]
            for n in range(1, 5):
                for branch in ("-", "+"):
                    expected.append(polariton_energy(n, branch, p.g, delta, 0.0))
            assert np.allclose(eigenvalues, np.sort(expected), atol=1e-10)

    def test_two_cavity_spectrum_is_pairwise_sums(self):
        # without hopping, lattice eigenvalues are sums of per-site dressed
        # energies (overflow level included)
        p = SystemParams(delta=0.6, n_fock=2, n_cavities=2)
        site_levels = [0.0, p.delta]
        for n in (1, 2):
            for branch in ("-", "+"):
                site_levels.append(polariton_energy(n, branch, p.g, p.delta, 0.0))
        expected = np.sort([a + b for a in site_levels for b in site_levels])
        eigenvalues = np.sort(np.linalg.eigvalsh(build_jc(p).data))
        assert np.allclose(eigenvalues, expected, atol=1e-10)

    def test_decoupled_limit_is_diagonal(self):
        p = SystemParams(g=1e-12, omega_c=5.0, delta=0.3, n_fock=3)
        h = build_jc(p).data
        assert np.max(np.abs(h - np.diag(np.diag(h)))) < 1e-11

    def test_excitation_conservation(self):
        p = SystemParams(delta=0.4, omega_c=20.0, hopping=0.3, n_fock=2, n_cavities=2)
        h = build_jch(p)
        n_tot = total_excitation(p.dims)
        assert np.max(np.abs((h @ n_tot - n_tot @ h).data)) < 1e-12

    def test_hopping_zero_and_matrix_element(self):
        p = SystemParams(omega_c=20.0, hopping=0.0, n_fock=2, n_cavities=2)
        assert np.linalg.norm(build_hopping(p).data) == 0.0
        p = p.with_(hopping=0.7)
        bra = bare_ket(p.dims, [(0, 0), (1, 0)])
        ket = bare_ket(p.dims, [(1, 0), (0, 0)])
        element = bra.conj() @ build_hopping(p).data @ ket
        assert element == pytest.approx(0.7)

    def test_hopping_needs_two_cavities(self):
        with pytest.raises(DimensionMismatchError):
            build_hopping(SystemParams(n_cavities=1, hopping=0.1))

    def test_builders_hermitian(self):
        p = SystemParams(delta=0.4, omega_c=20.0, hopping=0.3, n_fock=2, n_cavities=2)
        d = SystemParams(
            delta=0.2, atom_drive=0.4, cavity_drive=0.3,
            atom_drive_detuning=1.0, cavity_drive_detuning=0.8,
        )
        for h in (build_jc(p), build_hopping(p), build_driven(d), stroboscopic_generator(p, 0)):
            assert np.max(np.abs(h.data - h.data.conj().T)) <= 1e-12


@settings(deadline=None, max_examples=60)
@given(st.floats(0.05, 5.0), st.floats(0.1, 3e4), st.integers(2, 4),
       st.lists(st.tuples(st.floats(-100.0, 100.0), st.floats(0.0, 2.0)), min_size=1, max_size=8),
       st.data())
def test_detuning_stack_matches_per_detuning_builds(g, omega_c, n_fock, holds, data):
    # in the cavity frame the diagonal is delta times the excited-atom count
    # and each hopping entry J_k times its value at unit hopping, so the stack
    # must match bit for bit on the whole space and on a random block, at any
    # omega_c
    p = SystemParams(g=g, omega_c=omega_c, n_fock=n_fock, n_cavities=2)
    unit = build_jch(p.with_(hopping=1.0)).data
    deltas, hoppings = zip(*holds)
    block = np.array(sorted(data.draw(st.sets(st.integers(0, len(unit) - 1), min_size=1))))
    for idx in (np.arange(len(unit)), block):
        stack = _jch_over_detunings(p, unit, idx, deltas, hoppings)
        assert stack.shape == (len(holds), len(idx), len(idx))
        for (delta, hopping), h in zip(holds, stack):
            full = build_jch(p.with_(delta=delta, hopping=hopping)).data
            assert np.array_equal(h, full[np.ix_(idx, idx)])


def dressed_diagonal(p):
    """Cavity-frame levels of one site in the order of its polariton basis:
    ground 0, the dressed doublets, and the cutoff remainder |n_fock, e> (at
    delta) last."""
    labels, (site,) = polariton.dressed_bases(p.dims, p.g, [p.delta])
    levels = [0.0]
    for lbl in labels[1:-1]:
        n, branch = polariton.parse_label(lbl)
        levels.append(polariton_energy(n, branch, p.g, p.delta, 0.0))
    levels.append(p.delta)
    return labels, site, np.array(levels)


class TestPolaritonForms:
    @pytest.mark.parametrize("n_cavities,n_fock", [(1, 4), (2, 2)])
    def test_diagonal_form_is_similarity_transform(self, n_cavities, n_fock):
        # B (B (x) B for two cavities) diagonalises build_jc; two sites without
        # hopping carry every sum of two site levels
        p = SystemParams(delta=0.9, n_fock=n_fock, n_cavities=n_cavities)
        _, matrix, diagonal = dressed_diagonal(p)
        if n_cavities == 2:
            matrix, diagonal = np.kron(matrix, matrix), np.add.outer(diagonal, diagonal).ravel()
        transformed = matrix.conj().T @ build_jc(p).data @ matrix
        assert np.max(np.abs(transformed - np.diag(diagonal))) < 1e-10

    def test_ground_entry_zero_and_trace(self):
        p = SystemParams(delta=0.3, n_fock=3)
        labels, basis, levels = dressed_diagonal(p)
        diag = basis.conj().T @ build_jc(p).data @ basis
        ground = labels.index(polariton.GROUND)
        assert diag[ground, ground] == 0
        # trace = sum of dressed doublets plus the cutoff remainder energy
        doublets = sum(
            polariton_energy(n, b, p.g, p.delta, 0.0)
            for n in range(1, 4)
            for b in ("-", "+")
        )
        remainder = p.delta
        trace = np.trace(diag).real
        assert trace == pytest.approx(doublets + remainder, rel=1e-12)
        assert np.sum(levels) == pytest.approx(doublets + remainder, rel=1e-12)
        assert trace == pytest.approx(np.trace(build_jc(p).data).real, rel=1e-12)

    def test_hopping_polariton_matches_bare_below_cutoff(self):
        # J (a_0^dag a_1 + h.c.) assembled in the dressed pair basis from the
        # four ladder weights agrees with build_hopping below the cutoff manifold
        p = SystemParams(delta=0.5, omega_c=40.0, hopping=0.4, n_fock=3, n_cavities=2)
        labels, (basis,) = polariton.dressed_bases(p.dims, p.g, [p.delta])
        raise_site = ladder_matrix(labels, p.g, p.delta)
        term = p.hopping * np.kron(raise_site, raise_site.T)
        ladder = term + term.T
        keep_site = np.array([
            lbl != polariton.OVERFLOW
            and (lbl == polariton.GROUND or polariton.parse_label(lbl)[0] < p.n_fock)
            for lbl in labels
        ])
        keep = np.flatnonzero(np.kron(keep_site, keep_site))
        pair = np.kron(basis, basis)
        diff = pair.conj().T @ build_hopping(p).data @ pair - ladder
        assert np.max(np.abs(diff[np.ix_(keep, keep)])) < 1e-12


class TestDriven:
    def test_drive_off_reduces_to_detuned_jc(self):
        p = SystemParams(delta=0.4, atom_drive_detuning=1.4, cavity_drive_detuning=1.0)
        h = build_driven(p).data
        # with the drives off, the drive frame is the cavity frame shifted by
        # the cavity drive detuning times the total excitation
        jc = build_jc(SystemParams(delta=0.4)) + 1.0 * total_excitation(p.dims)
        assert np.max(np.abs(h - jc.data)) < 1e-12

    def test_mismatched_frames_rejected(self):
        p = SystemParams(delta=0.4, atom_drive_detuning=1.0, cavity_drive_detuning=1.0)
        assert p.drive_frame_mismatch != 0
        with pytest.raises(ValueError):
            build_driven(p)

    def test_polariton_form_matches_transform_entrywise(self):
        p = SystemParams(
            delta=0.4, omega_c=100.0, atom_drive=0.3, cavity_drive=0.15,
            atom_drive_detuning=1.1, cavity_drive_detuning=0.7, n_fock=4,
        )
        # the ladder-sum form: dressed-frame energies on the diagonal plus the
        # drive spread over the four families, on the labelled block (the
        # ladder sums stop at the cutoff manifold, so the overflow is left out)
        _, (basis,) = polariton.dressed_bases(p.dims, p.g, [p.delta])
        transformed = basis.conj().T @ build_driven(p).data @ basis
        _, e0, v = dressed_drive(p)
        assert np.max(np.abs(transformed[:-1, :-1] - (np.diag(e0) + v))) < 1e-12

    def test_driven_spectrum_invariant_under_rewrite(self):
        p = SystemParams(
            delta=0.4, omega_c=100.0, atom_drive=0.3, cavity_drive=0.15,
            atom_drive_detuning=1.1, cavity_drive_detuning=0.7, n_fock=4,
        )
        _, (basis,) = polariton.dressed_bases(p.dims, p.g, [p.delta])
        h = build_driven(p).data
        rewritten = basis.conj().T @ h @ basis
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(h)), np.sort(np.linalg.eigvalsh(rewritten)), atol=1e-12
        )

    def test_drive_amplitudes_purely_imaginary(self):
        p = SystemParams(
            delta=0.2, atom_drive=0.4, cavity_drive=0.3,
            atom_drive_detuning=0.9, cavity_drive_detuning=0.7,
        )
        labels, _, v = dressed_drive(p)
        rows = np.flatnonzero(v.any(axis=1))
        assert {polariton.parse_label(labels[i])[0] for i in rows} >= {1, 2, 3}
        assert np.all(v.real == 0.0)


class TestRabiFrequency:
    def test_strong_drive_values(self):
        p = SystemParams(
            atom_drive=50.0, atom_drive_detuning=500.0, cavity_drive_detuning=500.0
        )
        omega_r, period = rabi_frequency(p)
        assert omega_r == pytest.approx(2.0 * math.sqrt(26.0), rel=1e-14)
        assert period == pytest.approx(math.pi / math.sqrt(26.0), rel=1e-14)
        assert period == pytest.approx(0.616, abs=5e-4)

    def test_weak_drive_limit(self):
        p = SystemParams(atom_drive=0.0, cavity_drive_detuning=3.0, atom_drive_detuning=3.0)
        omega_r, _ = rabi_frequency(p)
        assert omega_r == pytest.approx(2.0)

    def test_resonant_drive_rejected(self):
        with pytest.raises(ValueError):
            rabi_frequency(SystemParams(atom_drive=5.0, cavity_drive_detuning=0.0))


class TestStroboscopic:
    def test_rotation_identity_random_angles(self, rng):
        p = SystemParams(delta=2.2, omega_c=30.0, n_fock=3)
        gen = stroboscopic_generator(p, 0)
        for n in (1, 2, 3):
            km = site_polariton_ket(p.dims, n, "-", p.g, p.delta)
            kp = site_polariton_ket(p.dims, n, "+", p.g, p.delta)
            for gt in rng.uniform(0.0, 2.0 * math.pi, 20):
                out = evolve_closed(gen, km, np.array([0.0, gt]))[-1]
                expected = math.cos(gt * math.sqrt(n)) * km
                expected -= math.sin(gt * math.sqrt(n)) * kp
                assert np.max(np.abs(out - expected)) < 1e-10

    def test_quarter_period_full_flip(self):
        p = SystemParams(delta=1.0, omega_c=30.0, n_fock=3)
        gen = stroboscopic_generator(p, 0)
        km = site_polariton_ket(p.dims, 1, "-", p.g, p.delta)
        kp = site_polariton_ket(p.dims, 1, "+", p.g, p.delta)
        out = evolve_closed(gen, km, np.array([0.0, math.pi / 2]))[-1]
        overlap = kp.conj() @ out
        assert abs(overlap) == pytest.approx(1.0, abs=1e-12)
        assert overlap.real == pytest.approx(-1.0, abs=1e-12)

    def test_mode_parity_flips_rotation_sense(self):
        p = SystemParams(delta=1.0, omega_c=30.0, n_fock=3)
        assert np.max(np.abs(
            (stroboscopic_generator(p, 1) + stroboscopic_generator(p, 0)).data
        )) == 0.0
        km = site_polariton_ket(p.dims, 2, "-", p.g, p.delta)
        kp = site_polariton_ket(p.dims, 2, "+", p.g, p.delta)
        element = kp.conj() @ stroboscopic_generator(p, 0).data @ km
        assert element == pytest.approx(-1j * math.sqrt(2.0))

    def test_non_integer_mode_rejected(self):
        with pytest.raises(ValueError):
            stroboscopic_generator(SystemParams(), 0.5)
