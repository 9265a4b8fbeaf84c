import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jchsim import (
    HilbertDims,
    SystemParams,
    atomic_lowering,
    branch_splitting,
    build_hopping,
    build_jc,
    build_jch,
    dressed_bases,
    evolve_closed,
    fock_annihilation,
    ladder_coefficients,
    ladder_coefficients_for,
    mixing_angle,
    polariton_energy,
    product_polariton_ket,
    site_polariton_ket,
)
from jchsim import polariton
from jchsim.hilbert import ATOM_E, ATOM_G

from conftest import ladder_matrix

DIMS = HilbertDims(4)


def dressed(op: np.ndarray, delta: float) -> np.ndarray:
    """A site operator in the dressed basis of ``DIMS`` at g = 1."""
    _, (basis,) = dressed_bases(DIMS, 1.0, [delta])
    return basis.conj().T @ op @ basis


def below_cutoff(labels, n_fock: int) -> list:
    """Labels that a raising operator does not push past the cutoff."""
    return [
        i
        for i, lbl in enumerate(labels)
        if lbl != polariton.OVERFLOW
        and (lbl == polariton.GROUND or polariton.parse_label(lbl)[0] < n_fock)
    ]


class TestMixingAngle:
    def test_resonant_value(self):
        assert mixing_angle(1, 1.0, 0.0) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_half_arctan_one(self):
        assert mixing_angle(1, 1.0, 2.0) == pytest.approx(math.pi / 8, abs=1e-15)

    def test_large_detuning(self):
        # oracle: angle doubles back to arctan of the splitting ratio
        theta = mixing_angle(1, 1.0, 60.0)
        assert math.tan(2 * theta) == pytest.approx(1.0 / 30.0, rel=1e-12)
        assert theta == pytest.approx(0.0166605, abs=1e-6)

    def test_negative_detuning_branch(self):
        assert mixing_angle(1, 1.0, -2.0) == pytest.approx(math.pi / 2 - math.pi / 8)
        assert 0 < mixing_angle(2, 1.0, 5.0) < math.pi / 4

    def test_monotone_decreasing_in_detuning(self):
        angles = [mixing_angle(1, 1.0, d) for d in np.linspace(0.0, 30.0, 40)]
        assert np.all(np.diff(angles) < 0)

    def test_invalid_manifold(self):
        with pytest.raises(ValueError):
            mixing_angle(0, 1.0, 0.0)


class TestPolaritonStates:
    def test_dispersive_limits(self):
        # far red-detuned atom: lower branch photonic, upper branch atomic
        km = site_polariton_ket(DIMS, 2, "-", 1.0, 400.0)
        kp = site_polariton_ket(DIMS, 2, "+", 1.0, 400.0)
        photonic = abs(km.amplitudes[DIMS.site_index(2, 0)]) ** 2
        atomic = abs(kp.amplitudes[DIMS.site_index(1, 1)]) ** 2
        assert photonic > 0.9999
        assert atomic > 0.9999

    def test_resonant_overlap(self):
        km = site_polariton_ket(DIMS, 1, "-", 1.0, 0.0)
        assert km.amplitudes[DIMS.site_index(1, 0)] == pytest.approx(1 / math.sqrt(2))

    def test_orthogonality(self):
        for delta in (-3.0, 0.0, 1.7, 12.0):
            km = site_polariton_ket(DIMS, 1, "-", 1.0, delta)
            kp = site_polariton_ket(DIMS, 1, "+", 1.0, delta)
            assert abs(np.vdot(km.amplitudes, kp.amplitudes)) < 1e-14

    def test_manifold_above_cutoff(self):
        with pytest.raises(ValueError):
            site_polariton_ket(DIMS, 5, "-", 1.0, 0.0)


class TestEnergies:
    def test_resonant_doublet(self):
        assert polariton_energy(1, "+", 1.0, 0.0, 100.0) == pytest.approx(101.0)
        assert polariton_energy(1, "-", 1.0, 0.0, 100.0) == pytest.approx(99.0)

    def test_detuned_doublet(self):
        # E = omega_c + (1 +- sqrt(5))/2 at delta = g
        up = polariton_energy(1, "+", 1.0, 1.0, 100.0)
        lo = polariton_energy(1, "-", 1.0, 1.0, 100.0)
        assert up == pytest.approx(100.0 + (1 + math.sqrt(5)) / 2)
        assert lo == pytest.approx(100.0 + (1 - math.sqrt(5)) / 2)

    def test_splitting(self):
        assert branch_splitting(2, 1.0, 0.0) == pytest.approx(2 * math.sqrt(2.0))
        e_up = polariton_energy(2, "+", 1.0, 0.7, 50.0)
        e_lo = polariton_energy(2, "-", 1.0, 0.7, 50.0)
        assert e_up - e_lo == pytest.approx(branch_splitting(2, 1.0, 0.7))


class TestLadderCoefficients:
    def test_resonant_step_two_values(self):
        co = ladder_coefficients_for(2, 1.0, 0.0)
        assert co.c_minus == pytest.approx((math.sqrt(2) + 1) / 2, abs=1e-12)
        assert co.k_pm == pytest.approx((math.sqrt(2) - 1) / 2, abs=1e-12)
        assert co.k_mp == pytest.approx(co.k_pm, abs=1e-15)

    def test_first_step_specials(self):
        theta = mixing_angle(1, 1.0, 0.9)
        co = ladder_coefficients(1, theta, 0.0)
        assert co.k_pm == 0.0 and co.k_mp == 0.0
        assert co.c_plus == pytest.approx(math.sin(theta))
        assert co.c_minus == pytest.approx(math.cos(theta))
        assert co.a_c_plus == pytest.approx(math.cos(theta))
        assert co.a_c_minus == pytest.approx(-math.sin(theta))

    def test_matrix_element_oracle(self):
        # every coefficient is a matrix element of a^dag or sigma^+ between
        # dressed states (the n = 1 cross weights are zero by convention:
        # the branch-keeping families already own the step from the ground)
        a_dag = fock_annihilation(DIMS).dag().data
        s_plus = atomic_lowering(DIMS).dag().data
        for delta in (0.0, 1.3, -2.0):
            for n in (1, 2, 3):
                co = ladder_coefficients_for(n, 1.0, delta)
                kets = {
                    (m, b): site_polariton_ket(DIMS, m, b, 1.0, delta).amplitudes
                    for m in (n - 1, n)
                    for b in ("-", "+")
                }
                pairs = [
                    (co.c_plus, kets[(n, "+")], kets[(n - 1, "+")], a_dag),
                    (co.c_minus, kets[(n, "-")], kets[(n - 1, "-")], a_dag),
                    (co.a_c_plus, kets[(n, "+")], kets[(n - 1, "+")], s_plus),
                    (co.a_c_minus, kets[(n, "-")], kets[(n - 1, "-")], s_plus),
                ]
                if n >= 2:
                    pairs += [
                        (co.k_pm, kets[(n, "+")], kets[(n - 1, "-")], a_dag),
                        (co.k_mp, kets[(n, "-")], kets[(n - 1, "+")], a_dag),
                        (co.a_k_pm, kets[(n, "+")], kets[(n - 1, "-")], s_plus),
                        (co.a_k_mp, kets[(n, "-")], kets[(n - 1, "+")], s_plus),
                    ]
                for coeff, upper, lower, op in pairs:
                    element = (upper.conj() @ op @ lower).real
                    assert coeff == pytest.approx(element, abs=1e-12)

    def test_cross_weights_split_with_detuning(self):
        # decay |2+> -> |1-> dominates |2-> -> |1+> away from resonance
        co = ladder_coefficients_for(2, 1.0, 40.0)
        assert co.k_pm > 10 * abs(co.k_mp)

    def test_cross_weights_decrease_with_manifold(self):
        # the dominant cross weight falls off with n at any detuning; the
        # subdominant one is only guaranteed to do so at resonance (it stays
        # far below the dominant weight elsewhere)
        for delta in (0.0, 0.5, 2.0, 10.0):
            k_pm = [ladder_coefficients_for(n, 1.0, delta).k_pm for n in range(2, 7)]
            assert np.all(np.diff(k_pm) < 0)
        k_mp = [ladder_coefficients_for(n, 1.0, 0.0).k_mp for n in range(2, 7)]
        assert np.all(np.diff(k_mp) < 0)
        for n in range(2, 7):
            co = ladder_coefficients_for(n, 1.0, 2.0)
            assert abs(co.k_mp) < co.k_pm

    def test_detuning_symmetry(self):
        for n in (2, 3, 4):
            assert ladder_coefficients_for(n, 1.0, 1.7).k_pm == pytest.approx(
                ladder_coefficients_for(n, 1.0, -1.7).k_mp, abs=1e-13
            )


class TestDecompositions:
    """a^dag and sigma^+ in the dressed basis against the ladder weights."""

    @pytest.mark.parametrize("delta", [0.0, 0.8, -1.5, 25.0])
    def test_creation_reconstruction(self, delta):
        labels, _ = dressed_bases(DIMS, 1.0, [delta])
        keep = below_cutoff(labels, DIMS.n_fock)
        got = dressed(fock_annihilation(DIMS).dag().data, delta)
        expected = ladder_matrix(labels, 1.0, delta)
        assert np.max(np.abs(got[:, keep] - expected[:, keep])) < 1e-10

    @pytest.mark.parametrize("delta", [0.0, 0.8, -1.5, 25.0])
    def test_atomic_reconstruction(self, delta):
        labels, _ = dressed_bases(DIMS, 1.0, [delta])
        keep = below_cutoff(labels, DIMS.n_fock)
        got = dressed(atomic_lowering(DIMS).dag().data, delta)
        expected = ladder_matrix(labels, 1.0, delta, atomic=True)
        assert np.max(np.abs(got[:, keep] - expected[:, keep])) < 1e-10

    def test_cross_family_single_term(self):
        # a^dag |1-> has weight k_pm on |2+>
        delta = 0.9
        labels, _ = dressed_bases(DIMS, 1.0, [delta])
        a_dag = dressed(fock_annihilation(DIMS).dag().data, delta)
        k_pm = ladder_coefficients_for(2, 1.0, delta).k_pm
        assert abs(a_dag[labels.index("2+"), labels.index("1-")] - k_pm) < 1e-13

    def test_dispersive_suppression_of_cross_families(self):
        labels, _ = dressed_bases(DIMS, 1.0, [40.0])
        a_dag = dressed(fock_annihilation(DIMS).dag().data, 40.0)

        def family(upper, lower, n_first):
            """Norm of the a^dag elements from branch ``lower`` to ``upper``."""
            steps = range(n_first, DIMS.n_fock + 1)
            rows = [labels.index(polariton.label(n, upper)) for n in steps]
            cols = [labels.index(polariton.label(n - 1, lower)) for n in steps]
            return np.linalg.norm(a_dag[rows, cols])

        cross = family("+", "-", 2) + family("-", "+", 2)
        assert cross < 0.05 * family("+", "+", 1)

    def test_atomic_sign_carried(self):
        delta = 1.1
        theta = mixing_angle(1, 1.0, delta)
        labels, _ = dressed_bases(DIMS, 1.0, [delta])
        s_plus = dressed(atomic_lowering(DIMS).dag().data, delta)
        amp = s_plus[labels.index("1-"), labels.index(polariton.GROUND)]
        assert amp.real == pytest.approx(-math.sin(theta), abs=1e-12)

    def test_resonant_atomic_cross_weight(self):
        co = ladder_coefficients_for(2, 1.0, 0.0)
        assert co.a_k_pm == pytest.approx(0.5, abs=1e-12)


class TestBasisInvariants:
    @pytest.mark.parametrize("delta", [-2.0, 0.0, 0.6, 8.0])
    def test_similarity_diagonalizes_jc(self, delta):
        params = SystemParams(delta=delta, n_fock=4)
        labels, (basis,) = dressed_bases(params.dims, params.g, [delta])
        transformed = basis.conj().T @ build_jc(params).data @ basis
        off = transformed - np.diag(np.diag(transformed))
        assert np.max(np.abs(off)) < 1e-10
        for n in (1, 2, 3, 4):
            for branch in ("-", "+"):
                idx = labels.index(polariton.label(n, branch))
                assert transformed[idx, idx].real == pytest.approx(
                    polariton_energy(n, branch, params.g, delta, 0.0), rel=1e-12
                )

    def test_completeness(self):
        _, (basis,) = dressed_bases(DIMS, 1.0, [1.3])
        gram = basis @ basis.conj().T
        assert np.max(np.abs(gram - np.eye(DIMS.site_dim))) < 1e-12


def per_column_basis(dims, g: float, delta: float) -> np.ndarray:
    """The site dressed basis written column by column from cos and sin of
    the mixing angles: the ground state, (n, -) = cos |n,g> - sin |n-1,e>,
    (n, +) = sin |n,g> + cos |n-1,e>, and the overflow state last."""
    site = dims.site()
    out = np.zeros((site.site_dim, site.site_dim), dtype=complex)
    out[site.site_index(0, ATOM_G), 0] = 1.0
    for n in range(1, site.n_fock + 1):
        theta = mixing_angle(n, g, delta)
        cos, sin = math.cos(theta), math.sin(theta)
        upper, lower = site.site_index(n, ATOM_G), site.site_index(n - 1, ATOM_E)
        out[upper, 2 * n - 1], out[lower, 2 * n - 1] = cos, -sin
        out[upper, 2 * n], out[lower, 2 * n] = sin, cos
    out[site.site_index(site.n_fock, ATOM_E), -1] = 1.0
    return out


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 5), st.floats(0.05, 5.0),
       st.lists(st.floats(-200.0, 200.0), min_size=1, max_size=6))
def test_stacked_dressed_bases_match_per_column_kets(n_fock, g, deltas):
    # the one dressed-state writer, its K = 1 case and the kets of
    # site_polariton_ket, its columns, give the per-column construction bit
    # for bit at every detuning
    dims = HilbertDims(n_fock, 2)
    labels, stack = dressed_bases(dims, g, deltas)
    for delta, matrix in zip(deltas, stack):
        single_labels, (single,) = dressed_bases(dims, g, [delta])
        expected = per_column_basis(dims, g, delta)
        assert np.array_equal(matrix, expected)
        assert np.array_equal(single, expected)
        assert single_labels == labels
        for column, lbl in enumerate(labels[:-1]):
            n, branch = polariton.parse_label(lbl)
            ket = site_polariton_ket(dims, n, branch, g, delta)
            assert np.array_equal(ket.amplitudes, expected[:, column])


def _product(p, spec):
    return product_polariton_ket(p.dims, polariton.parse_state_spec(spec), p.g, p.delta)


def _hopping_link(p, before, after):
    """Interaction-picture frequency and hopping element of the product that
    takes the two-site polariton state ``before`` to ``after``."""
    h0 = build_jc(p).data
    ket_b, ket_a = _product(p, before).amplitudes, _product(p, after).amplitudes
    freq = (ket_a.conj() @ h0 @ ket_a - ket_b.conj() @ h0 @ ket_b).real
    return freq, ket_a.conj() @ build_hopping(p).data @ ket_b


class TestInteractionPictureFrequencies:
    """A hopping product rotates in the interaction picture at the energy
    difference of the product states it links; the rotating-wave
    approximation may drop it only when that is large against J."""

    def test_branch_preserving_resonant_product_is_static(self):
        for delta, branch in ((0.0, "+"), (0.7, "-")):
            p = SystemParams(delta=delta, omega_c=40.0, hopping=0.1, n_fock=3, n_cavities=2)
            freq, element = _hopping_link(p, f"0,1{branch}", f"1{branch},0")
            assert freq == pytest.approx(0.0, abs=1e-10)
            assert abs(element) > 0.01

    def test_interchanging_product_oscillates_at_twice_splitting(self):
        # raising into |1+> beside lowering out of |1->: each branch sits half
        # a splitting off the bare level, so the product turns at twice that
        delta = 0.9
        p = SystemParams(delta=delta, omega_c=40.0, hopping=0.1, n_fock=3, n_cavities=2)
        freq, element = _hopping_link(p, "0,1-", "1+,0")
        assert freq == pytest.approx(branch_splitting(1, 1.0, delta), rel=1e-12)
        assert abs(element) > 0.01

    def test_cross_family_weightless_in_first_manifold(self):
        co = ladder_coefficients_for(1, 1.0, 0.0)
        assert co.k_pm == 0.0 and co.k_mp == 0.0
        # a^dag takes the ground state to 1- and 1+ only, with the branch-keeping
        # weights; the interchanging families carry weight from n = 2 on
        labels, _ = dressed_bases(DIMS, 1.0, [0.0])
        a_dag = dressed(fock_annihilation(DIMS).dag().data, 0.0)
        from_ground = a_dag[:, labels.index(polariton.GROUND)]
        lo, up = labels.index("1-"), labels.index("1+")
        assert from_ground[lo] == pytest.approx(co.c_minus, abs=1e-15)
        assert from_ground[up] == pytest.approx(co.c_plus, abs=1e-15)
        assert np.max(np.abs(np.delete(from_ground, [lo, up]))) == 0.0
        assert abs(a_dag[labels.index("2+"), lo]) > 0.1

    def test_eliminability_threshold(self):
        # at J = 0.1 g the branch-interchanging link is detuned by the full
        # splitting 2 g >= 4 J and stays empty, while the static one transfers
        p = SystemParams(delta=0.0, omega_c=40.0, hopping=0.1, n_fock=3, n_cavities=2)
        static, _ = _hopping_link(p, "1-,0", "0,1-")
        cross, _ = _hopping_link(p, "1-,0", "0,1+")
        assert abs(static) < 4 * p.hopping <= abs(cross)
        times = np.linspace(0.0, 2 * math.pi / p.hopping, 2001)
        amps = evolve_closed(build_jch(p), _product(p, "1-,0"), times)
        pop = lambda spec: np.abs(amps @ _product(p, spec).amplitudes.conj()) ** 2
        assert pop("0,1-").max() > 0.99
        assert pop("0,1+").max() < 0.01

    def test_unknown_family_rejected(self):
        # products are named by the branch signs of their two factors
        with pytest.raises(ValueError):
            polariton.label(1, "x")
        with pytest.raises(ValueError):
            polariton.parse_state_spec("1-,1x")
        with pytest.raises(ValueError):
            site_polariton_ket(DIMS, 1, "x", 1.0, 0.0)
