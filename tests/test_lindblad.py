import inspect
import math
import warnings
from functools import partial
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from jchsim import (
    DegenerateSteadyStateError,
    DimensionMismatchError,
    HilbertDims,
    Liouvillian,
    NumericalError,
    Operator,
    SystemParams,
    absorption_spectrum,
    annihilation_at,
    bare_ket,
    build_driven,
    build_jc,
    build_jch,
    build_liouvillian,
    decay_channels,
    evolve,
    evolve_closed,
    site_polariton_ket,
    standard_liouvillian,
    steady_state,
    stroboscopic_generator,
    total_excitation,
    trace_distance,
)
from jchsim.lindblad import (GRID_UNIFORMITY_TOL, ZERO_MODE_TOL, _closed_amplitudes, _groups,
                             _loss_floors, vectorize)

from conftest import pure, random_density_matrix, random_kets


def brute_force_lindblad(h, channels, rho):
    """Direct matrix evaluation of the master-equation right-hand side."""
    out = -1j * (h @ rho - rho @ h) if h is not None else np.zeros_like(rho)
    for jump, rate in channels:
        ldl = jump.conj().T @ jump
        out = out + 0.5 * rate * (2 * jump @ rho @ jump.conj().T - ldl @ rho - rho @ ldl)
    return out


def zero_hamiltonian(dims):
    """H = 0, for a generator made of loss channels only (or of nothing)."""
    return Operator(dims, np.zeros((dims.total_dim,) * 2))


class TestDissipator:
    def test_zero_rate(self):
        dims = HilbertDims(2)
        d = build_liouvillian(zero_hamiltonian(dims), [(annihilation_at(dims, 0), 0.0)])
        assert np.max(np.abs(d.data)) == 0.0

    def test_negative_rate_rejected(self):
        dims = HilbertDims(2)
        with pytest.raises(ValueError):
            build_liouvillian(zero_hamiltonian(dims), [(annihilation_at(dims, 0), -0.5)])

    def test_two_level_exponential_decay(self):
        # excited-atom population decays as exp(-rate t)
        p = SystemParams(g=1e-9, omega_c=5.0, atom_decay=0.8, n_fock=2)
        liouv = build_liouvillian(build_jc(p), decay_channels(p))
        excited = pure(p.dims, bare_ket(p.dims, [(0, 1)]))
        times = np.linspace(0.0, 4.0, 81)
        traj = evolve(liouv, excited, times)
        pop = traj.states[:, 1, 1].real
        assert np.max(np.abs(pop - np.exp(-0.8 * times))) < 1e-9

    def test_action_matches_brute_force(self, rng):
        dims = HilbertDims(2)
        jump = annihilation_at(dims, 0)
        d = build_liouvillian(zero_hamiltonian(dims), [(jump, 0.7)])
        rho = random_density_matrix(dims.total_dim, rng)
        direct = brute_force_lindblad(None, [(jump.data, 0.7)], rho)
        assert np.max(np.abs((d.data @ vectorize(rho)).reshape(rho.shape) - direct)) < 1e-13


class TestLiouvillian:
    def test_purely_hamiltonian_spectrum_imaginary(self):
        p = SystemParams(delta=0.3, omega_c=8.0, n_fock=2)
        liouv = build_liouvillian(build_jc(p), [])
        assert np.max(np.abs(liouv.modes().eigenvalues.real)) < 1e-10

    @settings(deadline=None, max_examples=200)
    @given(st.sampled_from([2, 3]), st.lists(st.floats(0.0, 2.0), max_size=3),
           st.integers(0, 2**32 - 1))
    def test_full_action_matches_brute_force(self, n_fock, rates, seed):
        # random Hermitian H and dense complex jumps, so L^dag L is not
        # diagonal; the largest error seen in three runs of 2000 examples was
        # 1.8e-14 (entries of H and L of order 1, D = 6 or 8), so 1e-12 leaves a
        # margin of 55
        rng = np.random.default_rng(seed)
        dims = HilbertDims(n_fock)
        d = dims.total_dim
        raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = Operator(dims, (raw + raw.conj().T) / 2)
        shape = (len(rates), d, d)
        jumps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        channels = [(Operator(dims, jump), rate) for jump, rate in zip(jumps, rates)]
        liouv = build_liouvillian(h, channels)
        rho = random_density_matrix(d, rng)
        direct = brute_force_lindblad(h.data, list(zip(jumps, rates)), rho)
        assert np.max(np.abs((liouv.data @ vectorize(rho)).reshape(d, d) - direct)) < 1e-12
        if not channels:
            # exactly anti-Hermitian, so modes() sends it through eigh
            assert np.array_equal(liouv.data, -liouv.data.conj().T)

    def test_zero_mode_and_stability(self):
        p = SystemParams(delta=0.0, omega_c=8.0, cavity_decay=0.5, atom_decay=0.5, n_fock=3)
        modes = standard_liouvillian(p).modes()
        assert np.min(np.abs(modes.eigenvalues)) < 1e-8
        assert modes.eigenvalues.real.max() < 1e-8

    def test_generator_annihilates_trace(self, rng):
        p = SystemParams(delta=0.2, omega_c=8.0, cavity_decay=0.4, n_fock=2)
        liouv = standard_liouvillian(p)
        x = rng.standard_normal((p.dims.total_dim,) * 2)
        x = x + x.T
        assert abs(np.trace((liouv.data @ vectorize(x)).reshape(x.shape))) < 1e-10

    def test_undriven_blocks_are_the_coherence_orders(self, monkeypatch):
        # modes() without a seed decomposes one weakly connected piece at a
        # time: each piece holds one k = N_ket - N_bra, every k is one piece,
        # and no eigenvector leaves its piece
        p = SystemParams(
            delta=0.3, omega_c=9.0, hopping=0.4, cavity_decay=0.5, atom_decay=0.2,
            n_fock=2, n_cavities=2,
        )
        n = np.rint(np.diag(total_excitation(p.dims).data).real)
        order = (n[:, None] - n[None, :]).reshape(-1)  # row-stacked vec(|i><j|)
        eig, sizes = np.linalg.eig, []
        monkeypatch.setattr(np.linalg, "eig", lambda a: sizes.append(len(a)) or eig(a))
        modes = standard_liouvillian(p).modes()
        assert sorted(sizes) == sorted(np.unique(order, return_counts=True)[1])
        assert len(sizes) == 13 and max(sizes) == 262
        assert not modes.right[order[:, None] != order[None, :]].any()

    def test_driven_generator_is_one_block_decomposed_as_dense(self):
        p = SystemParams(
            delta=0.0, omega_c=1e4, atom_drive=50.0, atom_drive_detuning=500.0,
            cavity_drive_detuning=500.0, cavity_decay=0.1, n_fock=4,
        )
        liouv = build_liouvillian(build_driven(p), decay_channels(p))
        w, v = np.linalg.eig(liouv.data)
        modes = liouv.modes()
        assert np.array_equal(modes.eigenvalues, w) and np.array_equal(modes.right, v)
        assert np.array_equal(modes.right_inv, np.linalg.inv(v))

    def test_dimension_mismatch(self):
        h = build_jc(SystemParams(n_fock=2))
        bad = annihilation_at(HilbertDims(3), 0)
        with pytest.raises(DimensionMismatchError):
            build_liouvillian(h, [(bad, 0.1)])


_rates = st.one_of(st.just(0.0), st.floats(0.05, 2.0))
_offsets = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))


@st.composite
def small_generators(draw, n_cavities):
    """(closed, Liouvillian, cavity-0 lowering operator, Kronecker oracle of
    the generator) of a random closed, lossy or driven JC(H) system, in a
    randomly relabeled basis so that a block need not start at its lowest
    index."""
    kind = draw(st.sampled_from(["closed", "lossy", "driven"] if n_cavities == 1
                                else ["closed", "lossy"]))
    p = SystemParams(
        delta=draw(_offsets), omega_c=10.0, n_fock=draw(st.integers(2, 3)) if n_cavities == 1 else 2,
        n_cavities=n_cavities, hopping=abs(draw(_offsets)) if n_cavities == 2 else 0.0,
    )
    h, channels = build_jch(p), []
    if kind != "closed":
        p = p.with_(cavity_decay=draw(_rates), atom_decay=draw(_rates))
        assume(p.cavity_decay + p.atom_decay > 0)
        channels = decay_channels(p)
    if kind == "driven":
        detuning = draw(_offsets)
        p = p.with_(atom_drive=draw(st.floats(0.1, 2.0)), cavity_drive=draw(st.floats(0.0, 2.0)),
                    cavity_drive_detuning=detuning, atom_drive_detuning=detuning + p.delta)
        h = build_driven(p)
    order = draw(st.permutations(range(p.dims.total_dim)))

    def relabel(op):
        return Operator(p.dims, op.data[np.ix_(order, order)])

    h, channels = relabel(h), [(relabel(jump), rate) for jump, rate in channels]
    return (kind == "closed", build_liouvillian(h, channels), relabel(annihilation_at(p.dims, 0)),
            kron_liouvillian(h, channels))


def dense_spectrum(w, v, index, rho_ss, a_op, grid):
    """The spectrum as a sum of Lorentzians over the eigenpairs (w, v) of the
    generator on the superoperator indices ``index``, less the zero mode, the
    stationary part that ``absorption_spectrum`` leaves out."""
    weights = (vectorize(a_op.data.T)[index] @ v) * np.linalg.solve(
        v, vectorize(a_op.dag().data @ rho_ss.data)[index])
    keep = np.abs(w) >= ZERO_MODE_TOL
    return 2.0 * (weights[keep] / (-w[keep] - 1j * grid[:, None])).real.sum(axis=1)


def assert_blocked_modes_match_dense(closed, liouv, a_op, oracle):
    """Blocked ``modes()`` against one dense ``np.linalg.eig`` of the oracle."""
    w_ref, v_ref = np.linalg.eig(oracle)
    try:
        modes = liouv.modes()
    except NumericalError:
        # refused only where the dense eigenbasis is near-singular as well
        assert np.linalg.cond(v_ref) > 1e6
        return
    # both routes lose accuracy in proportion to the conditioning of their
    # eigenbases, which modes() accepts up to EIGENBASIS_COND_LIMIT
    cond = max(np.linalg.cond(modes.right), np.linalg.cond(v_ref))
    tol = 1e-13 * cond * max(1.0, float(np.abs(oracle).max()))
    w = modes.eigenvalues
    sorted_error = max(np.abs(np.sort(w.real) - np.sort(w_ref.real)).max(),
                       np.abs(np.sort(w.imag) - np.sort(w_ref.imag)).max())
    nearest_error = np.abs(w[:, None] - w_ref[None, :]).min(axis=1).max()
    rebuild_error = np.abs(modes.right @ np.diag(w) @ modes.right_inv - oracle).max()
    assert max(sorted_error, nearest_error, rebuild_error) < tol
    if closed:
        unitarity_error = np.abs(modes.right.conj().T @ modes.right - np.eye(len(w))).max()
        assert unitarity_error < 1e-12
        return
    try:
        rho_ss = steady_state(liouv)
    except NumericalError:
        return
    grid = np.linspace(-15.0, 15.0, 121)
    blocked = absorption_spectrum(liouv, rho_ss, a_op, grid).values
    reference = dense_spectrum(w_ref, v_ref, np.arange(len(w_ref)), rho_ss, a_op, grid)
    assert np.abs(blocked - reference).max() < 1e-12 * cond * max(1.0, np.abs(reference).max())


@settings(deadline=None, max_examples=60)
@given(small_generators(n_cavities=1))
def test_blocked_modes_match_dense_one_cavity(generator):
    assert_blocked_modes_match_dense(*generator)


def oracle_pieces(oracle: np.ndarray) -> np.ndarray:
    """Label of the weakly connected piece of the oracle's nonzero pattern
    that holds each superoperator index, by a plain search."""
    linked = (oracle != 0) | (oracle != 0).T
    label = np.full(len(oracle), -1)
    for k in range(len(oracle)):
        if label[k] < 0:
            label[closure_oracle(linked, np.arange(len(oracle)) == k)] = k
    return label


# every example decomposes a 1296-wide two-cavity generator, so a failing
# example is reported as drawn, not shrunk
@settings(deadline=None, max_examples=4, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(small_generators(n_cavities=2))
def test_blocked_modes_match_dense_two_cavities(generator):
    # with no dense eig of the whole: unseeded modes() against the oracle
    # piece by piece (its weakly connected pieces), where the eigenpairs must
    # rebuild it and no eigenvector may leave its piece; the spectrum against
    # the eigenpairs of the oracle on the closure of a^dag rho_ss along its
    # nonzero entries, with no Hilbert sector involved
    closed, liouv, a_op, oracle = generator
    label = oracle_pieces(oracle)
    pieces = [np.flatnonzero(label == k) for k in np.unique(label)]
    try:
        modes = liouv.modes()
    except NumericalError:
        # refused only where the oracle's eigenbasis is near-singular as well
        sv = [np.linalg.svd(np.linalg.eig(oracle[np.ix_(idx, idx)])[1], compute_uv=False)
              for idx in pieces]
        assert max(s[0] for s in sv) / min(s[-1] for s in sv) > 1e6
        return
    assert modes.right.shape == oracle.shape
    across = label[:, None] != label[None, :]
    assert not modes.right[across].any() and not modes.right_inv[across].any()
    # the eigenbasis is block diagonal over the pieces, so its condition
    # number is the ratio of its extreme singular values over all of them
    sv = [np.linalg.svd(modes.right[np.ix_(idx, idx)], compute_uv=False) for idx in pieces]
    cond = max(s[0] for s in sv) / min(s[-1] for s in sv)
    tol = 1e-13 * cond * max(1.0, float(np.abs(oracle).max()))
    for idx in pieces:
        v, v_inv = modes.right[np.ix_(idx, idx)], modes.right_inv[np.ix_(idx, idx)]
        rebuild = v @ np.diag(modes.eigenvalues[idx]) @ v_inv
        assert np.abs(rebuild - oracle[np.ix_(idx, idx)]).max() < tol
        if closed:
            assert np.abs(v.conj().T @ v - np.eye(len(idx))).max() < 1e-12
    if closed:
        return
    try:
        rho_ss = steady_state(liouv)
    except NumericalError:
        return
    index = closure_oracle(oracle, vectorize(a_op.dag().data @ rho_ss.data) != 0)
    w_ref, v_ref = np.linalg.eig(oracle[np.ix_(index, index)])
    grid = np.linspace(-15.0, 15.0, 121)
    blocked = absorption_spectrum(liouv, rho_ss, a_op, grid).values
    reference = dense_spectrum(w_ref, v_ref, index, rho_ss, a_op, grid)
    cond = max(cond, np.linalg.cond(v_ref))
    assert np.abs(blocked - reference).max() < 1e-12 * cond * max(1.0, np.abs(reference).max())


@settings(deadline=None, max_examples=60)
@given(small_generators(n_cavities=1))
def test_steady_state_matches_the_dense_zero_mode(generator):
    # wherever one dense eig of the oracle finds a single zero mode in a
    # well-conditioned eigenbasis, the null space of the blocks holds the
    # same state
    _, liouv, _, oracle = generator
    w, v = np.linalg.eig(oracle)
    zero = np.flatnonzero(np.abs(w) < ZERO_MODE_TOL)
    assume(len(zero) == 1 and np.linalg.cond(v) < 1e8)
    d = liouv.dims.total_dim
    rho = v[:, zero[0]].reshape(d, d)
    rho = (rho + rho.conj().T) / 2.0
    reference = Operator(liouv.dims, rho / np.trace(rho))
    assert trace_distance(steady_state(liouv), reference) < 1e-9


@settings(deadline=None, max_examples=60)
@given(small_generators(n_cavities=1))
def test_steady_state_counts_the_oracle_kernel(generator):
    # the kernel lies in what the singular pair blocks reach, in any basis
    # order: steady_state finds as many zero modes as the SVD of the whole
    # oracle, refusing more than one (DegenerateSteadyStateError), and its
    # one state is the oracle's null vector; draws with a singular value
    # near the threshold are skipped
    _, liouv, _, oracle = generator
    _, sv, vh = np.linalg.svd(oracle)
    assume(not np.any((sv > 1e-3 * ZERO_MODE_TOL) & (sv < 1e3 * ZERO_MODE_TOL)))
    zeros = np.count_nonzero(sv < ZERO_MODE_TOL)
    if zeros > 1:
        with pytest.raises(DegenerateSteadyStateError, match=f"dimension {zeros}$"):
            steady_state(liouv)
    else:
        d = liouv.dims.total_dim
        rho = vh[-1].conj().reshape(d, d)
        rho = rho / np.trace(rho)
        reference = Operator(liouv.dims, (rho + rho.conj().T) / 2.0)
        assert trace_distance(steady_state(liouv), reference) < 1e-9


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([1, 2]), _offsets, _offsets, st.floats(0.05, 2.0), _rates, st.booleans(),
       st.data())
def test_undriven_lossy_lattice_relaxes_to_the_exact_vacuum(n_cavities, delta, hopping, rate,
                                                             other_rate, cavity_first, data):
    # the vacuum pair block has no outflow, so it is its own closure and the
    # steady state is exactly |0><0|, in any basis order
    p = SystemParams(delta=delta, omega_c=10.0, n_fock=2, n_cavities=n_cavities,
                     hopping=abs(hopping) if n_cavities == 2 else 0.0)
    rates = (rate, other_rate) if cavity_first else (other_rate, rate)
    p = p.with_(cavity_decay=rates[0], atom_decay=rates[1])
    order = np.array(data.draw(st.permutations(range(p.dims.total_dim))))

    def relabel(op):
        return Operator(p.dims, op.data[np.ix_(order, order)])

    liouv = build_liouvillian(relabel(build_jch(p)),
                              [(relabel(jump), r) for jump, r in decay_channels(p)])
    rho = steady_state(liouv).data
    vacuum = int(np.flatnonzero(order == 0)[0])  # bare_ket |0, g> is index 0
    assert np.count_nonzero(rho) == 1 and rho[vacuum, vacuum] == 1.0


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([1, 2]), st.integers(2, 4), _offsets, _offsets, _rates, _rates, st.data())
def test_field_of_values_bound_holds_on_every_block_it_certifies(n_cavities, n_fock, delta, hopping,
                                                                 cavity_decay, atom_decay, data):
    # without drive no jump stays inside a component, so pair block (a, b)
    # is X -> -i (H_a X - X H_b^dag), and Re <X, L X> <= -(Gamma_a + Gamma_b) / 2
    # for unit X, Gamma_c the smallest eigenvalue of sum rate L^dag L on c:
    # no block that the floors of the Gammas certify has a smaller singular
    # value, in any basis order, whichever decay is 0
    p = SystemParams(delta=delta, omega_c=10.0, n_fock=n_fock, n_cavities=n_cavities,
                     hopping=abs(hopping) if n_cavities == 2 else 0.0,
                     cavity_decay=cavity_decay, atom_decay=atom_decay)
    d = p.dims.total_dim
    order = np.array(data.draw(st.permutations(range(d))))

    def relabel(op):
        return Operator(p.dims, op.data[np.ix_(order, order)])

    channels = [(relabel(jump), rate) for jump, rate in decay_channels(p)]
    liouv = build_liouvillian(relabel(build_jch(p)), channels)
    groups, floors = _groups(liouv._component), _loss_floors(liouv)
    loss = sum((rate * jump.data.conj().T @ jump.data for jump, rate in channels), np.zeros((d, d)))
    assert np.all(floors <= [np.linalg.eigvalsh(loss[np.ix_(g, g)])[0] for g in groups])
    for (a, rows), (b, cols) in combinations_with_replacement(enumerate(groups), 2):
        bound = (floors[a] + floors[b]) / 2
        if bound > ZERO_MODE_TOL:  # the oracle's principal submatrix, bit for bit
            block = liouv._block((rows[:, None] * d + cols).reshape(-1))
            assert np.linalg.svd(block, compute_uv=False)[-1] >= (1 - 1e-12) * bound


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([1, 2]), _offsets, _offsets, _rates, _rates, st.booleans(),
       st.integers(0, 2**32 - 1))
def test_closure_of_a_transpose_symmetric_seed_is_transpose_symmetric(
        n_cavities, delta, hopping, cavity_decay, atom_decay, driven, seed):
    # steady_state checks |L[rho]| on the closure of singular | singular.T, so
    # the Hermitised state lies inside it only if |j><i| is there with every
    # |i><j|; with or without a coherent field on cavity 0, whichever decay is 0
    p = SystemParams(delta=delta, omega_c=10.0, n_fock=2, n_cavities=n_cavities,
                     hopping=abs(hopping) if n_cavities == 2 else 0.0,
                     cavity_decay=cavity_decay, atom_decay=atom_decay)
    h = build_jch(p)
    if driven:
        a = annihilation_at(p.dims, 0)
        h = h + 0.7 * (a + a.dag())
    liouv = build_liouvillian(h, decay_channels(p))
    d = p.dims.total_dim
    rng = np.random.default_rng(seed)
    mask = np.zeros((d, d), dtype=bool)
    mask.flat[rng.choice(d * d, size=rng.integers(1, 4), replace=False)] = True
    mask |= mask.T
    index = liouv._closure(mask.reshape(-1))
    rows, cols = np.divmod(index, d)
    assert np.array_equal(np.sort(cols * d + rows), index)
    assert np.all(np.isin(np.flatnonzero(mask), index))


def kron_liouvillian(h, channels) -> np.ndarray:
    """The generator assembled from Kronecker products, H_eff accumulated
    channel by channel in the same order as ``build_liouvillian`` does."""
    h_eff = h.data
    for jump, rate in channels:
        h_eff = h_eff - 0.5j * rate * (jump.data.conj().T @ jump.data)
    eye = np.eye(h.dims.total_dim, dtype=complex)
    data = -1j * (np.kron(h_eff, eye) - np.kron(eye, h_eff.conj()))
    for jump, rate in channels:
        data += rate * np.kron(jump.data, jump.data.conj())
    return data


@settings(deadline=None, max_examples=100)
@given(st.integers(2, 3), _offsets, _rates, _rates, st.booleans(),
       st.lists(_rates, max_size=2), st.integers(0, 2**32 - 1))
def test_in_place_build_equals_kron_assembly(n_fock, delta, cavity_decay, atom_decay, driven,
                                             extra_rates, seed):
    # the loss channels of a lossy or driven cavity plus random sparse jumps
    # whose diagonal is filled, so that jump terms overlap the H_eff terms
    p = SystemParams(delta=delta, omega_c=10.0, n_fock=n_fock,
                     cavity_decay=cavity_decay, atom_decay=atom_decay)
    rng = np.random.default_rng(seed)
    if driven:
        p = p.with_(atom_drive=rng.uniform(0.1, 2.0), cavity_drive=rng.uniform(0.0, 2.0),
                    cavity_drive_detuning=delta, atom_drive_detuning=2 * delta)
    h = build_driven(p) if driven else build_jch(p)
    d = p.dims.total_dim
    channels = decay_channels(p)
    for rate in extra_rates:
        mask = rng.random((d, d)) < 0.3
        np.fill_diagonal(mask, True)
        raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        channels.append((Operator(p.dims, np.where(mask, raw, 0)), rate))
    liouv, oracle = build_liouvillian(h, channels), kron_liouvillian(h, channels)
    assert np.array_equal(liouv.data, oracle)
    # the generator on a random product A x B of Hilbert index sets, or on
    # any random set of superoperator indices, is the oracle's principal
    # submatrix there, bit for bit
    for _ in range(4):
        rows, cols = (np.flatnonzero((rng.random(d) < 0.5) | (np.arange(d) == rng.integers(d)))
                      for _ in range(2))
        for index in ((rows[:, None] * d + cols).reshape(-1), np.flatnonzero(rng.random(d * d) < 0.3)):
            assert np.array_equal(liouv._block(index), oracle[np.ix_(index, index)])


def sector_oracle(data: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Sorted Hilbert indices that the mask ``seed`` reaches on the one-sided
    graph read from the nonzero entries of the generator ``data``: an entry
    that maps |i><j| to |i'><j'| leads from i to i' and from j to j'."""
    d = len(seed)
    rows, cols = np.nonzero(data)
    one_sided = np.zeros((d, d), dtype=bool)  # [to, from]
    one_sided[rows // d, cols // d] = one_sided[rows % d, cols % d] = True
    return closure_oracle(one_sided, seed)


def closure_oracle(data: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Sorted indices that the mask ``support`` reaches along the nonzero
    entries of ``data`` (column k leads to row k'), by a plain search."""
    reached = set(np.flatnonzero(support).tolist())
    stack = list(reached)
    while stack:
        for nxt in np.flatnonzero(data[:, stack.pop()]).tolist():
            if nxt not in reached:
                reached.add(nxt)
                stack.append(nxt)
    return np.array(sorted(reached), dtype=int)


@settings(deadline=None, max_examples=60)
@given(small_generators(n_cavities=1), st.integers(0, 2**32 - 1))
def test_closure_block_is_invariant_and_its_eigenvalues_are_the_generators(generator, seed):
    # the closure of a support is S x S, S the Hilbert sector that its rows
    # and columns reach, within the oracle's weak pieces that it meets: a set
    # that holds the closure of the support and that no entry of the oracle
    # leaves, so every eigenvalue mu of its block is one of the whole: a
    # vector with a small residual under the block - mu, padded with zeros,
    # keeps that residual under the oracle - mu, however defective either is
    _, liouv, _, oracle = generator
    d = liouv.dims.total_dim
    rng = np.random.default_rng(seed)
    support = rng.random((d, d)) < 0.1
    support.flat[rng.integers(d * d)] = True
    index = liouv._closure(support.reshape(-1))
    sector = sector_oracle(oracle, support.any(axis=0) | support.any(axis=1))
    square = (sector[:, None] * d + sector).reshape(-1)
    label = oracle_pieces(oracle)
    assert np.array_equal(index, square[np.isin(label[square], label[support.reshape(-1)])])
    assert np.isin(closure_oracle(oracle, support.reshape(-1)), index).all()
    outside = np.setdiff1d(np.arange(d * d), index)
    assert not oracle[np.ix_(outside, index)].any()
    mu = np.linalg.eigvals(liouv._block(index))
    shifted = oracle[None] - mu[:, None, None] * np.eye(d * d)
    residual = np.linalg.svd(shifted, compute_uv=False)[:, -1]
    # the largest seen in 600 random draws was 5.3e-16 on this scale, a margin of 190
    assert residual.max() < 1e-13 * max(1.0, float(np.abs(oracle).max())) * len(index)


def test_unseeded_modes_keep_the_dense_layout():
    # perfbench's tracer sizes a generator by data.shape[0] and multiplies a
    # length-D^2 vector by the unseeded modes().right, so both stay D^2-wide
    # in natural order, also after a steady-state solve
    p = SystemParams(delta=0.3, omega_c=9.0, cavity_decay=0.4, atom_decay=0.2, n_fock=2)
    liouv = standard_liouvillian(p)
    steady_state(liouv)
    d2 = p.dims.total_dim**2
    assert liouv.data.shape == (d2, d2)
    modes = liouv.modes()
    assert modes.eigenvalues.shape == (d2,)
    assert modes.right.shape == modes.right_inv.shape == (d2, d2)


@pytest.mark.parametrize("n_cavities", [1, 2])
def test_spectrum_block_is_the_one_excitation_no_jump_hamiltonian(n_cavities):
    # linear absorption from the vacuum: a^dag |0><0| reaches only |k><0| for
    # the one-excitation states k, 2 per cavity, at any photon cutoff, where
    # the generator is -i H_eff, as no jump leaves the vacuum bra
    for n_fock in (2, 3):
        p = SystemParams(delta=0.0, omega_c=100.0, hopping=1.0 if n_cavities == 2 else 0.0,
                         cavity_decay=0.5, atom_decay=0.5, n_fock=n_fock, n_cavities=n_cavities)
        liouv = standard_liouvillian(p)
        rho_ss = steady_state(liouv)
        a_op = annihilation_at(p.dims, 0)
        index = liouv._closure(vectorize(a_op.dag().data @ rho_ss.data) != 0)
        one = np.flatnonzero(np.rint(np.diag(total_excitation(p.dims).data).real) == 1)
        assert len(one) == 2 * n_cavities
        assert np.array_equal(index, one * p.dims.total_dim)
        block = liouv._block(index)
        assert np.array_equal(block, -1j * liouv.h_eff[np.ix_(one, one)])
        assert np.all(np.linalg.eigvals(block).real < 0)


def test_defective_block_is_reached_only_from_manifold_two():
    # resonant atom decay at g = 1, rate 1, no cavity loss: the populations
    # of manifolds 1 and 2 share the decay rate 1/2, and the jump from one to
    # the other makes a Jordan block; only a support that reaches the
    # populations of manifold 2 holds it, and only the unseeded modes() meets
    # it and refuses an eigenbasis
    p = SystemParams(delta=0.0, omega_c=10.0, atom_decay=1.0, n_fock=2)
    liouv = standard_liouvillian(p)
    d = p.dims.total_dim
    vacuum, photon, two = (bare_ket(p.dims, [(n, 0)]) for n in (0, 1, 2))
    n = np.rint(np.diag(total_excitation(p.dims).data).real)
    low = np.flatnonzero(n <= 1)
    diagonal = (low[:, None] * d + low)[n[low][:, None] == n[low]]
    reached = {  # support: its closure
        (0, 0): [0],
        (1, 0): np.flatnonzero(n == 1) * d,  # |k><0|, k a one-excitation state
        (1, 1): np.sort(diagonal),  # the pair blocks of manifolds 1 and 0 with themselves
    }
    kets = (vacuum, photon)
    for (i, j), index in reached.items():
        assert np.array_equal(liouv._closure(np.outer(kets[i], kets[j].conj()).reshape(-1) != 0),
                              index)
    assert np.array_equal(np.linalg.eigvals(liouv._block(np.array([0]))), [0])
    # -1/2 as often as it has eigenvectors on (1, 1), once more than that on (2, 2)
    for ket, repeats, vectors in ((photon, 2, 2), (two, 4, 3)):
        index = liouv._closure(np.outer(ket, ket).reshape(-1) != 0)
        block = liouv._block(index)
        assert np.count_nonzero(np.abs(np.linalg.eigvals(block) + 0.5) < 1e-6) == repeats
        sv = np.linalg.svd(block + 0.5 * np.eye(len(index)), compute_uv=False)
        assert np.count_nonzero(sv < 1e-12) == vectors
    with pytest.raises(NumericalError, match="ill-conditioned"):
        liouv.modes()


def spectral_states(liouv, rho0, times):
    """exp(L (t - t0)) vec(rho0) on the grid, from one dense eig of the generator."""
    w, v = np.linalg.eig(liouv.data)
    coeff = np.linalg.solve(v, vectorize(rho0.data))
    stacked = (v * coeff) @ np.exp(np.outer(w, times - times[0]))
    return stacked.T.reshape(len(times), *rho0.data.shape)


def assert_exactly_hermitian(states):
    assert np.array_equal(states, states.conj().transpose(0, 2, 1))


def assert_exact_propagation(liouv, rho0, times):
    """evolve at the grid step against evolve at half of it, subsampled, and
    against the dense spectral synthesis of the trajectory."""
    coarse = evolve(liouv, rho0, times)
    fine = evolve(liouv, rho0, np.linspace(times[0], times[-1], 2 * len(times) - 1))
    halving = max(trace_distance(coarse.state(i), fine.state(2 * i)) for i in range(len(times)))
    assert halving < 1e-12
    assert np.abs(coarse.states - spectral_states(liouv, rho0, times)).max() < 1e-10


def assert_matches_tenth_step(liouv, rho0, times):
    """evolve, with any warning raised as an error, against a run at a tenth
    of the step, subsampled; returns the coarse trajectory."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coarse = evolve(liouv, rho0, times)
        fine = evolve(liouv, rho0, np.linspace(times[0], times[-1], 10 * len(times) - 9))
    assert np.abs(coarse.states - fine.states[::10]).max() < 1e-12
    return coarse


class TestEvolve:
    def test_zero_generator_constant(self, rng):
        dims = HilbertDims(2)
        rho0 = Operator(dims, random_density_matrix(dims.total_dim, rng))
        traj = evolve(build_liouvillian(zero_hamiltonian(dims)), rho0, np.linspace(0.0, 2.0, 11))
        assert np.max(np.abs(traj.states - rho0.data)) < 1e-12

    def test_vacuum_rabi_period(self):
        # |1,g> <-> |0,e> oscillation with period pi/g at resonance
        p = SystemParams(delta=0.0, omega_c=10.0, n_fock=2)
        liouv = build_liouvillian(build_jc(p), [])
        photon = bare_ket(p.dims, [(1, 0)])
        times = np.linspace(0.0, math.pi, 201)
        traj = evolve(liouv, pure(p.dims, photon), times)
        pop = traj.states[:, 2, 2].real  # |1,g> index = 2
        assert pop[0] == pytest.approx(1.0)
        assert pop[100] == pytest.approx(0.0, abs=1e-10)  # half period: fully atomic
        assert pop[-1] == pytest.approx(1.0, abs=1e-10)

    def test_drift_bounds_and_positivity(self):
        p = SystemParams(delta=0.3, omega_c=10.0, cavity_decay=0.4, atom_decay=0.3, n_fock=3)
        liouv = standard_liouvillian(p)
        psi = bare_ket(p.dims, [(2, 1)])
        traj = evolve(liouv, pure(p.dims, psi), np.linspace(0.0, 10.0, 101))
        assert traj.trace_drift() < 1e-8
        assert_exactly_hermitian(traj.states)
        assert traj.min_eigenvalue() > -1e-7

    def test_spectral_matches_fixed_step(self):
        p = SystemParams(delta=0.3, omega_c=10.0, cavity_decay=0.4, n_fock=2)
        liouv = standard_liouvillian(p)
        rho0 = pure(p.dims, bare_ket(p.dims, [(1, 1)]))
        assert_exact_propagation(liouv, rho0, np.linspace(0.0, 1.0, 11))

    def test_spectral_matches_fixed_step_strong_drive(self):
        # the stiffest configuration in use: strong far-detuned drive with loss
        p = SystemParams(
            delta=0.0, omega_c=1e4, atom_drive=50.0, atom_drive_detuning=500.0,
            cavity_drive_detuning=500.0, cavity_decay=0.1, n_fock=4,
        )
        liouv = build_liouvillian(build_driven(p), decay_channels(p))
        rho0 = pure(p.dims, site_polariton_ket(p.dims, 1, "-", p.g, p.delta))
        assert_exact_propagation(liouv, rho0, np.linspace(0.0, 0.5, 6))

    def test_non_uniform_grid_is_refused(self):
        # both propagators read every sample off one step, the density matrix
        # through one exp(L dt) and the ket through phase tables in powers of
        # exp(-i E dt), so a grid whose points stray from uniform by more than
        # GRID_UNIFORMITY_TOL of its step is refused, not resampled; a stray
        # below the tolerance is ignored
        dims = HilbertDims(2)
        matrix = np.diag(np.arange(dims.total_dim, dtype=complex))
        matrix[1, 2] = matrix[2, 1] = 0.7
        h = Operator(dims, matrix)
        psi = bare_ket(dims, [(1, 0)])
        runs = (
            (partial(evolve, build_liouvillian(h, [(annihilation_at(dims, 0), 0.5)]),
                     pure(dims, psi)), lambda traj: traj.states),
            (partial(evolve_closed, h, psi), lambda amps: amps),
        )
        times = np.linspace(1.0, 2.0, 11)  # step 0.1
        nudged, strayed = times.copy(), times.copy()
        nudged[4] += 0.1 * GRID_UNIFORMITY_TOL / 10
        strayed[4] += 0.1 * GRID_UNIFORMITY_TOL * 10
        for propagate, read in runs:
            assert np.array_equal(read(propagate(nudged)), read(propagate(times)))
            for bad in ([0.0, 0.5, 1.5], [0.0, np.nan, 2.0], np.geomspace(1.0, 2.0, 11), strayed,
                        times[::-1]):
                with pytest.raises(ValueError, match="uniform"):
                    propagate(bad)
        # a stack of holds is checked row by row, each against its own step
        hs, psis = np.stack([h.data] * 2), np.stack([psi] * 2)
        assert _closed_amplitudes(hs, psis, np.stack([times, 3 * nudged])).shape == (2, 11, 6)
        with pytest.raises(ValueError, match="uniform"):
            _closed_amplitudes(hs, psis, np.stack([times, 3 * strayed]))

    def test_grid_validation(self):
        dims = HilbertDims(2)
        rho0 = pure(dims, bare_ket(dims, [(0, 0)]))
        with pytest.raises(ValueError):
            evolve(build_liouvillian(zero_hamiltonian(dims)), rho0, [0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            evolve(build_liouvillian(zero_hamiltonian(dims)), rho0, [0.0])

    def test_invalid_initial_state_rejected(self):
        # a density matrix must be Hermitian, of unit trace and positive
        dims = HilbertDims(2)
        liouv = build_liouvillian(zero_hamiltonian(dims))
        evolve(liouv, pure(dims, bare_ket(dims, [(1, 0)])), [0.0, 1.0])
        negative = np.diag(np.linspace(1.0, -0.2, dims.total_dim)).astype(complex)
        skew = np.eye(dims.total_dim, dtype=complex) / dims.total_dim
        skew[0, 1] = 0.1
        for bad, match in ((negative / np.trace(negative), "negative eigenvalue"),
                           (skew, "not Hermitian"),
                           (np.eye(dims.total_dim, dtype=complex), "trace")):
            with pytest.raises(ValueError, match=match):
                evolve(liouv, Operator(dims, bad), [0.0, 1.0])

    def test_evolve_closed_refuses_a_foreign_ket(self):
        dims = HilbertDims(2)
        h = build_jc(SystemParams(n_fock=2))
        psi = bare_ket(dims, [(1, 0)])
        evolve_closed(h, psi, [0.0, 1.0])
        with pytest.raises(ValueError, match="not normalized"):
            evolve_closed(h, 2 * psi, [0.0, 1.0])
        for foreign in (bare_ket(HilbertDims(3), [(1, 0)]), psi[:-1], psi[None]):
            with pytest.raises(DimensionMismatchError, match="ket shape"):
                evolve_closed(h, foreign, [0.0, 1.0])

    def test_defective_generator_evolves_without_warning(self):
        # at zero detuning, no cavity loss and atom decay 4g the no-jump
        # Hamiltonian of one excitation is omega_c - i g + g [[i, 1], [1, -i]],
        # a Jordan block with no eigenbasis, which the propagator does not
        # need: from |1,g> it evolves without a warning, agrees with a run at a
        # tenth of the step and keeps the exact population (1 + g t)^2 e^(-2 g t)
        p = SystemParams(delta=0.0, omega_c=10.0, atom_decay=4.0, n_fock=2)
        liouv = standard_liouvillian(p)
        with pytest.raises(NumericalError):
            liouv.modes()
        times = np.linspace(0.0, 1.0, 5)
        traj = assert_matches_tenth_step(liouv, pure(p.dims, bare_ket(p.dims, [(1, 0)])), times)
        pop = traj.states[:, 2, 2].real  # |1,g> index = 2
        assert np.abs(pop - (1.0 + times) ** 2 * np.exp(-2.0 * times)).max() < 1e-12

    def test_physical_defective_generator_evolves_without_warning(self):
        # resonant atom decay at g = 1, rate 1, no cavity loss: a Jordan block
        # in a coherence block, whose eigenbasis is singular up to roundoff
        p = SystemParams(delta=0.0, omega_c=10.0, atom_decay=1.0, n_fock=2)
        amps = np.zeros(p.dims.total_dim, dtype=complex)
        amps[[1, 2]] = 1 / math.sqrt(2)  # |0,e> + |1,g>, so every block is reached
        rho0 = pure(p.dims, amps)
        traj = assert_matches_tenth_step(standard_liouvillian(p), rho0, np.linspace(0.0, 2.0, 21))
        assert traj.trace_drift() < 1e-13


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_hamiltonian_evolution_matches_mixed_kets(n_kets, seed):
    # evolve under -i[H, .] is the mixture of the kets evolved by evolve_closed
    rng = np.random.default_rng(seed)
    dims = HilbertDims(2)
    d = dims.total_dim
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = Operator(dims, raw + raw.conj().T)
    kets = random_kets(d, n_kets, rng)
    weights = rng.dirichlet(np.ones(n_kets))
    rho0 = Operator(dims, np.einsum("k,ki,kj->ij", weights, kets, kets.conj()))
    times = rng.uniform(0.0, 3.0) + np.linspace(0.0, rng.uniform(0.1, 3.0), 6)
    mixture = 0.0
    for weight, ket in zip(weights, kets):
        amps = evolve_closed(h, ket, times)
        mixture = mixture + weight * np.einsum("ti,tj->tij", amps, amps.conj())
    traj = evolve(build_liouvillian(h), rho0, times)
    assert np.max(np.abs(traj.states - mixture)) < 1e-10


@settings(deadline=None, max_examples=60)
@given(small_generators(n_cavities=1), st.floats(0.05, 3.0), st.integers(2, 30),
       st.integers(0, 2**32 - 1))
def test_evolve_keeps_states_physical_and_composes(generator, tau, samples, seed):
    # from a random full-rank state under a random closed, lossy or driven
    # generator: trace, Hermiticity and positivity hold along the run, and
    # one run over [0, 2 tau] equals a run over [0, tau] chained with one
    # over [tau, 2 tau]; the largest errors seen in 600 examples were 2.6e-14
    # (trace) and 8.9e-16 (chained states), so 1e-12 leaves a margin of 38
    _, liouv, _, _ = generator
    rng = np.random.default_rng(seed)
    rho0 = Operator(liouv.dims, random_density_matrix(liouv.dims.total_dim, rng))
    whole = evolve(liouv, rho0, np.linspace(0.0, 2 * tau, 2 * samples - 1))
    first = evolve(liouv, rho0, np.linspace(0.0, tau, samples))
    second = evolve(liouv, first.state(-1), np.linspace(tau, 2 * tau, samples))
    assert whole.trace_drift() < 1e-12
    assert_exactly_hermitian(whole.states)
    assert whole.min_eigenvalue() > -1e-12
    assert np.abs(whole.states[: samples] - first.states).max() < 1e-12
    assert np.abs(whole.states[samples - 1:] - second.states).max() < 1e-12


@settings(deadline=None, max_examples=60)
@given(small_generators(n_cavities=1), st.integers(0, 2**32 - 1))
def test_real_coordinates_match_the_spectral_synthesis(generator, seed):
    # evolve propagates real coordinates on the Hermitian basis: every
    # snapshot it assembles is Hermitian to the last bit, expectations read
    # from the coordinates match Tr(op rho) of those snapshots for an op that
    # is not Hermitian, and the states follow the dense complex spectral
    # synthesis of exp(L t) wherever its eigenbasis is well conditioned; a
    # full-rank rho0 reaches every coherence order, all in one block
    _, liouv, _, _ = generator
    d = liouv.dims.total_dim
    rng = np.random.default_rng(seed)
    rho0 = Operator(liouv.dims, random_density_matrix(d, rng))
    times = np.linspace(0.0, rng.uniform(0.1, 3.0), 7)
    traj = evolve(liouv, rho0, times)
    states = traj.states
    assert_exactly_hermitian(states)
    op = Operator(liouv.dims, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    assert np.abs(traj.expect(op) - np.einsum("ij,tji->t", op.data, states)).max() < 1e-12
    assume(np.linalg.cond(np.linalg.eig(liouv.data)[1]) < 1e3)
    assert np.abs(states - spectral_states(liouv, rho0, times)).max() < 1e-10


@settings(deadline=None, max_examples=60)
@given(small_generators(n_cavities=1), st.integers(0, 2**32 - 1))
def test_evolve_stays_in_the_closure_of_the_initial_state(generator, seed):
    # from a pure state on a random part of the basis the states are exactly
    # 0 outside the closure of vec(rho0) and follow the dense spectral
    # synthesis inside it; where that synthesis is well conditioned, the
    # largest error seen in 1500 examples was 1.2e-13, so 1e-12 leaves a
    # margin of 8
    _, liouv, _, oracle = generator
    d = liouv.dims.total_dim
    rng = np.random.default_rng(seed)
    part = rng.random(d) < 0.3
    part[rng.integers(d)] = True
    amps = np.where(part, rng.standard_normal(d) + 1j * rng.standard_normal(d), 0)
    rho0 = pure(liouv.dims, amps / np.linalg.norm(amps))
    times = np.linspace(0.0, rng.uniform(0.1, 3.0), 7)
    states = evolve(liouv, rho0, times).states.reshape(len(times), -1)
    outside = np.setdiff1d(np.arange(d * d), closure_oracle(oracle, vectorize(rho0.data) != 0))
    assert not states[:, outside].any()
    assume(np.linalg.cond(np.linalg.eig(oracle)[1]) < 1e3)
    reference = spectral_states(liouv, rho0, times).reshape(len(times), -1)
    assert np.abs(states - reference).max() < 1e-12


# T = 2, 3, 5, 2^k +- 1 and 8001: for T = 2^k + 1 the last giant row of the
# tables holds one sample, for 2^k - 1 all but one
_SAMPLE_COUNTS = [2, 3, 5, 7, 9, 15, 17, 31, 33, 63, 65, 127, 129, 8001]


@settings(deadline=None, max_examples=60)
@given(st.one_of(small_generators(n_cavities=1), small_generators(n_cavities=2)),
       st.sampled_from(_SAMPLE_COUNTS), st.integers(0, 2**32 - 1))
def test_table_reads_match_the_dense_oracle(generator, samples, seed):
    # every reading of a run (expect, trace_drift, state(i) and states) off
    # its two tables against the eigenpairs of the Kronecker generator on the
    # closure of vec(rho0) along its nonzero entries, wherever that
    # eigenbasis is well conditioned; rho0 is pure on a random part of the
    # basis, a single index on two cavities to keep the closure small.  The
    # propagator's roundoff grows with the sample count: in 1500 examples
    # the largest errors were 9.3e-14 for T <= 129 and 8.5e-13 for T = 8001
    # (the trace drift, as large with the whole series formed by doubling),
    # so 1e-12 and 1e-11 leave margins of 10 and 12; state(i) and states[i]
    # differed by at most 1.1e-15
    _, liouv, _, oracle = generator
    d = liouv.dims.total_dim
    rng = np.random.default_rng(seed)
    part = rng.choice(d, size=1 if liouv.dims.n_cavities == 2 else rng.integers(1, d + 1),
                      replace=False)
    amps = np.zeros(d, dtype=complex)
    amps[part] = rng.standard_normal(len(part)) + 1j * rng.standard_normal(len(part))
    rho0 = pure(liouv.dims, amps / np.linalg.norm(amps))
    times = np.linspace(0.0, rng.uniform(0.1, 3.0), samples)
    index = closure_oracle(oracle, vectorize(rho0.data) != 0)
    w, v = np.linalg.eig(oracle[np.ix_(index, index)])
    assume(np.linalg.cond(v) < 1e3)
    decay = np.exp(np.outer(w, times - times[0]))
    coeff = np.linalg.solve(v, vectorize(rho0.data)[index])
    traj, tol = evolve(liouv, rho0, times), 1e-11 if samples > 1000 else 1e-12

    op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    op /= np.linalg.norm(op, 2)
    expected = ((vectorize(op.T)[index] @ v) * coeff) @ decay  # Tr(op rho) = vec(op^T) . vec(rho)
    assert np.abs(traj.expect(Operator(liouv.dims, op)) - expected).max() < tol
    trace = ((vectorize(np.eye(d))[index] @ v) * coeff) @ decay
    assert abs(traj.trace_drift() - np.abs(trace - 1).max()) < tol

    picks = np.arange(samples) if samples < 200 else np.sort(rng.choice(samples, 20, replace=False))
    one = np.array([traj.state(i).data for i in picks]).reshape(len(picks), -1)
    reference = np.zeros((len(picks), d * d), dtype=complex)
    reference[:, index] = ((v * coeff) @ decay[:, picks]).T
    assert np.abs(one - reference).max() < tol
    if samples * d * d <= 2**20:  # the whole (T, D, D) series fits in 16 MB
        states = traj.states
        assert_exactly_hermitian(states)
        assert np.abs(states[picks].reshape(len(picks), -1) - one).max() < 1e-14


def test_trace_drift_is_refused_at_the_last_sample():
    # a generator whose H_eff holds a loss with no matching jump loses trace:
    # from |1,g> under H_eff = -(i/2) r a^dag a the trace is exp(-r t), and at
    # r = 1.008e-8 and dt = 1/64 only t = 1 drifts beyond TRACE_DRIFT_TOL
    # (t = 63/64 drifts 9.92e-9); T = 65 puts that sample alone in the last
    # giant row of the tables, which the check must read
    dims = HilbertDims(2)
    number = annihilation_at(dims, 0).dag() @ annihilation_at(dims, 0)
    leaky = Liouvillian(dims, -0.5j * 1.008e-8 * number.data, ())
    rho0 = pure(dims, bare_ket(dims, [(1, 0)]))
    assert evolve(leaky, rho0, np.linspace(0.0, 63 / 64, 64)).trace_drift() < 1e-8
    with pytest.raises(NumericalError, match="trace drift 1.008e-08 exceeds"):
        evolve(leaky, rho0, np.linspace(0.0, 1.0, 65))


def test_selfcheck_decay_run_reaches_three_population_blocks():
    # selfcheck's |2,g> run under loss is formed on the 25 indices of the
    # sector of manifolds 2, 1 and 0 squared, and only the 9 that the
    # oracle's entries lead to from vec(rho0), the populations of the three
    # manifolds, are ever nonzero: the coherences between them stay exactly 0
    p = SystemParams(delta=0.4, omega_c=50.0, cavity_decay=0.3, atom_decay=0.2, n_fock=3)
    rho0 = pure(p.dims, bare_ket(p.dims, [(2, 0)]))
    times = np.linspace(0.0, 6.0, 121)
    states = evolve(standard_liouvillian(p), rho0, times).states.reshape(len(times), -1)
    oracle = kron_liouvillian(build_jch(p), decay_channels(p))
    touched = np.flatnonzero(states.any(axis=0))
    assert np.array_equal(touched, closure_oracle(oracle, vectorize(rho0.data) != 0))
    assert len(touched) == 9


def test_hamiltonian_takes_no_fixed_step_method():
    # neither propagator has a method switch: evolve_closed works in the
    # eigenbasis of H, and evolve at half the step agrees with it
    p = SystemParams(delta=0.4, omega_c=9.0, n_fock=2)
    h = build_jc(p)
    psi = bare_ket(p.dims, [(1, 0)])
    times = np.linspace(0.0, 1.0, 5)
    for propagate, state in ((evolve_closed, psi), (evolve, pure(p.dims, psi))):
        assert "method" not in inspect.signature(propagate).parameters
        generator = h if propagate is evolve_closed else build_liouvillian(h)
        with pytest.raises(TypeError):
            propagate(generator, state, times, method="rk4")
    amps = evolve_closed(h, psi, times)
    halved = evolve(build_liouvillian(h), pure(p.dims, psi), np.linspace(0.0, 1.0, 9))
    mixture = np.einsum("ti,tj->tij", amps, amps.conj())
    assert np.max(np.abs(halved.states[::2] - mixture)) < 1e-12


@st.composite
def block_hamiltonians(draw):
    """(dims, H, ket, mask of the indices the ket reaches) for a random
    Hermitian H that is block-diagonal in a randomly relabeled basis, every
    block dense; a single block is a dense H.  One-wide blocks fill the width
    up to a one-site ``total_dim``.  The ket occupies a random nonempty subset
    of the blocks, and a random nonempty part of each one it occupies."""
    sizes = draw(st.one_of(st.just([8]), st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    dims = HilbertDims(max(2, (sum(sizes) + 1) // 2 - 1))
    sizes = sizes + [1] * (dims.total_dim - sum(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    occupied = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)).filter(any))
    h = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
    amps = np.zeros(sum(sizes), dtype=complex)
    reach = np.zeros(sum(sizes), dtype=bool)
    start = 0
    for size, occupy in zip(sizes, occupied):
        span = slice(start, start + size)
        raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        h[span, span] = raw + raw.conj().T
        if occupy:
            part = draw(st.lists(st.booleans(), min_size=size, max_size=size).filter(any))
            amps[span] = np.where(part, rng.standard_normal(size) + 1j * rng.standard_normal(size), 0)
            reach[span] = True
        start += size
    order = np.array(draw(st.permutations(range(len(amps)))))
    return dims, h[np.ix_(order, order)], amps[order] / np.linalg.norm(amps), reach[order]


@settings(deadline=None, max_examples=200)
@given(block_hamiltonians(), st.floats(0.1, 10.0))
def test_evolve_closed_block_route_matches_dense(generator, t_max):
    # the reachable-block route against the dense eigh rotation of the whole
    # space; the largest error seen in three runs of 2000 examples was
    # 4.1e-14 (entries of H of order 1, t <= 10), so 1e-12 leaves a margin of 24
    dims, h, amps, reach = generator
    times = np.linspace(0.0, t_max, 7)
    block = evolve_closed(Operator(dims, h), amps, times)
    energies, vectors = np.linalg.eigh(h)
    dense = (np.exp(-1j * np.outer(times, energies)) * (vectors.conj().T @ amps)) @ vectors.T
    assert np.abs(block - dense).max() < 1e-12
    assert np.all(block[:, ~reach] == 0)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4), st.integers(1, 10), st.integers(2, 8001), st.floats(0.01, 500.0),
       st.integers(0, 2**32 - 1))
def test_closed_amplitudes_match_long_double_phases(holds, width, samples, norm, seed):
    # the phase tables against exp(-i E (t_n - t_0)) in long double at the
    # float64 grid points, through the same eigh, on holds of their own step;
    # the bound is c eps (1 + max|E| t) per hold: the largest c seen in 9500
    # random stacks (K <= 4, m <= 10, T <= 8001, |H| <= 500, t <= 20) was
    # 2.1, at |E| t below 1, where the matmuls' rounding sets it; where |E| t
    # passes 100 it was 1.1 (0.5 with one exponential per sample, which read
    # the rounded t_n where the tables take n dt), so c = 8 leaves a margin of 3.8
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((2, holds, width, width))
    hs = raw[0] + 1j * raw[1] + (raw[0] + 1j * raw[1]).conj().mT
    hs *= norm / np.linalg.norm(hs, 2, axis=(1, 2))[:, None, None]
    psis = rng.standard_normal((holds, width)) + 1j * rng.standard_normal((holds, width))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    times = np.linspace(0.0, rng.uniform(0.1, 20.0, holds), samples, axis=-1)
    amps = _closed_amplitudes(hs, psis, times)
    energies, vectors = np.linalg.eigh(hs)
    elapsed = (times - times[:, :1]).astype(np.longdouble)
    phases = np.exp(-1j * elapsed[:, :, None] * energies.astype(np.longdouble)[:, None, :])
    coefficients = vectors.conj().mT.astype(np.clongdouble) @ psis[:, :, None]
    exact = (phases * coefficients.mT) @ vectors.mT.astype(np.clongdouble)
    bound = 8 * np.finfo(float).eps * (1 + np.abs(energies).max(axis=1) * times[:, -1])
    assert np.all(np.abs(amps - exact).max(axis=(1, 2)) <= bound)


def svd_calls(monkeypatch) -> list:
    """The (shape, keywords) of every later np.linalg.svd call, in order."""
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append((a.shape, kw)) or svd(a, **kw))
    return calls


def svd_routing_generator(kind):
    """(Liouvillian, Kronecker oracle) of a lossy one-cavity generator that
    the field-of-values bound cannot certify whole: a driven one, or one with
    atom loss only, whose manifolds below the overflow hold a lossless state."""
    p = SystemParams(delta=0.3, omega_c=9.0, atom_decay=0.4, n_fock=3)
    h = build_jch(p)
    if kind == "driven":
        p = p.with_(cavity_decay=0.5, atom_drive=0.7, cavity_drive=0.2,
                    cavity_drive_detuning=0.4, atom_drive_detuning=0.7)
        h = build_driven(p)
    return build_liouvillian(h, decay_channels(p)), kron_liouvillian(h, decay_channels(p))


class TestSteadyState:
    def test_undriven_decay_reaches_vacuum(self):
        p = SystemParams(delta=0.4, omega_c=9.0, cavity_decay=0.5, atom_decay=0.3, n_fock=3)
        rho_ss = steady_state(standard_liouvillian(p))
        expected = pure(p.dims, bare_ket(p.dims, [(0, 0)]))
        assert trace_distance(rho_ss, expected) < 1e-10

    def test_two_cavity_vacuum_and_long_time_oracle(self):
        p = SystemParams(
            delta=0.2, omega_c=9.0, hopping=0.4, cavity_decay=0.5, atom_decay=0.5,
            n_fock=2, n_cavities=2,
        )
        liouv = standard_liouvillian(p)
        rho_ss = steady_state(liouv)
        vacuum = pure(p.dims, bare_ket(p.dims, [(0, 0), (0, 0)]))
        assert trace_distance(rho_ss, vacuum) < 1e-9
        # long-time evolution oracle from an excited product state
        psi = bare_ket(p.dims, [(1, 0), (0, 1)])
        traj = evolve(liouv, pure(p.dims, psi), np.array([0.0, 60.0]))
        assert trace_distance(traj.state(-1), rho_ss) < 1e-8

    def test_degenerate_zero_space_rejected(self):
        p = SystemParams(delta=0.3, omega_c=9.0, n_fock=2)
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(build_liouvillian(build_jc(p), []))

    def test_zero_mode_outside_the_population_blocks_is_found(self, monkeypatch):
        # H_eff shifted on the one-excitation states by minus one of its
        # eigenvalues there, with eigenvector v: the coherences |v><0| and
        # |0><v| with the vacuum become zero modes, which vec(I) never
        # reaches, beside |0><0|; the SVDs of the pair blocks find them, with
        # no eigenvalue computed, and the kernel has dimension 3
        p = SystemParams(delta=0.3, omega_c=9.0, cavity_decay=0.4, atom_decay=0.2, n_fock=2)
        liouv = standard_liouvillian(p)
        one = np.rint(np.diag(total_excitation(p.dims).data).real) == 1
        shift = np.linalg.eigvals(liouv.h_eff[np.ix_(one, one)])[0]
        shifted = Liouvillian(p.dims, liouv.h_eff - shift * np.diag(one), liouv.jumps)
        calls = []
        for name in ("eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, lambda *a, name=name, **kw: calls.append(name))
        steady_state(liouv)
        with pytest.raises(DegenerateSteadyStateError, match="dimension 3"):
            steady_state(shifted)
        assert calls == []

    def test_each_block_is_certified_directly_or_through_its_mirror(self, monkeypatch):
        # L[rho^dag] = L[rho]^dag makes the oracle on pair block (b, a) the
        # complex conjugate of (a, b) on the transposed indices, so the 49 pair
        # blocks of the 7 excitation manifolds of a lossy two-cavity generator
        # are 7 self-mirrored ones and 21 mirror pairs, and the 28 blocks
        # (a, b) with a <= b certify all of them.  Every manifold but the
        # vacuum loses at least min(kappa, gamma) everywhere, so the
        # field-of-values bound certifies 27 of them; only the vacuum pair
        # gets a values-only SVD, and it leads only to itself, so the null
        # vector is taken from a 1-wide SVD
        p = SystemParams(
            delta=0.2, omega_c=9.0, hopping=0.4, cavity_decay=0.5, atom_decay=0.3,
            n_fock=2, n_cavities=2,
        )
        liouv = standard_liouvillian(p)
        oracle = kron_liouvillian(build_jch(p), decay_channels(p))
        d = p.dims.total_dim
        n = np.rint(np.diag(total_excitation(p.dims).data).real)
        manifolds = [np.flatnonzero(n == k) for k in range(7)]
        for a in manifolds:
            for b in manifolds:
                block = (a[:, None] * d + b).reshape(-1)
                mirror = (a[:, None] + b * d).reshape(-1)  # |j><i| in the order of |i><j|
                assert np.array_equal(oracle[np.ix_(mirror, mirror)],
                                      oracle[np.ix_(block, block)].conj())
        assert np.array_equal(liouv._component, n)  # the manifolds, in order
        floors = _loss_floors(liouv)
        assert floors[0] <= 0 and np.all(floors[1:] > 0.3 - 1e-12)
        calls = svd_calls(monkeypatch)
        assert steady_state(liouv).data[0, 0] == 1.0  # |0,g;0,g> is index 0
        assert calls == [((1, 1, 1), {"compute_uv": False}), ((1, 1), {})]

    @pytest.mark.parametrize("kind", ["driven", "dark"])
    def test_blocks_the_bound_cannot_certify_go_through_the_svds(self, monkeypatch, kind):
        # a drive links every manifold to the next, so a jump stays inside
        # the one component and no block is certified by the bound; with
        # kappa = 0 every manifold up to n_fock holds the lossless |n, g>,
        # so exactly the pairs of two such manifolds get an SVD, while any
        # pair with the overflow |n_fock, e> (loss gamma) is certified
        liouv, _ = svd_routing_generator(kind)
        groups, floors = _groups(liouv._component), _loss_floors(liouv)
        dark = [len(g) for g, f in zip(groups, floors) if f <= ZERO_MODE_TOL]
        if kind == "driven":
            assert len(groups) == 1 and np.all(floors == -np.inf)
        else:
            assert len(dark) == len(groups) - 1 and floors.max() > 0.3 - 1e-12
        calls = svd_calls(monkeypatch)
        steady_state(liouv)
        *certified, _ = calls
        assert all(kw == {"compute_uv": False} for _, kw in certified)
        pairs = [(m, n) for k, m in enumerate(dark) for n in dark[k:]]
        stacked = sum(([shape[1]] * shape[0] for shape, _ in certified), [])
        assert sorted(stacked) == sorted(m * n for m, n in pairs)
        assert len(certified) == len(set(pairs))  # one stacked SVD per block shape

    @pytest.mark.parametrize("kind", ["driven", "dark"])
    def test_svd_routed_generators_match_the_dense_zero_mode(self, kind):
        # where the bound is silent, the SVDs still find the oracle's one
        # null vector
        liouv, oracle = svd_routing_generator(kind)
        _, sv, vh = np.linalg.svd(oracle)
        assert np.count_nonzero(sv < ZERO_MODE_TOL) == 1
        d = liouv.dims.total_dim
        rho = vh[-1].conj().reshape(d, d)
        rho = rho / np.trace(rho)
        reference = Operator(liouv.dims, (rho + rho.conj().T) / 2.0)
        assert trace_distance(steady_state(liouv), reference) < 1e-9

    def test_corrupted_null_vector_is_refused_by_the_residual(self, monkeypatch):
        # a null vector the rank-revealing SVD got wrong (mixed with the next
        # right singular vector) still counts one zero mode, so only the
        # residual on the closure block refuses it
        liouv, _ = svd_routing_generator("driven")
        svd = np.linalg.svd

        def corrupted(a, **kw):
            if not kw.get("compute_uv", True):
                return svd(a, **kw)
            u, sv, vh = svd(a, **kw)
            vh[-1] += 1e-3 * vh[-2]
            return u, sv, vh

        monkeypatch.setattr(np.linalg, "svd", corrupted)
        with pytest.raises(NumericalError, match="residual"):
            steady_state(liouv)

    def test_defective_generator_is_solved_in_any_basis_order(self):
        # resonant atom decay at g = 1, rate 1, no cavity loss: a Jordan
        # block, whose eigenbasis is singular up to a roundoff that depends on
        # the basis order; its kernel is one-dimensional in every order
        p = SystemParams(delta=0.0, omega_c=10.0, atom_decay=1.0, n_fock=2)
        vacuum = pure(p.dims, bare_ket(p.dims, [(0, 0)])).data
        rng = np.random.default_rng(7)
        for _ in range(50):
            order = rng.permutation(p.dims.total_dim)

            def relabel(op):
                return Operator(p.dims, op.data[np.ix_(order, order)])

            liouv = build_liouvillian(relabel(build_jch(p)),
                                      [(relabel(jump), rate) for jump, rate in decay_channels(p)])
            expected = Operator(p.dims, vacuum[np.ix_(order, order)])
            assert trace_distance(steady_state(liouv), expected) < 1e-12

    def test_missing_zero_mode_rejected(self):
        # H_eff - 0.025i shifts the whole generator by -0.05
        p = SystemParams(delta=0.3, omega_c=9.0, cavity_decay=0.4, n_fock=2)
        liouv = standard_liouvillian(p)
        # the vacuum pair then loses 0.05, so the bound certifies every block
        # and the error quotes it, not a singular value
        h_eff = liouv.h_eff - 0.025j * np.eye(p.dims.total_dim)
        with pytest.raises(NumericalError,
                           match=r"smallest certified singular-value bound 5\.000e-02 by field"):
            steady_state(Liouvillian(p.dims, h_eff, liouv.jumps))


class TestPiecewise:
    """A schedule of generators is a chain of evolve calls, each segment
    starting from the last state of the one before on its own clock."""

    def test_semigroup_property(self):
        p = SystemParams(delta=0.4, omega_c=9.0, n_fock=2)
        gen = build_liouvillian(build_jc(p))
        rho0 = pure(p.dims, bare_ket(p.dims, [(1, 0)]))
        first = evolve(gen, rho0, [0.0, 1.3])
        double = evolve(gen, first.state(-1), [1.3, 2.6])
        single = evolve(gen, rho0, [0.0, 2.6])
        assert np.max(np.abs(double.states[-1] - single.states[-1])) < 1e-10

    def test_pulse_then_free_evolution_preserves_branch(self):
        p = SystemParams(delta=0.6, omega_c=9.0, n_fock=3)
        pulse = build_liouvillian(stroboscopic_generator(p, 0))
        km = site_polariton_ket(p.dims, 1, "-", p.g, p.delta)
        flipped = evolve(pulse, pure(p.dims, km), np.linspace(0.0, math.pi / 2, 31))
        free = evolve(
            build_liouvillian(build_jc(p)), flipped.state(-1),
            np.linspace(math.pi / 2, math.pi / 2 + 3.0, 31),
        )
        kp = site_polariton_ket(p.dims, 1, "+", p.g, p.delta)
        pop = np.einsum("a,tab,b->t", kp.conj(), free.states, kp).real
        assert np.max(np.abs(pop - 1.0)) < 1e-10
        assert free.times[0] == pytest.approx(math.pi / 2)

    def test_dimension_mismatch_across_segments(self):
        p = SystemParams(delta=0.4, omega_c=9.0, n_fock=2)
        rho0 = pure(p.dims, bare_ket(p.dims, [(1, 0)]))
        first = evolve(build_liouvillian(build_jc(p)), rho0, [0.0, 1.0])
        other = build_liouvillian(build_jc(SystemParams(n_fock=3)))
        with pytest.raises(DimensionMismatchError):
            evolve(other, first.state(-1), [1.0, 2.0])

    def test_mixed_unitary_and_dissipative_segments(self):
        p = SystemParams(delta=0.4, omega_c=9.0, cavity_decay=0.5, n_fock=2)
        rho0 = pure(p.dims, bare_ket(p.dims, [(1, 0)]))
        unitary = evolve(build_liouvillian(build_jc(p)), rho0, np.linspace(0.0, 0.7, 11))
        lossy = evolve(standard_liouvillian(p), unitary.state(-1), np.linspace(0.7, 2.7, 11))
        assert unitary.trace_drift() < 1e-8
        assert lossy.trace_drift() < 1e-8
        assert np.max(np.abs(lossy.states[0] - unitary.states[-1])) < 1e-10
        # purity holds through the unitary segment and falls in the lossy one
        purity = lambda traj: np.einsum("tij,tji->t", traj.states, traj.states).real
        assert np.max(np.abs(purity(unitary) - 1.0)) < 1e-10
        assert purity(lossy)[-1] < 1.0 - 1e-3

    def test_defective_segment_evolves_without_warning(self):
        # the Jordan-block generator of the defective evolve test, as the
        # second segment after photon loss has mixed the state; it starts
        # from the state it inherits, on its own clock
        p = SystemParams(delta=0.0, omega_c=10.0, atom_decay=4.0, n_fock=2)
        rho0 = pure(p.dims, bare_ket(p.dims, [(2, 0)]))
        loss = evolve(build_liouvillian(zero_hamiltonian(p.dims), [(annihilation_at(p.dims, 0), 0.5)]),
                      rho0, [0.0, 1.0])
        traj = assert_matches_tenth_step(standard_liouvillian(p), loss.state(-1),
                                         np.linspace(1.0, 2.0, 5))
        assert np.max(np.abs(traj.states[0] - loss.states[-1])) < 1e-12
        assert traj.trace_drift() < 1e-12
        assert traj.times[0] == 1.0
