import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from jchsim import (
    DegenerateSteadyStateError,
    DensityMatrix,
    DimensionMismatchError,
    HilbertDims,
    Ket,
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
from jchsim.lindblad import (
    GRID_UNIFORMITY_TOL,
    ZERO_MODE_TOL,
    LiouvillianModes,
    vectorize,
)

from conftest import random_density_matrix, random_kets


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
        excited = bare_ket(p.dims, [(0, 1)]).density_matrix()
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
        assert np.max(np.abs(d.apply(rho) - direct)) < 1e-13


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
        assert np.max(np.abs(liouv.apply(rho) - direct)) < 1e-12
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
        assert abs(np.trace(liouv.apply(x))) < 1e-10

    def test_undriven_blocks_are_the_coherence_orders(self):
        # each connected component of the nonzero pattern holds one
        # k = N_ket - N_bra, and every k is one component
        p = SystemParams(
            delta=0.3, omega_c=9.0, hopping=0.4, cavity_decay=0.5, atom_decay=0.2,
            n_fock=2, n_cavities=2,
        )
        n = np.rint(np.diag(total_excitation(p.dims).data).real)
        order = (n[:, None] - n[None, :]).reshape(-1)  # row-stacked vec(|i><j|)
        blocks = standard_liouvillian(p)._blocks
        assert all(np.ptp(order[b]) == 0 for b in blocks)
        assert len(blocks) == len(np.unique(order)) == 13
        assert max(len(b) for b in blocks) == 262

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
    """(closed, Liouvillian, cavity-0 lowering operator) of a random closed,
    lossy or driven JC(H) system, in a randomly relabeled basis so that a
    block need not start at its lowest index."""
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

    liouv = build_liouvillian(relabel(h), [(relabel(jump), rate) for jump, rate in channels])
    return kind == "closed", liouv, relabel(annihilation_at(p.dims, 0))


def assert_blocked_modes_match_dense(closed, liouv, a_op):
    """Blocked ``modes()`` against one dense ``np.linalg.eig`` of the generator."""
    w_ref, v_ref = np.linalg.eig(liouv.data)
    try:
        modes = liouv.modes()
    except NumericalError:
        # refused only where the dense eigenbasis is near-singular as well
        assert np.linalg.cond(v_ref) > 1e6
        return
    # both routes lose accuracy in proportion to the conditioning of their
    # eigenbases, which modes() accepts up to EIGENBASIS_COND_LIMIT
    cond = max(np.linalg.cond(modes.right), np.linalg.cond(v_ref))
    tol = 1e-13 * cond * max(1.0, float(np.abs(liouv.data).max()))
    w = modes.eigenvalues
    sorted_error = max(np.abs(np.sort(w.real) - np.sort(w_ref.real)).max(),
                       np.abs(np.sort(w.imag) - np.sort(w_ref.imag)).max())
    nearest_error = np.abs(w[:, None] - w_ref[None, :]).min(axis=1).max()
    rebuild_error = np.abs(modes.right @ np.diag(w) @ modes.right_inv - liouv.data).max()
    assert max(sorted_error, nearest_error, rebuild_error) < tol
    assert np.array_equal(modes.index, np.arange(len(w)))
    if closed:
        unitarity_error = np.abs(modes.right.conj().T @ modes.right - np.eye(len(w))).max()
        assert unitarity_error < 1e-12
        return
    try:
        rho_ss = steady_state(liouv)
    except NumericalError:
        return
    dense = Liouvillian(liouv.dims, liouv.data)
    dense_modes = LiouvillianModes(w_ref, v_ref, np.linalg.inv(v_ref), np.arange(len(w_ref)))
    dense.modes = lambda seed=None: dense_modes
    grid = np.linspace(-15.0, 15.0, 121)
    blocked = absorption_spectrum(liouv, rho_ss, a_op, grid).values
    reference = absorption_spectrum(dense, rho_ss, a_op, grid).values
    assert np.abs(blocked - reference).max() < 1e-12 * cond * max(1.0, np.abs(reference).max())


@settings(deadline=None, max_examples=60)
@given(small_generators(n_cavities=1))
def test_blocked_modes_match_dense_one_cavity(generator):
    assert_blocked_modes_match_dense(*generator)


# a dense eig of the 1296-wide two-cavity generator takes seconds, so a
# failing example is reported as drawn, not shrunk
@settings(deadline=None, max_examples=2, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(small_generators(n_cavities=2))
def test_blocked_modes_match_dense_two_cavities(generator):
    assert_blocked_modes_match_dense(*generator)


@settings(deadline=None, max_examples=60)
@given(small_generators(n_cavities=1))
def test_steady_state_matches_the_dense_zero_mode(generator):
    # wherever one dense eig finds a single zero mode in a well-conditioned
    # eigenbasis, the null space of the blocks holds the same state
    _, liouv, _ = generator
    w, v = np.linalg.eig(liouv.data)
    zero = np.flatnonzero(np.abs(w) < ZERO_MODE_TOL)
    assume(len(zero) == 1 and np.linalg.cond(v) < 1e8)
    d = liouv.dims.total_dim
    rho = v[:, zero[0]].reshape(d, d)
    rho = (rho + rho.conj().T) / 2.0
    reference = DensityMatrix(liouv.dims, rho / np.trace(rho))
    assert trace_distance(steady_state(liouv), reference) < 1e-9


@settings(deadline=None, max_examples=60)
@given(st.one_of(small_generators(n_cavities=1), small_generators(n_cavities=2)))
def test_pair_blocks_are_ordered_by_reach(generator):
    # numbered by reach, the pair blocks partition the superoperator indices
    # and no nonzero entry points from a pair block to one upstream of it, on
    # either side: the generator is block lower triangular
    _, liouv, _ = generator
    label, members, links = liouv._pairs
    n = math.isqrt(len(members))
    assert n * n == len(members)
    assert np.array_equal(np.sort(np.concatenate(members)), np.arange(len(liouv.data)))
    assert all(np.all(label[idx] == q) for q, idx in enumerate(members))
    rows, cols = np.nonzero(liouv.data)
    assert np.all(label[rows] >= label[cols])
    assert np.all(label[rows] // n >= label[cols] // n)
    assert np.all(label[rows] % n >= label[cols] % n)
    assert np.array_equal(np.triu(links), links)


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
    assert np.array_equal(build_liouvillian(h, channels).data, kron_liouvillian(h, channels))


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
def test_seeded_modes_are_blocks_of_the_unseeded_modes(generator, seed):
    # a seed decomposes the closure of its support within the weak blocks it
    # reaches: a set that holds the support and that no nonzero entry leaves,
    # so its eigenpairs rebuild the generator there and are eigenpairs of the
    # unseeded decomposition, which stays block diagonal over the weak blocks;
    # either call may refuse an ill-conditioned eigenbasis (NumericalError),
    # and the seeded one sees a different piece, so it can refuse alone
    _, liouv, _ = generator
    d = liouv.dims.total_dim
    rng = np.random.default_rng(seed)
    support = rng.random((d, d)) < 0.1
    support.flat[rng.integers(d * d)] = True
    try:
        full = Liouvillian(liouv.dims, liouv.data).modes()
        modes = liouv.modes(np.where(support, 1.0 + 0.5j, 0.0))
    except NumericalError:
        return
    index = modes.index
    assert np.array_equal(index, closure_oracle(liouv.data, support.reshape(-1)))
    assert np.isin(np.flatnonzero(support), index).all()
    reached = [b for b in liouv._blocks if support.reshape(-1)[b].any()]
    assert np.isin(index, np.concatenate(reached)).all()
    outside = np.setdiff1d(np.arange(d * d), index)
    assert not liouv.data[np.ix_(outside, index)].any()
    w = modes.eigenvalues
    cond = max(np.linalg.cond(modes.right), np.linalg.cond(full.right))
    tol = 1e-13 * cond * max(1.0, float(np.abs(liouv.data).max()))
    rebuild_error = np.abs(modes.right @ np.diag(w) @ modes.right_inv
                           - liouv.data[np.ix_(index, index)]).max()
    assert rebuild_error < tol
    assert np.abs(w[:, None] - full.eigenvalues[None, :]).min(axis=1).max() < tol
    for block in liouv._blocks:
        assert not full.right[np.ix_(block, np.setdiff1d(np.arange(d * d), block))].any()
    assert np.array_equal(liouv.modes().right, full.right)


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
    assert np.array_equal(modes.index, np.arange(d2))
    assert modes.eigenvalues.shape == (d2,)
    assert modes.right.shape == modes.right_inv.shape == (d2, d2)


@pytest.mark.parametrize("n_cavities", [1, 2])
def test_spectrum_decomposes_the_one_excitation_vacuum_block(n_cavities):
    # linear absorption from the vacuum: a^dag |0><0| reaches only |k><0| for
    # the one-excitation states k, 2 per cavity
    p = SystemParams(delta=0.0, omega_c=100.0, hopping=1.0 if n_cavities == 2 else 0.0,
                     cavity_decay=0.5, atom_decay=0.5, n_fock=2, n_cavities=n_cavities)
    liouv = standard_liouvillian(p)
    rho_ss = steady_state(liouv)
    a_op = annihilation_at(p.dims, 0)
    modes = liouv.modes(a_op.dag().data @ rho_ss.data)
    one = np.flatnonzero(np.rint(np.diag(total_excitation(p.dims).data).real) == 1)
    assert len(one) == 2 * n_cavities
    assert np.array_equal(modes.index, one * p.dims.total_dim)


def test_ill_conditioned_block_is_refused_only_where_reached():
    # data[1, 2] = 1 leads from index 2 to index 1 and not back: the
    # nilpotent pair {1, 2} has no eigenbasis, and only a seed whose closure
    # holds both indices decomposes it
    dims = HilbertDims(2)
    d = dims.total_dim
    data = np.zeros((d * d, d * d), dtype=complex)
    data[1, 2] = 1.0
    defective = Liouvillian(dims, data)

    def seed(k):
        return np.arange(d * d).reshape(d, d) == k

    for k in (0, 1):  # |0><0| and |0><1| reach only themselves
        modes = defective.modes(seed(k))
        assert np.array_equal(modes.index, [k]) and np.array_equal(modes.eigenvalues, [0])
    for matrix in (seed(2), None):
        with pytest.raises(NumericalError, match="ill-conditioned"):
            defective.modes(matrix)
    assert np.array_equal(defective._reached(vectorize(seed(2)))[0], [1, 2])


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
        rho0 = DensityMatrix(dims, random_density_matrix(dims.total_dim, rng))
        traj = evolve(build_liouvillian(zero_hamiltonian(dims)), rho0, np.linspace(0.0, 2.0, 11))
        assert np.max(np.abs(traj.states - rho0.data)) < 1e-12

    def test_vacuum_rabi_period(self):
        # |1,g> <-> |0,e> oscillation with period pi/g at resonance
        p = SystemParams(delta=0.0, omega_c=10.0, n_fock=2)
        liouv = build_liouvillian(build_jc(p), [])
        photon = bare_ket(p.dims, [(1, 0)])
        times = np.linspace(0.0, math.pi, 201)
        traj = evolve(liouv, photon.density_matrix(), times)
        pop = traj.states[:, 2, 2].real  # |1,g> index = 2
        assert pop[0] == pytest.approx(1.0)
        assert pop[100] == pytest.approx(0.0, abs=1e-10)  # half period: fully atomic
        assert pop[-1] == pytest.approx(1.0, abs=1e-10)

    def test_drift_bounds_and_positivity(self):
        p = SystemParams(delta=0.3, omega_c=10.0, cavity_decay=0.4, atom_decay=0.3, n_fock=3)
        liouv = standard_liouvillian(p)
        psi = bare_ket(p.dims, [(2, 1)])
        traj = evolve(liouv, psi.density_matrix(), np.linspace(0.0, 10.0, 101))
        assert traj.trace_drift() < 1e-8
        assert_exactly_hermitian(traj.states)
        assert traj.min_eigenvalue() > -1e-7

    def test_spectral_matches_fixed_step(self):
        p = SystemParams(delta=0.3, omega_c=10.0, cavity_decay=0.4, n_fock=2)
        liouv = standard_liouvillian(p)
        rho0 = bare_ket(p.dims, [(1, 1)]).density_matrix()
        assert_exact_propagation(liouv, rho0, np.linspace(0.0, 1.0, 11))

    def test_spectral_matches_fixed_step_strong_drive(self):
        # the stiffest configuration in use: strong far-detuned drive with loss
        p = SystemParams(
            delta=0.0, omega_c=1e4, atom_drive=50.0, atom_drive_detuning=500.0,
            cavity_drive_detuning=500.0, cavity_decay=0.1, n_fock=4,
        )
        liouv = build_liouvillian(build_driven(p), decay_channels(p))
        rho0 = site_polariton_ket(p.dims, 1, "-", p.g, p.delta).density_matrix()
        assert_exact_propagation(liouv, rho0, np.linspace(0.0, 0.5, 6))

    def test_non_uniform_grid_is_refused(self):
        # one propagator step serves the whole grid, so a grid whose points
        # stray from uniform by more than GRID_UNIFORMITY_TOL of its step is
        # refused, not resampled; a stray below the tolerance is ignored
        dims = HilbertDims(2)
        liouv = build_liouvillian(zero_hamiltonian(dims), [(annihilation_at(dims, 0), 0.5)])
        rho0 = bare_ket(dims, [(1, 0)]).density_matrix()
        times = np.linspace(1.0, 2.0, 11)  # step 0.1
        nudged, strayed = times.copy(), times.copy()
        nudged[4] += 0.1 * GRID_UNIFORMITY_TOL / 10
        strayed[4] += 0.1 * GRID_UNIFORMITY_TOL * 10
        assert np.array_equal(evolve(liouv, rho0, nudged).states, evolve(liouv, rho0, times).states)
        for bad in ([0.0, 0.5, 1.5], np.geomspace(1.0, 2.0, 11), strayed):
            with pytest.raises(ValueError, match="uniform"):
                evolve(liouv, rho0, bad)

    def test_grid_validation(self):
        dims = HilbertDims(2)
        rho0 = bare_ket(dims, [(0, 0)]).density_matrix()
        with pytest.raises(ValueError):
            evolve(build_liouvillian(zero_hamiltonian(dims)), rho0, [0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            evolve(build_liouvillian(zero_hamiltonian(dims)), rho0, [0.0])

    def test_invalid_initial_state_rejected(self):
        dims = HilbertDims(2)
        bad = np.eye(dims.total_dim, dtype=complex)  # trace != 1
        with pytest.raises(ValueError):
            evolve(build_liouvillian(zero_hamiltonian(dims)), DensityMatrix(dims, bad), [0.0, 1.0])

    def test_defective_generator_evolves_without_warning(self):
        # a nilpotent Jordan block has no eigenbasis, which the propagator
        # does not need: it evolves without a warning and agrees with a run
        # at a tenth of the step
        dims = HilbertDims(2)
        d2 = dims.total_dim**2
        data = np.zeros((d2, d2), dtype=complex)
        data[1, 2] = 1.0  # couples two coherences, leaves trace and diagonal alone
        defective = Liouvillian(dims, data)
        with pytest.raises(NumericalError):
            defective.modes()
        rho0 = bare_ket(dims, [(1, 0)]).density_matrix()
        traj = assert_matches_tenth_step(defective, rho0, np.linspace(0.0, 1.0, 5))
        assert np.max(np.abs(traj.states - rho0.data)) < 1e-12

    def test_generator_that_breaks_hermiticity_is_refused(self):
        # the nilpotent generator maps |0><2| to |0><1| but not |2><0| to
        # |1><0|: its real form is complex once the state has the coherence
        # it moves, and evolve refuses it rather than drop the imaginary part
        dims = HilbertDims(2)
        d2 = dims.total_dim**2
        data = np.zeros((d2, d2), dtype=complex)
        data[1, 2] = 1.0
        amps = np.zeros(dims.total_dim, dtype=complex)
        amps[[0, 2]] = 1 / math.sqrt(2)
        with pytest.raises(NumericalError, match="Hermitian"):
            evolve(Liouvillian(dims, data), Ket(dims, amps).density_matrix(), [0.0, 1.0])

    def test_physical_defective_generator_evolves_without_warning(self):
        # resonant atom decay at g = 1, rate 1, no cavity loss: a Jordan block
        # in a coherence block, whose eigenbasis is singular up to roundoff
        p = SystemParams(delta=0.0, omega_c=10.0, atom_decay=1.0, n_fock=2)
        amps = np.zeros(p.dims.total_dim, dtype=complex)
        amps[[1, 2]] = 1 / math.sqrt(2)  # |0,e> + |1,g>, so every block is reached
        rho0 = Ket(p.dims, amps).density_matrix()
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
    rho0 = DensityMatrix(dims, np.einsum("k,ki,kj->ij", weights, kets, kets.conj()))
    times = rng.uniform(0.0, 3.0) + np.linspace(0.0, rng.uniform(0.1, 3.0), 6)
    mixture = 0.0
    for weight, ket in zip(weights, kets):
        amps = evolve_closed(h, Ket(dims, ket), times)
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
    _, liouv, _ = generator
    rng = np.random.default_rng(seed)
    rho0 = DensityMatrix(liouv.dims, random_density_matrix(liouv.dims.total_dim, rng))
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
    _, liouv, _ = generator
    d = liouv.dims.total_dim
    rng = np.random.default_rng(seed)
    rho0 = DensityMatrix(liouv.dims, random_density_matrix(d, rng))
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
    _, liouv, _ = generator
    d = liouv.dims.total_dim
    rng = np.random.default_rng(seed)
    part = rng.random(d) < 0.3
    part[rng.integers(d)] = True
    amps = np.where(part, rng.standard_normal(d) + 1j * rng.standard_normal(d), 0)
    rho0 = Ket(liouv.dims, amps / np.linalg.norm(amps)).density_matrix()
    times = np.linspace(0.0, rng.uniform(0.1, 3.0), 7)
    states = evolve(liouv, rho0, times).states.reshape(len(times), -1)
    outside = np.setdiff1d(np.arange(d * d), closure_oracle(liouv.data, vectorize(rho0.data) != 0))
    assert not states[:, outside].any()
    assume(np.linalg.cond(np.linalg.eig(liouv.data)[1]) < 1e3)
    reference = spectral_states(liouv, rho0, times).reshape(len(times), -1)
    assert np.abs(states - reference).max() < 1e-12


def test_selfcheck_decay_run_reaches_three_population_blocks():
    # selfcheck's |2,g> run under loss reaches 9 of the 14 indices of its
    # weak block: the populations of manifolds 2, 1 and 0
    p = SystemParams(delta=0.4, omega_c=50.0, cavity_decay=0.3, atom_decay=0.2, n_fock=3)
    liouv = standard_liouvillian(p)
    vec = vectorize(bare_ket(p.dims, [(2, 0)]).density_matrix().data)
    index, pieces = liouv._reached(vec)
    assert len(index) == 9 and [len(b) for b in liouv._blocks if np.isin(b, index).any()] == [14]
    assert len(pieces) == 1 and np.array_equal(pieces[0], index)


def test_hamiltonian_takes_no_fixed_step_method():
    # neither propagator has a method switch: evolve_closed works in the
    # eigenbasis of H, and evolve at half the step agrees with it
    p = SystemParams(delta=0.4, omega_c=9.0, n_fock=2)
    h = build_jc(p)
    psi = bare_ket(p.dims, [(1, 0)])
    times = np.linspace(0.0, 1.0, 5)
    for propagate, state in ((evolve_closed, psi), (evolve, psi.density_matrix())):
        assert "method" not in inspect.signature(propagate).parameters
        generator = h if propagate is evolve_closed else build_liouvillian(h)
        with pytest.raises(TypeError):
            propagate(generator, state, times, method="rk4")
    amps = evolve_closed(h, psi, times)
    halved = evolve(build_liouvillian(h), psi.density_matrix(), np.linspace(0.0, 1.0, 9))
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
    # 3.6e-14 (entries of H of order 1, t <= 10), so 1e-12 leaves a margin of 28
    dims, h, amps, reach = generator
    times = np.linspace(0.0, t_max, 7)
    block = evolve_closed(Operator(dims, h), Ket(dims, amps), times)
    energies, vectors = np.linalg.eigh(h)
    dense = (np.exp(-1j * np.outer(times, energies)) * (vectors.conj().T @ amps)) @ vectors.T
    assert np.abs(block - dense).max() < 1e-12
    assert np.all(block[:, ~reach] == 0)


class TestSteadyState:
    def test_undriven_decay_reaches_vacuum(self):
        p = SystemParams(delta=0.4, omega_c=9.0, cavity_decay=0.5, atom_decay=0.3, n_fock=3)
        rho_ss = steady_state(standard_liouvillian(p))
        expected = bare_ket(p.dims, [(0, 0)]).density_matrix()
        assert trace_distance(rho_ss, expected) < 1e-10

    def test_two_cavity_vacuum_and_long_time_oracle(self):
        p = SystemParams(
            delta=0.2, omega_c=9.0, hopping=0.4, cavity_decay=0.5, atom_decay=0.5,
            n_fock=2, n_cavities=2,
        )
        liouv = standard_liouvillian(p)
        rho_ss = steady_state(liouv)
        vacuum = bare_ket(p.dims, [(0, 0), (0, 0)]).density_matrix()
        assert trace_distance(rho_ss, vacuum) < 1e-9
        # long-time evolution oracle from an excited product state
        psi = bare_ket(p.dims, [(1, 0), (0, 1)])
        traj = evolve(liouv, psi.density_matrix(), np.array([0.0, 60.0]))
        assert trace_distance(traj.state(-1), rho_ss) < 1e-8

    def test_degenerate_zero_space_rejected(self):
        p = SystemParams(delta=0.3, omega_c=9.0, n_fock=2)
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(build_liouvillian(build_jc(p), []))

    def test_zero_mode_outside_the_population_blocks_is_found(self, monkeypatch):
        # shifting one coherence block (k != 0) by minus one of its
        # eigenvalues keeps the block pattern and gives that block a zero
        # mode, which vec(I) never reaches; the SVD of that block counts it,
        # with no eigenvalue computed
        p = SystemParams(delta=0.3, omega_c=9.0, cavity_decay=0.4, atom_decay=0.2, n_fock=2)
        liouv = standard_liouvillian(p)
        d = p.dims.total_dim
        populations = np.arange(d) * (d + 1)
        blocks = liouv._blocks
        target = next(b for b in blocks if not np.isin(b, populations).any())
        data = liouv.data.copy()
        data[target, target] -= np.linalg.eigvals(liouv.data[np.ix_(target, target)])[0]
        shifted = Liouvillian(liouv.dims, data)
        assert [len(b) for b in shifted._blocks] == [len(b) for b in blocks]
        calls = []
        for name in ("eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, lambda *a, name=name, **kw: calls.append(name))
        steady_state(liouv)
        with pytest.raises(DegenerateSteadyStateError, match="dimension 2"):
            steady_state(shifted)
        assert calls == []

    def test_each_block_is_certified_directly_or_through_its_mirror(self, monkeypatch):
        # L[rho^dag] = L[rho]^dag makes pair block (b, a) the complex
        # conjugate of (a, b) on the transposed indices, so the 49 pair blocks
        # of a lossy two-cavity generator are 7 self-mirrored ones and 21
        # mirror pairs; every one of them is certified by a values-only SVD,
        # one batched call per block size.  The one singular block is the
        # vacuum, whose closure is itself, so the null vector is taken from a
        # 1-wide SVD.  A coherence pair block shifted by minus one of its
        # eigenvalues is found singular as well, and its zero mode counted
        p = SystemParams(
            delta=0.2, omega_c=9.0, hopping=0.4, cavity_decay=0.5, atom_decay=0.3,
            n_fock=2, n_cavities=2,
        )
        liouv = standard_liouvillian(p)
        d = p.dims.total_dim
        label, members, _ = liouv._pairs
        mirrored = 0
        for idx in members:
            mirror = idx % d * d + idx // d
            assert np.array_equal(np.sort(mirror), members[label[mirror[0]]])
            assert np.array_equal(liouv.data[np.ix_(mirror, mirror)],
                                  liouv.data[np.ix_(idx, idx)].conj())
            mirrored += np.array_equal(np.sort(mirror), idx)
        assert (len(members), mirrored) == (49, 7)
        sizes = sorted(len(idx) for idx in members)
        svd = np.linalg.svd
        calls = []
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, **kw: calls.append((a.shape, kw)) or svd(a, **kw))
        steady_state(liouv)
        *certified, (null_shape, null_kw) = calls
        assert all(kw == {"compute_uv": False} for _, kw in certified)
        assert sorted(sum(([shape[1]] * shape[0] for shape, _ in certified), [])) == sizes
        assert len(certified) == len(set(sizes))
        assert null_shape == (1, 1) and null_kw == {}
        vacuum = label[0]  # |0><0| is index 0
        assert np.array_equal(members[vacuum], [0])
        populations = np.arange(d) * (d + 1)
        target = next(idx for idx in members if not np.isin(idx, populations).any()
                      and 0 not in liouv._reached(np.isin(np.arange(d * d), idx))[0])
        data = liouv.data.copy()
        data[target, target] -= np.linalg.eigvals(liouv.data[np.ix_(target, target)])[0]
        with pytest.raises(DegenerateSteadyStateError, match="dimension 2"):
            steady_state(Liouvillian(liouv.dims, data))

    def test_defective_generator_is_solved_in_any_basis_order(self):
        # resonant atom decay at g = 1, rate 1, no cavity loss: a Jordan
        # block, whose eigenbasis is singular up to a roundoff that depends on
        # the basis order; its kernel is one-dimensional in every order
        p = SystemParams(delta=0.0, omega_c=10.0, atom_decay=1.0, n_fock=2)
        vacuum = bare_ket(p.dims, [(0, 0)]).density_matrix().data
        rng = np.random.default_rng(7)
        for _ in range(50):
            order = rng.permutation(p.dims.total_dim)

            def relabel(op):
                return Operator(p.dims, op.data[np.ix_(order, order)])

            liouv = build_liouvillian(relabel(build_jch(p)),
                                      [(relabel(jump), rate) for jump, rate in decay_channels(p)])
            expected = DensityMatrix(p.dims, vacuum[np.ix_(order, order)])
            assert trace_distance(steady_state(liouv), expected) < 1e-12

    def test_missing_zero_mode_rejected(self):
        p = SystemParams(delta=0.3, omega_c=9.0, cavity_decay=0.4, n_fock=2)
        liouv = standard_liouvillian(p)
        shifted = Liouvillian(liouv.dims, liouv.data - 0.05 * np.eye(liouv.data.shape[0]))
        with pytest.raises(NumericalError):
            steady_state(shifted)


class TestPiecewise:
    """A schedule of generators is a chain of evolve calls, each segment
    starting from the last state of the one before on its own clock."""

    def test_semigroup_property(self):
        p = SystemParams(delta=0.4, omega_c=9.0, n_fock=2)
        gen = build_liouvillian(build_jc(p))
        rho0 = bare_ket(p.dims, [(1, 0)]).density_matrix()
        first = evolve(gen, rho0, [0.0, 1.3])
        double = evolve(gen, first.state(-1), [1.3, 2.6])
        single = evolve(gen, rho0, [0.0, 2.6])
        assert np.max(np.abs(double.states[-1] - single.states[-1])) < 1e-10

    def test_pulse_then_free_evolution_preserves_branch(self):
        p = SystemParams(delta=0.6, omega_c=9.0, n_fock=3)
        pulse = build_liouvillian(stroboscopic_generator(p, 0))
        km = site_polariton_ket(p.dims, 1, "-", p.g, p.delta)
        flipped = evolve(pulse, km.density_matrix(), np.linspace(0.0, math.pi / 2, 31))
        free = evolve(
            build_liouvillian(build_jc(p)), flipped.state(-1),
            np.linspace(math.pi / 2, math.pi / 2 + 3.0, 31),
        )
        kp = site_polariton_ket(p.dims, 1, "+", p.g, p.delta).amplitudes
        pop = np.einsum("a,tab,b->t", kp.conj(), free.states, kp).real
        assert np.max(np.abs(pop - 1.0)) < 1e-10
        assert free.times[0] == pytest.approx(math.pi / 2)

    def test_dimension_mismatch_across_segments(self):
        p = SystemParams(delta=0.4, omega_c=9.0, n_fock=2)
        rho0 = bare_ket(p.dims, [(1, 0)]).density_matrix()
        first = evolve(build_liouvillian(build_jc(p)), rho0, [0.0, 1.0])
        other = build_liouvillian(build_jc(SystemParams(n_fock=3)))
        with pytest.raises(DimensionMismatchError):
            evolve(other, first.state(-1), [1.0, 2.0])

    def test_mixed_unitary_and_dissipative_segments(self):
        p = SystemParams(delta=0.4, omega_c=9.0, cavity_decay=0.5, n_fock=2)
        rho0 = bare_ket(p.dims, [(1, 0)]).density_matrix()
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
        # the nilpotent generator of the defective evolve test, as the second
        # segment after photon loss has mixed the state; it moves only
        # coherences, so the diagonal state it inherits stays put
        dims = HilbertDims(2)
        d2 = dims.total_dim**2
        data = np.zeros((d2, d2), dtype=complex)
        data[1, 2] = 1.0
        rho0 = bare_ket(dims, [(2, 0)]).density_matrix()
        loss = evolve(build_liouvillian(zero_hamiltonian(dims), [(annihilation_at(dims, 0), 0.5)]),
                      rho0, [0.0, 1.0])
        traj = assert_matches_tenth_step(Liouvillian(dims, data), loss.state(-1),
                                         np.linspace(1.0, 2.0, 5))
        assert np.max(np.abs(traj.states - loss.states[-1])) < 1e-12
        assert traj.times[0] == 1.0
