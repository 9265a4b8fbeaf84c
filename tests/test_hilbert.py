import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jchsim import (
    DensityMatrix,
    DimensionMismatchError,
    HilbertDims,
    Ket,
    Operator,
    annihilation_at,
    atomic_lowering,
    bare_ket,
    embed_site,
    excitation_number_at,
    fock_annihilation,
    lowering_at,
    partial_trace,
    product_ket,
)
from jchsim.hilbert import ATOM_E, ATOM_G

from conftest import brute_force_embed, expect_series, random_density_matrix, random_kets


def test_dims_validation():
    with pytest.raises(ValueError):
        HilbertDims(1)
    with pytest.raises(ValueError):
        HilbertDims(3, 3)
    dims = HilbertDims(3, 2)
    assert dims.site_dim == 8
    assert dims.total_dim == 64


def test_annihilation_matrix_elements():
    dims = HilbertDims(2)
    a = fock_annihilation(dims)
    # a|2,g> = sqrt(2)|1,g>
    col = dims.site_index(2, ATOM_G)
    row = dims.site_index(1, ATOM_G)
    assert a.data[row, col] == pytest.approx(np.sqrt(2.0))
    # vacuum annihilated: both atom columns of photon 0
    assert np.all(a.data[:, dims.site_index(0, ATOM_G)] == 0)
    assert np.all(a.data[:, dims.site_index(0, ATOM_E)] == 0)


def test_canonical_commutator_below_cutoff():
    dims = HilbertDims(4)
    a = fock_annihilation(dims)
    comm = (a @ a.dag() - a.dag() @ a).data
    below = dims.site_dim - 2
    assert np.max(np.abs(comm[:below, :below] - np.eye(below))) < 1e-12
    # the defect is confined to the top photon level
    defect = comm - np.eye(dims.site_dim)
    defect[below:, below:] = 0.0
    assert np.max(np.abs(defect)) < 1e-12


def test_atomic_lowering():
    dims = HilbertDims(2)
    sm = atomic_lowering(dims)
    excited = bare_ket(dims, [(1, ATOM_E)])
    lowered = sm.data @ excited.amplitudes
    expected = bare_ket(dims, [(1, ATOM_G)]).amplitudes
    assert np.allclose(lowered, expected)
    # projector onto excited state
    proj = sm.dag() @ sm
    assert proj.data @ excited.amplitudes == pytest.approx(excited.amplitudes)
    # nilpotency and adjoint relation
    assert np.all((sm @ sm).data == 0)
    assert np.allclose(sm.dag().data, sm.data.conj().T)


def test_adjoint_involution_exact():
    dims = HilbertDims(3)
    for op in (fock_annihilation(dims), atomic_lowering(dims)):
        assert np.array_equal(op.dag().dag().data, op.data)


def test_embed_site_against_brute_force():
    dims = HilbertDims(2, 2)
    a = fock_annihilation(dims)
    for site in (0, 1):
        embedded = embed_site(a, site, dims).data
        expected = brute_force_embed(a.data, site, 2)
        assert np.max(np.abs(embedded - expected)) < 1e-14


def test_embedded_sites_commute():
    dims = HilbertDims(2, 2)
    a0 = annihilation_at(dims, 0)
    a1 = annihilation_at(dims, 1)
    assert np.max(np.abs((a0 @ a1 - a1 @ a0).data)) < 1e-12


def test_embed_single_cavity_is_identity_embedding():
    dims = HilbertDims(3, 1)
    a = fock_annihilation(dims)
    assert np.array_equal(embed_site(a, 0, dims).data, a.data)
    with pytest.raises(DimensionMismatchError):
        embed_site(a, 1, dims)


def test_hopping_matrix_element_against_kron_oracle():
    # <0g,1g| a1^dag a0 |1g,0g> realizes the single-photon hop
    dims = HilbertDims(2, 2)
    a = fock_annihilation(dims)
    hop = embed_site(a.dag(), 1, dims) @ embed_site(a, 0, dims)
    oracle = brute_force_embed(a.dag().data, 1, 2) @ brute_force_embed(a.data, 0, 2)
    assert np.max(np.abs(hop.data - oracle)) < 1e-14
    bra = bare_ket(dims, [(0, ATOM_G), (1, ATOM_G)])
    ket = bare_ket(dims, [(1, ATOM_G), (0, ATOM_G)])
    assert bra.amplitudes.conj() @ hop.data @ ket.amplitudes == pytest.approx(1.0)


def test_partial_trace_product_state(rng):
    dims = HilbertDims(2, 2)
    site = dims.site()
    rho_a = random_density_matrix(site.total_dim, rng)
    rho_b = random_density_matrix(site.total_dim, rng)
    joint = DensityMatrix(dims, np.kron(rho_a, rho_b))
    assert np.max(np.abs(partial_trace(joint, 0).data - rho_a)) < 1e-12
    assert np.max(np.abs(partial_trace(joint, 1).data - rho_b)) < 1e-12


def test_partial_trace_entangled_pair():
    dims = HilbertDims(2, 2)
    up = bare_ket(dims, [(0, ATOM_E), (0, ATOM_G)]).amplitudes
    down = bare_ket(dims, [(0, ATOM_G), (0, ATOM_E)]).amplitudes
    bell = Ket(dims, (up + down) / np.sqrt(2.0))
    reduced = partial_trace(bell.density_matrix(), 0)
    evals = np.sort(np.linalg.eigvalsh(reduced.data))[::-1]
    assert evals[0] == pytest.approx(0.5)
    assert evals[1] == pytest.approx(0.5)
    assert np.sum(evals[2:]) == pytest.approx(0.0, abs=1e-12)


def test_partial_trace_properties(rng):
    dims = HilbertDims(2, 2)
    rho = DensityMatrix(dims, random_density_matrix(dims.total_dim, rng))
    for keep in (0, 1):
        reduced = partial_trace(rho, keep)
        assert abs(np.trace(reduced.data) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(reduced.data).min() > -1e-12
    single = HilbertDims(2, 1)
    with pytest.raises(DimensionMismatchError):
        partial_trace(DensityMatrix(single, random_density_matrix(single.total_dim, rng)), 0)


def test_expectation_examples():
    dims = HilbertDims(2)
    vac = bare_ket(dims, [(0, ATOM_G)]).amplitudes
    number = excitation_number_at(dims, 0)
    identity = Operator(dims, np.eye(dims.total_dim, dtype=complex))
    assert expect_series(identity, vac[None])[0] == pytest.approx(1.0)
    assert expect_series(number, vac[None])[0] == pytest.approx(0.0)
    with pytest.raises(DimensionMismatchError):
        expect_series(excitation_number_at(HilbertDims(3), 0), vac[None])


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 2), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_expect_series_kets_match_density_matrices(n_cavities, samples, seed):
    rng = np.random.default_rng(seed)
    dims = HilbertDims(2, n_cavities)
    d = dims.total_dim
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    op = Operator(dims, raw + raw.conj().T)
    kets = random_kets(d, samples, rng)
    rhos = np.einsum("ti,tj->tij", kets, kets.conj())
    direct = np.array([np.vdot(psi, op.data @ psi) for psi in kets])
    assert np.max(np.abs(expect_series(op, kets) - direct)) < 1e-11
    assert np.max(np.abs(np.einsum("ij,tji->t", op.data, rhos) - direct)) < 1e-11


def test_expect_series_rejects_foreign_shapes():
    # density matrices included: a run of them reads Trajectory.expect
    op = excitation_number_at(HilbertDims(2), 0)
    for shape in ((3, 5), (3, 6, 5), (3, 6, 6), (6,), (2, 2, 6, 6)):
        with pytest.raises(DimensionMismatchError):
            expect_series(op, np.zeros(shape, dtype=complex))


def test_ket_and_density_validation():
    dims = HilbertDims(2)
    with pytest.raises(ValueError):
        Ket(dims, np.ones(dims.total_dim, dtype=complex))
    good = bare_ket(dims, [(1, ATOM_G)])
    rho = good.density_matrix()
    rho.validate()
    bad = np.diag(np.linspace(1.0, -0.2, dims.total_dim)).astype(complex)
    bad /= np.trace(bad)
    with pytest.raises(ValueError):
        DensityMatrix(dims, bad).validate()


def test_product_ket_matches_bare():
    dims = HilbertDims(2, 2)
    left = bare_ket(dims.site(), [(1, ATOM_G)])
    right = bare_ket(dims.site(), [(0, ATOM_E)])
    assert np.allclose(
        product_ket(dims, [left, right]).amplitudes,
        bare_ket(dims, [(1, ATOM_G), (0, ATOM_E)]).amplitudes,
    )


CACHED_BUILDERS = [fock_annihilation, atomic_lowering, annihilation_at, lowering_at,
                   excitation_number_at]


@pytest.mark.parametrize("builder", CACHED_BUILDERS, ids=lambda f: f.__name__)
def test_cached_builders_share_one_locked_operator(builder):
    # equal dims give the very same operator, so its data must refuse writes;
    # other dims (and, for the site builders, other sites) give other ones
    op = builder(HilbertDims(3, 2))
    assert builder(HilbertDims(3, 2)) is op
    with pytest.raises(ValueError):
        op.data[0, 0] = 1.0
    other = builder(HilbertDims(2, 2))
    assert other.dims != op.dims and other.data.shape != op.data.shape
    if builder in (fock_annihilation, atomic_lowering):
        return
    assert not np.array_equal(builder(HilbertDims(3, 2), 1).data, op.data)
    for _ in range(2):
        with pytest.raises(DimensionMismatchError):
            builder(HilbertDims(3, 2), 2)
