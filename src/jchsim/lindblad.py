"""Lindblad master-equation engine on the Hilbert sectors a state reaches.

Vectorization convention (fixed package-wide): matrices are stacked row by
row, ``vec(rho) = rho.reshape(-1)``, so ``vec(A rho B) = (A kron B^T) vec(rho)``.
:func:`build_liouvillian` is the one place a generator is made, kept as the
no-jump Hamiltonian H_eff (Dalibard, Castin & Molmer, PRL 68, 580 (1992)) and
the jumps, D x D each, and formed by the Kronecker formula only on the indices
a use reaches.  H_eff links Hilbert indices both ways and each jump links them
forward; no entry of the generator leaves S x S for a set S that no link
leaves, nor a weak piece of it, a symmetry sector (Buca & Prosen, New J. Phys.
14, 073007 (2012); Albert & Jiang, PRA 89, 022118 (2014)).  The resolvent of
a spectrum from a^dag |0><0| is solved on |k><0|, k one excitation, at any
photon cutoff.
:func:`steady_state` needs no eigenbasis: a pair block whose field of values
lies at real part <= -(Gamma_a + Gamma_b) / 2, the smallest loss rates of its
two components, is nonsingular by that bound alone (Horn & Johnson, Topics in
Matrix Analysis, ch. 1), values-only SVDs of the other pair blocks find the
singular ones, and the rank-revealing SVD of the generator on what they reach
gives the dimension of the kernel and its null vector (Golub & Van Loan,
Matrix Computations, 4th ed., secs. 2.4 and 5.4).

Each generator type has one propagator, on a grid off uniform by at most
``GRID_UNIFORMITY_TOL`` of its step dt.  :func:`evolve` steps a density matrix
by the exact P = exp(L dt) on the sector the initial state reaches, formed by
scaling and squaring in real coordinates on a Hermitian basis, where the
generator is a real matrix (Alicki & Lendi, Lect. Notes Phys. 286 (1987)), and
keeps P's binary powers to P^(w/2), w ~ sqrt T, and the rows P^(wq) x0 (:class:`Trajectory`);
:func:`evolve_closed` rotates a ket in the eigenbasis of the Hamiltonian block
its support reaches, the T phases exp(-i E n dt) of each level the products of
two tables of ceil(sqrt T) powers, within 8 eps (1 + max|E| t) of exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations_with_replacement

import numpy as np

from .errors import DegenerateSteadyStateError, DimensionMismatchError, NumericalError
from .hamiltonians import SystemParams, build_jch, decay_channels
from .hilbert import HilbertDims, Operator

ZERO_MODE_TOL = 1e-8
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-8
POSITIVITY_TOL = -1e-8
NORM_TOL = 1e-10
TRACE_DRIFT_TOL = 1e-8
EIGENBASIS_COND_LIMIT = 1e12
GRID_UNIFORMITY_TOL = 1e-9


def vectorize(mat: np.ndarray) -> np.ndarray:
    return np.asarray(mat, dtype=complex).reshape(-1)


@dataclass
class LiouvillianModes:
    """Spectral decomposition L = V diag(w) V^{-1} of the whole Liouvillian."""

    eigenvalues: np.ndarray
    right: np.ndarray
    right_inv: np.ndarray


@dataclass
class Liouvillian:
    """Lindblad generator held as D x D arrays, the no-jump Hamiltonian ``h_eff``
    and the (jump, rate) pairs ``jumps`` of nonzero rate, and formed only on the
    superoperator indices that a use reaches (:meth:`_block`); :attr:`data`,
    the whole of it, is assembled on first read."""

    dims: HilbertDims
    h_eff: np.ndarray
    jumps: tuple

    def _block(self, index: np.ndarray) -> np.ndarray:
        """The generator on the sorted superoperator indices ``index`` (a stack
        of them gives a stack), the principal submatrix of the whole: the entry
        from |k><l| to |i><j| of -i (H_eff kron I - I kron H_eff^*)
        + sum_c rate_c L_c kron L_c^*, entry by entry the same products."""
        d = self.dims.total_dim
        (i, j), (k, l) = np.divmod(index[..., :, None], d), np.divmod(index[..., None, :], d)
        ik, jl = i * d + k, j * d + l  # flat positions in a D x D array
        out = -1j * (self.h_eff.take(ik) * (j == l) - (i == k) * self.h_eff.take(jl).conj())
        for jump, rate in self.jumps:
            out += rate * (jump.take(ik) * jump.take(jl).conj())
        return out

    @cached_property
    def data(self) -> np.ndarray:
        """The dense D^2 x D^2 generator acting on row-stacked density matrices."""
        return self._block(np.arange(self.dims.total_dim**2))

    @cached_property
    def _reach(self) -> np.ndarray:
        """reach[k, k'] when Hilbert index k leads to k' on the graph in which
        H_eff links indices both ways and each jump links them forward.  No
        entry of the generator leaves a product of sets that no link leaves."""
        linked = (self.h_eff != 0) | (self.h_eff != 0).T
        for jump, _ in self.jumps:
            linked |= (jump != 0).T
        return _transitive(linked)

    def _closure(self, seed: np.ndarray) -> np.ndarray:
        """Sorted superoperator indices of S x S, S the Hilbert sector that the
        rows and columns of the superoperator mask ``seed`` reach, in the weak
        pieces that ``seed`` meets: a set that no entry leaves and that holds
        everything ``seed`` leads to.  Its rows and columns are read off a mask,
        as ``np.union1d`` would import ``numpy.ma`` on first use."""
        d = self.dims.total_dim
        mask = seed.reshape(d, d)
        ends = np.flatnonzero(mask.any(axis=1) | mask.any(axis=0))  # its rows and columns
        sector = np.flatnonzero(self._reach[ends].any(axis=0))
        square = (sector[:, None] * d + sector).reshape(-1)
        return square[np.isin(self._piece[square], self._piece[seed])]

    @cached_property
    def _component(self) -> np.ndarray:
        """Label of the strongly connected component of the reach that holds
        each Hilbert index (without drive, its excitation manifold).  H_eff
        links nothing across components; only jumps lead from one to another."""
        reach = self._reach
        return np.unique((reach & reach.T).argmax(axis=1), return_inverse=True)[1]

    @cached_property
    def _piece(self) -> np.ndarray:
        """Label of the weakly connected piece of the generator that holds each
        superoperator index (without drive, its coherence order), found on the
        graph of component pairs (a, b): a jump that leads from a to a' and
        from b to b' links (a, b) to (a', b')."""
        label, c = self._component, self._component.max() + 1
        links = np.zeros((c * c, c * c), dtype=bool)
        for jump, _ in self.jumps:
            hop = np.zeros((c, c), dtype=bool)  # [from, to]
            to, frm = np.nonzero(jump)
            hop[label[frm], label[to]] = True
            links |= np.kron(hop, hop)
        return _transitive(links | links.T).argmax(axis=1)[(label[:, None] * c + label).reshape(-1)]

    def modes(self) -> LiouvillianModes:
        """Eigen-decomposition of the whole generator, one weak piece
        (:attr:`_piece`) at a time.  A closed, anti-Hermitian piece goes through
        ``eigh``, so its eigenbasis stays unitary at degenerate eigenvalues; the
        condition number is that of the block-diagonal eigenbasis of the pieces.
        Only selfcheck reads it; a spectrum solves the resolvent instead."""
        n = self.dims.total_dim**2
        w = np.empty(n, dtype=complex)
        v, v_inv = np.zeros((2, n, n), dtype=complex)
        s_max, s_min = 0.0, np.inf
        for pos in _groups(self._piece):
            block = self._block(pos)
            if np.array_equal(block, -block.conj().T):
                lam, vb = np.linalg.eigh(1j * block)
                wb = -1j * lam
            else:
                wb, vb = np.linalg.eig(block)
            sv = np.linalg.svd(vb, compute_uv=False)
            s_max, s_min = max(s_max, sv[0]), min(s_min, sv[-1])
            cond = s_max / s_min if s_min > 0 else np.inf
            if not np.isfinite(cond) or cond > EIGENBASIS_COND_LIMIT:
                raise NumericalError(f"Liouvillian eigenbasis is ill-conditioned (cond {cond:.2e})")
            w[pos] = wb
            v[np.ix_(pos, pos)] = vb
            v_inv[np.ix_(pos, pos)] = np.linalg.inv(vb)
        return LiouvillianModes(w, v, v_inv)


def _groups(key: np.ndarray) -> list:
    """Sorted index arrays of the equal entries of the integer array ``key``,
    in increasing order of their value."""
    order = np.argsort(key, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(key[order])) + 1)


def _transitive(linked: np.ndarray) -> np.ndarray:
    """Reflexive transitive closure of a square boolean adjacency, by squaring
    (in floating point, which BLAS multiplies)."""
    reach = linked | np.eye(len(linked), dtype=bool)
    while True:
        wider = np.matmul(reach, reach, dtype=float) > 0
        if np.array_equal(wider, reach):
            return reach
        reach = wider


def _reachable(rows: np.ndarray, cols: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Mask of what the ``seed`` mask reaches along the links cols[e] -> rows[e],
    one step of every link at a time."""
    reached = seed
    while True:
        grown = reached.copy()
        grown[rows[reached[cols]]] = True
        if np.array_equal(grown, reached):
            return reached
        reached = grown


def build_liouvillian(h: Operator, channels=()) -> Liouvillian:
    """Generator -i (H_eff kron I - I kron H_eff^*) + sum_k rate_k L_k kron L_k^* of
    the (jump, rate) channels, H_eff = H - (i/2) sum_k rate_k L_k^dag L_k.  With no
    channels H_eff is H, so the generator is exactly anti-Hermitian."""
    h_eff = h.data
    for jump, rate in channels:
        if jump.dims != h.dims:
            raise DimensionMismatchError("channel dims differ from Hamiltonian dims")
        if rate < 0:
            raise ValueError("dissipation rate must be non-negative")
        h_eff = h_eff - 0.5j * rate * (jump.data.conj().T @ jump.data)
    return Liouvillian(h.dims, h_eff, tuple((jump.data, rate) for jump, rate in channels if rate))


def standard_liouvillian(params: SystemParams) -> Liouvillian:
    """Generator of the lossy JC(-Hubbard) lattice with per-site decay."""
    return build_liouvillian(build_jch(params), decay_channels(params))


def _hermitian_frame(d: int) -> tuple:
    """(mirror, alpha): the unitary T maps vec(rho) to coordinates on |k><k|,
    (|i><j| + |j><i|)/sqrt2 and i(|i><j| - |j><i|)/sqrt2 (i < j), kept at (k, k),
    (i, j) and (j, i); row n holds alpha[n] and conj(alpha[n]) at columns n and
    mirror[n], the index of (j, i) for n = (i, j)."""
    i, j = np.divmod(np.arange(d * d), d)
    return j * d + i, np.select([i < j, i > j], [np.sqrt(0.5), 1j * np.sqrt(0.5)], 0.5)


@dataclass
class Trajectory:
    """Density-matrix run of :func:`evolve` as tables on the m indices ``index`` (the closure
    of vec(rho0)) in :func:`_hermitian_frame`, exactly 0 elsewhere: ``powers`` P = exp(L dt) to
    P^(w/2), w = 2^len(powers) >= sqrt T, and ``giant`` P^(wq) x0, q < ceil(T / w).  A reading
    u . x_n, n = q w + s, is (u P^s) . giant[q] (Paterson & Stockmeyer, SIAM J. Comput. 2, 60
    (1973)): (T + w m) m per observable, not T m^2.  A ket run is :func:`evolve_closed`'s array."""

    dims: HilbertDims
    times: np.ndarray
    index: np.ndarray
    frame: tuple  # alpha and the mirror's position of :func:`_hermitian_frame` on ``index``
    powers: list
    giant: np.ndarray

    def _read(self, rows: np.ndarray) -> np.ndarray:
        """(T, k) readings u . x_n of the stacked rows u (k, m): (u P^s) . giant[q], by doubling."""
        baby = _doubling([p.T for p in self.powers], rows, 2 ** len(self.powers))
        out = self.giant @ baby.reshape(-1, len(self.index)).T  # (G, w k)
        return out.reshape(-1, len(rows))[: len(self.times)]

    def _matrices(self, coords: np.ndarray) -> np.ndarray:
        """(k, D, D) matrices T^dag coords of samples (k, m), Hermitian to the last bit."""
        d, (a, m) = self.dims.total_dim, self.frame
        flat = np.zeros((len(coords), d * d), dtype=complex)
        flat[:, self.index] = coords * a.conj() + coords[:, m] * a[m]
        return flat.reshape(len(coords), d, d)

    @property
    def states(self) -> np.ndarray:
        """(T, D, D) density matrices, the giant rows stepped by doubling."""
        coords = _doubling(self.powers, self.giant, 2 ** len(self.powers)).swapaxes(0, 1)
        return self._matrices(coords.reshape(-1, len(self.index))[: len(self.times)])

    def state(self, i: int) -> Operator:
        """Density matrix of sample i = q w + s: giant[q] times the binary powers of P in s."""
        q, s = divmod(range(len(self.times))[i], 2 ** len(self.powers))
        powers = (p for k, p in enumerate(self.powers) if s >> k & 1)
        x = reduce(lambda x, p: p @ x, powers, self.giant[q])
        return Operator(self.dims, self._matrices(x[None])[0])

    def expect(self, op: Operator) -> np.ndarray:
        """Tr(op rho(t)) as real dot products: conj(T) vec(op^T) is real for
        the Hermitian part of op and imaginary for the rest."""
        a = self.frame[0]
        u = a.conj() * vectorize(op.data.T)[self.index] + a * vectorize(op.data)[self.index]
        parts = self._read(np.stack([u.real, u.imag]))
        return parts[:, 0] + 1j * parts[:, 1]

    def trace_drift(self) -> float:
        """Largest |Tr rho - 1| over every sample, read off the populations."""
        diagonal = (self.index % (self.dims.total_dim + 1) == 0).astype(float)
        return float(np.max(np.abs(self._read(diagonal[None])[:, 0] - 1)))

    def min_eigenvalue(self) -> float:
        """Most negative snapshot eigenvalue (complete-positivity proxy)."""
        return float(np.linalg.eigvalsh(self.states).min())


def _check_grid(times: np.ndarray) -> np.ndarray:
    """Steps dt > 0 of grids ``times`` (K, T), none off t0 + n dt by over GRID_UNIFORMITY_TOL dt."""
    if times.ndim != 2 or times.shape[1] < 2:
        raise ValueError("time grid must be a 1d array with at least two points")
    step = (times[:, -1] - times[:, 0]) / (times.shape[1] - 1)
    stray = np.abs(times - times[:, :1] - step[:, None] * np.arange(times.shape[1])).max(axis=1)
    if not np.all(step > 0):
        raise ValueError(f"time grid must increase uniformly; its step is {step.min():.3g}")
    if not np.all(stray <= GRID_UNIFORMITY_TOL * step):
        raise ValueError(f"time grid is not uniform within {GRID_UNIFORMITY_TOL:.0e} of its step")
    return step


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179
    (2005)): the degree-14 Taylor sum of a / 2^s, |a / 2^s|_1 <= 1/2, is off by
    less than 2^-15 e^(1/2) / 15! < 4e-17, and is then squared s times."""
    squarings = int(np.ceil(np.log2(max(2.0 * np.abs(a).sum(axis=0).max(), 1.0))))
    x = a / 2.0**squarings
    out = eye = np.eye(len(a), dtype=a.dtype)
    for k in range(14, 0, -1):  # Horner's rule
        out = eye + (x @ out) / k
    for _ in range(squarings):
        out = out @ out
    return out


def _doubling(powers: list, x0: np.ndarray, count: int) -> np.ndarray:
    """Rows x0 (P^T)^n (count, k, m) for n < count of the stacked rows x0 (k, m),
    ``powers`` the binary powers P, P^2, P^4, ...: rows [n, 2n) are rows [0, n)
    times (P^n)^T, so about log2(count) matrix products."""
    out = np.empty((count * len(x0), x0.shape[1]), dtype=x0.dtype)
    out[: len(x0)], filled = x0, len(x0)
    for power in powers:
        if filled == len(out):
            break
        fill = min(filled, len(out) - filled)
        np.matmul(out[:fill], power.T, out=out[filled:filled + fill])
        filled += fill
    return out.reshape(count, *x0.shape)


def evolve(liouv: Liouvillian, rho0: Operator, t_grid) -> Trajectory:
    """Propagate the density matrix ``rho0``, refused unless Hermitian, of unit trace and
    positive (``HERMITICITY_TOL``, ``TRACE_TOL``, ``POSITIVITY_TOL``), along the uniform grid
    ``t_grid`` (:func:`_check_grid`; the clock starts at t_grid[0]).

    The generator is formed on :meth:`Liouvillian._closure` of vec(rho0), a set
    closed under (i, j) <-> (j, i) that leaves out the fast coherences between
    manifolds that rho0 lacks.  In the coordinates of :func:`_hermitian_frame`
    it is real, as it maps Hermitian matrices to Hermitian ones; P = exp(L dt)
    by :func:`_expm` and squarings give its binary powers, with no eigenbasis,
    and :func:`_doubling` on those from P^w up the giant rows of :class:`Trajectory`,
    with no (T, m) series.  Trace drift is checked at every sample; a ket goes
    through :func:`evolve_closed`.
    """
    if liouv.dims != rho0.dims:
        raise DimensionMismatchError("initial state dims differ from generator dims")
    herm = np.max(np.abs(rho0.data - rho0.data.conj().T))
    if herm > HERMITICITY_TOL:
        raise ValueError(f"density matrix not Hermitian (residual {herm:.2e})")
    tr = np.trace(rho0.data)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} differs from 1")
    lowest = float(np.linalg.eigvalsh((rho0.data + rho0.data.conj().T) / 2).min())
    if lowest < POSITIVITY_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {lowest:.2e}")
    times = np.asarray(t_grid, dtype=float)
    (step,) = _check_grid(times[None])
    mirror, alpha = _hermitian_frame(liouv.dims.total_dim)
    vec = vectorize(rho0.data)
    idx = liouv._closure(vec != 0)
    a, m = alpha[idx], np.searchsorted(idx, mirror[idx])
    sub = liouv._block(idx)
    half = sub * a.conj() + sub[:, m] * a  # L T^dag, then T L T^dag
    real = (a[:, None] * half + a.conj()[:, None] * half[m]).real
    x0 = (a * vec[idx] + a.conj() * vec[mirror[idx]]).real
    count, powers = len(times), [_expm(step * real)]
    while 2 ** len(powers) < count:  # P^(2^k) for 2^k < T
        powers.append(powers[-1] @ powers[-1])
    baby = (len(powers) + 1) // 2  # w = 2^baby, the smallest power of two with w^2 >= T
    giant = _doubling(powers[baby:], x0[None], -(-count // 2**baby))[:, 0]
    traj = Trajectory(liouv.dims, times, idx, (a, m), powers[:baby], giant)
    drift = traj.trace_drift()
    if drift > TRACE_DRIFT_TOL:
        raise NumericalError(f"trace drift {drift:.3e} exceeds {TRACE_DRIFT_TOL:.0e}")
    return traj


def _ket_reach(h: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """Sorted indices that the union of the supports of the kets ``psis`` (K, D)
    reaches along the nonzero entries of ``h`` (D, D), taken both ways."""
    linked = (h != 0) | (h != 0).T
    return np.flatnonzero(_reachable(*np.nonzero(linked), (psis != 0).any(axis=0)))


def _closed_amplitudes(hs: np.ndarray, psis: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i H_k n dt_k) psi_k (K, T, m) for Hermitian ``hs`` (K, m, m) = V E V^dag, kets
    ``psis`` (K, m) and uniform grids ``times`` (K, T) (:func:`_check_grid`): for n = q w + s,
    w = ceil(sqrt T), baby[s] @ (giant[q] V^T), of tables baby[s] = exp(-i E s dt) V^dag psi and
    giant[q] = exp(-i E q w dt): 2 sqrt(T) m exponentials, within 8 eps (1 + max|E| t) of exact."""
    step, (energies, vectors) = _check_grid(times), np.linalg.eigh(hs)
    t, w = times.shape[1], int(np.ceil(np.sqrt(times.shape[1])))
    rate = -1j * step[:, None, None] * energies[:, None, :]  # -i E dt, (K, 1, m)
    baby = np.exp(rate * np.arange(w)[:, None]) * (vectors.conj().mT @ psis[:, :, None]).mT
    giant = np.exp(rate * (w * np.arange(-(-t // w)))[:, None])  # (K, G, m), G = ceil(T / w)
    amps = baby[:, None] @ (giant[..., None] * vectors.mT[:, None])  # (K, G, w, m)
    return amps.reshape(len(hs), -1, energies.shape[1])[:, :t]


def evolve_closed(h: Operator, psi0: np.ndarray, t_grid) -> np.ndarray:
    """exp(-i H (t - t_grid[0])) psi0 (T, D) on a uniform grid, by the phase tables of
    :func:`_closed_amplitudes` on the block of H psi0 reaches; exactly 0 outside it.
    The ket ``psi0`` (D,) must have unit norm within ``NORM_TOL``."""
    if psi0.shape != (h.dims.total_dim,):
        raise DimensionMismatchError(f"ket shape {psi0.shape} is not ({h.dims.total_dim},)")
    if abs(np.linalg.norm(psi0) - 1.0) > NORM_TOL:
        raise ValueError("ket is not normalized")
    idx = _ket_reach(h.data, psi0[None])
    out = amps = _closed_amplitudes(h.data[np.ix_(idx, idx)][None], psi0[None, idx],
                                    np.asarray(t_grid, dtype=float)[None])[0]
    if len(idx) < h.dims.total_dim:  # exactly 0 elsewhere
        out = np.zeros((len(amps), h.dims.total_dim), dtype=complex)
        out[:, idx] = amps
    return out


def _loss_floors(liouv: Liouvillian) -> np.ndarray:
    """Per component c of :attr:`Liouvillian._component`, a floor on the
    smallest eigenvalue Gamma_c of the loss i (H_eff - H_eff^dag) there,
    sum_k rate_k L_k^dag L_k for a built generator: eigvalsh's value less
    8 eps |loss_c|, which covers its roundoff.  Where a jump links two
    indices of one component (a drive), the floors are -inf."""
    label, groups = liouv._component, _groups(liouv._component)
    floors = np.full(len(groups), -np.inf)
    if any(jump[label[:, None] == label].any() for jump, _ in liouv.jumps):
        return floors
    loss = 1j * (liouv.h_eff - liouv.h_eff.conj().T)  # Hermitian to the last bit
    for cs in _groups(np.array([len(comp) for comp in groups])):  # one eigvalsh per size
        comps = np.stack([groups[c] for c in cs])
        w = np.linalg.eigvalsh(loss[comps[:, :, None], comps[:, None, :]])
        floors[cs] = w[:, 0] - 8 * np.finfo(float).eps * np.abs(w).max(axis=1)
    return floors


def steady_state(liouv: Liouvillian) -> Operator:
    """Stationary density matrix from the null space of the generator.

    Only jumps lead from one component of the reach (:attr:`Liouvillian._component`)
    to another, so the generator is block triangular in the pair blocks, the
    indices |i><j| with i in component a and j in b, and its kernel lies in
    what the singular ones reach; (b, a) is the complex conjugate of (a, b)
    on transposed indices, so a <= b covers both.  Where no jump links two
    indices of one component, pair block (a, b) is X -> -i (H_a X - X H_b^dag),
    whose field of values lies at real part <= -(Gamma_a + Gamma_b) / 2,
    Gamma_c the smallest loss rate on component c (:func:`_loss_floors`), and
    so bounds its smallest singular value from below (Horn & Johnson, Topics
    in Matrix Analysis, ch. 1); a block whose bound exceeds ``ZERO_MODE_TOL``
    is nonsingular.  Every other block (the vacuum pair, a component with a
    lossless state, every block of a driven generator) is formed from the
    D x D pieces and certified by a values-only SVD, stacked by block shape.
    The SVD of the generator on :meth:`Liouvillian._closure` of the singular
    blocks counts the zero modes and raises if there is none or more than
    one; the right singular vector of the one zero mode is the state, up to
    its trace, and that block also checks the residual |L[rho]|.  For the
    undriven lossy lattice that closure is the vacuum alone.
    """
    d = liouv.dims.total_dim
    groups, floors = _groups(liouv._component), _loss_floors(liouv)
    bound, shapes = np.inf, {}  # smallest certifying bound; SVD pairs (a, b), a <= b, by shape
    for (a, rows), (b, cols) in combinations_with_replacement(enumerate(groups), 2):
        if (floors[a] + floors[b]) / 2 > ZERO_MODE_TOL:
            bound = min(bound, (floors[a] + floors[b]) / 2)
        else:
            shapes.setdefault((len(rows), len(cols)), []).append((rows, cols))
    singular = np.zeros((d, d), dtype=bool)  # an index |i><j| of each singular pair block
    s_min, zeros = np.inf, 0
    for pairs in shapes.values():  # one stacked block and SVD per shape
        rows, cols = (np.stack(side) for side in zip(*pairs))
        index = (rows[:, :, None] * d + cols[:, None, :]).reshape(len(pairs), -1)
        sv = np.linalg.svd(liouv._block(index), compute_uv=False)[:, -1]
        s_min = min(s_min, sv.min())
        singular.flat[index[sv < ZERO_MODE_TOL, 0]] = True
    vec = np.zeros(d * d, dtype=complex)
    if singular.any():
        index = liouv._closure((singular | singular.T).reshape(-1))
        block = liouv._block(index)
        _, sv, vh = np.linalg.svd(block)
        s_min, bound, zeros = sv[-1], np.inf, np.count_nonzero(sv < ZERO_MODE_TOL)
        vec[index] = vh[-1].conj()
    if zeros == 0:
        margin = (f"singular value {s_min:.3e} by SVD" if s_min <= bound
                  else f"singular-value bound {bound:.3e} by field of values")
        raise NumericalError(f"steady_state: no zero mode within {ZERO_MODE_TOL:.0e} "
                             f"(smallest certified {margin})")
    if zeros > 1:
        raise DegenerateSteadyStateError(f"steady_state: zero eigenspace has dimension {zeros}")
    rho = vec.reshape(d, d)
    trace = np.trace(rho)
    if abs(trace) < 1e-14:
        raise NumericalError("steady_state: zero-mode candidate is traceless")
    rho = rho / trace  # before Hermitizing, so the SVD's phase cannot cancel it
    rho = (rho + rho.conj().T) / 2.0
    # the closure of a transpose-symmetric seed is transpose-symmetric, so the
    # Hermitised state stays on ``index``, which no entry of the generator leaves
    residual = float(np.max(np.abs(block @ rho.reshape(-1)[index])))
    if residual > 1e-8:
        raise NumericalError(f"steady_state: residual |L[rho]| = {residual:.3e}")
    return Operator(liouv.dims, rho)


def trace_distance(a: Operator, b: Operator) -> float:
    """Half the nuclear norm of the difference of two density matrices."""
    if a.dims != b.dims:
        raise DimensionMismatchError("states live on different spaces")
    diff = (a.data - b.data + (a.data - b.data).conj().T) / 2.0
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())
