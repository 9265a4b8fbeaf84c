"""Lindblad master-equation engine on dense, vectorized density matrices.

Vectorization convention (fixed package-wide): matrices are stacked row by
row, ``vec(rho) = rho.reshape(-1)``, so ``vec(A rho B) = (A kron B^T) vec(rho)``.
:func:`build_liouvillian` is the one place a generator is assembled, from the
no-jump Hamiltonian H_eff (Dalibard, Castin & Molmer, PRL 68, 580 (1992)),
filled entry by entry into a zeroed array.

Its nonzero pattern is read once per generator: pairs of excitation
manifolds (without drive) cut it into pair blocks in which the generator is
block lower triangular (:attr:`Liouvillian._pairs`).  :func:`steady_state`
needs no eigenbasis: values-only SVDs of the pair blocks find the singular
ones, and the rank-revealing SVD of the generator on what they reach gives
the dimension of the kernel and its null vector (Golub & Van Loan, Matrix
Computations, 4th ed., secs. 2.4 and 5.4); the steady state is unique when
the kernel is one-dimensional.  :meth:`Liouvillian.modes` given a seed matrix
decomposes only what its support reaches along nonzero entries, which from
a^dag |0><0| is the (one excitation, vacuum) pair block.

Each generator type has one propagator.  :func:`evolve` steps a density
matrix along a uniform grid by the exact exp(L dt) on one block, the closure
of vec(rho0) joined with its mirror, formed by scaling and squaring in real
coordinates on a Hermitian basis, where the generator is a real matrix
(Alicki & Lendi, Lect. Notes Phys. 286 (1987)); :func:`evolve_closed`
rotates a ket in the eigenbasis of the Hamiltonian block its support reaches.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateSteadyStateError, DimensionMismatchError, NumericalError
from .hamiltonians import SystemParams, build_jch, decay_channels
from .hilbert import DensityMatrix, HilbertDims, Ket, Operator

ZERO_MODE_TOL = 1e-8
TRACE_DRIFT_TOL = 1e-8
HERMITICITY_DRIFT_TOL = 1e-9
EIGENBASIS_COND_LIMIT = 1e12
GRID_UNIFORMITY_TOL = 1e-9


def vectorize(mat: np.ndarray) -> np.ndarray:
    return np.asarray(mat, dtype=complex).reshape(-1)


@dataclass
class LiouvillianModes:
    """Spectral decomposition L = V diag(w) V^{-1} of the Liouvillian restricted
    to the superoperator indices ``index`` (sorted) that its rows and columns span."""

    eigenvalues: np.ndarray
    right: np.ndarray
    right_inv: np.ndarray
    index: np.ndarray

    def coefficients(self, mat: np.ndarray) -> np.ndarray:
        return self.right_inv @ vectorize(mat)[self.index]


@dataclass
class Liouvillian:
    """Dense superoperator acting on row-stacked density matrices."""

    dims: HilbertDims
    data: np.ndarray

    def __post_init__(self):
        d2 = self.dims.total_dim**2
        data = np.asarray(self.data, dtype=complex)
        if data.shape != (d2, d2):
            raise DimensionMismatchError(
                f"superoperator shape {data.shape} does not match dim^2 = {d2}"
            )
        self.data = data

    def apply(self, mat: np.ndarray) -> np.ndarray:
        """Action on a density-matrix-shaped array, returned in matrix shape."""
        rows, cols = self._entries
        out = np.zeros(len(self.data), dtype=complex)
        np.add.at(out, rows, self.data[rows, cols] * vectorize(mat).reshape(len(out))[cols])
        return out.reshape(self.dims.total_dim, -1)

    @cached_property
    def _entries(self) -> tuple:
        """(rows, cols) of the nonzero entries: each leads from index cols[e] to rows[e]."""
        return np.divmod(np.flatnonzero(self.data != 0), len(self.data))

    @cached_property
    def _pairs(self) -> tuple:
        """(label, members, links) of the pair blocks in an order by reach.

        The one-sided graph links Hilbert index k to k' when a nonzero entry
        maps |k><.| to |k'><.| or |.><k| to |.><k'|; its strongly connected
        components, numbered upstream first, make pair block (a, b) of the
        indices |i><j| with i in component a and j in component b.  Every
        entry leads downstream on both sides, so from a block to itself or to
        a later one: the generator is block lower triangular.  ``label[k]`` is
        the block of superoperator index k, ``members[p]`` the sorted indices
        of block p, and ``links[p, q]`` whether an entry leads from p to q."""
        d = self.dims.total_dim
        rows, cols = self._entries
        one_sided = np.zeros((d, d), dtype=bool)  # [from, to]
        one_sided[cols // d, rows // d] = True
        one_sided[cols % d, rows % d] = True
        reach = _transitive(one_sided)
        first = (reach & reach.T).argmax(axis=1)  # lowest index of each component
        heads = np.unique(first)
        # a component reaches strictly more indices than any it leads to
        rank = np.empty(d, dtype=int)
        rank[heads[np.lexsort((heads, -reach[heads].sum(axis=1)))]] = np.arange(len(heads))
        comp = rank[first]
        label = (comp[:, None] * len(heads) + comp).reshape(-1)
        n_pairs = len(heads) ** 2
        links = np.zeros((n_pairs, n_pairs), dtype=bool)
        links[label[cols], label[rows]] = True
        return label, _groups(label), links

    @cached_property
    def _blocks(self) -> list:
        """Sorted index arrays of the weakly connected components of the
        links between pair blocks (without drive, the coherence orders), in
        the order of their first pair block."""
        label, _, links = self._pairs
        return _groups(_transitive(links | links.T).argmax(axis=1)[label])

    def _reached(self, vec: np.ndarray | None) -> tuple:
        """(index, pieces): the closure of the support of ``vec`` along
        nonzero entries (without a vector, every index) and its parts in the
        weak blocks it meets."""
        if vec is None:
            return np.arange(len(self.data)), self._blocks
        inside = _reachable(*self._entries, vec != 0)
        pieces = [idx[inside[idx]] for idx in self._blocks if inside[idx].any()]
        return np.flatnonzero(inside), pieces

    def modes(self, seed: np.ndarray | None = None) -> LiouvillianModes:
        """Eigen-decomposition of the generator restricted to what the
        support of the matrix ``seed`` reaches along nonzero entries, one
        weak block (:attr:`_blocks`) at a time; without a seed, of every weak
        block, so ``index`` is every superoperator index.  A seed reaches a
        set that no entry leaves, so its modes are modes of the generator.
        Each call decomposes what it reaches.  A closed, anti-Hermitian
        piece goes through ``eigh``, so its eigenbasis stays unitary at
        degenerate eigenvalues; the condition number is that of the
        block-diagonal eigenbasis of the pieces reached."""
        index, reached = self._reached(None if seed is None else vectorize(seed))
        w = np.empty(len(index), dtype=complex)
        v, v_inv = np.zeros((2, len(index), len(index)), dtype=complex)
        s_max, s_min = 0.0, np.inf
        for idx in reached:
            block = self.data[np.ix_(idx, idx)]
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
            pos = np.searchsorted(index, idx)
            w[pos] = wb
            v[np.ix_(pos, pos)] = vb
            v_inv[np.ix_(pos, pos)] = np.linalg.inv(vb)
        return LiouvillianModes(w, v, v_inv, index)


def _groups(key: np.ndarray) -> list:
    """Sorted index arrays of the equal entries of the integer array ``key``,
    in increasing order of their value."""
    order = np.argsort(key, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(key[order])) + 1)


def _transitive(linked: np.ndarray) -> np.ndarray:
    """Reflexive transitive closure of a square boolean adjacency, by squaring."""
    reach = linked | np.eye(len(linked), dtype=bool)
    while True:
        wider = reach @ reach
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
    d = h.dims.total_dim
    k = np.arange(d)
    data = np.zeros((d, d, d, d), dtype=complex)  # [row i1, row i2, column j1, column j2]
    data[:, k, :, k] = -1j * h_eff
    data[k, :, k, :] += 1j * h_eff.conj()
    for jump, rate in channels:
        rows, cols = np.nonzero(jump.data)
        vals = jump.data[rows, cols]
        data[rows[:, None], rows, cols[:, None], cols] += rate * (vals[:, None] * vals.conj())
    return Liouvillian(h.dims, data.reshape(d * d, d * d))


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
    """Density-matrix run of :func:`evolve`: its time grid and the (T, D^2) state
    coordinates of :func:`_hermitian_frame`; a ket run is the amplitude array of
    :func:`evolve_closed`."""

    dims: HilbertDims
    times: np.ndarray
    coords: np.ndarray

    @property
    def states(self) -> np.ndarray:
        """(T, D, D) density matrices T^dag coords, Hermitian to the last bit."""
        mirror, alpha = _hermitian_frame(self.dims.total_dim)
        flat = self.coords * alpha.conj() + self.coords[:, mirror] * alpha[mirror]
        return flat.reshape(len(flat), *[self.dims.total_dim] * 2)

    def state(self, i: int) -> DensityMatrix:
        return DensityMatrix(self.dims, self.states[i])

    def expect(self, op: Operator) -> np.ndarray:
        """Tr(op rho(t)) as real dot products: conj(T) vec(op^T) is real for
        the Hermitian part of op and imaginary for the rest."""
        alpha = _hermitian_frame(self.dims.total_dim)[1]
        u = alpha.conj() * vectorize(op.data.T) + alpha * vectorize(op.data)
        return self.coords @ u.real + 1j * (self.coords @ u.imag)

    def trace_drift(self) -> float:
        return float(np.max(np.abs(self.coords[:, :: self.dims.total_dim + 1].sum(axis=1) - 1)))

    def min_eigenvalue(self) -> float:
        """Most negative snapshot eigenvalue (complete-positivity proxy)."""
        return float(np.linalg.eigvalsh(self.states).min())


def _check_grid(t_grid) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("time grid must be a 1d array with at least two points")
    if np.any(np.diff(t) <= 0):
        raise ValueError("time grid must be strictly increasing")
    return t


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


def _doubling(prop: np.ndarray, x0: np.ndarray, count: int) -> np.ndarray:
    """Rows x0 (P^T)^n for n < count: rows [n, 2n) are rows [0, n) times
    (P^n)^T, then P^n is squared, so about log2(count) matrix products."""
    out = np.empty((count, len(x0)), dtype=prop.dtype)
    out[0], filled = x0, 1
    while filled < count:
        fill = min(filled, count - filled)
        np.matmul(out[:fill], prop.T, out=out[filled:filled + fill])
        filled += fill
        if filled < count:
            prop = prop @ prop
    return out


def evolve(liouv: Liouvillian, rho0: DensityMatrix, t_grid) -> Trajectory:
    """Propagate a density matrix along the uniform grid ``t_grid`` (the clock
    starts at t_grid[0]); a grid that strays from uniform by more than
    ``GRID_UNIFORMITY_TOL`` of its step raises ``ValueError``.

    What vec(rho0) reaches along nonzero entries, joined with its mirror under
    (i, j) <-> (j, i), goes by index gathers into the coordinates of
    :func:`_hermitian_frame` as one block.  There T L T^dag must be real to
    ``HERMITICITY_DRIFT_TOL`` of max|L| (else ``NumericalError``); P = exp(L dt)
    by :func:`_expm` and doubling give the samples, with no eigenbasis, exactly
    0 elsewhere.  Trace drift is checked; a ket goes through :func:`evolve_closed`.
    """
    if liouv.dims != rho0.dims:
        raise DimensionMismatchError("initial state dims differ from generator dims")
    rho0.validate()
    times = _check_grid(t_grid)
    step = (times[-1] - times[0]) / (len(times) - 1)
    if np.abs(times - times[0] - step * np.arange(len(times))).max() > GRID_UNIFORMITY_TOL * step:
        raise ValueError(f"time grid is not uniform within {GRID_UNIFORMITY_TOL:.0e} of its step")
    d = liouv.dims.total_dim
    mirror, alpha = _hermitian_frame(d)
    vec = vectorize(rho0.data)
    inside = _reachable(*liouv._entries, vec != 0)
    idx = np.flatnonzero(inside | inside[mirror])
    a, m = alpha[idx], np.searchsorted(idx, mirror[idx])
    sub = liouv.data[np.ix_(idx, idx)]
    half = sub * a.conj() + sub[:, m] * a  # L T^dag, then T L T^dag
    real = a[:, None] * half + a.conj()[:, None] * half[m]
    if np.abs(real.imag).max() > HERMITICITY_DRIFT_TOL * np.abs(sub).max():
        raise NumericalError("generator does not map Hermitian matrices to Hermitian ones")
    x0 = (a * vec[idx] + a.conj() * vec[mirror[idx]]).real
    coords = series = _doubling(_expm(step * real.real), x0, len(times))
    if len(idx) < d * d:  # exactly 0 outside the closure
        coords = np.zeros((len(times), d * d))
        coords[:, idx] = series
    traj = Trajectory(liouv.dims, times, coords)
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
    """exp(-i H_k (t - t_k0)) psi_k, shape (K, T, m), for Hermitian blocks ``hs``
    (K, m, m), kets ``psis`` (K, m) and grids ``times`` (K, T): one stacked ``eigh``."""
    energies, vectors = np.linalg.eigh(hs)
    phases = np.exp(-1j * ((times - times[:, :1])[:, :, None] * energies[:, None, :]))
    phases *= (vectors.conj().mT @ psis[:, :, None]).mT  # in place: one (K, T, m) array fewer
    return phases @ vectors.mT


def evolve_closed(h: Operator, psi0: Ket, t_grid) -> np.ndarray:
    """Unitary amplitudes exp(-i H t) psi0 sampled on the grid, shape (T, D), from
    the block of H that the support of psi0 reaches; exactly 0 outside it."""
    if h.dims != psi0.dims:
        raise DimensionMismatchError("state dims differ from Hamiltonian dims")
    times = _check_grid(t_grid)
    idx = _ket_reach(h.data, psi0.amplitudes[None])
    out = np.zeros((len(times), h.dims.total_dim), dtype=complex)
    out[:, idx] = _closed_amplitudes(h.data[np.ix_(idx, idx)][None], psi0.amplitudes[None, idx],
                                     times[None])[0]
    return out


def steady_state(liouv: Liouvillian) -> DensityMatrix:
    """Stationary state from the null space of the generator.

    The generator is block lower triangular in its pair blocks, so its kernel
    lies in the closure of the singular ones: the indices that nonzero entries
    lead to from them.  Values-only SVDs of the pair blocks, batched by size,
    find the blocks with a singular value below ``ZERO_MODE_TOL``; the SVD of
    the generator restricted to their closure counts its zero modes, the
    dimension of the kernel, and raises if there is none or more than one.
    The right singular vector of the single zero mode is the state, up to its
    trace.  For the undriven lossy lattice that closure is the vacuum alone.
    """
    d = liouv.dims.total_dim
    _, members, _ = liouv._pairs
    sizes = np.array([len(idx) for idx in members])
    singular = np.zeros(d * d, dtype=bool)
    s_min, zeros = np.inf, 0
    for size in np.unique(sizes):
        group = np.stack([members[p] for p in np.flatnonzero(sizes == size)])
        sv = np.linalg.svd(liouv.data[group[:, :, None], group[:, None, :]], compute_uv=False)
        s_min = min(s_min, sv[:, -1].min())
        singular[group[sv[:, -1] < ZERO_MODE_TOL]] = True
    vec = np.zeros(d * d, dtype=complex)
    if singular.any():
        index = np.flatnonzero(_reachable(*liouv._entries, singular))
        _, sv, vh = np.linalg.svd(liouv.data[np.ix_(index, index)])
        s_min, zeros = sv[-1], np.count_nonzero(sv < ZERO_MODE_TOL)
        vec[index] = vh[-1].conj()
    if zeros == 0:
        raise NumericalError(
            f"steady_state: no zero mode within {ZERO_MODE_TOL:.0e} "
            f"(smallest singular value {s_min:.3e})"
        )
    if zeros > 1:
        raise DegenerateSteadyStateError(f"steady_state: zero eigenspace has dimension {zeros}")
    rho = vec.reshape(d, d)
    trace = np.trace(rho)
    if abs(trace) < 1e-14:
        raise NumericalError("steady_state: zero-mode candidate is traceless")
    rho = rho / trace  # before Hermitizing, so the SVD's phase cannot cancel it
    rho = (rho + rho.conj().T) / 2.0
    residual = float(np.max(np.abs(liouv.apply(rho))))
    if residual > 1e-8:
        raise NumericalError(f"steady_state: residual |L[rho]| = {residual:.3e}")
    return DensityMatrix(liouv.dims, rho)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the nuclear norm of the difference."""
    if a.dims != b.dims:
        raise DimensionMismatchError("states live on different spaces")
    diff = (a.data - b.data + (a.data - b.data).conj().T) / 2.0
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())
