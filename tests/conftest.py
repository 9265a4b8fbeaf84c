import math

import numpy as np
import pytest

from jchsim import DimensionMismatchError, Operator


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


def brute_force_embed(site_matrix: np.ndarray, site_index: int, n_sites: int) -> np.ndarray:
    """Index-by-index tensor embedding, independent of np.kron."""
    ds = site_matrix.shape[0]
    dim = ds**n_sites
    out = np.zeros((dim, dim), dtype=complex)
    for row in range(dim):
        for col in range(dim):
            row_digits = [(row // ds ** (n_sites - 1 - k)) % ds for k in range(n_sites)]
            col_digits = [(col // ds ** (n_sites - 1 - k)) % ds for k in range(n_sites)]
            value = 1.0 + 0.0j
            for k in range(n_sites):
                if k == site_index:
                    value *= site_matrix[row_digits[k], col_digits[k]]
                elif row_digits[k] != col_digits[k]:
                    value = 0.0
                    break
            out[row, col] = value
    return out


def random_kets(dim: int, samples: int, rng) -> np.ndarray:
    """``samples`` normalised random kets as a (samples, dim) array."""
    kets = rng.standard_normal((samples, dim)) + 1j * rng.standard_normal((samples, dim))
    return kets / np.linalg.norm(kets, axis=1, keepdims=True)


def expect_series(op: Operator, series: np.ndarray) -> np.ndarray:
    """<psi(t)| op |psi(t)> along (T, D) ket amplitudes; a run of density
    matrices reads them off its propagator tables, ``Trajectory.expect``."""
    d = op.dims.total_dim
    if series.ndim != 2 or series.shape[1] != d:
        raise DimensionMismatchError(f"series shape {series.shape} is not (T, {d})")
    # sum_i psi_i conj((psi op^T)_i), conjugated: the bits of sum_i conj(psi_i) (psi op^T)_i
    # up to the sign of a zero imaginary part, with one (T, D) temporary instead of two
    prod = series @ op.data.T
    return np.einsum("ti,ti->t", series, np.conjugate(prod, out=prod)).conj()


def pure(dims, psi: np.ndarray) -> Operator:
    """The density matrix |psi><psi| of the (D,) ket ``psi`` on ``dims``."""
    return Operator(dims, np.outer(psi, psi.conj()))


def random_density_matrix(dim: int, rng) -> np.ndarray:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho)


def pair_amplitudes(kets: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """(T, D) two-site kets as (T, ds, ds) amplitudes c[t, i, j] =
    <labels[i], labels[j]|psi_t> on the product of the site basis B =
    ``basis``, by one dense product with kron(B, B)."""
    ds = basis.shape[1]
    return (kets @ np.kron(basis, basis).conj()).reshape(-1, ds, ds)


def ladder_matrix(labels, g: float, delta: float, atomic: bool = False) -> np.ndarray:
    """a^dag (sigma^+ when ``atomic``) in the dressed basis of ``labels`` at
    ``g`` and ``delta`` from the closed-form ladder weights: <n b|op|n-1 b'> is
    the weight of the step from branch b' to b, and every other element, the
    overflow label's included, is 0.  With s_n, c_n the sine and cosine of the
    mixing angle theta_n and s_p, c_p those of theta_(n-1), the step n-1 -> n
    (n >= 2) has the a^dag weights

        ++ sqrt(n) s_n s_p + sqrt(n-1) c_n c_p    +- sqrt(n) s_n c_p - sqrt(n-1) c_n s_p
        -- sqrt(n) c_n c_p + sqrt(n-1) s_n s_p    -+ sqrt(n) c_n s_p - sqrt(n-1) s_n c_p

    and the sigma^+ weights ++ c_n s_p, -- -s_n c_p, +- c_n c_p, -+ -s_n s_p;
    from the ground state a^dag reaches 1+ with s_1 and 1- with c_1, sigma^+
    reaches them with c_1 and -s_1."""
    from jchsim.polariton import label, mixing_angle

    out = np.zeros((len(labels),) * 2)
    for n in range(1, len(labels) // 2):  # G, the n_fock doublets and the overflow
        theta = mixing_angle(n, g, delta)
        sin_n, cos_n = math.sin(theta), math.cos(theta)
        if n == 1:
            # the ground state has no branch: only the branch-keeping families step from it
            weights = ({("+", "+"): cos_n, ("-", "-"): -sin_n} if atomic
                       else {("+", "+"): sin_n, ("-", "-"): cos_n})
        else:
            theta_prev = mixing_angle(n - 1, g, delta)
            sin_p, cos_p = math.sin(theta_prev), math.cos(theta_prev)
            rt_n, rt_m = math.sqrt(n), math.sqrt(n - 1)
            if atomic:
                weights = {("+", "+"): cos_n * sin_p, ("-", "-"): -sin_n * cos_p,
                           ("+", "-"): cos_n * cos_p, ("-", "+"): -sin_n * sin_p}
            else:
                weights = {("+", "+"): rt_n * sin_n * sin_p + rt_m * cos_n * cos_p,
                           ("-", "-"): rt_n * cos_n * cos_p + rt_m * sin_n * sin_p,
                           ("+", "-"): rt_n * sin_n * cos_p - rt_m * cos_n * sin_p,
                           ("-", "+"): rt_n * cos_n * sin_p - rt_m * sin_n * cos_p}
        for (upper, lower), weight in weights.items():
            out[labels.index(label(n, upper)), labels.index(label(n - 1, lower))] = weight
    return out
