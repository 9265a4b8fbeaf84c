import numpy as np
import pytest


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


def random_density_matrix(dim: int, rng) -> np.ndarray:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho)
