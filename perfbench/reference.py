"""A fixed reference kernel that tells how fast the machine runs right now.

On a shared host the speed of one core drifts by 30-60% over tens of
seconds (another tenant's load, frequency changes), and the drift moves every
kind of work the benchmark runs together: interpreter loops, small numpy
calls and dense LAPACK.  The runner times this kernel before every job and
after the last one, and reports each time also as a ratio to the reference
time around it.  The ratio cancels most of the drift; the kernel itself is
part of the benchmark and never changes with the program.

The kernel has three parts of about equal time, one per kind of work jchsim
does: a pure-Python loop, many einsum calls on small complex arrays (like
the hold measurements of a ramp), and one dense complex eigendecomposition
(like a Liouvillian's modes).
"""
from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20101003)
_DENSE = _RNG.standard_normal((120, 120)) + 1j * _RNG.standard_normal((120, 120))
_SMALL = _RNG.standard_normal((3, 16, 16)) + 1j * _RNG.standard_normal((3, 16, 16))


def _interpreter() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


def _small_arrays() -> complex:
    a, b, c = _SMALL
    total = 0j
    for _ in range(500):
        total += np.einsum("ij,jk,ki->", a, b, c)
    return total


def _dense() -> np.ndarray:
    return np.linalg.eigvals(_DENSE)


def seconds() -> float:
    """Wall time of one pass over the kernel's three parts."""
    start = time.perf_counter()
    _interpreter()
    _small_arrays()
    _dense()
    return time.perf_counter() - start
