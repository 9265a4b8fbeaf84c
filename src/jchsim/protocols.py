"""Composite experiments on the one- and two-site JC lattice.

Covers the hopping interchange probes, the strongly driven interchange
oscillation, the coherence/interchange mechanism matrix, the detuning-ramp
order-parameter sweeps and the effective two-level model with its closed-form
time-averaged variance.  A ramp, ``ramp_experiment(params, deltas, mode,
initial, time_dependent, strict_pulses, hold_samples)``, or a variance grid over
hopping and detuning, measures all of its holds in one pass: one stacked
eigensolve of the reached Hamiltonian blocks, then every observable from the
populations of the dressed pairs they touch, along each hold's own time grid,
returned as one column per observable with one row per hold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NumericalError
from .hamiltonians import (
    SystemParams,
    _jch_over_detunings,
    build_driven,
    build_hopping,
    build_jch,
    decay_channels,
    rabi_frequency,
    stroboscopic_generator,
)
from .hilbert import Operator
from .lindblad import _closed_amplitudes, _ket_reach, build_liouvillian, evolve, evolve_closed
from .polariton import (
    GROUND,
    dressed_bases,
    dressed_ladders,
    label,
    parse_state_spec,
    polariton_energy,
    product_polariton_ket,
    site_polariton_ket,
)
from .spectroscopy import local_maxima, parabolic_refine

MEASUREMENT_STATES = ("1-,1-", "1+,1+", "2-,0", "0,2-", "2+,0", "0,2+")
# fraction of the series range a maximum must rise above its valleys to
# count as an oscillation peak in extract_period
PERIOD_PROMINENCE = 0.1


# ---------------------------------------------------------------------------
# generic series utilities


def _valley_floors(heights, valleys) -> list:
    """Per maximum, the lowest valley back to the nearest strictly higher
    maximum (or the series end); valleys[k] lies just before maximum k."""
    floors = []
    stack = []  # (height, floor) of the maxima not yet topped
    for height, floor in zip(heights, valleys):
        while stack and stack[-1][0] <= height:
            floor = min(floor, stack.pop()[1])
        floors.append(floor)
        stack.append((height, floor))
    return floors


def find_series_maxima(series, relative_prominence: float):
    """Indices of local maxima whose prominence clears the given fraction
    of the series range (filters fast low-amplitude ripple)."""
    y = np.asarray(series, dtype=float)
    span = float(y.max() - y.min())
    idx = local_maxima(y)
    # between successive maxima the series falls, then rises: the minimum of
    # each stretch (series ends included) is all a prominence needs
    valleys = np.minimum.reduceat(y, [0, *idx]).tolist()
    heights = y[idx].tolist()
    left = _valley_floors(heights, valleys[:-1])
    right = _valley_floors(heights[::-1], valleys[:0:-1])[::-1]
    return [
        i for i, h, lo, ro in zip(idx, heights, left, right)
        if h - max(lo, ro) >= relative_prominence * span
    ]


def extract_period(times, series):
    """Mean spacing of successive maxima of prominence ``PERIOD_PROMINENCE``,
    parabola-refined.

    Returns ``(period, maxima_times, maxima_heights)``; raises when fewer
    than three maxima are found.
    """
    idx = find_series_maxima(series, PERIOD_PROMINENCE)
    if len(idx) < 3:
        raise NumericalError(
            f"extract_period: only {len(idx)} prominent maxima in the window"
        )
    t_max, heights = parabolic_refine(times, series, idx)
    return float(np.mean(np.diff(t_max))), t_max, heights


# ---------------------------------------------------------------------------
# coherence and branch weights


def _lower_branch_run(params: SystemParams, h: Operator, n0: int, times) -> dict:
    """Series P_1plus, P_1minus, P_ground and the coherence 2|rho_+-| of one
    cavity started in |n0,-> under ``h`` and the decay channels of ``params``:
    without loss, from the (T, 3) dressed amplitudes c_+, c_-, c_G of the kets
    of :func:`evolve_closed`; with it, from the density matrices of :func:`evolve`."""
    dims = params.dims
    psi0 = site_polariton_ket(dims, n0, "-", params.g, params.delta)
    labels, (basis,) = dressed_bases(dims, params.g, [params.delta])
    up, lo, ground = (basis[:, labels.index(lbl)] for lbl in ("1+", "1-", GROUND))
    channels = decay_channels(params)
    if not channels:
        amps = evolve_closed(h, psi0, times) @ np.stack([up, lo, ground], axis=1).conj()
        c_up, c_lo, c_g = amps.T
        return {"P_1plus": np.abs(c_up) ** 2, "P_1minus": np.abs(c_lo) ** 2,
                "P_ground": np.abs(c_g) ** 2, "coherence": 2.0 * np.abs(c_lo * c_up.conj())}
    rho0 = Operator(dims, np.outer(psi0, psi0.conj()))
    expect = evolve(build_liouvillian(h, channels), rho0, times).expect
    p_up, p_lo, rho_pm, p_g = (expect(Operator(dims, np.outer(k, b.conj())))
                               for k, b in ((up, up), (lo, lo), (lo, up), (ground, ground)))
    return {"P_1plus": p_up.real, "P_1minus": p_lo.real, "P_ground": p_g.real,
            "coherence": 2.0 * np.abs(rho_pm)}


# ---------------------------------------------------------------------------
# hopping interchange probe (closed two-site lattice)

PROBE_TARGETS = {"1-,0": "0,1+", "2-,0": "1-,1+"}


def hopping_interchange_probe(params: SystemParams, samples: int = 8001):
    """Probability of the branch-interchanged target of each initial state.

    Evolves the closed two-site lattice from each initial state of
    ``PROBE_TARGETS`` over max(10/|J|, 20) (20 at J = 0) and tracks the
    upper-branch target it reaches through the hopping.  Returns ``(columns,
    summary)``: the grid ``t`` and the target probabilities
    ``p_up_from_1minus`` and ``p_up_from_2minus``, and the maximum
    ``max_p_up_from_*`` of each with the ``targets``.
    """
    if params.n_cavities != 2:
        raise DimensionMismatchError("the interchange probe runs on two cavities")
    if params.cavity_decay or params.atom_decay:
        raise ValueError("the interchange probe is a closed-system experiment")
    t_final = max(10.0 / abs(params.hopping), 20.0) if params.hopping else 20.0
    times = np.linspace(0.0, t_final, samples)
    h = build_jch(params)
    columns, summary = {"t": times}, {}
    for initial, target in PROBE_TARGETS.items():
        psi0, ket = (product_polariton_ket(params.dims, parse_state_spec(spec), params.g,
                                           params.delta) for spec in (initial, target))
        name = "p_up_from_" + initial.split(",")[0].replace("-", "minus")
        columns[name] = np.abs(evolve_closed(h, psi0, times) @ ket.conj()) ** 2
        summary["max_" + name] = float(columns[name].max())
    return columns, {**summary, "targets": dict(PROBE_TARGETS)}


# ---------------------------------------------------------------------------
# driven interchange oscillation


def driven_oscillation_run(params: SystemParams, t_final: float = 4.0, samples: int = 8001):
    """Polariton populations under strong atomic driving, with period fit.

    Returns ``(series, summary)``: the series are the grid t and the branch
    series of :func:`_lower_branch_run` from |1,->, the summary the extracted
    and closed-form oscillation periods.  ``build_driven`` refuses two cavities.
    """
    times = np.linspace(0.0, t_final, samples)
    series = _lower_branch_run(params, build_driven(params), 1, times)
    period, t_max, heights = extract_period(times, series["P_1plus"])
    omega_r, period_analytic = rabi_frequency(params)
    summary = {
        "period_extracted": period,
        "period_analytic": period_analytic,
        "rabi_frequency_analytic": omega_r,
        "maxima_times": t_max,
        "maxima_heights": heights,
    }
    return {"t": times, **series}, summary


# ---------------------------------------------------------------------------
# mechanism matrix (coherent vs incoherent interchange)


def mechanism_table(n_fock: int = 3):
    """Measured coherence and interchange probability of the four controls.

    Rows: two-site hopping at J = g, strong atomic driving, cavity
    relaxation, and stroboscopic detuning modulation.
    """
    rows = []

    # hopping, two cavities, |1-,1->: the kept dressed pair amplitudes c[t, i, j]
    params = SystemParams(hopping=1.0, n_fock=n_fock, n_cavities=2)
    (times,), labels, pairs, (kept,) = _hold_amplitudes(["1-,1-"], params, [params.delta],
                                                        params.hopping, 20.0, 4001)
    amps = np.zeros((len(times), len(labels), len(labels)), dtype=complex)
    amps[:, pairs[0], pairs[1]] = kept
    lo, up = labels.index("1-"), labels.index("1+")
    p_target = np.abs(amps[:, up, lo]) ** 2
    # 2 |rho_0(1-, 1+)|, site 0's reduced state summed over site 1's labels
    coh = 2.0 * np.abs(np.einsum("tj,tj->t", amps[:, lo], amps[:, up].conj()))
    rows.append(
        {
            "mechanism": "hopping",
            "control": "J = g",
            "n_cavities": 2,
            "initial": "1-,1-",
            "coherence_max": float(coh.max()),
            "interchange_probability": float(p_target.max()),
            "interchange_state": "1+,1-",
        }
    )

    # single cavity from the lower branch: strong atomic driving, cavity
    # relaxation and stroboscopic detuning modulation
    single = SystemParams(n_fock=max(n_fock, 4))
    drive = single.with_(atom_drive=50.0, atom_drive_detuning=500.0, cavity_drive_detuning=500.0)
    lossy = single.with_(cavity_decay=1.0)
    strobe = SystemParams(n_fock=n_fock)
    for mechanism, control, params, n0, h, t_final, samples in (
        ("driving", "atom drive = 50 g", drive, 1, build_driven(drive), 2.0, 4001),
        ("relaxation", "cavity decay = g", lossy, 2, build_jch(lossy), 8.0, 1601),
        ("modulation", "detuning locked to pi(2m+1)/2t", strobe, 1,
         stroboscopic_generator(strobe, 0), math.pi / strobe.g, 2001),
    ):
        series = _lower_branch_run(params, h, n0, np.linspace(0.0, t_final, samples))
        rows.append(
            {
                "mechanism": mechanism,
                "control": control,
                "n_cavities": 1,
                "initial": f"{n0}-",
                "coherence_max": float(series["coherence"].max()),
                "interchange_probability": float(series["P_1plus"].max()),
                "interchange_state": "1+",
            }
        )
    return rows


# ---------------------------------------------------------------------------
# order parameter and detuning ramp


def _number_variance(times: np.ndarray, marginals: np.ndarray) -> np.ndarray:
    """Trapezoid time average of sum_i Var(N_i) from the per-site populations
    of the dressed labels, (S, ..., T, ds): one row per site, then any hold
    axes, then time; one average per hold, over one grid or one per hold.

    N_i = a_i^dag a_i + sigma_i^+ sigma_i^- is diagonal there: it counts n on
    |n+-> and n_fock + 1 on the overflow state, and ``dressed_bases``' label
    order G, 1-, 1+, ..., overflow puts label k in manifold (k + 1) // 2.
    Var(N_i) is the centred sum sum_k p_k (n_k - <N_i>)^2: <N_i^2> - <N_i>^2
    cancels to about 1e-9 of a variance of 5e-6.
    """
    counts = (np.arange(marginals.shape[-1]) + 1) // 2
    spread = counts - (marginals @ counts)[..., None]
    variance = (marginals * spread**2).sum(axis=-1).sum(axis=0)
    return np.trapezoid(variance, times) / (times[..., -1] - times[..., 0])


def _hold_amplitudes(psis, params: SystemParams, deltas, hoppings, hold_times, samples: int):
    """(times, labels, pairs, amps) of K two-site holds: hold k runs at deltas[k] and
    hoppings[k] > 0 from the ket psis[k] (K, D), or from the product of dressed states
    that the spec psis[k] names at deltas[k], on times[k] = linspace(0, hold_times[k],
    samples); a scalar is shared.  ``amps[k, t, c]`` is the amplitude of the pair of
    site dressed states labels[pairs[0][c]], labels[pairs[1][c]], kept where reached."""
    labels, site = dressed_bases(params.dims, params.g, deltas)
    if isinstance(psis[0], str):  # the kron of each hold's two named site columns
        cols = np.array([[labels.index(label(*s)) for s in parse_state_spec(x)] for x in psis]).T
        k = np.arange(len(psis))
        psis = (site[k, :, cols[0], None] * site[k, None, :, cols[1]]).reshape(len(k), -1)
    hoppings, hold_times = (np.broadcast_to(x, len(deltas)) for x in (hoppings, hold_times))
    times = np.linspace(0.0, hold_times, samples, axis=-1)
    h = build_jch(params.with_(hopping=1.0)).data  # unit hopping: the pattern of every J > 0
    idx = _ket_reach(h, psis)
    amps = _closed_amplitudes(_jch_over_detunings(params, h, idx, deltas, hoppings),
                              psis[:, idx], times)
    rows = np.divmod(idx, len(labels))  # the two site labels of each reached index
    nonzero = (site != 0).any(axis=0).astype(int)
    pairs = np.nonzero(nonzero[rows[0]].T @ nonzero[rows[1]])
    # <i, j|psi> = sum over reached (a, b) of conj(U[a, i] U[b, j]) psi[a, b]
    overlaps = (site[:, rows[0][:, None], pairs[0]] * site[:, rows[1][:, None], pairs[1]]).conj()
    return times, labels, pairs, amps @ overlaps


def _measure_holds(psis, params: SystemParams, deltas, hoppings, hold_times, samples: int):
    """Every observable of the K holds of :func:`_hold_amplitudes` from their
    populations in the product of site dressed bases, for all holds at once, as
    (K,) columns: the order parameter ``var``, the populations ``p_lp`` and
    ``p_up`` of |1-,1-> and |1+,1+> at the start of each hold, and the time
    average of each state of ``MEASUREMENT_STATES``, "2-,0" as ``p_2m_0``."""
    times, labels, pairs, amps = _hold_amplitudes(psis, params, deltas, hoppings, hold_times,
                                                  samples)
    pops = np.abs(amps) ** 2
    del amps  # free the complex (K, T, r) array before the observables' temporaries
    column = {(labels[i], labels[j]): c for c, (i, j) in enumerate(zip(*pairs))}
    keys = [tuple(label(*site) for site in parse_state_spec(spec)) for spec in MEASUREMENT_STATES]
    untouched = np.zeros(pops.shape[:2])  # a pair no reached amplitude touches
    measured = np.stack([pops[:, :, column[k]] if k in column else untouched for k in keys], axis=1)
    probabilities = np.trapezoid(measured, times[:, None]) / (times[:, -1:] - times[:, :1])
    marginals = np.stack([pops @ (side[:, None] == np.arange(len(labels))) for side in pairs])
    # a copy, so that the columns keep no view of the (K, 6, T) populations
    lp, up = measured[:, [MEASUREMENT_STATES.index(s) for s in ("1-,1-", "1+,1+")], 0].T
    columns = {"var": _number_variance(times, marginals), "p_lp": lp, "p_up": up}
    for spec, averages in zip(MEASUREMENT_STATES, probabilities.T):
        columns["p_" + spec.replace("-", "m").replace("+", "p").replace(",", "_")] = averages
    return columns


def ramp_experiment(
    params: SystemParams,
    deltas,
    mode: int = 1,
    initial: str = "1-,1-",
    time_dependent: bool = True,
    strict_pulses: bool = False,
    hold_samples: int = 241,
):
    """Order-parameter sweep over the descending detunings ``deltas``.

    Returns ``(columns, summary)``: the columns are ``delta`` and those of
    :func:`_measure_holds`, one row per detuning, the summary the
    ``pulse_time`` pi/(2g) of a quarter branch rotation and the ``hold_time``
    1/J.  The carried state is prepared as ``initial`` at the first detuning.
    In the time-dependent mode each step applies one quarter-rotation pulse of
    the stroboscopic generator of ``mode`` to the carried state (hopping
    frozen during the short pulse unless ``strict_pulses``): the detuning ramp
    satisfies delta(t) * t = pi (2 mode + 1) / 2, so the elapsed time at which
    each detuning is reached follows from ``deltas``.  The subsequent hold of
    ``hold_time`` at fixed detuning is a measurement branch: the order
    parameter is averaged over it, while the carried chain continues from the
    pulsed state.  Without time dependence the pulses are skipped and every
    point starts from the fresh initial state.
    """
    if params.n_cavities != 2:
        raise DimensionMismatchError("the ramp runs on the two-site lattice")
    if params.cavity_decay or params.atom_decay:
        raise ValueError("the ramp is a closed-system protocol")
    if params.hopping <= 0:
        raise ValueError("the ramp needs a positive hopping strength")
    # delta * t = pi (2 mode + 1) / 2 has positive solutions only for mode >= 0
    if not isinstance(mode, (int, np.integer)) or mode < 0:
        raise ValueError("stroboscopic mode index must be a non-negative integer")
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0:
        raise ValueError("the ramp needs a 1d array of detuning values")
    if np.any(deltas <= 0) or np.any(np.diff(deltas) >= 0):
        raise ValueError("detuning values must be positive and strictly decreasing")
    pulse_time, hold_time = math.pi / (2.0 * params.g), 1.0 / params.hopping

    psi = product_polariton_ket(params.dims, parse_state_spec(initial), params.g, deltas[0])
    psis = np.repeat(psi[None], len(deltas), axis=0)
    if time_dependent:
        # neither pulse generator depends on the detuning, so the pulsed chain
        # is one grid: hold k starts after k + 1 pulses
        pulse = stroboscopic_generator(params, mode)
        if strict_pulses:
            pulse = pulse + build_hopping(params)
        amps = evolve_closed(pulse, psi, pulse_time * np.arange(len(deltas) + 1))[1:]
        psis = amps / np.linalg.norm(amps, axis=1, keepdims=True)
    holds = _measure_holds(psis, params, deltas, params.hopping, hold_time, hold_samples)
    return {"delta": deltas, **holds}, {"pulse_time": pulse_time, "hold_time": hold_time}


# ---------------------------------------------------------------------------
# effective two-level model and analytic variance


@dataclass(frozen=True)
class EffectiveModel:
    """Two-level reduction of the two-excitation dynamics of one branch.

    Basis: the unit-filling pair state and the symmetric doubly occupied
    state of the same branch.  The diagonal entries are the lattice
    eigenvalues of the two basis states in the cavity frame (2 E_1 and E_2);
    the doubled form 2 E_2 fails the numeric variance cross-check and is not
    offered.
    """

    a: float
    b: float
    c: float
    branch: str

    @property
    def omega0(self) -> float:
        return math.sqrt(4.0 * self.b**2 + (self.a - self.c) ** 2)


def effective_model(params: SystemParams, branch: str) -> EffectiveModel:
    """Effective 2x2 Hamiltonian for the |1b,1b> <-> (|2b,0>+|0,2b>)/sqrt(2) pair."""
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    labels, a_dag, _ = dressed_ladders(params.dims, params.g, params.delta)
    one, two = labels.index(label(1, branch)), labels.index(label(2, branch))
    pair_product = float(a_dag[two, one] * a_dag[one, labels.index(GROUND)])
    e1 = polariton_energy(1, branch, params.g, params.delta, 0.0)
    e2 = polariton_energy(2, branch, params.g, params.delta, 0.0)
    b = -math.sqrt(2.0) * params.hopping * pair_product
    return EffectiveModel(a=2.0 * e1, b=b, c=e2, branch=branch)


def analytic_variance(model: EffectiveModel, hopping: float) -> float:
    """Closed-form time-averaged variance of the effective two-level model.

    var(tau) = (4 b^2 / Omega_0^2) [1 - (J / Omega_0) sin(Omega_0 / J)],
    averaged over tau = 1/J; the small-argument limit is handled by series.
    """
    if hopping <= 0:
        raise ValueError("hopping must be positive")
    if model.b == 0.0:
        return 0.0
    omega0 = model.omega0
    x = omega0 / hopping
    bracket = x * x / 6.0 if x < 1e-4 else 1.0 - math.sin(x) / x
    return 4.0 * model.b**2 / omega0**2 * bracket


def numeric_variance(params, branch, hold_samples: int = 401):
    """Full-lattice order parameters from the fresh pair states |1b,1b> held for 1/J.
    Given matching sequences of parameters, which may differ only in hopping and
    detuning, and of branches, it measures every hold in one stacked solve and
    returns the ``var`` column of :func:`_measure_holds` as a list."""
    if not params:
        return []
    base = params[0]
    if base.n_cavities != 2:
        raise DimensionMismatchError("the variance runs on the two-site lattice")
    if any(p.hopping <= 0 for p in params):
        raise ValueError("hopping must be positive")
    if any(p.with_(hopping=base.hopping, delta=base.delta) != base for p in params):
        raise ValueError("the holds may differ only in hopping and detuning")
    specs = [f"1{b},1{b}" for _, b in zip(params, branch, strict=True)]
    hoppings = np.array([p.hopping for p in params])
    return _measure_holds(specs, base, [p.delta for p in params], hoppings, 1.0 / hoppings,
                          hold_samples)["var"].tolist()
