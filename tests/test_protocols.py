import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jchsim import (
    DimensionMismatchError,
    EffectiveModel,
    NumericalError,
    Operator,
    SystemParams,
    analytic_variance,
    build_driven,
    build_hopping,
    build_jch,
    dressed_bases,
    driven_oscillation_run,
    effective_model,
    evolve_closed,
    excitation_number_at,
    extract_period,
    hopping_interchange_probe,
    mechanism_table,
    numeric_variance,
    partial_trace,
    product_polariton_ket,
    ramp_experiment,
    site_polariton_ket,
    stroboscopic_generator,
    total_excitation,
)
from jchsim.experiments import EXPERIMENTS, ExperimentConfig
from jchsim.lindblad import build_liouvillian, evolve
from jchsim.polariton import parse_state_spec
from jchsim.protocols import (
    MEASUREMENT_STATES,
    _hold_amplitudes,
    _lower_branch_run,
    _measure_holds,
    _number_variance,
    find_series_maxima,
)
from jchsim.selfcheck import run_selfcheck
from jchsim.spectroscopy import local_maxima

from conftest import expect_series, pair_amplitudes, pure, random_kets

TWO_SITE = SystemParams(omega_c=1e4, hopping=0.1, n_fock=3, n_cavities=2)
# the ramp's column of the time-averaged population of each measured state
STATE_COLUMNS = {"1-,1-": "p_1m_1m", "1+,1+": "p_1p_1p", "2-,0": "p_2m_0",
                 "0,2-": "p_0_2m", "2+,0": "p_2p_0", "0,2+": "p_0_2p"}


def coherence(rho: np.ndarray, p: SystemParams) -> float:
    """The n = 1 interbranch coherence 2|rho_+-| of one cavity in one state."""
    labels, (basis,) = dressed_bases(p.dims, p.g, [p.delta])
    up, lo = (basis[:, labels.index(lbl)] for lbl in ("1+", "1-"))
    return float(2.0 * abs(up.conj() @ rho @ lo))


def site0_branch_series(kets: np.ndarray, p: SystemParams):
    """P(1+), P(1-) and 2|rho_+-| of site 0 along two-site (T, D) kets, read
    as the hopping row of mechanism_table does: summed over site 1's labels
    of the dressed pair amplitudes."""
    labels, (basis,) = dressed_bases(p.dims, p.g, [p.delta])
    amps = pair_amplitudes(kets, basis)
    up, lo = amps[:, labels.index("1+")], amps[:, labels.index("1-")]
    return ((np.abs(up) ** 2).sum(axis=1), (np.abs(lo) ** 2).sum(axis=1),
            2.0 * np.abs(np.einsum("tj,tj->t", lo, up.conj())))


class TestCoherence:
    def test_pure_branch_state_has_none(self):
        p = SystemParams(delta=0.4, omega_c=30.0, n_fock=3)
        rho = pure(p.dims, site_polariton_ket(p.dims, 1, "-", p.g, p.delta))
        assert coherence(rho.data, p) == pytest.approx(0.0, abs=1e-14)

    def test_balanced_superposition_is_maximal(self):
        p = SystemParams(delta=0.4, omega_c=30.0, n_fock=3)
        km = site_polariton_ket(p.dims, 1, "-", p.g, p.delta)
        kp = site_polariton_ket(p.dims, 1, "+", p.g, p.delta)
        psi = (km + kp) / math.sqrt(2.0)
        rho = np.outer(psi, psi.conj())
        assert coherence(rho, p) == pytest.approx(1.0, abs=1e-12)

    def test_two_site_states_are_reduced_first(self):
        p = TWO_SITE
        psi = product_polariton_ket(p.dims, parse_state_spec("1-,1-"), p.g, p.delta)
        p_up, p_lo, coh = site0_branch_series(psi[None], p)
        assert coh[0] == pytest.approx(0.0, abs=1e-14)
        assert p_up[0] == pytest.approx(0.0, abs=1e-14) and p_lo[0] == pytest.approx(1.0)
        reduced = partial_trace(pure(p.dims, psi), 0)
        assert abs(np.trace(reduced.data) - 1.0) < 1e-12


@settings(deadline=None, max_examples=25)
@given(st.floats(-2.0, 2.0), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_two_site_branch_series_reads_the_reduced_state(delta, samples, seed):
    # the dressed pair amplitudes summed over site 1 against the single-site
    # formula on partial_trace
    p = SystemParams(delta=delta, omega_c=30.0, n_fock=2, n_cavities=2)
    kets = random_kets(p.dims.total_dim, samples, np.random.default_rng(seed))
    rhos = np.einsum("ti,tj->tij", kets, kets.conj())
    up = site_polariton_ket(p.dims, 1, "+", p.g, p.delta)
    lo = site_polariton_ket(p.dims, 1, "-", p.g, p.delta)
    reduced = np.array([partial_trace(Operator(p.dims, rho), 0).data for rho in rhos])
    expected = (
        [(up.conj() @ r @ up).real for r in reduced],
        [(lo.conj() @ r @ lo).real for r in reduced],
        [2.0 * abs(up.conj() @ r @ lo) for r in reduced],
    )
    for got, want in zip(site0_branch_series(kets, p), expected):
        assert np.max(np.abs(got - np.array(want))) < 1e-12


@pytest.mark.parametrize("n_fock, omega_c", [(2, 30.0), (3, 1e4)])
def test_mechanism_hopping_row_matches_the_dense_rotation(n_fock, omega_c):
    # the hopping row reads the hold kernel's kept pair amplitudes; the dense
    # rotation of evolve_closed's kets gives the same two maxima
    p = SystemParams(hopping=1.0, omega_c=omega_c, n_fock=n_fock, n_cavities=2)
    psi = product_polariton_ket(p.dims, parse_state_spec("1-,1-"), p.g, p.delta)
    kets = evolve_closed(build_jch(p), psi, np.linspace(0.0, 20.0, 4001))
    labels, (basis,) = dressed_bases(p.dims, p.g, [p.delta])
    target = pair_amplitudes(kets, basis)[:, labels.index("1+"), labels.index("1-")]
    row = mechanism_table(n_fock)[0]
    assert row["mechanism"] == "hopping"
    assert abs(row["interchange_probability"] - (np.abs(target) ** 2).max()) < 1e-13
    assert abs(row["coherence_max"] - site0_branch_series(kets, p)[2].max()) < 1e-13


def test_selfcheck_branch_separability_matches_the_dense_rotation():
    # selfcheck's upper-branch weight over both sites, from the hold kernel,
    # against the dense rotation of evolve_closed's kets at its operating point
    p = SystemParams(delta=0.5, omega_c=50.0, hopping=0.1, n_fock=2, n_cavities=2)
    psi = product_polariton_ket(p.dims, parse_state_spec("1-,1-"), p.g, p.delta)
    labels, (basis,) = dressed_bases(p.dims, p.g, [p.delta])
    kets = evolve_closed(build_jch(p), psi, np.linspace(0.0, 10.0 / p.hopping, 201))
    pops = np.abs(pair_amplitudes(kets, basis)) ** 2
    plus = [i for i, lbl in enumerate(labels) if lbl.endswith("+")]
    up_weight = pops[:, plus].sum(axis=(1, 2)) + pops[:, :, plus].sum(axis=(1, 2))
    result = run_selfcheck()["checks"]["branch_separability"]
    assert result["passed"] and result["detail"] == f"{up_weight.max():.3e} < 1e-01"


def prominent_maxima_by_scan(series, relative_prominence=0.1):
    """Reference for find_series_maxima: scan the whole series from each
    local maximum out to the nearest strictly higher sample."""
    y = np.asarray(series, dtype=float)
    span = float(y.max() - y.min())
    keep = []
    for i in local_maxima(y):
        left = y[:i][::-1]
        higher = np.where(left > y[i])[0]
        left_min = left[: higher[0] + 1].min() if higher.size else left.min(initial=y[i])
        right = y[i + 1 :]
        higher = np.where(right > y[i])[0]
        right_min = right[: higher[0] + 1].min() if higher.size else right.min(initial=y[i])
        if y[i] - max(left_min, right_min) >= relative_prominence * span:
            keep.append(i)
    return keep


@settings(deadline=None, max_examples=300)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=40))
@example([0, 2, 1, 2, 0])
def test_series_maxima_match_the_full_scan(levels):
    # few distinct levels give plateaus and ties between maxima; a scan over
    # the threshold catches any prominence that differs
    for relative_prominence in np.linspace(0.0, 1.0, 21):
        assert find_series_maxima(levels, relative_prominence) == prominent_maxima_by_scan(
            levels, relative_prominence
        )


class TestExtractPeriod:
    def test_clean_sine_with_ripple(self):
        times = np.linspace(0.0, 10.0, 4001)
        series = np.sin(2 * math.pi * times / 2.5) ** 2 + 0.01 * np.sin(90.0 * times)
        period, maxima, _ = extract_period(times, series)
        assert period == pytest.approx(1.25, rel=5e-3)
        assert len(maxima) >= 7

    def test_too_few_maxima_rejected(self):
        times = np.linspace(0.0, 1.0, 101)
        series = np.sin(2 * math.pi * times) ** 2
        with pytest.raises(NumericalError):
            extract_period(times, series)


class TestHoppingProbe:
    def test_no_hopping_no_interchange(self):
        p = TWO_SITE.with_(hopping=0.0)
        _, summary = hopping_interchange_probe(p, samples=801)
        assert summary["max_p_up_from_1minus"] < 1e-20

    def test_weak_hopping_suppression(self):
        _, summary = hopping_interchange_probe(TWO_SITE, samples=2001)
        # the branch-interchanged target stays far below the sector bound
        assert summary["max_p_up_from_1minus"] < 0.01
        assert summary["targets"]["1-,0"] == "0,1+"

    def test_columns_are_the_target_probabilities_of_evolve_closed(self):
        columns, summary = hopping_interchange_probe(TWO_SITE, samples=501)
        times = columns["t"]
        assert times[0] == 0.0 and times[-1] == 10.0 / TWO_SITE.hopping and len(times) == 501
        for initial, target, name in (("1-,0", "0,1+", "1minus"), ("2-,0", "1-,1+", "2minus")):
            psi0, target = (product_polariton_ket(TWO_SITE.dims, parse_state_spec(spec),
                                                  TWO_SITE.g, TWO_SITE.delta)
                            for spec in (initial, target))
            amps = evolve_closed(build_jch(TWO_SITE), psi0, times)
            expected = np.abs(amps @ target.conj()) ** 2
            assert np.array_equal(columns[f"p_up_from_{name}"], expected)
            assert summary[f"max_p_up_from_{name}"] == expected.max()
        assert list(columns) == ["t", "p_up_from_1minus", "p_up_from_2minus"]
        assert summary["targets"] == {"1-,0": "0,1+", "2-,0": "1-,1+"}

    def test_closed_system_required(self):
        with pytest.raises(ValueError):
            hopping_interchange_probe(TWO_SITE.with_(cavity_decay=0.1))


@pytest.fixture(scope="module")
def run():
    p = SystemParams(
        delta=0.0, omega_c=1e4, atom_drive=50.0, atom_drive_detuning=500.0,
        cavity_drive_detuning=500.0, n_fock=4,
    )
    return driven_oscillation_run(p)


class TestDrivenRun:
    def test_period_matches_reference_value(self, run):
        _, summary = run
        assert abs(summary["period_extracted"] - 0.627) / 0.627 < 0.03
        assert summary["period_analytic"] == pytest.approx(math.pi / math.sqrt(26.0))

    def test_population_oscillates_fully(self, run):
        series, _ = run
        assert series["P_1plus"].max() > 0.9
        assert series["coherence"].max() > 0.95

    def test_truncation_convergence_by_doubling(self):
        p = SystemParams(
            delta=0.0, omega_c=1e4, atom_drive=50.0, atom_drive_detuning=500.0,
            cavity_drive_detuning=500.0, n_fock=8,
        )
        _, summary = driven_oscillation_run(p, t_final=2.0, samples=4001)
        assert summary["period_extracted"] == pytest.approx(0.6233, abs=2e-3)

    def test_decay_damps_oscillation(self):
        p = SystemParams(
            delta=0.0, omega_c=1e4, atom_drive=50.0, atom_drive_detuning=500.0,
            cavity_drive_detuning=500.0, cavity_decay=0.1, n_fock=4,
        )
        _, summary = driven_oscillation_run(p, t_final=3.0, samples=6001)
        heights = summary["maxima_heights"]
        assert np.all(np.diff(heights) < 0)


@settings(deadline=None, max_examples=20)
@given(st.floats(-2.0, 2.0), st.sampled_from([1, 2]),
       st.sampled_from([build_driven, stroboscopic_generator]))
def test_lower_branch_run_agrees_on_its_ket_and_density_matrix_routes(delta, n0, build):
    # a vanishing cavity decay sends the run through evolve, none through
    # evolve_closed; the ket route is held to the dressed amplitudes of the kets
    p = SystemParams(delta=delta, omega_c=1e4, atom_drive=50.0, atom_drive_detuning=500.0 + delta,
                     cavity_drive_detuning=500.0, n_fock=4)
    lossy = p.with_(cavity_decay=1e-12)
    times = np.linspace(0.0, 2.0, 401)
    ket = _lower_branch_run(p, build(p), n0, times)
    rho = _lower_branch_run(lossy, build(lossy), n0, times)
    assert list(ket) == list(rho) == ["P_1plus", "P_1minus", "P_ground", "coherence"]
    for key in ket:
        assert np.abs(ket[key] - rho[key]).max() < 1e-9
    kets = evolve_closed(build(p), site_polariton_ket(p.dims, n0, "-", p.g, p.delta), times)
    labels, (basis,) = dressed_bases(p.dims, p.g, [p.delta])
    up, lo, ground = (kets @ basis[:, labels.index(lbl)].conj() for lbl in ("1+", "1-", "G"))
    oracle = {"P_1plus": np.abs(up) ** 2, "P_1minus": np.abs(lo) ** 2,
              "P_ground": np.abs(ground) ** 2, "coherence": 2.0 * np.abs(up * lo.conj())}
    for key in ket:
        assert np.abs(ket[key] - oracle[key]).max() < 1e-12


@settings(deadline=None, max_examples=25)
@given(st.floats(-2.0, 2.0), st.floats(0.0, 60.0), st.floats(0.0, 5.0), st.floats(-600.0, 600.0),
       st.sampled_from([1, 2]), st.sampled_from([3, 4, 5]), st.integers(2, 8001),
       st.sampled_from([build_driven, stroboscopic_generator]))
@example(0.0, 50.0, 0.0, 500.0, 1, 4, 8001, build_driven)
def test_lower_branch_run_ket_route_matches_the_operator_oracle(
        delta, atom_drive, cavity_drive, detuning, n0, n_fock, samples, build):
    # the closed route reads c_+, c_- and c_G off one amplitude table; the
    # oracle reads <psi|k b^dag|psi> of each rank-1 operator off the same kets
    p = SystemParams(delta=delta, omega_c=1e4, atom_drive=atom_drive, cavity_drive=cavity_drive,
                     atom_drive_detuning=delta + detuning, cavity_drive_detuning=detuning,
                     n_fock=n_fock)
    times = np.linspace(0.0, 2.0, samples)
    h = build(p)
    got = _lower_branch_run(p, h, n0, times)
    kets = evolve_closed(h, site_polariton_ket(p.dims, n0, "-", p.g, p.delta), times)
    labels, (basis,) = dressed_bases(p.dims, p.g, [p.delta])
    up, lo, ground = (basis[:, labels.index(lbl)] for lbl in ("1+", "1-", "G"))

    def read(k, b):
        return expect_series(Operator(p.dims, np.outer(k, b.conj())), kets)

    oracle = {"P_1plus": read(up, up).real, "P_1minus": read(lo, lo).real,
              "P_ground": read(ground, ground).real, "coherence": 2.0 * np.abs(read(lo, up))}
    assert list(got) == list(oracle)
    for key in got:
        assert np.abs(got[key] - oracle[key]).max() < 1e-12


class TestEffectiveModel:
    def test_resonant_lower_branch_coupling(self):
        p = TWO_SITE.with_(delta=0.0)
        model = effective_model(p, "-")
        assert model.b == pytest.approx(-1.2071067811865475 * p.hopping, rel=1e-12)
        assert abs(model.a - model.c) == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-12)

    def test_coupling_matches_hopping_matrix_element(self):
        # oracle: <psi_1| H_hop |1b,1b> on the full lattice
        for branch in ("-", "+"):
            for delta in (0.0, 0.9, 4.0):
                p = TWO_SITE.with_(delta=delta)
                model = effective_model(p, branch)
                pair = product_polariton_ket(
                    p.dims, [(1, branch), (1, branch)], p.g, p.delta
                )
                double_left = product_polariton_ket(
                    p.dims, [(2, branch), (0, "g")], p.g, p.delta
                )
                double_right = product_polariton_ket(
                    p.dims, [(0, "g"), (2, branch)], p.g, p.delta
                )
                sym = (double_left + double_right) / math.sqrt(2.0)
                element = sym.conj() @ build_hopping(p).data @ pair
                assert abs(model.b) == pytest.approx(abs(element), rel=1e-12)

    def test_no_hopping_collapses_coupling(self):
        model = effective_model(TWO_SITE.with_(hopping=0.0, delta=0.3), "-")
        assert model.b == 0.0
        assert model.omega0 == pytest.approx(abs(model.a - model.c))


class TestAnalyticVariance:
    def test_frozen_resonant_value(self):
        # frozen from a direct arithmetic evaluation of the closed form at
        # resonance: b = -sqrt(2) J (sqrt(2)+1)/2 / sqrt(2), gap = 2 - sqrt(2)
        p = TWO_SITE.with_(delta=0.0)
        var = analytic_variance(effective_model(p, "-"), 0.1)
        assert var == pytest.approx(0.1439852975, abs=1e-9)

    def test_no_coupling_no_variance(self):
        model = EffectiveModel(a=1.0, b=0.0, c=2.0, branch="-")
        assert analytic_variance(model, 0.1) == 0.0

    def test_series_limit_small_frequency(self):
        model = EffectiveModel(a=0.0, b=1e-7, c=0.0, branch="-")
        x = model.omega0 / 1.0
        assert analytic_variance(model, 1.0) == pytest.approx(4 * model.b**2 / model.omega0**2 * x * x / 6)

    def test_nonpositive_hopping_rejected(self):
        model = EffectiveModel(a=0.0, b=0.1, c=1.0, branch="-")
        with pytest.raises(ValueError):
            analytic_variance(model, 0.0)

    def test_agreement_with_numeric_both_branches(self):
        for branch in ("-", "+"):
            p = TWO_SITE.with_(delta=1.0)
            numeric = numeric_variance([p], [branch])[0]
            analytic = analytic_variance(effective_model(p, branch), p.hopping)
            if numeric >= 0.1:
                assert abs(numeric - analytic) / numeric < 0.05
            else:
                assert abs(numeric - analytic) < 0.005

    def test_variance_vanishes_with_hopping(self):
        # from a filling eigenstate the variance dies out with the coupling
        values = [
            numeric_variance([TWO_SITE.with_(hopping=j, delta=0.0)], ["-"], hold_samples=241)[0]
            for j in (0.1, 0.02, 0.005)
        ]
        assert values[0] > values[1] > values[2]
        assert values[2] < 5e-4
        assert min(values) >= 0.0


def operator_variance(times, expect, dims) -> float:
    """Oracle for the order parameter: trapezoid time average of
    sum_i <N_i^2> - <N_i>^2 with the dense counters N_i, where ``expect``
    maps an operator to its expectation series along the run."""
    total = 0.0
    for site in range(dims.n_cavities):
        n_op = excitation_number_at(dims, site)
        mean = expect(n_op).real
        square = expect(n_op @ n_op).real
        total += float(np.trapezoid(square - mean**2, times))
    return total / (times[-1] - times[0])


def dressed_populations(rhos: np.ndarray, p: SystemParams) -> np.ndarray:
    """Populations of (T, D, D) density matrices in the product of site
    dressed bases, shaped (T, ds) on one cavity and (T, ds, ds) on two."""
    _, (site,) = dressed_bases(p.dims, p.g, [p.delta])
    u = site if p.n_cavities == 1 else np.kron(site, site)
    pops = np.einsum("ai,tab,bi->ti", u.conj(), rhos, u).real
    return pops.reshape(len(rhos), *[len(site)] * p.n_cavities)


def site_marginals(pops: np.ndarray) -> np.ndarray:
    """(S, T, ds) populations of each site's dressed labels from the (T, ds)
    or (T, ds, ds) product populations, the input of _number_variance."""
    if pops.ndim == 2:
        return pops[None]
    return np.stack([pops.sum(axis=2), pops.sum(axis=1)])


def hold_point(psi, p: SystemParams, hold_time: float, samples: int) -> dict:
    """_measure_holds on the one ket ``psi`` at p.delta, one float per column."""
    holds = _measure_holds(psi[None], p, [p.delta], p.hopping, hold_time, samples)
    return {name: column[0] for name, column in holds.items()}


def overlap_hold(psi, amps: np.ndarray, times: np.ndarray, p: SystemParams) -> dict:
    """Oracle for _measure_holds on one hold's (T, D) amplitudes, by column:
    overlaps with the rebuilt product kets of the measured states and the
    operator variance."""

    def named(spec):
        return product_polariton_ket(p.dims, parse_state_spec(spec), p.g, p.delta)

    oracle = {"var": operator_variance(times, partial(expect_series, series=amps), p.dims),
              "p_lp": abs(psi.conj() @ named("1-,1-")) ** 2,
              "p_up": abs(psi.conj() @ named("1+,1+")) ** 2}
    for spec in MEASUREMENT_STATES:
        population = np.abs(amps @ named(spec).conj()) ** 2
        oracle[STATE_COLUMNS[spec]] = np.trapezoid(population, times) / times[-1]
    return oracle


@settings(deadline=None, max_examples=30)
@given(st.floats(0.05, 80.0), st.floats(0.02, 0.2), st.sampled_from(MEASUREMENT_STATES))
@example(0.05, 0.2, "1+,1+")
def test_hold_measurement_matches_overlap_oracle(delta, hopping, initial):
    p = TWO_SITE.with_(delta=delta, hopping=hopping)
    psi = product_polariton_ket(p.dims, parse_state_spec(initial), p.g, p.delta)
    times = np.linspace(0.0, 1.0 / hopping, 61)
    amps = evolve_closed(build_jch(p), psi, times)
    point = hold_point(psi, p, times[-1], len(times))
    oracle = overlap_hold(psi, amps, times, p)
    assert list(point) == list(oracle)  # the ramp's CSV order
    for name, value in oracle.items():
        assert abs(point[name] - value) < 1e-12
    # the dressed pair basis is complete: every sample's populations sum to 1
    _, (basis,) = dressed_bases(p.dims, p.g, [p.delta])
    pops = np.abs(pair_amplitudes(amps, basis)) ** 2
    assert np.max(np.abs(pops.sum(axis=(1, 2)) - 1.0)) < 1e-12


def stepwise_chain(psi, pulse, pulse_time: float, count: int) -> np.ndarray:
    """(count, D) carried states of a pulsed ramp built one two-point pulse
    at a time, renormalised after each."""
    states = [psi]
    for _ in range(count):
        amps = evolve_closed(pulse, states[-1], np.array([0.0, pulse_time]))[-1]
        states.append(amps / np.linalg.norm(amps))
    return np.array(states[1:])


def ramp_pulse(p: SystemParams, mode: int, strict: bool):
    """The ramp's pulse generator: hopping frozen unless ``strict``."""
    pulse = stroboscopic_generator(p, mode)
    return pulse + build_hopping(p) if strict else pulse


@settings(deadline=None, max_examples=25)
@given(st.lists(st.floats(0.05, 80.0), min_size=1, max_size=5), st.floats(0.02, 0.2),
       st.sampled_from(MEASUREMENT_STATES), st.sampled_from(("static", "frozen", "strict")))
@example([60.0, 0.1], 0.1, "1-,1-", "strict")
def test_batched_holds_match_separate_oracles(deltas, hopping, initial, chain):
    # K holds in one pass against K overlap oracles, each from its own
    # build_jch, evolve_closed and dense pair rotation; the carried states are
    # fresh (static) or pulsed with the hopping frozen or kept (strict)
    p = TWO_SITE.with_(hopping=hopping, delta=deltas[0])
    psi = product_polariton_ket(p.dims, parse_state_spec(initial), p.g, p.delta)
    if chain == "static":
        psis = np.repeat(psi[None], len(deltas), axis=0)
    else:
        pulse = ramp_pulse(p, 1, chain == "strict")
        psis = stepwise_chain(psi, pulse, math.pi / (2.0 * p.g), len(deltas))
    times = np.linspace(0.0, 1.0 / hopping, 61)
    holds = _measure_holds(psis, p, deltas, hopping, times[-1], len(times))
    assert all(column.shape == (len(deltas),) for column in holds.values())
    _, _, pairs, kept = _hold_amplitudes(psis, p, deltas, hopping, times[-1], len(times))
    for k, (delta, start, reached) in enumerate(zip(deltas, psis, kept)):
        pk = p.with_(delta=delta)
        amps = evolve_closed(build_jch(pk), start, times)
        for name, value in overlap_hold(start, amps, times, pk).items():
            assert abs(holds[name][k] - value) < 1e-12
        # the kept dressed pairs carry every amplitude of the dense rotation
        _, (basis,) = dressed_bases(pk.dims, pk.g, [delta])
        dense = pair_amplitudes(amps, basis)
        assert np.max(np.abs(dense[:, pairs[0], pairs[1]] - reached)) < 1e-13
        dense[:, pairs[0], pairs[1]] = 0.0
        assert np.max(np.abs(dense)) < 1e-13


@pytest.mark.parametrize("strict", [False, True])
def test_one_grid_pulse_chain_matches_stepwise_pulses(small_deltas, strict):
    # the ramp carries its state over one grid of K + 1 pulse times; holds
    # measured from the stepwise chain of two-point pulses agree with it
    p, deltas = TWO_SITE, small_deltas
    psi = product_polariton_ket(p.dims, parse_state_spec("1-,1-"), p.g, deltas[0])
    pulse = ramp_pulse(p, 1, strict)
    psis = stepwise_chain(psi, pulse, math.pi / (2.0 * p.g), len(deltas))
    expected = _measure_holds(psis, p, deltas, p.hopping, 1.0 / p.hopping, 241)
    columns, _ = ramp_experiment(p, deltas, 1, "1-,1-", time_dependent=True, strict_pulses=strict)
    assert list(columns) == ["delta", *expected]
    assert np.array_equal(columns["delta"], deltas)
    for name, want in expected.items():
        assert columns[name].shape == want.shape
        assert np.max(np.abs(columns[name] - want)) < 1e-12


@settings(deadline=None, max_examples=20)
@given(st.sets(st.floats(0.01, 0.2), min_size=1, max_size=3),
       st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3), st.data())
def test_batched_variance_equals_the_per_point_calls(hoppings, deltas, data):
    # variance_compare's grid in one stacked solve: distinct hoppings, a
    # detuning list with a repeat and both branches, in a random order, give
    # the one-element batches' floats exactly
    grid = [(j, d, b) for j in hoppings for d in deltas + deltas[:1] for b in "-+"]
    grid = data.draw(st.permutations(grid))
    points = [TWO_SITE.with_(hopping=j, delta=d) for j, d, _ in grid]
    branches = [b for *_, b in grid]
    batched = numeric_variance(points, branches, hold_samples=101)
    assert batched == [numeric_variance([p], [b], hold_samples=101)[0]
                       for p, b in zip(points, branches)]
    # every observable of the stacked holds, each on its own grid of 1/J
    js = np.array([p.hopping for p in points])
    specs = [f"1{b},1{b}" for b in branches]
    holds = _measure_holds(specs, TWO_SITE, [p.delta for p in points], js, 1.0 / js, 101)
    for k, (spec, p) in enumerate(zip(specs, points, strict=True)):
        single = _measure_holds([spec], p, [p.delta], p.hopping, 1.0 / p.hopping, 101)
        assert {name: column[k] for name, column in holds.items()} == {
            name: column[0] for name, column in single.items()}


def test_variance_grid_guards():
    assert numeric_variance([], []) == []
    with pytest.raises(ValueError, match="hopping must be positive"):
        numeric_variance([TWO_SITE, TWO_SITE.with_(hopping=0.0)], ["-", "+"])
    with pytest.raises(ValueError, match="only in hopping and detuning"):
        numeric_variance([TWO_SITE, TWO_SITE.with_(omega_c=50.0, delta=1.0)], ["-", "-"])
    with pytest.raises(ValueError):
        numeric_variance([TWO_SITE, TWO_SITE.with_(delta=1.0)], ["-"])
    with pytest.raises(ValueError):
        numeric_variance([TWO_SITE], ["x"])


class TestOrderParameter:
    def test_number_eigenstate_has_zero_instant_variance(self):
        p = TWO_SITE
        psi = product_polariton_ket(p.dims, parse_state_spec("1-,1-"), p.g, p.delta)
        point = hold_point(psi, p, 1.0 / p.hopping, 241)
        # the pair state is an exact eigenstate of each local counter at t=0
        times = np.array([0.0, 1e-6])
        amps = evolve_closed(build_jch(p), psi, times)
        from jchsim import excitation_number_at

        n0 = excitation_number_at(p.dims, 0).data
        mean = (amps[0].conj() @ n0 @ amps[0]).real
        square = (amps[0].conj() @ n0 @ n0 @ amps[0]).real
        assert square - mean**2 == pytest.approx(0.0, abs=1e-12)
        assert point["var"] > 0  # hopping builds variance over the window

    def test_trajectory_interface_and_guards(self):
        # the variance reads the dressed populations of an evolve Trajectory
        # as well as of a ket series; the ket route guards its lattice and
        # hopping strength
        p = SystemParams(delta=0.2, omega_c=9.0, cavity_decay=0.3, n_fock=2)
        liouv = build_liouvillian(build_jch(p), [])
        rho0 = pure(p.dims, site_polariton_ket(p.dims, 1, "-", p.g, p.delta))
        times = np.linspace(0.0, 2.0, 301)
        traj = evolve(liouv, rho0, times)
        value = _number_variance(traj.times, site_marginals(dressed_populations(traj.states, p)))
        assert value >= -1e-8
        oracle = operator_variance(traj.times, traj.expect, traj.dims)
        assert value == pytest.approx(oracle, abs=1e-12)
        with pytest.raises(DimensionMismatchError):
            numeric_variance([p], ["-"])
        with pytest.raises(ValueError):
            numeric_variance([TWO_SITE.with_(hopping=0.0)], ["-"])

    def test_matches_ket_variance_path(self):
        # the variance of the density-matrix series against the direct
        # amplitude-based variance used inside the ramp
        p = TWO_SITE.with_(delta=1.0)
        psi = product_polariton_ket(p.dims, parse_state_spec("1-,1-"), p.g, p.delta)
        times = np.linspace(0.0, 1.0 / p.hopping, 241)
        amps = evolve_closed(build_jch(p), psi, times)
        rhos = np.einsum("ti,tj->tij", amps, amps.conj())
        via_trajectory = _number_variance(times, site_marginals(dressed_populations(rhos, p)))
        via_kets = numeric_variance([p], ["-"], hold_samples=241)[0]
        assert via_trajectory == pytest.approx(via_kets, rel=1e-9)

    def test_small_variance_is_a_centred_sum(self):
        # variance_compare's smallest order parameter (J = 0.02, delta = 5,
        # branch "+", about 4.7e-6) against a long-double centred sum over the
        # same populations; <N^2> - <N>^2 in float64 is off by about 1e-9 of it
        p = SystemParams(delta=5.0, hopping=0.02, omega_c=1e4, n_fock=3, n_cavities=2)
        psi = product_polariton_ket(p.dims, parse_state_spec("1+,1+"), p.g, p.delta)
        # the populations the hold kernel reads, scattered into (T, ds, ds)
        (times,), labels, pairs, (reached,) = _hold_amplitudes(
            psi[None], p, [p.delta], p.hopping, 1.0 / p.hopping, 401)
        pops = np.zeros((len(times), len(labels), len(labels)))
        pops[:, pairs[0], pairs[1]] = np.abs(reached) ** 2
        counts = ((np.arange(pops.shape[1]) + 1) // 2).astype(np.longdouble)
        wide = pops.astype(np.longdouble)
        reference = np.longdouble(0)
        for marginal in (wide.sum(axis=2), wide.sum(axis=1)):
            spread = counts - (marginal @ counts)[:, None]
            reference += np.trapezoid((marginal * spread**2).sum(axis=1), times)
        reference /= times[-1] - times[0]
        value = _number_variance(times, site_marginals(pops))
        assert 1e-6 < value < 1e-5
        assert abs(value - reference) < 1e-12 * reference
        assert numeric_variance([p], ["+"], hold_samples=401)[0] == value

    @pytest.mark.parametrize("hopping, delta", [(0.02, 0.0), (0.05, 1.0), (0.1, 5.0), (0.02, 5.0)])
    def test_variance_at_large_omega_c_matches_shifted_frame(self, hopping, delta):
        # N_tot commutes with H, so the lab-frame H + omega_c N_tot leaves every
        # sector observable of the cavity frame as it is, up to the roundoff of
        # its 2e4-sized diagonal at omega_c = 1e4; the differences measured at
        # most 1.4e-10
        p = TWO_SITE.with_(hopping=hopping, delta=delta)
        psi = product_polariton_ket(p.dims, parse_state_spec("1-,1-"), p.g, p.delta)
        times = np.linspace(0.0, 1.0 / hopping, 401)
        shifted = build_jch(p) + p.omega_c * total_excitation(p.dims)
        amps = evolve_closed(shifted, psi, times)
        oracle = operator_variance(times, partial(expect_series, series=amps), p.dims)
        assert abs(numeric_variance([p], ["-"], hold_samples=401)[0] - oracle) < 1e-9


@pytest.fixture(scope="module")
def small_deltas():
    return np.geomspace(60.0, 0.1, 8)


class TestRampInputs:
    def test_summary_times(self, small_deltas):
        # a quarter branch rotation per pulse and a hold of 1/J
        columns, summary = ramp_experiment(TWO_SITE, small_deltas, time_dependent=False,
                                           hold_samples=21)
        assert summary == {"pulse_time": math.pi / 2, "hold_time": 10.0}
        assert np.array_equal(columns["delta"], small_deltas)

    @pytest.mark.parametrize(
        "deltas, mode, hopping, match",
        [
            (np.geomspace(0.1, 60.0, 8), 1, 0.1, "strictly decreasing"),
            (np.array([60.0, 0.0]), 1, 0.1, "positive and strictly decreasing"),
            (np.array([]), 1, 0.1, "1d array"),
            (np.geomspace(60.0, 0.1, 8)[None], 1, 0.1, "1d array"),
            (np.geomspace(60.0, 0.1, 8), 1.5, 0.1, "non-negative integer"),
            (np.geomspace(60.0, 0.1, 8), -1, 0.1, "non-negative"),
            (np.geomspace(60.0, 0.1, 8), 1, 0.0, "positive hopping strength"),
            (np.geomspace(60.0, 0.1, 8), 1, -0.1, "positive hopping strength"),
        ],
    )
    def test_constraint_violations_rejected(self, deltas, mode, hopping, match):
        with pytest.raises(ValueError, match=match):
            ramp_experiment(TWO_SITE.with_(hopping=hopping), deltas, mode)


class TestRampExperiment:
    def test_alternation_between_reference_curves(self, small_deltas):
        lp, _ = ramp_experiment(TWO_SITE, small_deltas, initial="1-,1-", time_dependent=False)
        up, _ = ramp_experiment(TWO_SITE, small_deltas, initial="1+,1+", time_dependent=False)
        pulsed, _ = ramp_experiment(TWO_SITE, small_deltas, initial="1-,1-", time_dependent=True)
        for i, var in enumerate(pulsed["var"]):
            expected = up["var"][i] if i % 2 == 0 else lp["var"][i]
            assert var == pytest.approx(expected, abs=1e-8)

    def test_total_excitation_conserved_through_chain(self, small_deltas):
        columns, _ = ramp_experiment(TWO_SITE, small_deltas, initial="1-,1-", time_dependent=True)
        # probabilities bookkeeping: two excitations distributed over the
        # tracked states, no leakage outside the closed sector
        total = sum(columns[name] for name in STATE_COLUMNS.values())
        assert np.all(total < 1.0 + 1e-9)

    def test_full_cycle_returns_branch(self):
        # two quarter-rotation pulses form half a cycle: |1-> -> -|1->
        p = TWO_SITE
        psi = product_polariton_ket(p.dims, parse_state_spec("1-,1-"), p.g, p.delta)
        gen = stroboscopic_generator(p, 0)
        amps = evolve_closed(gen, psi, np.array([0.0, math.pi]))[-1]
        overlap = abs(psi.conj() @ amps)
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_branch_separability_bound(self):
        p = TWO_SITE.with_(delta=0.5)
        psi = product_polariton_ket(p.dims, parse_state_spec("1-,1-"), p.g, p.delta)
        times = np.linspace(0.0, 10.0 / p.hopping, 401)
        labels, (basis,) = dressed_bases(p.dims, p.g, [p.delta])
        pops = np.abs(pair_amplitudes(evolve_closed(build_jch(p), psi, times), basis)) ** 2
        # the upper-branch weight summed over both sites
        plus = [i for i, lbl in enumerate(labels) if lbl.endswith("+")]
        up_weight = pops[:, plus].sum(axis=(1, 2)) + pops[:, :, plus].sum(axis=(1, 2))
        assert up_weight.max() < 0.1

    def test_open_system_rejected(self, small_deltas):
        with pytest.raises(ValueError):
            ramp_experiment(TWO_SITE.with_(atom_decay=0.1), small_deltas, initial="1-,1-")

    def test_strict_pulses_stay_close(self, small_deltas):
        frozen, _ = ramp_experiment(TWO_SITE, small_deltas, initial="1-,1-", time_dependent=True)
        strict, _ = ramp_experiment(
            TWO_SITE, small_deltas, initial="1-,1-", time_dependent=True, strict_pulses=True
        )
        # hopping acts for only ~pi/2 of each 10/g hold, so the correction is small
        diffs = np.abs(frozen["var"] - strict["var"])
        assert max(diffs) < 0.15


def test_total_excitation_drift_in_closed_ramp():
    p = TWO_SITE.with_(delta=2.0)
    psi = product_polariton_ket(p.dims, parse_state_spec("1-,1-"), p.g, p.delta)
    times = np.linspace(0.0, 10.0, 201)
    amps = evolve_closed(build_jch(p), psi, times)
    n_tot = total_excitation(p.dims).data
    drift = np.einsum("ti,ij,tj->t", amps.conj(), n_tot, amps).real - 2.0
    assert np.max(np.abs(drift)) < 1e-8


def test_closed_runs_give_the_same_numbers_at_any_cavity_frequency(small_deltas):
    # every number-conserving run works in the cavity frame, so omega_c moves
    # none of their numbers, bit for bit; at absolute frequencies they moved by
    # up to 1.9e-11 between omega_c = 100 and 1e4
    def closed_runs(omega_c):
        p = TWO_SITE.with_(omega_c=omega_c)
        probe, probe_summary = hopping_interchange_probe(p, samples=2001)
        ramps = [ramp_experiment(p, small_deltas, initial="1-,1-", time_dependent=pulsed,
                                 strict_pulses=strict)
                 for pulsed, strict in ((False, False), (True, False), (True, True))]
        ramps = [({name: column.tolist() for name, column in columns.items()}, summary)
                 for columns, summary in ramps]
        variances = numeric_variance([p, p.with_(delta=1.0)], ["-", "+"])
        config = ExperimentConfig.from_mapping({"experiment": "table1", "omega_c": omega_c})
        _, summary = EXPERIMENTS["table1"].runner(config.params, config.options)
        rows = summary["rows"]
        return (np.stack([probe["p_up_from_1minus"], probe["p_up_from_2minus"]]),
                (probe_summary, ramps, variances, rows))

    low, high = closed_runs(100.0), closed_runs(1e4)
    assert np.array_equal(low[0], high[0])
    assert low[1] == high[1]
