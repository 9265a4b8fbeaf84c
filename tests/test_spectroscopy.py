import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jchsim import (
    DensityMatrix,
    NumericalError,
    Spectrum,
    SystemParams,
    absorption_spectrum,
    absorption_spectrum_analytic,
    annihilation_at,
    bare_ket,
    build_jch,
    default_frequency_grid,
    find_peaks,
    mixing_angle,
    polariton_energy,
    site_polariton_ket,
    standard_liouvillian,
    steady_state,
    total_excitation,
)
from jchsim.experiments import _run_spectrum
from jchsim.spectroscopy import local_maxima, parabolic_refine


def offsets(params):
    """The default grid as offsets omega - omega_c, the frame of every spectrum."""
    return default_frequency_grid(params) - params.omega_c


@pytest.fixture(scope="module")
def resonant_setup():
    params = SystemParams(omega_c=100.0, delta=0.0, cavity_decay=0.5, atom_decay=0.5, n_fock=4)
    liouv = standard_liouvillian(params)
    return params, liouv, steady_state(liouv)


@pytest.fixture(scope="module")
def detuned_setup():
    params = SystemParams(omega_c=100.0, delta=1.0, cavity_decay=0.5, atom_decay=0.5, n_fock=4)
    liouv = standard_liouvillian(params)
    return params, liouv, steady_state(liouv)


class TestCorrelationFunction:
    """The steady-state correlation <a(tau) a^dag(0)> behind every spectrum."""

    def test_undamped_generator_rejected(self):
        p = SystemParams(omega_c=100.0, delta=0.0, n_fock=3)
        liouv = standard_liouvillian(p)
        vac = site_polariton_ket(p.dims, 1, "-", p.g, p.delta)  # stationary eigenstate
        with pytest.raises(NumericalError, match="does not decay"):
            absorption_spectrum(liouv, vac.density_matrix(), annihilation_at(p.dims, 0), offsets(p))

    def test_nonstationary_state_rejected(self, resonant_setup):
        params, liouv, _ = resonant_setup
        moving = site_polariton_ket(params.dims, 2, "-", params.g, params.delta)
        with pytest.raises(NumericalError, match="absorption_spectrum: state is not stationary"):
            absorption_spectrum(
                liouv, moving.density_matrix(), annihilation_at(params.dims, 0), offsets(params)
            )

    def test_state_moving_only_off_its_support_is_rejected(self, resonant_setup):
        # the vacuum with p = 1.5e-6 of |1,g>: on the state's own support
        # L[rho] is the cavity loss kappa p = 7.5e-7, under STATIONARITY_TOL,
        # but the Rabi coupling moves g p = 1.5e-6 into |0,e><1,g|, which
        # the check reads on the closure of that support
        params, liouv, rho_ss = resonant_setup
        p = 1.5e-6
        photon = bare_ket(params.dims, [(1, 0)]).density_matrix().data
        rho = DensityMatrix(params.dims, (1 - p) * rho_ss.data + p * photon)
        with pytest.raises(NumericalError, match="not stationary .* = 1.500e-06"):
            absorption_spectrum(liouv, rho, annihilation_at(params.dims, 0), offsets(params))

    def test_three_level_double_exponential(self, detuned_setup):
        # from the vacuum the correlation never leaves the one-excitation
        # states, so its spectrum is the closed resolvent form
        params, liouv, rho_ss = detuned_setup
        grid = offsets(params)
        numeric = absorption_spectrum(liouv, rho_ss, annihilation_at(params.dims, 0), grid)
        analytic = absorption_spectrum_analytic(params, grid)
        rel = np.max(np.abs(numeric.values - analytic.values)) / analytic.values.max()
        assert rel < 1e-10

    def test_initial_value(self, resonant_setup):
        # the spectrum integrates to 2 pi <a a^dag>_vacuum = 2 pi, the initial
        # value of the decaying correlation; on nu = tan(theta) the integrand
        # S sec^2 is smooth and pi-periodic in theta, so the midpoint rule
        # over (-pi/2, pi/2) converges exponentially
        params, liouv, rho_ss = resonant_setup
        step = np.pi / 4000
        theta = -np.pi / 2 + step * (np.arange(4000) + 0.5)
        spec = absorption_spectrum(liouv, rho_ss, annihilation_at(params.dims, 0), np.tan(theta))
        integral = step * np.sum(spec.values / np.cos(theta) ** 2)
        assert integral / (2 * np.pi) == pytest.approx(1.0, abs=1e-10)


class TestNumericSpectrum:
    def test_resonant_peaks_symmetric(self, resonant_setup):
        params, liouv, rho_ss = resonant_setup
        spec = absorption_spectrum(liouv, rho_ss, annihilation_at(params.dims, 0), offsets(params))
        report = find_peaks(spec)
        step = spec.frequencies[1] - spec.frequencies[0]
        assert len(report["positions"]) == 2
        assert report["positions"][0] == pytest.approx(-1.0, abs=step)
        assert report["positions"][1] == pytest.approx(1.0, abs=step)
        assert report["asymmetry"] < 1e-3

    def test_detuned_peak_positions(self, detuned_setup):
        params, liouv, rho_ss = detuned_setup
        spec = absorption_spectrum(liouv, rho_ss, annihilation_at(params.dims, 0), offsets(params))
        report = find_peaks(spec)
        step = spec.frequencies[1] - spec.frequencies[0]
        assert report["positions"][0] == pytest.approx((1 - math.sqrt(5)) / 2, abs=step)
        assert report["positions"][-1] == pytest.approx((1 + math.sqrt(5)) / 2, abs=step)

    def test_matches_analytic_form(self, resonant_setup, detuned_setup):
        for params, liouv, rho_ss in (resonant_setup, detuned_setup):
            grid = offsets(params)
            numeric = absorption_spectrum(liouv, rho_ss, annihilation_at(params.dims, 0), grid)
            analytic = absorption_spectrum_analytic(params, grid)
            rel = np.max(np.abs(numeric.values - analytic.values)) / analytic.values.max()
            assert rel < 1e-3

    def test_spectral_consistency_with_mode_frequencies(self, resonant_setup):
        # peak positions match imaginary parts of decaying Liouvillian modes
        params, liouv, rho_ss = resonant_setup
        spec = absorption_spectrum(liouv, rho_ss, annihilation_at(params.dims, 0), offsets(params))
        report = find_peaks(spec)
        mode_freqs = -liouv.modes().eigenvalues.imag
        step = spec.frequencies[1] - spec.frequencies[0]
        for pos in report["positions"]:
            assert np.min(np.abs(mode_freqs - pos)) < step

    def test_positive_finite_integral(self, resonant_setup):
        params, liouv, rho_ss = resonant_setup
        spec = absorption_spectrum(liouv, rho_ss, annihilation_at(params.dims, 0), offsets(params))
        integral = np.trapezoid(spec.values, spec.frequencies)
        assert 0.0 < integral < np.inf


def two_lorentzian(params: SystemParams, omega: np.ndarray) -> np.ndarray:
    """The secular form on offsets from omega_c: one Lorentzian per n = 1
    branch, centred on its cavity-frame energy, weighted by its photonic
    fraction and of half-width (kappa + gamma) / 4, the resolvent's exact
    form at equal decay rates."""
    theta = mixing_angle(1, params.g, params.delta)
    width = 0.25 * (params.cavity_decay + params.atom_decay)
    out = np.zeros_like(omega)
    for branch, weight in (("+", math.sin(theta) ** 2), ("-", math.cos(theta) ** 2)):
        centre = polariton_energy(1, branch, params.g, params.delta, 0.0)
        out += 2.0 * weight * width / ((omega - centre) ** 2 + width**2)
    return out


class TestAnalyticSpectrum:
    def test_resonant_heights(self):
        # both branch half-widths are g/4; each branch contributes
        # 2 (1/2)/(g/4) = 4/g on resonance, plus the small tail of the opposite
        # Lorentzian
        params = SystemParams(omega_c=100.0, delta=0.0, cavity_decay=0.5, atom_decay=0.5)
        spec = absorption_spectrum_analytic(params, offsets(params))
        assert np.abs(spec.values - two_lorentzian(params, spec.frequencies)).max() < 1e-12
        own = 2.0 * 0.5 / 0.25
        tail = 2.0 * 0.5 * 0.25 / (4.0 + 0.25**2)
        assert own == pytest.approx(4.0)
        report = find_peaks(spec)
        assert np.allclose(report["heights"], own + tail, rtol=1e-4)
        assert np.allclose(report["widths"], 0.5, rtol=2e-2)  # FWHM ~ 2 gamma

    def test_asymmetry_from_detuning_only(self):
        # at equal rates both branches have the same width, so only their
        # photonic fractions set the two heights
        params = SystemParams(omega_c=100.0, delta=1.0, cavity_decay=0.5, atom_decay=0.5)
        spec = absorption_spectrum_analytic(params, offsets(params))
        assert np.abs(spec.values - two_lorentzian(params, spec.frequencies)).max() < 1e-12
        report = find_peaks(spec)
        theta = mixing_angle(1, 1.0, 1.0)
        expected = abs(math.cos(theta) ** 2 - math.sin(theta) ** 2)
        assert report["asymmetry"] == pytest.approx(expected, abs=0.02)

    def test_dispersive_lower_branch_dominates(self):
        params = SystemParams(omega_c=100.0, delta=30.0, cavity_decay=0.5, atom_decay=0.5)
        grid = np.linspace(-40.0, 40.0, 4001)
        report = find_peaks(absorption_spectrum_analytic(params, grid))
        # the upper-branch peak falls below the reporting floor entirely
        assert len(report["positions"]) == 1
        e_minus = polariton_energy(1, "-", 1.0, 30.0, 0.0)
        assert report["positions"][0] == pytest.approx(e_minus, abs=0.05)
        theta = mixing_angle(1, 1.0, 30.0)
        assert math.sin(theta) ** 2 / math.cos(theta) ** 2 < 0.01


@settings(deadline=None, max_examples=40)
@given(st.floats(-3.0, 3.0), st.floats(0.05, 2.0), st.floats(0.05, 2.0), st.floats(0.0, 1e4))
@example(0.0, 0.05, 0.05, 1e4)
def test_closed_form_is_the_engine_spectrum_at_any_rates(delta, cavity_decay, atom_decay,
                                                         omega_c):
    # the resolvent of the one-excitation no-jump Hamiltonian is exact at
    # unequal rates too, where the secular two-Lorentzian form is off by up
    # to about 13% of the peak; on the offsets from omega_c neither side
    # carries omega_c, so the spectrum run's error stays at rounding at any
    # cavity frequency (7.9e-15 of the peak at worst in 600 random draws; at
    # absolute frequencies it grew to 5.8e-11 at omega_c = 1e4 and rates 0.05)
    params = SystemParams(omega_c=omega_c, delta=delta, cavity_decay=cavity_decay,
                          atom_decay=atom_decay, n_fock=2)
    _, summary = _run_spectrum(params, {"n_points": 2001})
    assert summary["relative_sup_error"] < 1e-13


# 0 or a relative offset of either sign from 1e-12 to 0.1
_ep_offsets = st.one_of(st.just(0.0), st.builds(lambda sign, power: sign * 10.0**power,
                                                 st.sampled_from([-1.0, 1.0]), st.floats(-12.0, -1.0)))


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([1, 2]), _ep_offsets, st.floats(0.0, 2.0), st.floats(0.2, 2.0))
@example(1, 0.0, 0.2, 1.0)
@example(2, 0.0, 0.2, 1.0)
def test_spectrum_is_exact_at_and_around_the_exceptional_point(n_cavities, offset, atom_decay,
                                                               hopping):
    # kappa - gamma = 4g, at zero detuning from a cavity mode (delta = 0 on one
    # cavity, delta = J on two), makes the no-jump Hamiltonian of that mode's
    # one-excitation pair a Jordan block; an eigenbasis there lost 8 digits
    # (1.8e-8 and 9.5e-9 of the peak at offset 0), the resolvent loses none
    # (6.1e-16 of the peak at worst in 500 random draws, a margin of 160)
    params = SystemParams(delta=hopping if n_cavities == 2 else 0.0,
                          hopping=hopping if n_cavities == 2 else 0.0,
                          cavity_decay=atom_decay + 4.0 * (1.0 + offset), atom_decay=atom_decay,
                          n_fock=2, n_cavities=n_cavities)
    _, summary = _run_spectrum(params, {"n_points": 2001})
    assert summary["relative_sup_error"] < 1e-13


@settings(deadline=None, max_examples=40)
@given(st.floats(-2.0, 2.0), st.floats(0.2, 2.0), st.floats(0.05, 2.0), st.floats(0.05, 2.0))
def test_two_cavity_spectrum_is_the_mean_of_the_normal_mode_spectra(delta, hopping, cavity_decay,
                                                                    atom_decay):
    # one excitation on two cavities splits into the symmetric and the
    # antisymmetric normal mode, whose cavities sit at offsets +-J, and the
    # local losses stay diagonal there, so site 0's spectrum is
    # 1/2 [S(nu - J; delta - J) + S(nu + J; delta + J)], S the one-cavity
    # closed form with the atom frequency held; the largest error seen in 300
    # random draws was 1.2e-13 of the peak, so 1e-12 leaves a margin of 8.
    # The library's two-cavity closed form is that mean up to the rounding of
    # nu - delta (2.6e-15 of the peak at worst in 5000 random draws)
    params = SystemParams(delta=delta, hopping=hopping, cavity_decay=cavity_decay,
                          atom_decay=atom_decay, n_fock=2, n_cavities=2)
    columns, summary = _run_spectrum(params, {"n_points": 2001})
    grid = offsets(params)
    single = params.with_(n_cavities=1, hopping=0.0)
    oracle = 0.5 * sum(
        absorption_spectrum_analytic(single.with_(delta=delta - sign * hopping),
                                     grid - sign * hopping).values
        for sign in (1.0, -1.0))
    assert np.abs(columns["S_numeric"] - oracle).max() < 1e-12 * oracle.max()
    analytic = absorption_spectrum_analytic(params, grid).values
    assert np.abs(analytic - oracle).max() < 1e-14 * oracle.max()
    assert summary["relative_sup_error"] < 1e-12


def test_two_cavity_spectrum_forms_only_its_sector():
    # a^dag |0><0| reaches the one-excitation states and the vacuum against
    # the vacuum, 5 indices at any photon cutoff, so at n_fock = 4, where the
    # whole generator is 10^4 wide (1.6 GB dense), the run stays small in
    # memory and its spectrum is the one at n_fock = 2
    params = SystemParams(delta=0.4, hopping=1.1, cavity_decay=0.5, atom_decay=0.3, n_cavities=2)
    options = {"n_points": 2001}
    reference = _run_spectrum(params.with_(n_fock=2), options)[0]["S_numeric"]
    tracemalloc.start()
    try:
        spectrum = _run_spectrum(params.with_(n_fock=4), options)[0]["S_numeric"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    assert np.abs(spectrum - reference).max() <= 1e-13 * reference.max()


class TestFindPeaks:
    def test_two_lorentzian_recovery(self):
        x = np.linspace(-4.0, 4.0, 2001)
        y = 1.0 / ((x + 1.2) ** 2 + 0.01) + 0.5 / ((x - 0.9) ** 2 + 0.04)
        report = find_peaks(Spectrum(x, y))
        step = x[1] - x[0]
        assert report["positions"][0] == pytest.approx(-1.2, abs=step)
        assert report["positions"][1] == pytest.approx(0.9, abs=step)

    def test_no_peaks_raises(self):
        x = np.linspace(0.0, 1.0, 31)
        with pytest.raises(NumericalError):
            find_peaks(Spectrum(x, np.linspace(0.0, 1.0, 31)))

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            find_peaks(Spectrum(np.array([0.0, 1.0]), np.array([1.0, 2.0])))


# small integers give plateaus and ties; bounded floats give generic series
SERIES = st.one_of(
    st.lists(st.integers(-3, 3), max_size=40),
    st.lists(st.floats(-1e3, 1e3), max_size=40),
)


class TestPeakPrimitives:
    @settings(deadline=None)
    @given(SERIES)
    def test_local_maxima_are_exactly_the_interior_maxima(self, y):
        expected = [i for i in range(1, len(y) - 1) if y[i - 1] <= y[i] > y[i + 1]]
        assert local_maxima(y) == expected

    @settings(deadline=None)
    @given(SERIES, st.floats(1e-3, 1e3))
    def test_refine_moves_at_most_half_a_step_and_never_lowers(self, y, step):
        x = step * np.arange(len(y))
        y = np.asarray(y, dtype=float)
        idx = local_maxima(y)
        pos, height = parabolic_refine(x, y, idx)
        assert np.all(np.abs(pos - x[idx]) <= 0.5 * step * (1 + 1e-9))
        assert np.all(height >= y[idx])

    @settings(deadline=None)
    @given(
        st.floats(-0.5, 0.5), st.floats(-10.0, 10.0), st.floats(0.1, 10.0), st.floats(0.01, 1.0)
    )
    def test_sampled_parabola_gives_its_vertex(self, offset, top, curvature, step):
        x = step * np.arange(-5, 6)
        vertex = offset * step
        y = top - curvature * (x - vertex) ** 2
        (pos,), (height,) = parabolic_refine(x, y, [int(np.argmax(y))])
        assert pos == pytest.approx(vertex, abs=1e-6 * step)
        assert height == pytest.approx(top, abs=1e-9)


def test_spectrum_rejects_undamped_generator():
    p = SystemParams(omega_c=100.0, delta=0.0, n_fock=3)
    liouv = standard_liouvillian(p)
    stationary = site_polariton_ket(p.dims, 1, "-", p.g, p.delta).density_matrix()
    with pytest.raises(NumericalError, match="does not decay"):
        absorption_spectrum(liouv, stationary, annihilation_at(p.dims, 0), np.linspace(-4, 4, 11))


def test_spectrum_floor_enforced():
    x = np.linspace(0.0, 1.0, 5)
    with pytest.raises(NumericalError, match="floor"):
        Spectrum(x, np.array([0.0, 1.0, -0.5, 1.0, 0.0]))


def test_default_grid_extends_with_hopping():
    single = SystemParams(omega_c=100.0)
    pair = SystemParams(omega_c=100.0, hopping=10.0, n_fock=2, n_cavities=2)
    g1 = default_frequency_grid(single)
    g2 = default_frequency_grid(pair)
    assert g1[0] == pytest.approx(96.0) and g1[-1] == pytest.approx(104.0)
    assert g2[0] == pytest.approx(76.0) and g2[-1] == pytest.approx(124.0)


@settings(deadline=None, max_examples=40)
@given(st.floats(-8.0, 8.0), st.floats(0.05, 0.5))
def test_default_grid_resolves_both_polaritons_at_any_detuning(delta, rate):
    # beyond |delta| = 3.75 g the atom-like level left the old omega_c +- 4g
    # window; at equal rates the weaker peak is still tan^2(theta_1) >= 1.5%
    # of the stronger at |delta| = 8, above find_peaks' 1% floor; from a rate of
    # about 0.8 the tail of one line moves the other's peak by over a grid step
    params = SystemParams(omega_c=100.0, delta=delta, cavity_decay=rate, atom_decay=rate)
    grid = offsets(params)
    report = find_peaks(absorption_spectrum_analytic(params, grid))
    split = math.hypot(delta / 2.0, params.g)
    for level in delta / 2.0 + np.array([-split, split]):
        assert np.abs(report["positions"] - level).min() <= grid[1] - grid[0]


@settings(deadline=None, max_examples=30)
@given(st.floats(-8.0, 8.0), st.floats(0.0, 3.0))
def test_default_grid_holds_every_two_cavity_level_with_margin(delta, hopping):
    params = SystemParams(omega_c=100.0, delta=delta, hopping=hopping, n_fock=2, n_cavities=2)
    one = np.flatnonzero(np.isclose(total_excitation(params.dims).data.diagonal().real, 1.0))
    levels = np.linalg.eigvalsh(build_jch(params).data[np.ix_(one, one)])
    grid = offsets(params)
    assert levels.min() - grid[0] >= 2.0 * params.g - 1e-9
    assert grid[-1] - levels.max() >= 2.0 * params.g - 1e-9
