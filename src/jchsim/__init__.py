"""Dressed-state and Lindblad numerics for small Jaynes-Cummings(-Hubbard) lattices."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateSteadyStateError,
    DimensionMismatchError,
    JchsimError,
    NumericalError,
)
from .hilbert import (
    HilbertDims,
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
    total_excitation,
)
from .polariton import (
    branch_splitting,
    dressed_bases,
    dressed_ladders,
    mixing_angle,
    polariton_energy,
    product_polariton_ket,
    site_polariton_ket,
)
from .hamiltonians import (
    SystemParams,
    build_driven,
    build_hopping,
    build_jc,
    build_jch,
    decay_channels,
    rabi_frequency,
    stroboscopic_generator,
)
from .lindblad import (
    Liouvillian,
    Trajectory,
    build_liouvillian,
    evolve,
    evolve_closed,
    standard_liouvillian,
    steady_state,
    trace_distance,
)
from .spectroscopy import (
    Spectrum,
    absorption_spectrum,
    absorption_spectrum_analytic,
    default_frequency_grid,
    find_peaks,
)
from .perturbation import (
    PerturbationReport,
    dressed_drive,
    match_exact_energies,
    perturbation_report,
)
from .protocols import (
    EffectiveModel,
    analytic_variance,
    driven_oscillation_run,
    effective_model,
    extract_period,
    hopping_interchange_probe,
    mechanism_table,
    numeric_variance,
    ramp_experiment,
)
from .experiments import EXPERIMENTS, ExperimentConfig, run_experiment
from .selfcheck import run_selfcheck
