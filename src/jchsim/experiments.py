"""Configuration-driven experiments with deterministic CSV/JSON output.

A config file is flat ``key = value`` text, one experiment per file; every
key is either a physical parameter (in units of g) that the named experiment
reads or one of its options, and any other key is rejected.  Identical
configs produce byte-identical result files: data sections carry no run
metadata, and the provenance comment block holds only the resolved parameter
set and the engine version.
"""
from __future__ import annotations

import errno
import functools
import itertools
import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError
from .hamiltonians import SystemParams
from .lindblad import standard_liouvillian, steady_state
from .perturbation import (
    REPORT_LABELS,
    match_exact_energies,
    perturbation_report,
)
from .protocols import (
    MEASUREMENT_STATES,
    RampSchedule,
    analytic_variance,
    driven_oscillation_run,
    effective_model,
    hopping_interchange_probe,
    mechanism_table,
    numeric_variance,
    ramp_experiment,
)
from .spectroscopy import (
    absorption_spectrum,
    absorption_spectrum_analytic,
    default_frequency_grid,
    find_peaks,
)
from .hilbert import annihilation_at

PARAM_DEFAULTS = {f.name: f.default for f in fields(SystemParams)}


@dataclass
class ExperimentResult:
    columns: dict
    summary: dict


def _peak_dict(report, omega_c: float):
    """The peaks of a spectrum on offsets from ``omega_c``, at absolute positions."""
    return {
        "positions": [float(x) for x in report.positions + omega_c],
        "heights": [float(x) for x in report.heights],
        "widths": [float(x) for x in report.widths],
        "asymmetry": report.asymmetry,
    }


# ---------------------------------------------------------------------------
# experiment runners


def _numeric_spectrum(params: SystemParams, options: dict):
    """Absolute frequency grid and the first-cavity spectrum of the lossy lattice's
    steady state, on the grid's offsets from omega_c."""
    grid = default_frequency_grid(params, int(options["n_points"]))
    liouv = standard_liouvillian(params)
    rho_ss = steady_state(liouv)
    offsets = grid - params.omega_c
    return grid, absorption_spectrum(liouv, rho_ss, annihilation_at(params.dims, 0), offsets)


def _run_spectrum(params: SystemParams, options: dict) -> ExperimentResult:
    grid, numeric = _numeric_spectrum(params, options)
    analytic = absorption_spectrum_analytic(params, numeric.frequencies)
    return ExperimentResult(
        columns={"omega": grid, "S_numeric": numeric.values, "S_analytic": analytic.values},
        summary={
            "peaks_numeric": _peak_dict(find_peaks(numeric), params.omega_c),
            "peaks_analytic": _peak_dict(find_peaks(analytic), params.omega_c),
            "relative_sup_error": float(
                np.max(np.abs(numeric.values - analytic.values)) / np.max(analytic.values)
            ),
        },
    )


def _run_two_cavity_spectrum(params: SystemParams, options: dict) -> ExperimentResult:
    grid, numeric = _numeric_spectrum(params, options)
    return ExperimentResult(
        columns={"omega": grid, "S_numeric": numeric.values},
        summary={"peaks_numeric": _peak_dict(find_peaks(numeric), params.omega_c)},
    )


def _run_driven_oscillation(params: SystemParams, options: dict) -> ExperimentResult:
    series, summary = driven_oscillation_run(
        params, t_final=float(options["t_final"]), samples=int(options["samples"])
    )
    kept = ("period_extracted", "period_analytic", "rabi_frequency_analytic", "maxima_times")
    return ExperimentResult(columns=series, summary={key: summary[key] for key in kept})


def _run_rwa_probe(params: SystemParams, options: dict) -> ExperimentResult:
    samples = int(options["samples"])
    first = hopping_interchange_probe(params, "1-,0", samples=samples)
    second = hopping_interchange_probe(params, "2-,0", samples=samples)
    return ExperimentResult(
        columns={
            "t": first["times"],
            "p_up_from_1minus": first["probability"],
            "p_up_from_2minus": second["probability"],
        },
        summary={
            "max_p_up_from_1minus": first["max_probability"],
            "max_p_up_from_2minus": second["max_probability"],
            "targets": {"1-,0": first["target"], "2-,0": second["target"]},
        },
    )


def _run_ramp(params: SystemParams, options: dict) -> ExperimentResult:
    schedule = RampSchedule.default(
        params,
        mode=int(options["mode"]),
        n_points=int(options["n_points"]),
        delta_min=float(options["delta_min"]),
        delta_max=float(options["delta_max"]),
    )
    points = ramp_experiment(
        schedule,
        params,
        initial=str(options["initial"]),
        time_dependent=bool(options["time_dependent"]),
        strict_pulses=bool(options["strict_ramp"]),
        hold_samples=int(options["hold_samples"]),
    )
    columns = {
        "delta": [p.delta for p in points],
        "var": [p.var for p in points],
        "p_lp": [p.branch_populations["lp"] for p in points],
        "p_up": [p.branch_populations["up"] for p in points],
    }
    for spec in MEASUREMENT_STATES:  # "2-,0" is the column p_2m_0
        name = "p_" + spec.replace("-", "m").replace("+", "p").replace(",", "_")
        columns[name] = [p.state_probabilities[spec] for p in points]
    return ExperimentResult(
        columns=columns,
        summary={
            "mode": schedule.mode,
            "pulse_time": schedule.pulse_time,
            "hold_time": schedule.hold_time,
            "time_dependent": bool(options["time_dependent"]),
            "initial": str(options["initial"]),
        },
    )


def _run_table1(params: SystemParams, options: dict) -> ExperimentResult:
    rows = mechanism_table(n_fock=params.n_fock)
    columns = {key: [row[key] for row in rows] for key in rows[0]}
    return ExperimentResult(columns=columns, summary={"rows": rows})


def _run_variance_compare(params: SystemParams, options: dict) -> ExperimentResult:
    grid = [(float(j), float(delta), branch) for j in np.atleast_1d(options["hopping_values"])
            for delta in np.atleast_1d(options["delta_values"]) for branch in ("-", "+")]
    points = [params.with_(hopping=j, delta=delta) for j, delta, _ in grid]
    numerics = numeric_variance(points, [b for *_, b in grid], int(options["hold_samples"]))
    names = ("hopping", "delta", "branch", "var_numeric", "var_analytic", "abs_error", "rel_error")
    columns = {name: [] for name in names}
    for (j, delta, branch), p, numeric in zip(grid, points, numerics):
        analytic = analytic_variance(effective_model(p, branch), j)
        err = abs(numeric - analytic)
        rel = err / numeric if numeric > 0 else 0.0
        for name, value in zip(names, (j, delta, branch, numeric, analytic, err, rel)):
            columns[name].append(value)
    return ExperimentResult(
        columns=columns,
        summary={
            "diagonal_form": "energy",
            "max_rel_error_large_var": max(
                (r for r, v in zip(columns["rel_error"], columns["var_numeric"]) if v >= 0.1),
                default=0.0,
            ),
            "max_abs_error_small_var": max(
                (e for e, v in zip(columns["abs_error"], columns["var_numeric"]) if v < 0.1),
                default=0.0,
            ),
        },
    )


def _run_perturbation_report(params: SystemParams, options: dict) -> ExperimentResult:
    report = perturbation_report(params)
    exact = match_exact_energies(params)
    columns = {
        "label": list(REPORT_LABELS),
        "e0": [report.e0[k] for k in REPORT_LABELS],
        "e2": [report.e2[k] for k in REPORT_LABELS],
        "e_perturbative": [report.perturbative_energy(k) for k in REPORT_LABELS],
        "e_exact": [exact[k][0] for k in REPORT_LABELS],
        "overlap": [exact[k][1] for k in REPORT_LABELS],
        "residual": [abs(exact[k][0] - report.perturbative_energy(k)) for k in REPORT_LABELS],
    }
    return ExperimentResult(
        columns=columns,
        summary={
            "max_residual": max(columns["residual"]),
            "clusters": [list(cluster) for cluster in report.clusters],
            "max_coupling_ratio": report.max_coupling_ratio,
            "terms": list(report.terms),
        },
    )


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class ExperimentSpec:
    runner: object
    description: str
    param_defaults: dict
    option_defaults: dict
    # the SystemParams fields the runner reads; a config may set only these
    reads: tuple


EXPERIMENTS = {
    "spectrum": ExperimentSpec(
        _run_spectrum,
        "single-cavity absorption spectrum, numeric vs closed form",
        {
            "omega_c": 100.0,
            "delta": 0.0,
            "cavity_decay": 0.5,
            "atom_decay": 0.5,
            "n_fock": 4,
            "n_cavities": 1,
        },
        {"n_points": 2001},
        ("g", "delta", "omega_c", "cavity_decay", "atom_decay"),
    ),
    "two_cavity_spectrum": ExperimentSpec(
        _run_two_cavity_spectrum,
        "first-cavity absorption spectrum of the hopping-coupled pair",
        {
            "omega_c": 100.0,
            "delta": 0.0,
            "hopping": 1.0,
            "cavity_decay": 0.5,
            "atom_decay": 0.5,
            "n_fock": 2,
            "n_cavities": 2,
        },
        {"n_points": 2001},
        ("g", "delta", "omega_c", "hopping", "cavity_decay", "atom_decay"),
    ),
    "driven_oscillation": ExperimentSpec(
        _run_driven_oscillation,
        "branch interchange under strong far-detuned atomic driving",
        {
            "delta": 0.0,
            "atom_drive": 50.0,
            "atom_drive_detuning": 500.0,
            "cavity_drive_detuning": 500.0,
            "n_fock": 4,
            "n_cavities": 1,
        },
        {"t_final": 4.0, "samples": 8001},
        ("g", "delta", "atom_drive", "cavity_drive", "atom_drive_detuning",
         "cavity_drive_detuning", "cavity_decay", "atom_decay", "n_fock"),
    ),
    "rwa_probe": ExperimentSpec(
        _run_rwa_probe,
        "upper-branch leakage of the closed two-site lattice at g = 10 J",
        {
            "omega_c": 1e4,
            "delta": 0.0,
            "hopping": 0.1,
            "n_fock": 3,
            "n_cavities": 2,
        },
        {"samples": 8001},
        ("g", "delta", "hopping"),
    ),
    "ramp": ExperimentSpec(
        _run_ramp,
        "order-parameter sweep over the stroboscopic detuning ramp",
        {
            "omega_c": 1e4,
            "hopping": 0.1,
            "n_fock": 3,
            "n_cavities": 2,
        },
        {
            "mode": 1,
            "time_dependent": True,
            "initial": "1-,1-",
            "n_points": 40,
            "delta_min": 0.1,
            "delta_max": 60.0,
            "hold_samples": 241,
            "strict_ramp": False,
        },
        ("g", "hopping"),
    ),
    "table1": ExperimentSpec(
        _run_table1,
        "coherence and interchange probability of the four control mechanisms",
        {"omega_c": 1e4, "n_fock": 3},
        {},
        # no result reads omega_c, but perfbench's table1-0 job sets it; the key
        # is accepted until that job stops setting it
        ("omega_c", "n_fock"),
    ),
    "variance_compare": ExperimentSpec(
        _run_variance_compare,
        "numeric vs closed-form order parameter across hopping and detuning",
        {
            "omega_c": 1e4,
            "n_fock": 3,
            "n_cavities": 2,
        },
        {
            "hopping_values": [0.02, 0.05, 0.1],
            "delta_values": [0.0, 1.0, 5.0],
            "hold_samples": 401,
        },
        ("g",),
    ),
    "perturbation_report": ExperimentSpec(
        _run_perturbation_report,
        "weak-drive perturbation series against dense diagonalization",
        {
            "delta": 0.0,
            "atom_drive": 0.01,
            "cavity_drive": 0.01,
            "atom_drive_detuning": 0.3,
            "cavity_drive_detuning": 0.3,
            "n_fock": 4,
            "n_cavities": 1,
        },
        {},
        ("g", "delta", "atom_drive", "cavity_drive", "atom_drive_detuning",
         "cavity_drive_detuning", "n_fock"),
    ),
}


# ---------------------------------------------------------------------------
# config parsing


def _parse_value(text: str):
    text = text.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
        try:
            return [float(p) for p in parts]
        except ValueError:
            pass
    return text


# accepted value types by default type (an int given to a float stays an int)
_OPTION_TYPES = {bool: bool, int: int, float: (int, float), list: (list, int, float), str: str}


def _check_option(key: str, value, default):
    """The value of a parameter or option if it has the type of its default
    and every number in it is finite."""
    kind = type(default)
    # bool is a subclass of int: true/false must not pass as a number
    wrong_bool = isinstance(value, bool) and kind is not bool
    if wrong_bool or not isinstance(value, _OPTION_TYPES[kind]):
        raise ConfigError(f"{key!r} takes a {kind.__name__} value, got {value!r}")
    if kind is not str and not np.all(np.isfinite(value)):
        raise ConfigError(f"{key!r} takes finite numbers, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: SystemParams
    options: dict
    resolved: dict

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        if "experiment" not in mapping:
            raise ConfigError("config is missing the 'experiment' key")
        name = str(mapping["experiment"])
        if name not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {name!r}; known: {', '.join(sorted(EXPERIMENTS))}"
            )
        spec = EXPERIMENTS[name]
        param_values = dict(spec.param_defaults)
        options = dict(spec.option_defaults)
        for key, value in mapping.items():
            if key == "experiment":
                continue
            if key in spec.reads:
                param_values[key] = _check_option(key, value, PARAM_DEFAULTS[key])
            elif key in options:
                options[key] = _check_option(key, value, options[key])
            elif key in PARAM_DEFAULTS:
                raise ConfigError(f"experiment {name!r} does not read parameter {key!r}")
            else:
                raise ConfigError(f"unknown key {key!r} for experiment {name!r}")
        try:
            params = SystemParams(**param_values)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid parameters: {exc}") from exc
        resolved = {
            "experiment": name,
            **{f"params.{k}": getattr(params, k) for k in PARAM_DEFAULTS},
            **{f"options.{k}": v for k, v in sorted(options.items())},
        }
        return cls(name, params, options, resolved)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        mapping = {}
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key in mapping:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            mapping[key] = _parse_value(value)
        return cls.from_mapping(mapping)


# ---------------------------------------------------------------------------
# deterministic serialization


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".15g")
    return str(value)


def provenance_lines(resolved: dict) -> list:
    lines = [f"# jchsim {__version__}"]
    for key, value in resolved.items():
        lines.append(f"# {key} = {_format_cell(value)}")
    return lines


def _csv_escape(cell: str) -> str:
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


# _float_text writes a whole float64 array at once, byte for byte as Python
# writes one value: format(x, ".15g") for a CSV cell, float.__repr__ (the
# number json.dumps writes) for a JSON list.  |x| is scaled by a power of ten
# in long double so that k significant digits sit in the integer part, and
# rounded.  repr's digits are the first of the 15-, 16- and 17-digit roundings
# that reads back as x (Gay's shortest digits; 17 always do).  A rounding or
# read-back test that the long-double error bound cannot decide, and 0,
# subnormals, NaN and infinities, are written one at a time by format or repr
# itself; where long double is no wider than double, that is every value.

# bound on the relative error of |x| * 10**p: the power is correctly rounded
# (strtold) and the product rounds once
_MARGIN = 2 * float(np.finfo(np.longdouble).eps)
_POWER_LOW = -300  # powers of ten are tabled from 10**-300 to 10**329
# source rows of a layout pattern: the 17 digits, then these characters, the
# three digits of |exponent| and a NUL
_DOT, _ZERO, _MINUS, _E, _PLUS, _EXPONENT, _NUL = 17, 18, 19, 20, 21, 22, 25
_TEXT_WIDTH = 24  # longest unsigned text: "0.0001" and 17 digits
_CHUNK = 1024  # values laid out per gather, bounding its index array
_VECTOR_MIN = 256  # fewer values are faster formatted one at a time


@functools.cache
def _text_tables():
    """Long-double powers of ten, the ASCII digits of 0 to 9999 as (4, 10000),
    and the layout patterns: the source row of each text position, by form
    (fixed with exponent -4 to 15, or exponent form by sign and width) and
    number of significant digits, for format and for repr."""
    powers = np.array([f"1e{p}" for p in range(_POWER_LOW, 330)]).astype(np.longdouble)
    quads = (np.arange(10000, dtype=np.uint16) // np.uint16([[1000], [100], [10], [1]]) % 10
             + 48).astype(np.uint8)
    patterns = np.full((2, 24, 18, _TEXT_WIDTH), _NUL, dtype=np.uint8)
    for shortest, form, nd in itertools.product((0, 1), range(24), range(1, 18)):
        digits, exp = list(range(nd)), form - 4
        if form >= 20:  # 1.5e-05, 1e+100
            negative, wide = divmod(form - 20, 2)
            text = digits[:1] + [_DOT] * (nd > 1) + digits[1:] + [_E, (_PLUS, _MINUS)[negative]]
            text += [_EXPONENT, _EXPONENT + 1, _EXPONENT + 2][1 - wide:]
        elif exp < 0:  # 0.0015
            text = [_ZERO, _DOT] + [_ZERO] * (-exp - 1) + digits
        elif nd > exp + 1:  # 12.5
            text = digits[:exp + 1] + [_DOT] + digits[exp + 1:]
        else:  # 1200, repr 1200.0
            text = digits + [_ZERO] * (exp + 1 - nd) + [_DOT, _ZERO] * shortest
        patterns[shortest, form, nd, :len(text)] = text
    patterns = np.ascontiguousarray(patterns.reshape(2, -1, _TEXT_WIDTH).transpose(0, 2, 1))
    for table in (powers, quads, patterns):  # shared by every caller
        table.flags.writeable = False
    return powers, quads, patterns


def _exact_text(value: float, shortest: bool) -> str:
    """format(value, ".15g"), or with ``shortest`` the number json.dumps writes."""
    if not shortest:
        return format(value, ".15g")
    return repr(value) if math.isfinite(value) else json.dumps(value)


def _exact_block(x, shortest: bool) -> np.ndarray:
    """_float_text's block, one value at a time."""
    texts = [_exact_text(v, shortest).encode() for v in x.tolist()]
    block = np.zeros((_TEXT_WIDTH + 1, len(texts)), np.uint8)
    block[1:] = np.array(texts, dtype=f"S{_TEXT_WIDTH}").view(np.uint8).reshape(-1, _TEXT_WIDTH).T
    return block


def _float_text(values, shortest: bool) -> np.ndarray:
    """Text of each value as a NUL-padded (25, n) uint8 block, row 0 its sign:
    format(v, ".15g"), or with ``shortest`` json.dumps(v)."""
    x = np.asarray(values, dtype=np.float64)
    if len(x) < _VECTOR_MIN:
        return _exact_block(x, shortest)
    powers, quads, patterns = _text_tables()
    size = len(x)
    a = np.abs(x)
    exact = np.isfinite(a) & (a >= np.finfo(np.float64).smallest_normal)
    a[~exact] = 1.0
    k = 17 if shortest else 15
    p = (k - 1) - np.floor(np.log10(a)).astype(np.intp)
    y = a * powers[p - _POWER_LOW]
    shift = (y >= 10.0 ** k).astype(np.intp) - (y < 10.0 ** (k - 1))  # log10 off by one
    if shift.any():
        p -= shift
        y = a * powers[p - _POWER_LOW]
    n = np.rint(y)
    frac = (y - n).astype(np.float64)
    n = n.astype(np.int64)
    tol = _MARGIN * n
    tie = 0.5 - np.abs(frac) <= tol
    undecided = ~exact
    if shortest:
        # the first 15- or 16-digit rounding within half a gap of x reads back
        # as x, else 17 digits do; at a power of two the gap below x is half
        # as wide, so there only the narrower one counts
        with np.errstate(over="ignore"):
            gap = np.spacing(a)  # inf at the largest double
        power_of_two = gap * 2.0 ** 52 == a
        undecided |= ~np.isfinite(gap)
        halfgap = gap / a * n * np.where(power_of_two, 0.25, 0.5)  # in units of y
        searching = np.ones(size, bool)
        for unit in (100, 10):
            q, r = np.divmod(n, unit)
            t = (r + frac) / unit  # the dropped digits, in units of the last kept one
            round_up = t > 0.5
            off = np.abs(round_up - t)
            limit, margin = halfgap / unit, tol / unit
            inside = searching & (off < limit - margin)
            # another decimal of this length may read back at a power of two
            undecided |= searching & ~inside & ((off <= limit + margin) | power_of_two)
            undecided |= inside & (np.abs(t - 0.5) <= margin)
            n = np.where(inside, (q + round_up) * unit, n)
            searching &= ~inside
        undecided |= searching & tie
    else:
        undecided |= tie
        n *= 100  # 17 digits, as in repr
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    exp = (k - 1) - p + carry
    source = np.empty((26, size), np.uint8)
    for row in (13, 9, 5, 1):
        n, low = np.divmod(n, 10_000)
        quads.take(low, axis=1, out=source[row:row + 4], mode="clip")
    source[0] = n + 48
    source[_DOT:_EXPONENT] = np.frombuffer(b".0-e+", np.uint8)[:, None]
    quads[1:].take(np.abs(exp), axis=1, out=source[_EXPONENT:_NUL], mode="clip")
    source[_NUL] = 0
    nd = ((source[:17] != 48) * np.arange(1, 18, dtype=np.uint8)[:, None]).max(axis=0, initial=1)
    fixed = (exp >= -4) & (exp < (16 if shortest else 15))
    form = np.where(fixed, exp + 4, 20 + 2 * (exp < 0) + (np.abs(exp) >= 100))
    layout = form * 18 + nd
    text = np.empty((_TEXT_WIDTH + 1, size), np.uint8)
    text[0] = np.where(x < 0, 45, 0)
    for start in range(0, size, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        rows = patterns[int(shortest)].take(layout[chunk], axis=1)
        index = np.multiply(rows, size, dtype=np.intp)
        index += np.arange(size)[chunk]
        source.reshape(-1).take(index, out=text[1:, chunk], mode="clip")
    fallback = np.flatnonzero(undecided)
    text[:, fallback] = _exact_block(x[fallback], shortest)
    return text


def _joined_rows(blocks, separators) -> str:
    """The rows of NUL-padded (width, n) text blocks, each cell followed by its
    separator; no cell holds a NUL."""
    parts = []
    for block, sep in zip(blocks, separators):
        sep = np.frombuffer(sep.encode(), np.uint8)[:, None]
        parts += [block, np.repeat(sep, block.shape[1], axis=1)]
    return np.concatenate(parts).T.tobytes().translate(None, b"\0").decode()


def _float_array(values):
    """``values`` if it is a 1-d float array, as one if it is a list of floats only."""
    if isinstance(values, np.ndarray):
        return values if values.dtype.kind == "f" and values.ndim == 1 else None
    if isinstance(values, list) and all(isinstance(v, float) for v in values):
        return np.array(values, dtype=np.float64)
    return None


def _column_text(values) -> np.ndarray:
    floats = _float_array(values)
    if floats is not None:
        return _float_text(floats, shortest=False)
    cells = np.array([_csv_escape(_format_cell(v)).encode() for v in values], dtype=bytes)
    return cells.view(np.uint8).reshape(len(cells), cells.dtype.itemsize).T


def write_csv(path, columns: dict, header_lines) -> None:
    names = list(columns)
    blocks = [_column_text(columns[name]) for name in names]
    rows = _joined_rows(blocks, [","] * (len(names) - 1) + ["\n"])
    Path(path).write_text("\n".join([*header_lines, ",".join(names)]) + "\n" + rows)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, np.ndarray) and value.dtype != object:
        return value if _float_array(value) is not None else value.tolist()
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _json_text(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` nested at the indent
    ``pad``, where ``value`` may also hold 1-d float arrays."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        items = (f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items()))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    floats = _float_array(value)
    if floats is not None and len(floats):
        sep = ",\n" + inner
        items = _joined_rows([_float_text(floats, shortest=True)], [sep])[:-len(sep)]
        return "[\n" + inner + items + "\n" + pad + "]"
    if isinstance(value, list) and value:
        items = (_json_text(v, inner) for v in value)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    return json.dumps(value.tolist() if isinstance(value, np.ndarray) else value)


def write_json(path, payload: dict) -> None:
    Path(path).write_text(_json_text(_jsonable(payload)) + "\n")


def run_experiment(config: ExperimentConfig, output_dir=".", fmt: str = "csv",
                   strict_ramp: bool = False) -> list:
    """Execute one experiment and write its artifacts; returns written paths.

    An ``output_dir`` whose nearest existing ancestor is not a directory
    raises ``OSError`` before the experiment runs; nothing is created until
    the experiment has succeeded.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format {fmt!r}")
    options = dict(config.options)
    if strict_ramp:
        if "strict_ramp" not in options:
            raise ConfigError(f"--strict-ramp applies to the ramp, not to {config.experiment!r}")
        options["strict_ramp"] = True
    out_dir = Path(output_dir)
    existing = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    if not existing.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(existing))
    result = EXPERIMENTS[config.experiment].runner(config.params, options)

    out_dir.mkdir(parents=True, exist_ok=True)
    # the provenance block records the options actually in effect, so files
    # produced with different CLI overrides are distinguishable
    resolved = dict(config.resolved)
    for key, value in options.items():
        resolved[f"options.{key}"] = value
    provenance = {
        "engine": f"jchsim {__version__}",
        **{k: _jsonable(v) for k, v in resolved.items()},
    }
    written = []
    if fmt == "csv":
        csv_path = out_dir / f"{config.experiment}.csv"
        write_csv(csv_path, result.columns, provenance_lines(resolved))
        summary_path = out_dir / f"{config.experiment}.summary.json"
        write_json(summary_path, {"provenance": provenance, "summary": result.summary})
        written.extend([csv_path, summary_path])
    else:
        json_path = out_dir / f"{config.experiment}.json"
        write_json(
            json_path,
            {"provenance": provenance, "summary": result.summary, "data": result.columns},
        )
        written.append(json_path)
    return written
