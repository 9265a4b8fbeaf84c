"""Configuration-driven experiments with deterministic CSV/JSON output.

A config file is flat ``key = value`` text, one experiment per file; every
key is either a physical parameter (in units of g) that the named experiment
reads or one of its options, and any other key is rejected.  Every runner
returns ``(columns, summary)``: the data columns and a summary dict.
:func:`run_experiment` adds the provenance (the engine version, the
experiment, every parameter and the options in effect) and writes the
columns as CSV beside a ``.summary.json``, or everything as one JSON file.
Identical configs produce byte-identical result files: data sections carry
no run metadata.
"""
from __future__ import annotations

import errno
import functools
import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, NumericalError
from .hamiltonians import SystemParams
from .lindblad import standard_liouvillian, steady_state
from .perturbation import (
    REPORT_LABELS,
    match_exact_energies,
    perturbation_report,
)
from .protocols import (
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
# largest sup |S - closed form| / max(closed form) a spectrum run accepts: 430 times
# the worst seen, 2.3e-12 (cavity loss 1e-6, hopping 1), over the shipped configs,
# the benchmark's spectra at seeds 1 to 5 and 320 points of both losses up to 50,
# detuning up to 1e3 and hopping up to 10; the shipped and benchmark points stay below 1e-15
SPECTRUM_ERROR_LIMIT = 1e-9


# ---------------------------------------------------------------------------
# experiment runners


def _run_spectrum(params: SystemParams, options: dict) -> tuple:
    """First-cavity spectrum of the lossy lattice's steady state, one or two
    cavities, against the closed form, on the absolute grid's offsets from omega_c."""
    grid = default_frequency_grid(params, int(options["n_points"]))
    liouv = standard_liouvillian(params)
    offsets = grid - params.omega_c
    numeric = absorption_spectrum(liouv, steady_state(liouv), annihilation_at(params.dims, 0),
                                  offsets)
    analytic = absorption_spectrum_analytic(params, offsets)
    error = float(np.max(np.abs(numeric.values - analytic.values)) / np.max(analytic.values))
    if error > SPECTRUM_ERROR_LIMIT:
        raise NumericalError(f"spectrum is {error:.3e} of its peak off the closed form "
                             f"(limit {SPECTRUM_ERROR_LIMIT:.0e})")
    summary = {"peaks_numeric": find_peaks(numeric), "peaks_analytic": find_peaks(analytic),
               "relative_sup_error": error}
    for key in ("peaks_numeric", "peaks_analytic"):
        summary[key]["positions"] += params.omega_c  # at absolute positions
    return {"omega": grid, "S_numeric": numeric.values, "S_analytic": analytic.values}, summary


def _run_driven_oscillation(params: SystemParams, options: dict) -> tuple:
    series, summary = driven_oscillation_run(
        params, t_final=float(options["t_final"]), samples=int(options["samples"])
    )
    kept = ("period_extracted", "period_analytic", "rabi_frequency_analytic", "maxima_times")
    return series, {key: summary[key] for key in kept}


def _run_rwa_probe(params: SystemParams, options: dict) -> tuple:
    return hopping_interchange_probe(params, samples=int(options["samples"]))


def _run_ramp(params: SystemParams, options: dict) -> tuple:
    mode, initial = int(options["mode"]), str(options["initial"])
    time_dependent = bool(options["time_dependent"])
    deltas = np.geomspace(float(options["delta_max"]), float(options["delta_min"]),
                          int(options["n_points"]))
    columns, summary = ramp_experiment(params, deltas, mode, initial, time_dependent,
                                       bool(options["strict_ramp"]), int(options["hold_samples"]))
    return columns, {"mode": mode, **summary, "time_dependent": time_dependent, "initial": initial}


def _run_table1(params: SystemParams, options: dict) -> tuple:
    rows = mechanism_table(n_fock=params.n_fock)
    return {key: [row[key] for row in rows] for key in rows[0]}, {"rows": rows}


def _run_variance_compare(params: SystemParams, options: dict) -> tuple:
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
    return columns, {
        "diagonal_form": "energy",
        "max_rel_error_large_var": max(
            (r for r, v in zip(columns["rel_error"], columns["var_numeric"]) if v >= 0.1),
            default=0.0,
        ),
        "max_abs_error_small_var": max(
            (e for e, v in zip(columns["abs_error"], columns["var_numeric"]) if v < 0.1),
            default=0.0,
        ),
    }


def _run_perturbation_report(params: SystemParams, options: dict) -> tuple:
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
    return columns, {
        "max_residual": max(columns["residual"]),
        "clusters": [list(cluster) for cluster in report.clusters],
        "max_coupling_ratio": report.max_coupling_ratio,
        "terms": list(report.terms),
    }


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
        _run_spectrum,
        "first-cavity absorption spectrum of the hopping-coupled pair, numeric vs closed form",
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
    for kind in (int, float):
        try:
            return kind(text)
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
    # a whole number is finite at any size; only a float can be inf or nan
    numbers = value if isinstance(value, list) else [value]
    if not all(math.isfinite(x) for x in numbers if isinstance(x, float)):
        raise ConfigError(f"{key!r} takes finite numbers, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: SystemParams
    options: dict

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
        return cls(name, params, options)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        mapping = {}
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
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
            mapping[key] = value.strip()
        # a key whose default is text keeps its text, however numeric it reads
        spec = EXPERIMENTS.get(mapping.get("experiment"))
        defaults = {**PARAM_DEFAULTS, **(spec.option_defaults if spec else {})}
        return cls.from_mapping({key: value if isinstance(defaults.get(key), str)
                                 else _parse_value(value) for key, value in mapping.items()})


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


def _csv_escape(cell: str) -> str:
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


# _float_rows writes a whole float64 array at once, byte for byte as Python
# writes one value: format(x, ".15g") for a CSV cell, float.__repr__ (the
# number json.dumps writes) for a JSON list.  |x| is scaled by a power of ten
# in long double so that k significant digits sit in the integer part, and
# rounded; repr's digits are the first of the 15-, 16- and 17-digit roundings
# that reads back as x (Gay's shortest digits; 17 always do).  floor(log10|x|)
# picks the form, fixed (exponent -4 to 14, or 15 for repr) or exponent form;
# a row holds the bytes of every form, and a (form, digit count) mask NULs
# what the form does not write.  Undecided roundings and read-backs, a log10
# one off or a carry into the next power (either changes the form), 0,
# subnormals, NaN and infinities go to format or repr: all values do where
# long double is no wider than double.

# bound on the relative error of |x| * 10**p: the power is correctly rounded
# (strtold) and the product rounds once
_MARGIN = 2 * float(np.finfo(np.longdouble).eps)
_POWER_LOW = -300  # powers of ten are tabled from 10**-300 to 10**329
_VECTOR_MIN = 256  # fewer values are faster formatted one at a time
# a row: the sign, "0.000" (a fixed form below 1), the leading digit, a
# point, 16 digits, "e", the exponent's sign and 3 digits, the separator
_ROW, _LEAD, _POINT = 29, 6, 7
_FORMS = 22  # fixed with exponent -4 to 15, then 2- and 3-digit exponents


def _words(texts) -> np.ndarray:
    """Byte strings of at most 8 bytes as NUL-padded uint64 words."""
    return np.frombuffer(b"".join(text.ljust(8, b"\0") for text in texts), np.uint64)


@functools.cache
def _text_tables():
    """Powers of ten, a row's words, the significant digits each quad implies
    and, for format and repr, each exponent's form and each form's masks."""
    powers = np.array([f"1e{p}" for p in range(_POWER_LOW, 330)]).astype(np.longdouble)
    lead = _words(sign + b"0.000%d." % d for sign in (b"\0", b"-") for d in range(10))
    exponents = _words(b"e%+04d" % e for e in range(-308, 309))
    quads = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48  # "0000" to "9999"
    quad_words = np.ascontiguousarray(quads).view(np.uint32).ravel()  # each as 4 bytes
    last = ((quads != 48) * np.arange(1, 5)).max(axis=1)  # 0 for 0000
    digits = np.array([np.where((last > 0) | (j == 0), 1 + 4 * j + last, 0) for j in range(4)],
                      np.uint8)
    e, shortest = np.arange(-308, 309), np.arange(2)[:, None]
    forms = np.where((e >= -4) & (e < 15 + shortest), e + 4, 20 + (abs(e) >= 100)).astype(np.uint8)
    # kept[shortest, form, nd, byte]: the bytes a (form, digit count) writes
    s, f, nd, i = np.ix_(range(2), range(_FORMS), range(18), range(32))
    exp, after = f - 4, (i >= 8) & (i < 7 + nd)  # the digits after the point
    exponent_form = (f >= 20) & (  # 1.5e-05, 1e+100
        (i == _POINT) & (nd > 1) | after | np.isin(i, [24, 25, 27, 28]) | (i == 26) & (f == 21))
    below_one = (f < 4) & ((i >= 1) & (i < 2 - exp) | after)  # 0.0015
    # 12.5, 1200, repr 1200.0: the integer digits, then the point at 7 + exp
    fixed = (f >= 4) & (f < 20) & (i >= 7) & (i < 7 + np.maximum(nd, exp + 1 + s)) & (
        (i != 7 + exp) | (nd > exp + 1) | (s == 1))
    written = (i == 0) | (i == _LEAD) | exponent_form | below_one | fixed
    kept = (nd > 0) & written | (i >= _ROW)  # the separator in every row
    masks = (kept * np.uint8(255)).reshape(2, _FORMS * 18, 32)
    tables = powers, lead, quad_words, exponents, digits, forms, masks.view(np.uint64)
    for table in tables:  # shared by every caller
        table.flags.writeable = False
    return tables


def _exact_text(value: float, shortest: bool) -> str:
    """format(value, ".15g"), or with ``shortest`` the number json.dumps writes."""
    if not shortest:
        return format(value, ".15g")
    return repr(value) if math.isfinite(value) else json.dumps(value)


def _text_rows(texts, sep: str, width: int = 0) -> np.ndarray:
    """Each text and ``sep`` as one NUL-padded row of an (n, width) uint8
    array, by default as narrow as the texts allow; no text holds a NUL."""
    cells = np.array([(t + sep).encode() for t in texts], dtype=f"S{width}" if width else bytes)
    return cells.view(np.uint8).reshape(len(cells), cells.dtype.itemsize)


def _float_rows(values, shortest: bool, sep: str) -> np.ndarray:
    """Each value's text and ``sep`` as one NUL-padded row of a row-major
    uint8 array: format(v, ".15g"), or with ``shortest`` json.dumps(v)."""
    x = np.asarray(values, dtype=np.float64)
    if len(x) < _VECTOR_MIN:
        return _text_rows([_exact_text(v, shortest) for v in x.tolist()], sep)
    powers, lead, quad_words, exponents, digits, forms, masks = _text_tables()
    a = np.abs(x)
    exact = np.isfinite(a) & (a >= np.finfo(np.float64).smallest_normal)
    a[~exact] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    k = 17 if shortest else 15
    y = a * powers[(k - 1 - _POWER_LOW) - e]
    n = np.rint(y)
    frac = (y - n).astype(np.float64)
    n = n.astype(np.int64)
    tol = _MARGIN * n
    tie = 0.5 - np.abs(frac) <= tol
    # a log10 one off leaves y outside [10**(k-1), 10**k); a rounding to 10**k
    # carries into the next power
    undecided = ~exact | (y < 10.0 ** (k - 1)) | (n >= 10 ** k)
    if shortest:
        # the first 15- or 16-digit rounding within half a gap of x reads back
        # as x, else 17 digits do; at a power of two the gap below x is half
        # as wide, so there only the narrower one counts
        with np.errstate(over="ignore"):
            gap = np.spacing(a)  # inf at the largest double
        power_of_two = gap * 2.0 ** 52 == a
        undecided |= ~np.isfinite(gap)
        halfgap = gap / a * n * (0.5 - 0.25 * power_of_two)  # in units of y
        searching = np.ones(len(x), bool)
        for unit in (100, 10):
            q = n // unit
            t = (n - q * unit + frac) / unit  # the dropped digits, in units of the last kept one
            round_up = t > 0.5
            off = np.abs(round_up - t)
            limit, margin = halfgap / unit, tol / unit
            inside = searching & (off < limit - margin)
            # another decimal of this length may read back at a power of two
            undecided |= searching & ~inside & ((off <= limit + margin) | power_of_two)
            undecided |= inside & (np.abs(t - 0.5) <= margin)
            n = np.where(inside, (q + round_up) * unit, n)
            searching &= ~inside
        undecided |= searching & tie | (n == 10 ** 17)
    else:
        undecided |= tie
        n *= 100  # 17 digits, as in repr
    quads = []  # the leading digit, then the other 16 in fours
    for unit in (10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4):
        quads.append(n // unit)
        n -= quads[-1] * unit
    leading, *quads = quads + [n]
    tail = bytes(_ROW - 24) + sep.encode()  # the words from byte 24 on
    tail = _words(tail[i:i + 8] for i in range(0, len(tail), 8))
    rows = np.empty((len(x), 3 + len(tail)), np.uint64)
    rows[:, 0] = lead.take(leading + 10 * (x < 0), mode="clip")
    halves = rows.view(np.uint32)  # bytes 8 to 24: the four quads, one 4-byte word each
    for j, quad in enumerate(quads, 2):
        halves[:, j] = quad_words.take(quad)
    rows[:, 3] = exponents.take(e + 308) | tail[0]
    rows[:, 4:] = tail[1:]
    form = forms[int(shortest)].take(e + 308)
    text = rows.view(np.uint8)
    for fixed in np.flatnonzero(np.bincount(form, minlength=_FORMS)[5:20]) + 5:  # 10 and up
        exp, group = fixed - 4, np.flatnonzero(form == fixed)
        text[group, _POINT:_POINT + exp] = text[group, _POINT + 1:_POINT + 1 + exp]
        text[group, _POINT + exp] = 46  # "."
    nd = functools.reduce(np.maximum, map(np.take, digits, quads))
    rows[:, :4] &= masks[int(shortest)].take(form.astype(np.intp) * 18 + nd, axis=0)
    text = text[:, :_ROW + len(sep)]
    fallback = np.flatnonzero(undecided)
    text[fallback] = _text_rows([_exact_text(v, shortest) for v in x[fallback].tolist()],
                                sep, text.shape[1])
    return text


def _float_array(values):
    """``values`` if it is a 1-d float array, as one if it is a list or tuple
    of floats only."""
    if isinstance(values, np.ndarray):
        return values if values.dtype.kind == "f" and values.ndim == 1 else None
    if isinstance(values, (list, tuple)) and all(isinstance(v, float) for v in values):
        return np.array(values, dtype=np.float64)
    return None


def _column_rows(values, sep: str) -> np.ndarray:
    floats = _float_array(values)
    if floats is not None:
        return _float_rows(floats, False, sep)
    return _text_rows([_csv_escape(_format_cell(v)) for v in values], sep)


def write_csv(path, columns: dict, header_lines) -> None:
    names = list(columns)
    seps = [","] * (len(names) - 1) + ["\n"]
    rows = np.concatenate([_column_rows(columns[name], sep) for name, sep in zip(names, seps)],
                          axis=1)
    head = "\n".join([*header_lines, ",".join(names)]) + "\n"
    Path(path).write_bytes(head.encode() + rows.tobytes().translate(None, b"\0"))


def _json_text(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` nested at the indent
    ``pad``, where ``value`` may also hold tuples, numpy scalars and numpy
    arrays, written as the Python numbers and lists they hold; dict keys are
    written as ``str``."""
    inner = pad + "  "
    floats = _float_array(value)
    if floats is not None and len(floats):
        sep = ",\n" + inner
        items = _float_rows(floats, True, sep).tobytes().translate(None, b"\0")[:-len(sep)]
        return "[\n" + inner + items.decode() + "\n" + pad + "]"
    if isinstance(value, np.ndarray) and value.dtype != object:
        value = value.tolist()
    if isinstance(value, dict) and value:
        keyed = sorted({str(k): v for k, v in value.items()}.items())
        items = (f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in keyed)
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)) and len(value):
        items = (_json_text(v, inner) for v in value)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    return json.dumps(value.item() if isinstance(value, np.generic) else value)


def write_json(path, payload: dict) -> None:
    Path(path).write_text(_json_text(payload) + "\n")


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
    columns, summary = EXPERIMENTS[config.experiment].runner(config.params, options)

    out_dir.mkdir(parents=True, exist_ok=True)
    # the provenance records the options actually in effect, so files
    # produced with different CLI overrides are distinguishable
    provenance = {
        "experiment": config.experiment,
        **{f"params.{k}": getattr(config.params, k) for k in PARAM_DEFAULTS},
        **{f"options.{k}": v for k, v in sorted(options.items())},
    }
    payload = {"provenance": {"engine": f"jchsim {__version__}", **provenance}, "summary": summary}
    if fmt == "json":
        json_path = out_dir / f"{config.experiment}.json"
        write_json(json_path, {**payload, "data": columns})
        return [json_path]
    csv_path = out_dir / f"{config.experiment}.csv"
    summary_path = out_dir / f"{config.experiment}.summary.json"
    header = [f"# jchsim {__version__}"]
    header += [f"# {key} = {_format_cell(value)}" for key, value in provenance.items()]
    write_csv(csv_path, columns, header)
    write_json(summary_path, payload)
    return [csv_path, summary_path]
