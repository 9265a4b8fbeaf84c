import ast
import contextlib
import importlib.util
import json
import math
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jchsim import (
    ConfigError,
    ExperimentConfig,
    NumericalError,
    annihilation_at,
    bare_ket,
    build_jch,
    decay_channels,
    experiments,
    run_experiment,
    total_excitation,
)
from jchsim.cli import main
from jchsim.experiments import (
    EXPERIMENTS,
    PARAM_DEFAULTS,
    _csv_escape,
    _float_rows,
    _format_cell,
    _json_text,
    _parse_value,
    write_csv,
)
from jchsim.perturbation import dressed_drive
from jchsim.selfcheck import run_selfcheck

REPO = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted((REPO / "configs").glob("*.cfg"))


class TestConfigParsing:
    def test_value_types(self):
        assert _parse_value("3") == 3
        assert _parse_value("3.5") == 3.5
        assert _parse_value("true") is True
        assert _parse_value("0.02, 0.05, 0.1") == [0.02, 0.05, 0.1]
        assert _parse_value("1-,1-") == "1-,1-"

    def test_missing_experiment_key(self):
        with pytest.raises(ConfigError, match="missing"):
            ExperimentConfig.from_mapping({"delta": 0.0})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            ExperimentConfig.from_mapping({"experiment": "banana"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            ExperimentConfig.from_mapping({"experiment": "spectrum", "speling": 1})

    def test_param_override_applies(self):
        config = ExperimentConfig.from_mapping({"experiment": "spectrum", "delta": 1.0})
        assert config.params.delta == 1.0
        assert config.params.cavity_decay == 0.5  # experiment default

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("experiment = spectrum\ndelta = 1\ndelta = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            ExperimentConfig.from_file(path)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("# comment\n\nexperiment = spectrum  # trailing\nn_points = 101\n")
        config = ExperimentConfig.from_file(path)
        assert config.options["n_points"] == 101

    def test_option_values_take_the_type_of_their_default(self):
        config = ExperimentConfig.from_mapping(
            {"experiment": "ramp", "delta_max": 60, "time_dependent": False}
        )
        assert config.options["delta_max"] == 60 and config.options["time_dependent"] is False
        config = ExperimentConfig.from_mapping({"experiment": "variance_compare", "delta_values": 5})
        assert config.options["delta_values"] == 5
        for experiment, key, value in (
            ("ramp", "delta_max", True),
            ("ramp", "initial", 1),
            ("variance_compare", "hopping_values", "a"),
        ):
            with pytest.raises(ConfigError, match="takes a"):
                ExperimentConfig.from_mapping({"experiment": experiment, key: value})

    def test_invalid_parameter_value(self):
        with pytest.raises(ConfigError, match="invalid parameters"):
            ExperimentConfig.from_mapping({"experiment": "spectrum", "g": -1.0})


# 1-d float64 arrays: any float, or any 64-bit pattern viewed as a float
FLOAT_ARRAYS = st.one_of(
    st.lists(st.floats(), max_size=40).map(lambda v: np.array(v, dtype=np.float64)),
    st.lists(st.integers(0, 2**64 - 1), max_size=40).map(
        lambda v: np.array(v, dtype=np.uint64).view(np.float64)),
)
INT64 = st.integers(-2**63, 2**63 - 1)
# numpy scalars and arrays, which the JSON writer writes as the Python values
# they hold; 2-d and integer arrays as nested lists
NUMPY_VALUES = st.one_of(
    st.booleans().map(np.bool_), INT64.map(np.int64), st.floats().map(np.float64),
    st.floats(width=32).map(np.float32), st.lists(INT64, max_size=8).map(np.array),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=4)),
)
# nested dicts, lists, tuples and 1-d float arrays of floats (NaN, +-inf, -0
# and subnormals included), ints, bools, None, strings with escapes, empty
# containers, numpy scalars, integer arrays and 2-d float arrays
NESTED_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
              FLOAT_ARRAYS, NUMPY_VALUES),
    lambda inner: st.one_of(st.lists(inner, max_size=6), st.lists(st.floats(), max_size=6),
                            st.lists(inner, max_size=6).map(tuple),
                            st.lists(st.floats(), max_size=6).map(tuple),
                            st.dictionaries(st.text(max_size=6), inner, max_size=6)),
    max_leaves=40,
)
# text cells, commas, quotes and newlines included (no NUL: the writer pads
# with it; no lone surrogate: a file holds UTF-8)
CSV_TEXT = st.text(st.one_of(st.sampled_from(',"\n'),
                             st.characters(codec="utf-8", exclude_characters="\0")), max_size=8)


def _csv_columns(rows: int):
    """Columns of ``rows`` cells each: float arrays, lists of floats, and
    lists mixing floats, ints, numpy ints, bools and text."""
    cells = st.lists(st.one_of(st.floats(), st.integers(), INT64.map(np.int64), st.booleans(),
                               CSV_TEXT), min_size=rows, max_size=rows)
    column = st.one_of(hnp.arrays(np.float64, rows), st.lists(st.floats(), min_size=rows,
                                                              max_size=rows), cells)
    return st.dictionaries(st.text("abcxyz", min_size=1, max_size=4), column,
                           min_size=1, max_size=5)


# exact ties (two at 16 digits, where the tied rounding reads back as x),
# the switches between fixed and exponent form, the smallest normal and
# subnormal, 2**53 + 1 and the largest double
BOUNDARY_FLOATS = np.array([
    999999999999999.5, 9.999999999999995, 0.5, 2.5, 874550223925419.75, 85043065830142.375,
    1e-5, 9.99999999999999e-06, 1e-4,
    0.00010000000000000002, 1e15, 999999999999999.9, 1e16, 9999999999999998.0, 1e17,
    2.0**-1022, 5e-324, 9007199254740993.0, 1.7976931348623157e308, 1e22, 1e23, 0.1,
    0.30000000000000004, 0.0, -0.0, -1.5, np.nan, np.inf, -np.inf,
])

# more values than _VECTOR_MIN, spread over 40 decades
SPREAD_FLOATS = (np.random.default_rng(0).standard_normal(experiments._VECTOR_MIN + 50)
                 * 10.0 ** np.linspace(-20.0, 20.0, experiments._VECTOR_MIN + 50))


def _plain(value):
    """``value`` with every array and tuple as a list and every numpy scalar
    as a Python one, as json.dumps takes it."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


def _csv_lines(values) -> list:
    return _float_rows(values, False, "\n").tobytes().translate(None, b"\0").decode().splitlines()


@contextlib.contextmanager
def _vectorised():
    """Send arrays of any length through the vectorised pass."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_VECTOR_MIN", 0)
        yield patch


class TestOutputs:
    def test_csv_determinism(self, tmp_path):
        config = ExperimentConfig.from_mapping(
            {"experiment": "spectrum", "n_points": 101}
        )
        a = run_experiment(config, tmp_path / "a")
        b = run_experiment(config, tmp_path / "b")
        assert (tmp_path / "a" / "spectrum.csv").read_bytes() == (
            tmp_path / "b" / "spectrum.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "spectrum.summary.json").read_bytes() == (
            tmp_path / "b" / "spectrum.summary.json"
        ).read_bytes()
        assert [p.name for p in a] == [p.name for p in b]

    @pytest.mark.parametrize(
        "path, flags",
        [(path, ("--format", fmt)) for path in SHIPPED_CONFIGS for fmt in ("csv", "json")]
        + [(REPO / "configs" / "ramp_time_dependent.cfg", ("--strict-ramp",))],
        ids=lambda v: v.stem if isinstance(v, Path) else v[-1].lstrip("-"),
    )
    def test_shipped_runs_write_the_same_bytes_twice(self, tmp_path, capsys, path, flags):
        written = []
        for run in ("a", "b"):
            assert main(["run", str(path), "--output-dir", str(tmp_path / run), *flags]) == 0
            written.append({p.name: p.read_bytes() for p in (tmp_path / run).iterdir()})
        capsys.readouterr()
        assert written[0] and written[0] == written[1]

    def test_csv_structure(self, tmp_path):
        config = ExperimentConfig.from_mapping({"experiment": "spectrum", "n_points": 101})
        run_experiment(config, tmp_path)
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        header_end = max(i for i, line in enumerate(lines) if line.startswith("#"))
        assert lines[0].startswith("# jchsim ")
        assert lines[header_end + 1] == "omega,S_numeric,S_analytic"
        assert len(lines) == header_end + 2 + 101
        row = lines[header_end + 2].split(",")
        assert len(row) == 3 and float(row[0]) == 96.0

    def test_json_format(self, tmp_path):
        config = ExperimentConfig.from_mapping({"experiment": "spectrum", "n_points": 51})
        paths = run_experiment(config, tmp_path, fmt="json")
        assert len(paths) == 1
        payload = json.loads(Path(paths[0]).read_text())
        assert set(payload) == {"provenance", "summary", "data"}
        assert len(payload["data"]["omega"]) == 51
        assert payload["provenance"]["params.cavity_decay"] == 0.5

    @settings(deadline=None, max_examples=150)
    @given(NESTED_VALUES)
    # a float array and the list of floats it holds, as a spectrum's peaks,
    # shorter and longer than _VECTOR_MIN
    @example({"array": SPREAD_FLOATS[:5], "list": SPREAD_FLOATS[:5].tolist(),
              "long array": SPREAD_FLOATS, "long list": SPREAD_FLOATS.tolist()})
    def test_json_writer_matches_indented_dumps(self, value):
        expected = json.dumps(_plain(value), indent=2, sort_keys=True)
        assert _json_text(value) == expected
        # every nested float list again, through the vectorised pass with the
        # separator of its own indent
        with _vectorised():
            assert _json_text(value) == expected

    @settings(deadline=None, max_examples=100,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 40).flatmap(_csv_columns))
    def test_csv_writer_matches_the_cells_one_at_a_time(self, tmp_path, columns):
        # each example rewrites the same file
        names, path = list(columns), tmp_path / "table.csv"
        lines = ["# header", ",".join(names)]
        lines += [",".join(_csv_escape(_format_cell(columns[name][i])) for name in names)
                  for i in range(len(columns[names[0]]))]
        expected = ("\n".join(lines) + "\n").encode()
        write_csv(path, columns, ["# header"])
        assert path.read_bytes() == expected
        with _vectorised():
            write_csv(path, columns, ["# header"])
        assert path.read_bytes() == expected

    @settings(deadline=None, max_examples=200)
    @given(FLOAT_ARRAYS)
    def test_float_rows_matches_format_and_repr(self, values):
        with _vectorised():
            assert _csv_lines(values) == [format(v, ".15g") for v in values.tolist()]
            assert _json_text(values) == json.dumps(values.tolist(), indent=2)

    def test_float_rows_at_rounding_and_layout_boundaries(self):
        # every power of two, whose gap below is half as wide as above, and
        # random 64-bit patterns
        powers_of_two = 2.0 ** np.arange(-1074, 1024)
        noise = np.random.default_rng(0).integers(0, 2**64, 4000, dtype=np.uint64)
        # the doubles nearest the powers of ten and their neighbours, where
        # floor(log10|x|) can miss, and roundings that carry into the next
        # power of ten, where the form changes after rounding
        tens = 10.0 ** np.arange(-307, 309)
        carries = np.array([9.9999999999999995e-5, 0.99999999999999989, 9.9999999999999995,
                            99999.999999999985, 9.999999999999999e22, 9.9999999999999991e-300])
        values = np.concatenate([BOUNDARY_FLOATS, -BOUNDARY_FLOATS, powers_of_two,
                                 noise.view(np.float64), tens, np.nextafter(tens, 0),
                                 np.nextafter(tens, np.inf), carries, -carries])
        assert len(values) >= experiments._VECTOR_MIN
        assert _csv_lines(values) == [format(v, ".15g") for v in values.tolist()]
        assert _json_text(values) == json.dumps(values.tolist(), indent=2)

    def test_float_rows_when_no_rounding_is_decided(self):
        # a long double no wider than double leaves every value to the
        # fallback; a margin of 1 does the same here
        values = np.concatenate([BOUNDARY_FLOATS, np.linspace(-3.0, 80.0, 101)])
        exact_text = experiments._exact_text
        calls = []

        def counted(value, shortest):
            calls.append(value)
            return exact_text(value, shortest)

        with _vectorised() as patch:
            patch.setattr(experiments, "_MARGIN", 1.0)
            patch.setattr(experiments, "_exact_text", counted)
            assert _csv_lines(values) == [format(v, ".15g") for v in values.tolist()]
            assert _json_text(values) == json.dumps(values.tolist(), indent=2)
        assert len(calls) == 2 * len(values)

    def test_unknown_format_rejected(self, tmp_path):
        config = ExperimentConfig.from_mapping({"experiment": "spectrum", "n_points": 51})
        with pytest.raises(ConfigError):
            run_experiment(config, tmp_path, fmt="yaml")


class TestExperimentRunners:
    def test_rwa_probe_small(self, tmp_path):
        config = ExperimentConfig.from_mapping({"experiment": "rwa_probe", "samples": 801})
        paths = run_experiment(config, tmp_path, fmt="json")
        payload = json.loads(Path(paths[0]).read_text())
        assert payload["summary"]["max_p_up_from_1minus"] < 0.01
        assert payload["summary"]["targets"]["1-,0"] == "0,1+"

    def test_perturbation_report_runner(self, tmp_path):
        config = ExperimentConfig.from_mapping({"experiment": "perturbation_report"})
        paths = run_experiment(config, tmp_path, fmt="json")
        payload = json.loads(Path(paths[0]).read_text())
        assert payload["data"]["label"] == ["G", "1-", "1+", "2-", "2+"]
        assert all(np.isfinite(payload["data"]["residual"]))
        assert payload["summary"]["terms"]  # generated term table present
        assert payload["summary"]["clusters"] == [["1-", "2-", "3-", "4-"]]
        assert payload["summary"]["max_coupling_ratio"] > 0.5
        assert payload["summary"]["max_residual"] < 1e-5

    def test_ramp_runner_small(self, tmp_path):
        config = ExperimentConfig.from_mapping(
            {
                "experiment": "ramp",
                "n_points": 5,
                "hold_samples": 201,
                "time_dependent": True,
            }
        )
        paths = run_experiment(config, tmp_path, fmt="json")
        payload = json.loads(Path(paths[0]).read_text())
        assert len(payload["data"]["delta"]) == 5
        assert all(v >= -1e-8 for v in payload["data"]["var"])

    def test_variance_compare_runner_small(self, tmp_path):
        config = ExperimentConfig.from_mapping(
            {
                "experiment": "variance_compare",
                "hopping_values": [0.1],
                "delta_values": [0.0],
                "hold_samples": 241,
            }
        )
        paths = run_experiment(config, tmp_path, fmt="json")
        payload = json.loads(Path(paths[0]).read_text())
        assert payload["data"]["branch"] == ["-", "+"]
        assert payload["summary"]["max_rel_error_large_var"] < 0.05

    def test_table1_csv_cells_with_commas_are_quoted(self, tmp_path):
        config = ExperimentConfig.from_mapping({"experiment": "table1"})
        run_experiment(config, tmp_path)
        lines = (tmp_path / "table1.csv").read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        header_fields = data[0].split(",")
        import csv
        import io

        for row in csv.reader(io.StringIO("\n".join(data[1:]))):
            assert len(row) == len(header_fields)

    def test_registry_reads_parameter_fields(self):
        for spec in EXPERIMENTS.values():
            assert set(spec.reads) <= set(PARAM_DEFAULTS)

    def test_spectra_share_one_runner_and_every_other_experiment_has_its_own(self):
        expected = {
            "spectrum",
            "two_cavity_spectrum",
            "driven_oscillation",
            "rwa_probe",
            "ramp",
            "table1",
            "variance_compare",
            "perturbation_report",
        }
        assert set(EXPERIMENTS) == expected
        spectra = {EXPERIMENTS[name].runner for name in ("spectrum", "two_cavity_spectrum")}
        assert spectra == {experiments._run_spectrum}
        others = [spec.runner for name, spec in EXPERIMENTS.items() if "spectrum" not in name]
        assert len(set(others)) == len(others) == len(EXPERIMENTS) - 2
        assert experiments._run_spectrum not in others

    def test_shipped_two_cavity_spectrum_is_checked_against_the_closed_form(self, tmp_path):
        # the normal-mode closed form covers two cavities (2.8e-15 of the peak
        # on this config)
        out = tmp_path / "out"
        assert main(["run", str(REPO / "configs" / "two_cavity_spectrum.cfg"),
                     "--output-dir", str(out)]) == 0
        lines = (out / "two_cavity_spectrum.csv").read_text().splitlines()
        assert [line for line in lines if not line.startswith("#")][0] == (
            "omega,S_numeric,S_analytic")
        summary = json.loads((out / "two_cavity_spectrum.summary.json").read_text())["summary"]
        assert summary["relative_sup_error"] < 1e-12
        assert len(summary["peaks_analytic"]["positions"]) == len(
            summary["peaks_numeric"]["positions"])


class TestCli:
    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_exit_codes(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("experiment = spectrum\nn_points = 101\n")
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0
        capsys.readouterr()

        bad = tmp_path / "bad.cfg"
        bad.write_text("experiment = spectrum\nnot_a_key = 1\n")
        assert main(["run", str(bad), "--output-dir", str(tmp_path / "out2")]) == 2
        assert not (tmp_path / "out2").exists()  # no partial output
        assert "config error" in capsys.readouterr().err

        missing = tmp_path / "missing.cfg"
        assert main(["run", str(missing)]) == 2
        capsys.readouterr()

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bytes.cfg"
        cfg.write_bytes(b"experiment = spectrum\n# \xff\n")
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().err.startswith(f"config error: cannot read config file {cfg}: ")

    def test_config_with_a_byte_order_mark_reads_as_without(self, tmp_path, capsys):
        text = b"experiment = spectrum\nn_points = 101\n"
        written = []
        for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_bytes(data)
            assert main(["run", str(cfg), "--output-dir", str(tmp_path / name)]) == 0
            written.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
        capsys.readouterr()
        assert written[0] and written[0] == written[1]

    @pytest.mark.parametrize(
        "line",
        [
            "time_dependent = no",
            "mode = 1.7",
            "n_points = abc",
            "n_fock = 3.0",
            "hold_samples = 241.0",
            "n_fock = 2.5",
            "delta = true",
            "hopping = 0.1, 0.2",
            "omega_c = nan",
            "delta_max = inf",
        ],
    )
    def test_option_of_wrong_type_exits_2(self, tmp_path, capsys, line):
        # each key goes to an experiment that reads it, so that only its type
        # can refuse it
        key = line.split("=")[0].strip()
        experiment = {"n_fock": "driven_oscillation", "omega_c": "spectrum",
                      "delta": "spectrum"}.get(key, "ramp")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"experiment = {experiment}\n{line}\n")
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        assert f"config error: {key!r} takes " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, line, code",
        [
            ("ramp", "n_points = 100000000000000000000", 3),
            ("ramp", "mode = 100000000000000000000", 0),
            ("variance_compare", "hopping_values = 100000000000000000000", 0),
            ("driven_oscillation", "n_fock = 100000000000000000000", 3),
        ],
    )
    def test_whole_number_beyond_int64_is_a_number(self, tmp_path, capsys, experiment, line,
                                                   code):
        # a whole number of any size is finite: the config is read, and the
        # run either completes or refuses the size as a numerical failure
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"experiment = {experiment}\n{line}\n")
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith(f"numerical failure in {experiment}: ")
            assert not (tmp_path / "out").exists()
        else:
            assert err == "" and any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize(
        "experiment, line",
        [("variance_compare", "delta_values = 1e308"), ("driven_oscillation", "atom_drive = 1e200")],
    )
    def test_arithmetic_overflow_exits_3(self, tmp_path, capsys, experiment, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"experiment = {experiment}\n{line}\n")
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith(f"numerical failure in {experiment}: ")
        assert not (tmp_path / "out").exists()

    def test_numeric_ramp_initial_is_read_as_labels(self, tmp_path, capsys):
        # "0" labels the ground state, so "0,0" names the pair "G,G" does: an
        # option whose default is text keeps its text, however numeric
        data = []
        for name, initial in (("zero", "0,0"), ("ground", "G,G")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(f"experiment = ramp\nn_points = 3\nhold_samples = 101\n"
                           f"initial = {initial}\n")
            assert main(["run", str(cfg), "--output-dir", str(tmp_path / name)]) == 0
            lines = (tmp_path / name / "ramp.csv").read_text().splitlines()
            data.append([line for line in lines if not line.startswith("#")])
        capsys.readouterr()
        assert len(data[0]) == 4 and data[0] == data[1]

    @pytest.mark.parametrize(
        "text, flags, code",
        [
            ("experiment = table1\ndelta = 1.0\n", (), 2),
            ("experiment = table1\nhopping = 3.0\n", (), 2),
            ("experiment = table1\ncavity_decay = 2.0\n", (), 2),
            ("experiment = variance_compare\ncavity_decay = 1.0\n", (), 2),
            ("experiment = perturbation_report\ncavity_decay = 5.0\n", (), 2),
            ("experiment = perturbation_report\nhopping = 2.0\n", (), 2),
            ("experiment = ramp\ndelta = 7.0\n", (), 2),
            ("experiment = spectrum\natom_drive = 3.0\n", (), 2),
            ("experiment = perturbation_report\n", ("--strict-ramp",), 2),
            ("experiment = two_cavity_spectrum\nn_cavities = 1\n", (), 2),
            ("experiment = spectrum\nn_fock = 3\n", (), 2),
            ("experiment = two_cavity_spectrum\nn_fock = 3\n", (), 2),
            ("experiment = rwa_probe\nomega_c = 100\n", (), 2),
            ("experiment = rwa_probe\nn_fock = 4\n", (), 2),
            ("experiment = ramp\nomega_c = 100\n", (), 2),
            ("experiment = ramp\nn_fock = 4\n", (), 2),
            ("experiment = variance_compare\nomega_c = 100\n", (), 2),
            ("experiment = variance_compare\nn_fock = 4\n", (), 2),
            ("experiment = ramp\nmode = -1\n", (), 3),
            ("experiment = ramp\ninitial =\n", (), 3),
            ("experiment = ramp\ninitial = 1-,\n", (), 3),
            ("experiment = ramp\ninitial = x-,1-\n", (), 3),
        ],
        ids=lambda v: v.replace("\n", " ").strip() if isinstance(v, str) else None,
    )
    def test_input_the_experiment_cannot_use_is_refused(
        self, tmp_path, capsys, text, flags, code
    ):
        # parameters the runner never reads (n_cavities included: each
        # experiment runs on a fixed number of cavities; n_fock for the spectra
        # and the closed two-site runs, which are the same at any photon
        # cutoff; omega_c for the closed two-site runs, which work in the
        # cavity frame), --strict-ramp outside the ramp, an unsolvable ramp
        # mode and ramp initial states that name no polariton pair
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), *flags]) == code
        assert not (tmp_path / "out").exists()
        capsys.readouterr()

    def test_spectrum_refuses_two_cavities_before_building_the_generator(
        self, tmp_path, capsys, monkeypatch
    ):
        def unexpected(params):
            raise AssertionError("built a generator the run cannot use")

        monkeypatch.setattr("jchsim.experiments.standard_liouvillian", unexpected)
        cfg = tmp_path / "two.cfg"
        cfg.write_text("experiment = spectrum\nn_cavities = 2\n")
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert "does not read parameter 'n_cavities'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_variance_grid_refuses_zero_hopping_before_any_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        def unexpected(*args):
            raise AssertionError("solved a hold of a grid the run cannot use")

        monkeypatch.setattr("jchsim.protocols._measure_holds", unexpected)
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("experiment = variance_compare\nhopping_values = 0, 0.05\n")
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 3
        assert "hopping must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, cause",
        [
            ("experiment = spectrum\nn_points = 0\n", "need at least three grid points, got 0"),
            ("experiment = driven_oscillation\nt_final = 0\n", "time grid must increase"),
            ("experiment = driven_oscillation\nt_final = -1\n", "time grid must increase"),
        ],
    )
    def test_grid_refusals_name_their_cause(self, tmp_path, capsys, text, cause):
        # an empty frequency grid and a time grid that does not increase are
        # refused by what is wrong with them, not by a failure further on
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(text)
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 3
        assert cause in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # an undamped configuration has no unique steady state
        cfg = tmp_path / "divergent.cfg"
        cfg.write_text("experiment = spectrum\ncavity_decay = 0\natom_decay = 0\n")
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert not (tmp_path / "out").exists()

    def test_spectrum_off_its_closed_form_exits_3(self, tmp_path, capsys, monkeypatch):
        # a closed form moved by one part in 1e6 is 1e3 times the limit off
        # the engine, so the run refuses to write the spectrum
        exact = experiments.absorption_spectrum_analytic

        def scaled(params, grid):
            spectrum = exact(params, grid)
            return replace(spectrum, values=spectrum.values * (1 + 1e-6))

        monkeypatch.setattr("jchsim.experiments.absorption_spectrum_analytic", scaled)
        cfg = tmp_path / "off.cfg"
        cfg.write_text("experiment = spectrum\n")
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 3
        assert "off the closed form (limit 1e-09)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_spectrum_of_a_defective_generator_matches_the_resolvent(self, tmp_path):
        # resonant atom decay at g = 1, rate 1, no cavity loss: a generator
        # with a Jordan block, whose steady state needs no eigenbasis; the
        # spectrum of the vacuum is 2 Im <1,g| (H_eff - nu)^-1 |1,g>, with
        # H_eff in the cavity frame and nu = omega - omega_c, taken on the
        # one-excitation block H_eff keeps |1,g> in (the vacuum level, which
        # the grid hits at nu = 0, is no pole of it)
        cfg = tmp_path / "defective.cfg"
        cfg.write_text("experiment = spectrum\ndelta = 0\n"
                       "cavity_decay = 0\natom_decay = 1.0\nn_points = 201\n")
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
        rows = [line for line in lines if not line.startswith("#")]
        assert rows[0] == "omega,S_numeric,S_analytic"
        omega, s_numeric, _ = np.array([row.split(",") for row in rows[1:]], dtype=float).T
        p = ExperimentConfig.from_file(cfg).params
        h_eff = build_jch(p).data.astype(complex)
        for jump, rate in decay_channels(p):
            h_eff -= 0.5j * rate * jump.data.conj().T @ jump.data
        one = np.isclose(total_excitation(p.dims).data.diagonal().real, 1.0)
        h_one = h_eff[np.ix_(one, one)]
        vacuum = bare_ket(p.dims, [(0, 0)]).amplitudes
        excited = (annihilation_at(p.dims, 0).dag().data @ vacuum)[one]
        eye = np.eye(len(excited))
        resolvent = np.array([excited.conj() @ np.linalg.solve(h_one - w * eye, excited)
                              for w in omega - p.omega_c])
        s_resolvent = 2.0 * resolvent.imag
        assert np.abs(s_numeric - s_resolvent).max() < 1e-10 * s_resolvent.max()

    def test_selfcheck_command(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["selfcheck", "--output", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert report["passed"] is True
        capsys.readouterr()

    def test_selfcheck_numerical_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # an engine call that refuses ends in one line and exit 3, not a
        # traceback, and leaves no report behind
        def refuse(*args):
            raise NumericalError("steady state is degenerate")

        monkeypatch.setattr("jchsim.selfcheck.steady_state", refuse)
        out_path = tmp_path / "report.json"
        assert main(["selfcheck", "--output", str(out_path)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "numerical failure in selfcheck: steady state is degenerate\n"
        assert captured.out == "" and not out_path.exists()

    def test_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch):
        # a path that cannot be written is the caller's error (2): neither an
        # invariant failure (1) nor a traceback
        # and it is found before any computation is paid for
        def never(*args):
            raise AssertionError("computed before the output path was checked")

        cfg = tmp_path / "ok.cfg"
        cfg.write_text("experiment = spectrum\nn_points = 101\n")
        monkeypatch.setitem(EXPERIMENTS, "spectrum", replace(EXPERIMENTS["spectrum"], runner=never))
        existing_file = tmp_path / "taken"
        existing_file.write_text("")
        for target in (existing_file, existing_file / "sub"):
            assert main(["run", str(cfg), "--output-dir", str(target)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("output error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ok.cfg", "taken"]
        monkeypatch.setattr("jchsim.cli.run_selfcheck", never)
        assert main(["selfcheck", "--output", str(tmp_path / "missing" / "x.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1

    def test_ramp_flags_are_plumbed(self, tmp_path, capsys):
        cfg = tmp_path / "ramp.cfg"
        cfg.write_text(
            "experiment = ramp\nn_points = 4\nhold_samples = 201\n"
        )
        code = main(
            [
                "run", str(cfg),
                "--output-dir", str(tmp_path / "out"),
                "--format", "json",
                "--strict-ramp",
            ]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "out" / "ramp.json").read_text())
        # provenance carries the options actually in effect
        assert payload["provenance"]["options.strict_ramp"] is True
        assert len(payload["data"]["delta"]) == 4


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_ramp_output_layout(self, tmp_path, capsys, fmt):
        # one row per detuning, the columns in this order, and the summary
        # of the pulse length pi/(2g) and the hold 1/J
        cfg = tmp_path / "ramp.cfg"
        cfg.write_text("experiment = ramp\nn_points = 4\nhold_samples = 101\nhopping = 0.2\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out), "--format", fmt]) == 0
        capsys.readouterr()
        header = "delta,var,p_lp,p_up,p_1m_1m,p_1p_1p,p_2m_0,p_0_2m,p_2p_0,p_0_2p"
        if fmt == "csv":
            rows = [line for line in (out / "ramp.csv").read_text().splitlines()
                    if not line.startswith("#")]
            assert rows[0] == header and len(rows) == 5
            assert all(len(row.split(",")) == 10 for row in rows[1:])
            payload = json.loads((out / "ramp.summary.json").read_text())
        else:
            payload = json.loads((out / "ramp.json").read_text())
            assert sorted(payload["data"]) == sorted(header.split(","))
            assert all(len(column) == 4 for column in payload["data"].values())
        summary = payload["summary"]
        assert sorted(summary) == ["hold_time", "initial", "mode", "pulse_time", "time_dependent"]
        assert summary["pulse_time"] == math.pi / 2 and summary["hold_time"] == 1 / 0.2
        assert (summary["mode"], summary["time_dependent"], summary["initial"]) == (1, True, "1-,1-")


class TestSelfcheck:
    def test_all_pass_on_fresh_build(self):
        report = run_selfcheck()
        assert report["passed"] is True
        failed = [k for k, v in report["checks"].items() if not v["passed"]]
        assert failed == []

    def test_corrupted_drive_series_is_caught_and_named(self, monkeypatch):
        # the series' energies moved by 0.01: only the rebuild of B^dag H B fails
        def shifted(params):
            labels, e0, v = dressed_drive(params)
            return labels, e0 + 0.01, v

        monkeypatch.setattr("jchsim.selfcheck.dressed_drive", shifted)
        checks = run_selfcheck()["checks"]
        assert not checks["ladder_reconstruction"]["passed"]
        others = [c for name, c in checks.items() if name != "ladder_reconstruction"]
        assert all(c["passed"] for c in others)


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.stem)
def test_shipped_config_loads(path):
    # a removed option key or a badly typed value fails here, not at a prompt
    config = ExperimentConfig.from_file(path)
    assert config.experiment in EXPERIMENTS


def _referenced(nodes) -> set:
    """Every Name id and Attribute attr under the given syntax nodes."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def _signature_parts(func) -> list:
    """Decorators and defaults: the parts of a def evaluated where it is defined."""
    return [*func.decorator_list, *func.args.defaults, *filter(None, func.args.kw_defaults)]


def test_every_function_is_reached_from_the_cli():
    # A function, non-dunder method or class that neither ``cli.main`` nor
    # the module-level code (the experiment registry, for one) reaches by name
    # is dead weight that only tests and exports keep alive.  Matching by bare
    # name is conservative: a method counts as reached if any attribute of
    # that name is read anywhere reached.
    defined = defaultdict(list)  # name -> [(qualified name, def node)]
    classes = {}  # class name -> qualified name
    dunders = defaultdict(list)  # class name -> its dunder method nodes
    roots = []
    for path in sorted((REPO / "src" / "jchsim").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef):
                defined[stmt.name].append((f"{path.stem}.{stmt.name}", stmt))
                roots += _signature_parts(stmt)
            elif isinstance(stmt, ast.ClassDef):
                classes[stmt.name] = f"{path.stem}.{stmt.name}"
                roots += [*stmt.decorator_list, *stmt.bases]
                for item in stmt.body:
                    if not isinstance(item, ast.FunctionDef):
                        roots.append(item)
                        continue
                    roots += _signature_parts(item)
                    if item.name.startswith("__") and item.name.endswith("__"):
                        dunders[stmt.name].append(item)
                    else:
                        qualname = f"{path.stem}.{stmt.name}.{item.name}"
                        defined[item.name].append((qualname, item))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots.append(stmt)
    seen = set()
    pending = {"main"} | _referenced(roots)
    while pending:
        name = pending.pop()
        seen.add(name)
        bodies = [node for _, node in defined[name]] + dunders[name]
        pending |= _referenced(bodies) - seen
    unreached = sorted([q for name, defs in defined.items() if name not in seen for q, _ in defs]
                       + [q for name, q in classes.items() if name not in seen])
    assert not unreached, f"reached by no runner or selfcheck: {', '.join(unreached)}"


def _load_perfbench(name: str):
    path = REPO / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_layer_metric_is_measured():
    # ``perfbench/run.py --trace 1`` raises on a per-layer metric of
    # BENCHMARK.json that names neither a traced public function nor a tracer
    # counter, so deleting or renaming a function a metric names breaks every
    # traced benchmark run; perfbench's own tests are not in tier-1
    run, tracing = _load_perfbench("run"), _load_perfbench("tracer")
    known = tracing.Tracer().span_names()
    counters = set(tracing.COUNTERS) | {f"{layer}.errors" for layer in tracing.LAYERS}
    unmeasured = []
    for metric in json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]:
        try:
            run.layer_value(metric["name"], [{"layers": {}}], 0.0, known, counters)
        except ValueError:
            unmeasured.append(metric["name"])
    assert not unmeasured, f"per-layer metrics no tracer span measures: {', '.join(unmeasured)}"
