"""In-memory span tracer around the public functions of every jchsim module.

The tracer lives in the benchmark, not in the program: ``install`` replaces
each public module-level function of the layer modules with a timing wrapper,
in its defining module and in every jchsim module that bound it by name
(``protocols`` imports ``evolve_closed`` directly, for example).  Two methods
are patched on their classes: ``Liouvillian.modes`` and
``ExperimentConfig.from_file``.  ``uninstall`` puts every original back.

A span is (id, parent id, name, start, end, child time, job, outermost).
Calls and busy time of a name count its outermost spans only, so
``build_jch`` calling ``build_jc`` (one group) is not counted twice; self
time is a span's duration minus the time covered by its traced children.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import warnings
import weakref
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = (
    "hilbert", "polariton", "hamiltonians", "lindblad", "spectroscopy",
    "perturbation", "protocols", "experiments", "selfcheck", "cli",
)

# functions reported together under one span name
_GROUPS = {
    "lindblad.build_liouvillian": "lindblad.build",
    "lindblad.standard_liouvillian": "lindblad.build",
    "perturbation.perturbation_report": "perturbation.report",
    "perturbation.match_exact_energies": "perturbation.oracle",
    "experiments.write_csv": "experiments.write",
    "experiments.write_json": "experiments.write",
}
_HILBERT_OPS = {
    "identity", "fock_annihilation", "atomic_lowering", "embed_site",
    "annihilation_at", "lowering_at", "excitation_number_at", "total_excitation",
}
_POLARITON_KETS = {"polariton_ket", "ground_ket", "site_polariton_ket", "product_polariton_ket"}
# (module, class, method, span name) patched on the class
_METHODS = (
    ("lindblad", "Liouvillian", "modes", "lindblad.modes"),
    ("experiments", "ExperimentConfig", "from_file", "experiments.parse"),
)

# per-layer counts booked by the tracer itself (``<layer>.errors`` besides)
COUNTERS = (
    "lindblad.modes.eigs", "lindblad.modes.n3_sum",
    "lindblad.superop_dim_max", "lindblad.superop_bytes_max",
    "lindblad.evolve.samples", "lindblad.evolve_closed.samples",
    "lindblad.evolve.rk4_fallbacks", "experiments.bytes_written",
    "spectroscopy.contributing_mode_frac",
)


def span_name(layer: str, func: str) -> str:
    if layer == "hilbert" and func in _HILBERT_OPS:
        return "hilbert.ops"
    if layer == "polariton" and func in _POLARITON_KETS:
        return "polariton.kets"
    if layer == "hamiltonians" and (func.startswith("build_") or func == "stroboscopic_generator"):
        return "hamiltonians.build"
    return _GROUPS.get(f"{layer}.{func}", f"{layer}.{func}")


def _jchsim_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "jchsim" or name.startswith("jchsim."))]


def snapshot() -> dict:
    """Identity of every attribute of the jchsim modules and of the patched
    classes, for checking that ``uninstall`` restored all of them."""
    owners = _jchsim_modules()
    for layer, cls_name, _, _ in _METHODS:
        owners.append(getattr(sys.modules[f"jchsim.{layer}"], cls_name))
    return {(repr(owner), attr): id(value)
            for owner in owners for attr, value in vars(owner).items()}


class Tracer:
    """Patches the jchsim layers while installed and records spans and counts."""

    def __init__(self):
        self._mods = {layer: importlib.import_module(f"jchsim.{layer}") for layer in LAYERS}
        self._error_type = importlib.import_module("jchsim.errors").JchsimError
        self._liouvillian = self._mods["lindblad"].Liouvillian
        self._floor = self._mods["spectroscopy"].AMPLITUDE_FLOOR
        self._patches = []  # (owner, attribute, original value)
        self._original_modes = None
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._depth = defaultdict(int)
        self._next_id = 0
        self._job = None
        self._seen_modes = {}
        self._pending_files = []
        self._pending_spectra = []

    # -- patching ---------------------------------------------------------

    def targets(self):
        """(layer, function name, function) for every public function traced."""
        out = []
        for layer, mod in self._mods.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    out.append((layer, name, obj))
        return out

    def span_names(self) -> set:
        return ({span_name(layer, name) for layer, name, _ in self.targets()}
                | {name for *_, name in _METHODS})

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {id(func): self._wrap(span_name(layer, name), layer, func)
                    for layer, name, func in self.targets()}
        # every jchsim module (the package too) that holds one of the
        # originals under any name gets the wrapper
        for mod in _jchsim_modules():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, attr, wrappers[id(value)])
        for layer, cls_name, meth, name in _METHODS:
            cls = getattr(self._mods[layer], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                self._patch(cls, meth, classmethod(self._wrap(name, layer, raw.__func__)))
            else:
                self._patch(cls, meth, self._wrap(name, layer, raw))
        self._original_modes = self._liouvillian.__dict__["modes"].__wrapped__

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name, layer, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return tracer._call(name, layer, func, args, kwargs)

        return wrapper

    def _call(self, name, layer, func, args, kwargs):
        depth = self._depth
        outer = depth[name] == 0
        depth[name] += 1
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            if name == "lindblad.evolve":
                result = self._evolve(func, args, kwargs)
            else:
                result = func(*args, **kwargs)
        except self._error_type as exc:
            # count each error once, in the layer it was raised from
            if not getattr(exc, "_perfbench_counted", False):
                exc._perfbench_counted = True
                self.counts[f"{layer}.errors"] += 1
            if name == "lindblad.modes":
                self._decomposed(args[0])
            raise
        finally:
            t1 = perf_counter()
            self._stack.pop()
            depth[name] -= 1
            if parent is not None:
                parent[1] += t1 - t0
            self.spans.append((frame[0], parent[0] if parent else None, name,
                               t0, t1, frame[1], self._job, outer))
        self._observe(name, args, kwargs, result)
        return result

    def _evolve(self, func, args, kwargs):
        """Run ``evolve``, counting its RK4 fallback warnings and re-issuing them."""
        caught = []
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                return func(*args, **kwargs)
        finally:
            for w in caught:
                if "falling back" in str(w.message):
                    self.counts["lindblad.evolve.rk4_fallbacks"] += 1
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)

    def _decomposed(self, liouv):
        n = liouv.data.shape[0]
        self.counts["lindblad.modes.eigs"] += 1
        self.counts["lindblad.modes.n3_sum"] += float(n) ** 3
        self._superop(n)

    def _superop(self, n):
        if n > self.counts["lindblad.superop_dim_max"]:
            self.counts["lindblad.superop_dim_max"] = n
            self.counts["lindblad.superop_bytes_max"] = 16 * n * n

    def _observe(self, name, args, kwargs, result):
        if isinstance(result, self._liouvillian):
            self._superop(result.data.shape[0])
        if name == "lindblad.modes":
            # modes() caches its decomposition: a result not seen before
            # means an eigendecomposition was computed in this call
            seen = self._seen_modes.get(id(result))
            if seen is None or seen() is not result:
                self._seen_modes[id(result)] = weakref.ref(result)
                self._decomposed(args[0])
        elif name in ("lindblad.evolve", "lindblad.evolve_closed"):
            grid = args[2] if len(args) > 2 else kwargs["t_grid"]
            self.counts[f"{name}.samples"] += np.size(grid)
        elif name == "experiments.write":
            self._pending_files.append(args[0] if args else kwargs["path"])
        elif name == "spectroscopy.absorption_spectrum":
            self._pending_spectra.append(args[:3])

    # -- jobs and passes ---------------------------------------------------

    def begin_job(self, job_id: str):
        self._job = job_id

    def end_job(self):
        """Book the per-job counts whose cost must stay outside every span."""
        for path in self._pending_files:
            with open(path, "rb") as fh:
                self.counts["experiments.bytes_written"] += len(fh.read())
        for liouv, rho_ss, a_op in self._pending_spectra:
            modes = self._original_modes(liouv)
            weights = (a_op.data.T.reshape(-1) @ modes.right) * (
                modes.right_inv @ (a_op.dag().data @ rho_ss.data).reshape(-1))
            scale = max(float(np.abs(weights).max()), 1.0)
            self.counts["spectroscopy.modes_weighted"] += int(
                np.count_nonzero(np.abs(weights) > self._floor * scale))
            self.counts["spectroscopy.modes_decomposed"] += weights.size
        self._pending_files = []
        self._pending_spectra = []
        self._job = None

    def begin_pass(self) -> int:
        self.counts = defaultdict(float)
        self._seen_modes = {}
        return len(self.spans)

    def pass_metrics(self, first_span: int) -> dict:
        """Per-layer metrics of the spans recorded since ``first_span``."""
        out = defaultdict(float, self.counts)
        for _, _, name, t0, t1, child, _, outer in self.spans[first_span:]:
            out[f"{name}.self_s"] += t1 - t0 - child
            if outer:
                out[f"{name}.busy_s"] += t1 - t0
                out[f"{name}.calls"] += 1
        decomposed = out.pop("spectroscopy.modes_decomposed", 0.0)
        weighted = out.pop("spectroscopy.modes_weighted", 0.0)
        out["spectroscopy.contributing_mode_frac"] = weighted / decomposed if decomposed else 0.0
        return out
