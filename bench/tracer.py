"""In-memory spans around the package's public functions, for the traced run.

`Tracer.install()` wraps every public function defined in the traced modules
and rebinds it everywhere the package holds it: the defining module's
attribute, every name another module bound with `from .numerics import ...`,
and the package's re-exports. Each call records one span (name, start, end,
parent span, problem id) plus an optional size. `Tracer.remove()` restores
the original objects, so no file of the package changes and nothing stays
wrapped after the traced run.

The span tables are flat arrays, because the diagnostic workload records
about a million spans per problem. Spans assume one thread: the benchmark
runs the CLI at its default of one worker thread.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array

import numpy as np

from checks import without_timing

PACKAGE = "multishift"
MODULES = ("cli", "serialization", "kernelgen", "lattice", "shiftcore",
           "equivalence", "numerics")

# Self time of each function goes to exactly one layer metric, so the layer
# self times partition the traced time spent inside the CLI.
_GROUPS = {
    "numerics.pencil_s": ("pencil_logrange_batch", "pencil_logeigs", "pencil_eigs",
                          "cholesky_batch", "cholesky", "solve_lower_batch",
                          "whiten_batch"),
    "numerics.eig_s": ("herm_eig_batch", "herm_eig", "herm_eigvals"),
    "numerics.hermpd_s": ("hermpd", "rebalance", "hermpd_from_log_diag", "sqrt_pd",
                          "inv_sqrt_pd", "inv_pd"),
    "numerics.solve_s": ("solve", "inv"),
    "numerics.nullspace_s": ("nullspace",),
    "numerics.singular_range_s": ("singular_range", "spectral_norm"),
    "numerics.polar_s": ("polar_unitary",),
    "equivalence.optimize_s": ("optimize_C",),
    "equivalence.unitary_s": ("test_unitary_equivalence",),
    "equivalence.oracle.solve_s": ("brute_force_intertwiner",),
    "equivalence.oracle.checks_s": ("level0_annihilation_residual", "recursion_residual",
                                    "intertwining_residual",
                                    "certificate_from_intertwiner"),
    "equivalence.verify_s": ("verify_certificate",),
    "shiftcore.build_mz_s": ("build_mz",),
    "serialization.dump_s": ("canonical_dumps",),
}
_WHOLE_MODULE = {"cli": "cli.self_s", "kernelgen": "kernelgen.generate_s",
                 "lattice": "lattice.truncation_s"}
LAYER_TIMES = tuple(_GROUPS) + tuple(_WHOLE_MODULE.values()) + (
    "serialization.parse_s", "numerics.other_s", "equivalence.other_s",
    "shiftcore.other_s", "serialization.other_s",
)


def layer_of(qualname: str) -> str:
    module, _, func = qualname.partition(".")
    if module in _WHOLE_MODULE:
        return _WHOLE_MODULE[module]
    for layer, funcs in _GROUPS.items():
        if layer.startswith(module + ".") and func in funcs:
            return layer
    if module == "serialization":
        if func.endswith("_from_json"):
            return "serialization.parse_s"
        if func.endswith("_to_json"):
            return "serialization.dump_s"
    return f"{module}.other_s"


def _first_len(args, kwargs, out):
    return int(np.shape(args[0])[0])


def _top_degree(args, kwargs, out):
    top = args[2] if len(args) > 2 else kwargs.get("top_degree")
    return -1 if top is None else int(top)


# Per-call sizes: the number of stacked matrices, the intertwiner unknowns,
# the bytes written (less the wall-clock field, so the count repeats), the
# lattice points generated, or the truncation degree.
_SIZES = {
    "numerics.pencil_logrange_batch": _first_len,
    "numerics.herm_eig_batch": _first_len,
    "equivalence.brute_force_intertwiner": lambda a, k, out: out.dim ** 2,
    "serialization.canonical_dumps": lambda a, k, out: len(without_timing(out).encode()),
    "kernelgen.kernel_moments": lambda a, k, out: math.comb(a[0].N + a[0].d, a[0].d),
    "cli.resolve_system": _top_degree,
    "equivalence.optimize_C": lambda a, k, out: int(a[0].N),
}

# Spans whose callees are attributed to them: (name, context bit).
_CONTEXTS = {"equivalence.optimize_C": 1, "equivalence.test_unitary_equivalence": 2,
             "equivalence.growth_diagnostic": 4}


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


class Tracer:
    """Records spans while installed; computes per-layer metrics afterwards."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.problem = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.raised = array("b")
        self.problem_id = -1
        self._stack = []
        self._patches = []
        self._failure_types = ()

    # -- installation -------------------------------------------------------

    def install(self) -> int:
        """Wrap the public functions; returns how many names were rebound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from multishift.numerics import LinAlgError
        self._failure_types = (LinAlgError,)
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))
        return len(self._patches)

    def remove(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches = []

    def leftover_wrappers(self) -> list:
        """Names in the package that still hold a span wrapper."""
        return [f"{mod.__name__}.{attr}" for mod in _package_modules()
                for attr, obj in vars(mod).items()
                if getattr(obj, "_bench_span", None) is not None]

    def _wrap(self, qualname: str, fn):
        nid = self._name_ids.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        size_of = _SIZES.get(qualname)
        stack = self._stack
        name, parent, problem = self.name, self.parent, self.problem
        start, end, size, raised = self.start, self.end, self.size, self.raised
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            problem.append(self.problem_id)
            size.append(0)
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as ex:
                end[idx] = clock()
                stack.pop()
                if isinstance(ex, self._failure_types):
                    raised[idx] = 1
                raise
            end[idx] = clock()
            stack.pop()
            if size_of is not None:
                size[idx] = size_of(args, kwargs, out)
            return out

        wrapper._bench_span = qualname
        return wrapper

    # -- analysis -----------------------------------------------------------

    def metrics(self, degrees) -> dict:
        """Per-layer self times and counts from the recorded spans."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64)
        size = np.frombuffer(self.size, dtype=np.int64)
        raised = np.frombuffer(self.raised, dtype=np.int8)
        nested = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child

        bit_of = np.zeros(len(self.names), dtype=np.int64)
        for qualname, bit in _CONTEXTS.items():
            if qualname in self._name_ids:
                bit_of[self._name_ids[qualname]] = bit
        # Parents precede their children, so one forward pass resolves the
        # contexts each span runs inside.
        own = bit_of[name].tolist()
        par = parent.tolist()
        inside = [0] * len(own)
        for i, p in enumerate(par):
            if p >= 0:
                inside[i] = inside[p] | own[p]
        inside = np.array(inside, dtype=np.int64)

        def is_(qualname):
            nid = self._name_ids.get(qualname)
            return name == (-2 if nid is None else nid)

        def count(mask):
            return int(np.count_nonzero(mask))

        def total(values, mask):
            return float(values[mask].sum())

        layer_ids = np.array([LAYER_TIMES.index(layer_of(q)) for q in self.names],
                             dtype=np.int64)
        sums = np.bincount(layer_ids[name], weights=self_time, minlength=len(LAYER_TIMES))
        out = {layer: float(sums[i]) for i, layer in enumerate(LAYER_TIMES)}

        pencil = is_("numerics.pencil_logrange_batch") | is_("numerics.pencil_logeigs") \
            | is_("numerics.pencil_eigs")
        batch = is_("numerics.pencil_logrange_batch")
        eig = is_("numerics.herm_eig_batch")
        polar = is_("numerics.polar_unitary")
        in_opt = (inside & 1) != 0
        in_unitary = (inside & 2) != 0
        in_growth = (inside & 4) != 0
        oracle = is_("equivalence.brute_force_intertwiner")
        kern = is_("kernelgen.kernel_moments")
        dumps = is_("serialization.canonical_dumps")
        out.update({
            "numerics.pencil_calls": count(pencil),
            "numerics.pencil_failures": count(pencil & (raised != 0)),
            "numerics.eig_calls": count(eig),
            "numerics.eig_matrices": int(size[eig].sum()),
            "numerics.hermpd_calls": count(is_("numerics.hermpd")),
            "numerics.solve_calls": count(is_("numerics.solve")),
            "numerics.singular_range_calls": count(is_("numerics.singular_range")),
            "numerics.polar_calls": count(polar),
            "equivalence.objective_evals": count(batch & in_opt),
            "equivalence.pencil_solves": int(size[batch & in_opt].sum()),
            "equivalence.optimize.polar_calls": count(polar & in_opt),
            "equivalence.unitary.polar_calls": count(polar & in_unitary),
            "equivalence.oracle.unknowns": int(size[oracle].sum()),
            "shiftcore.build_mz_calls": count(is_("shiftcore.build_mz")),
            "kernelgen.lattice_points": int(size[kern].sum()),
            "lattice.truncations": count(is_("lattice.enumerate_indices")),
            "serialization.parse_matrices": count(is_("serialization.matrix_from_json")),
            "serialization.dump_bytes": int(size[dumps].sum()),
        })
        resolve = is_("cli.resolve_system") & in_growth
        optimize = is_("equivalence.optimize_C") & in_growth
        for deg in degrees:
            out[f"equivalence.growth.deg{deg}.generate_s"] = total(dur, resolve & (size == deg))
            out[f"equivalence.growth.deg{deg}.optimize_s"] = total(dur, optimize & (size == deg))
        out["trace.inside_s"] = total(dur, ~nested)
        return out
