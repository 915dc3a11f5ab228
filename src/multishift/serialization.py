"""JSON encoding of systems, certificates, and reports.

One format rule everywhere: complex matrices are nested arrays of [re, im]
pairs, and log scales ride in separate real fields, never multiplied into
matrix entries. Balanced HermPD data round-trips byte-for-byte: parsing a
serialized matrix re-runs the balancing convention, which is a no-op on
already balanced input, and floats go through repr-exact JSON.

Every file written (problem files, answer sidecars, reports) has one layout:
`{`, then one sorted top-level member per line, indented two spaces and
encoded compactly by json's C encoder, then `}`. Files in the older indented
layout parse to the same values.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import chain

import numpy as np

from .equivalence import (
    GrowthDiagnostic,
    SearchStart,
    SearchSummary,
    SimilarityCertificate,
    UnitaryEquivalenceResult,
    VerificationReport,
)
from .lattice import _last_entries, _truncation, simplex_size
from .numerics import HermPD, hermpd, hermpd_batch
from .shiftcore import MomentSystem, ValidationReport, WeightSystem


class SchemaError(Exception):
    """A problem file does not match the schema; .path names the bad field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def _is_finite_real(v) -> bool:
    # exact comparison, so NaN, the infinities and integers past the float
    # range all fail
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and -sys.float_info.max <= v <= sys.float_info.max)


def matrix_to_json(mat) -> list:
    """A matrix, or a stack of them, as nested [re, im] pairs: one tolist()."""
    arr = np.asarray(mat, dtype=np.complex128)
    return np.stack((arr.real, arr.imag), -1).tolist()


def matrix_from_json(data, path: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise SchemaError(path, "expected a non-empty nested array of [re, im] pairs")
    rows = []
    width = None
    for i, row in enumerate(data):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"{path}[{i}]", "expected a non-empty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"{path}[{i}]", "ragged matrix rows")
        out_row = []
        for k, entry in enumerate(row):
            if (not isinstance(entry, list) or len(entry) != 2
                    or not all(_is_finite_real(v) for v in entry)):
                raise SchemaError(f"{path}[{i}][{k}]",
                                  "expected an [re, im] pair of finite numbers")
            out_row.append(complex(entry[0], entry[1]))
        rows.append(out_row)
    arr = np.array(rows, dtype=np.complex128)
    if arr.shape[0] != arr.shape[1]:
        raise SchemaError(path, f"expected a square matrix, got {arr.shape}")
    return arr


def hermpd_to_json(h: HermPD) -> dict:
    return {"logscale": float(h.logscale), "matrix": matrix_to_json(h.matrix)}


def hermpd_from_json(data, path: str, n: int) -> HermPD:
    mat = _entry_matrix(data, path, n, 0, ("logscale",))
    return hermpd(mat, data.get("logscale", 0.0))


def multiindex_to_json(alpha) -> list:
    return [int(a) for a in alpha]


def multiindex_from_json(data, path: str, d: int | None = None) -> tuple:
    if (not isinstance(data, list) or not data
            or not all(isinstance(a, int) and not isinstance(a, bool) and a >= 0
                       for a in data)):
        raise SchemaError(path, "expected an array of non-negative integers")
    if d is not None and len(data) != d:
        raise SchemaError(path, f"expected {d} components, got {len(data)}")
    return tuple(data)


def moment_system_to_json(ms: MomentSystem) -> dict:
    return {
        "type": "moments",
        "d": ms.d,
        "N": ms.N,
        "fiber_dim": ms.fiber_dim,
        "grams": [
            {"alpha": alpha, "logscale": logscale, "matrix": mat}
            for alpha, logscale, mat in zip(ms.truncation().array.tolist(), ms.logs.tolist(),
                                            matrix_to_json(ms.mats))
        ],
    }


def weight_system_to_json(ws: WeightSystem, g0: HermPD) -> dict:
    return {
        "type": "weights",
        "d": ws.d,
        "N": ws.N,
        "fiber_dim": ws.fiber_dim,
        "g0": hermpd_to_json(g0),
        "weights": [
            {"alpha": list(alpha), "j": j, "matrix": mat}
            for alpha, row in zip(ws.truncation().array[:ws.weights.shape[1]].tolist(),
                                  matrix_to_json(ws.weights.swapaxes(0, 1)))
            for j, mat in enumerate(row)
        ],
    }


def _require_int(data: dict, key: str, path: str, minimum: int) -> int:
    if key not in data:
        raise SchemaError(f"{path}.{key}", "missing")
    v = data[key]
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise SchemaError(f"{path}.{key}", f"expected an integer >= {minimum}")
    return v


def _finite_reals(values: list, arr: np.ndarray) -> bool:
    """Whether values, read into the float array arr, are finite reals: at once
    for floats alone, else exactly (an int just past the float range rounds in)."""
    return (set(map(type, values)) <= {float} and bool(np.isfinite(arr).all())
            or all(map(_is_finite_real, values)))


# The text for an entry that is not an object, by the keys its array reads;
# Grams and replacements also need an alpha.
_NOT_AN_ENTRY = {("alpha", "logscale"): "expected an object with 'alpha'",
                 ("alpha", "j"): "expected an object",
                 ("logscale",): "expected an object with 'logscale' and 'matrix'"}


def _entry_matrix(entry, path: str, n: int | None, d: int, keys: tuple) -> np.ndarray:
    """The matrix of one entry (of an (n, n) HermPD with "logscale" in keys),
    read after its other fields; the first bad field raises its SchemaError."""
    if not isinstance(entry, dict) or (keys == ("alpha", "logscale") and "alpha" not in entry):
        raise SchemaError(path, _NOT_AN_ENTRY[keys])
    if "alpha" in keys:
        multiindex_from_json(entry.get("alpha"), f"{path}.alpha", d)
    if "j" in keys and (not isinstance(j := entry.get("j"), int) or isinstance(j, bool)
                        or not 0 <= j < d):
        raise SchemaError(f"{path}.j", f"expected an integer in 0..{d - 1}")
    if "matrix" not in entry:
        raise SchemaError(f"{path}.matrix", "missing")
    if "logscale" in keys and not _is_finite_real(entry.get("logscale", 0.0)):
        raise SchemaError(f"{path}.logscale", "expected a finite real number")
    mat = matrix_from_json(entry["matrix"], f"{path}.matrix")
    if n is not None and len(mat) != n:
        raise SchemaError(f"{path}.matrix", f"expected shape ({n}, {n})" if "j" in keys
                          else f"expected dimension {n}, got {len(mat)}")
    return mat


def entries_from_json(entries: list, path: str, n: int | None, d: int, keys: tuple) -> tuple:
    """(mats, alphas, js, logs) of an array of Gram, weight, kernel coefficient
    or replacement entries, each an object with an (n, n) matrix (n None: the
    first one's) and the keys asked for of "alpha", "j" and "logscale", read in
    one array pass: (m, n, n) complex, (m, d) ints (int64, or Python ints when
    one is past it), (m,) int64 and (m,) floats (0.0 where absent), None for a
    key not asked for. When the pass refuses the array, the per-entry walk
    raises the SchemaError naming the first bad field."""
    m = len(entries)
    alphas = js = logs = None
    try:
        n = len(entries[0]["matrix"]) if n is None else n
        raw = [entry["matrix"] for entry in entries]
        mats = np.array(raw, dtype=np.float64)  # ints round as float(int) does
        scalars = list(chain.from_iterable(chain.from_iterable(chain.from_iterable(raw))))
        # np.array([]) has shape (0,): an empty array is read as (0, n, n)
        ok = (mats.shape == (m, n, n, 2) or not m) and _finite_reals(scalars, mats)
        if "alpha" in keys:
            raw = [entry["alpha"] for entry in entries]
            alphas = np.array(raw)
            if alphas.dtype != np.int64:  # floats or objects past int64
                alphas = np.array(raw, dtype=object)
            # np.array reads True as 1; the walk refuses it
            ok = (ok and set(map(type, raw)) <= {list} and (alphas.shape == (m, d) or not m)
                  and set(map(type, chain.from_iterable(raw))) <= {int} and not (alphas < 0).any())
        if "j" in keys:
            raw = [entry["j"] for entry in entries]
            js = np.array(raw, dtype=np.int64)
            ok = ok and set(map(type, raw)) <= {int} and bool(((js >= 0) & (js < d)).all())
        if "logscale" in keys:
            raw = [entry.get("logscale", 0.0) for entry in entries]
            logs = np.array(raw, dtype=np.float64)  # reads "0.5"; the walk refuses it
            ok = ok and _finite_reals(raw, logs)
    except (TypeError, KeyError, IndexError, AttributeError, ValueError, OverflowError):
        ok = False
    if not ok:  # the walk: the first bad field, in entry order, raises
        for i, entry in enumerate(entries):
            n = len(_entry_matrix(entry, f"{path}[{i}]", n, d, keys))
        raise AssertionError(f"{path}: the array pass refused entries the walk reads")
    return mats.reshape(m, n, n, 2).view(np.complex128)[..., 0], alphas, js, logs


def moment_system_from_json(data: dict, path: str) -> MomentSystem:
    d = _require_int(data, "d", path, 1)
    top = _require_int(data, "N", path, 0)
    n = _require_int(data, "fiber_dim", path, 1)
    grams_field = data.get("grams")
    if not isinstance(grams_field, list):
        raise SchemaError(f"{path}.grams", "expected an array of Gram entries")
    mats, alphas, _, logs = entries_from_json(grams_field, f"{path}.grams", n, d,
                                              ("alpha", "logscale"))
    # counted before the lattice is enumerated: it may be far past memory
    if len(grams_field) < (size := simplex_size(d, top)):
        raise SchemaError(f"{path}.grams", f"expected at least {size} entries")
    trunc = _truncation(d, top)
    take = _last_entries(trunc.ranks(alphas), size)
    if (missing := np.flatnonzero(take < 0)).size:  # the first in graded order
        raise SchemaError(f"{path}.grams",
                          f"missing Gram matrix at alpha={trunc.alpha(missing[0])}")
    # every entry is balanced, the unused ones too
    mats, logs = hermpd_batch(mats, logs)
    return MomentSystem.from_arrays(d, top, n, mats[take], logs[take])


def weight_system_from_json(data: dict, path: str):
    """Returns (WeightSystem, G0)."""
    d = _require_int(data, "d", path, 1)
    top = _require_int(data, "N", path, 0)
    n = _require_int(data, "fiber_dim", path, 1)
    if "g0" not in data:
        raise SchemaError(f"{path}.g0", "missing")
    g0 = hermpd_from_json(data["g0"], f"{path}.g0", n)
    weights_field = data.get("weights")
    if not isinstance(weights_field, list):
        raise SchemaError(f"{path}.weights", "expected an array of weight entries")
    mats, alphas, js, _ = entries_from_json(weights_field, f"{path}.weights", n, d,
                                            ("alpha", "j"))
    if len(weights_field) < (size := d * simplex_size(d, top - 1)):  # as for grams
        raise SchemaError(f"{path}.weights", f"expected at least {size} entries")
    trunc = _truncation(d, top)
    # alpha-major slots: a rank of -1 or past the interior falls outside 0..size-1
    take = _last_entries(trunc.ranks(alphas) * d + js, size)
    if (missing := np.flatnonzero(take < 0)).size:
        r, j = divmod(int(missing[0]), d)  # the first, alpha-major
        raise SchemaError(f"{path}.weights", f"missing weight at alpha={trunc.alpha(r)}, j={j}")
    take = take.reshape(-1, d).T
    return WeightSystem(d, top, n, mats[take]), g0


def certificate_to_json(cert: SimilarityCertificate) -> dict:
    return {
        "C": matrix_to_json(cert.C),
        "log_m1": float(cert.log_m1),
        "log_m2": float(cert.log_m2),
        "log_ratio": float(cert.log_ratio),
    }


def verification_to_json(report: VerificationReport) -> dict:
    return {
        "passes": report.passes,
        "tol": report.tol,
        "worst_lower_margin": report.worst_lower_margin,
        "worst_upper_margin": report.worst_upper_margin,
        "worst_lower_alpha": multiindex_to_json(report.worst_lower_alpha),
        "worst_upper_alpha": multiindex_to_json(report.worst_upper_alpha),
    }


def unitary_result_to_json(result: UnitaryEquivalenceResult) -> dict:
    out = {
        "equivalent": result.equivalent,
        "residual": result.residual,
        "message": result.message,
    }
    if result.V is not None:
        out["V"] = matrix_to_json(result.V)
    if result.witness is not None:
        out["witness_alpha"] = multiindex_to_json(result.witness)
        out["witness_invariant"] = result.witness_invariant
    if result.null_dimension is not None:
        out["residual_bound"] = result.residual_bound
        out["null_dimension"] = result.null_dimension
    return out


def growth_to_json(diag: GrowthDiagnostic) -> dict:
    return {
        "verdict": diag.verdict,
        "slope": diag.slope,
        "intercept": diag.intercept,
        "r_squared": diag.r_squared,
        "table": [
            {"degree": int(n), "log_ratio": float(r), "classes": int(k),
             "residual": float(e)}
            for n, r, k, e in zip(diag.degrees, diag.log_ratios, diag.classes,
                                  diag.residuals)
        ],
    }


def search_to_json(summary: SearchSummary) -> dict:
    def finite(v: float | None) -> float | None:
        return v if v is not None and math.isfinite(v) else None

    def start(s: SearchStart) -> dict:
        if s.error is not None:
            return {"name": s.name, "error": s.error}
        return {"name": s.name, "value": finite(s.value)}

    descent = summary.descent
    return {
        "start": summary.start,
        "start_evaluations": summary.start_evaluations,
        "starts": [start(s) for s in summary.starts],
        "descent": {"exit": descent.exit, "steps": descent.steps,
                    "evaluations": descent.evaluations},
        "bound": finite(summary.bound),
    }


def validation_to_json(report: ValidationReport) -> dict:
    return {
        "passes": report.passes,
        "max_commutation_residual": report.max_commutation_residual,
        "min_singular_ratio": report.min_singular_ratio,
        "max_weight_norm": report.max_weight_norm,
        "failures": list(report.failures),
    }


def _nonfinite_path(obj, path: str):
    """Path of the first NaN or infinity inside obj, in sorted-key order."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path or "$"
    if isinstance(obj, dict):
        items = [(f"{path}.{k}" if path else str(k), v) for k, v in sorted(obj.items())]
    elif isinstance(obj, (list, tuple)):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(obj)]
    else:
        return None
    return next((hit for p, v in items if (hit := _nonfinite_path(v, p))), None)


_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, allow_nan=False)


def canonical_dumps(obj) -> str:
    """Deterministic strict JSON text: sorted keys, one top-level member per
    line, each encoded compactly by the C encoder (which json skips whenever
    an indent is set), repr-exact floats. A NaN or infinity raises
    ValueError naming its path."""
    try:
        if not isinstance(obj, dict) or not obj:
            return _ENCODER.encode(obj) + "\n"
        members = (_ENCODER.encode({k: obj[k]})[1:-1] for k in sorted(obj))
        return "{\n  " + ",\n  ".join(members) + "\n}\n"
    except ValueError as ex:
        where = _nonfinite_path(obj, "")
        if where is None:
            raise
        raise ValueError(f"non-finite number at {where}") from ex
