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

import itertools
import json
import math
import sys

import numpy as np

from .equivalence import (
    GrowthDiagnostic,
    SearchStart,
    SearchSummary,
    SimilarityCertificate,
    UnitaryEquivalenceResult,
    VerificationReport,
)
from .lattice import _truncation, simplex_size
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


def matrix_from_json(data, path: str, expect_square: bool = True) -> np.ndarray:
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
    if expect_square and arr.shape[0] != arr.shape[1]:
        raise SchemaError(path, f"expected a square matrix, got {arr.shape}")
    return arr


def hermpd_to_json(h: HermPD) -> dict:
    return {"logscale": float(h.logscale), "matrix": matrix_to_json(h.matrix)}


def _logscale_field(data: dict, path: str) -> float:
    logscale = data.get("logscale", 0.0)
    if not _is_finite_real(logscale):
        raise SchemaError(f"{path}.logscale", "expected a finite real number")
    return float(logscale)


def _hermpd_fields(data, path: str):
    """(matrix, logscale) of a HermPD entry, parsed but not yet balanced."""
    if not isinstance(data, dict):
        raise SchemaError(path, "expected an object with 'logscale' and 'matrix'")
    if "matrix" not in data:
        raise SchemaError(f"{path}.matrix", "missing")
    logscale = _logscale_field(data, path)
    return matrix_from_json(data["matrix"], f"{path}.matrix"), logscale


def hermpd_from_json(data, path: str) -> HermPD:
    return hermpd(*_hermpd_fields(data, path))


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
            {"alpha": list(alpha), "logscale": logscale, "matrix": mat}
            for alpha, logscale, mat in zip(ms.truncation(), ms.logs.tolist(),
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
            for alpha, row in zip(ws.truncation().interior(),
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


def _matrix_stack(entries: list, n: int) -> np.ndarray | None:
    """Every entries[*].matrix (Grams or weights) as one (m, n, n) complex
    stack, read in one array pass, or None when any entry is not an (n, n)
    matrix of [re, im] pairs of finite floats and ints; the per-entry walk
    then names the field."""
    try:
        raw = [entry["matrix"] for entry in entries]
        arr = np.array(raw)
    except (TypeError, KeyError, ValueError):
        return None
    if arr.dtype != np.float64 or arr.shape != (len(raw), n, n, 2):
        return None
    # np.array reads True as 1.0; the walk refuses bools
    scalars = itertools.chain.from_iterable(itertools.chain.from_iterable(
        itertools.chain.from_iterable(raw)))
    if not set(map(type, scalars)) <= {float, int} or not np.isfinite(arr).all():
        return None
    return arr.view(np.complex128)[..., 0]


def moment_system_from_json(data: dict, path: str) -> MomentSystem:
    d = _require_int(data, "d", path, 1)
    top = _require_int(data, "N", path, 0)
    n = _require_int(data, "fiber_dim", path, 1)
    grams_field = data.get("grams")
    if not isinstance(grams_field, list):
        raise SchemaError(f"{path}.grams", "expected an array of Gram entries")
    stack = _matrix_stack(grams_field, n)
    mats, logs, rows = [], [], {}
    for i, entry in enumerate(grams_field):
        epath = f"{path}.grams[{i}]"
        if not isinstance(entry, dict) or "alpha" not in entry:
            raise SchemaError(epath, "expected an object with 'alpha'")
        rows[multiindex_from_json(entry["alpha"], f"{epath}.alpha", d)] = i
        if stack is not None:
            # every matrix already passed; the walk's other checks run in order
            logs.append(_logscale_field(entry, epath))
            continue
        mat, logscale = _hermpd_fields(entry, epath)
        if mat.shape[0] != n:
            raise SchemaError(f"{epath}.matrix", f"expected dimension {n}, got {len(mat)}")
        mats.append(mat)
        logs.append(logscale)
    # counted before the lattice is enumerated: it may be far past memory
    if len(grams_field) < (size := simplex_size(d, top)):
        raise SchemaError(f"{path}.grams", f"expected at least {size} entries")
    try:
        take = [rows[alpha] for alpha in _truncation(d, top)]
    except KeyError as ex:  # the first missing index
        raise SchemaError(f"{path}.grams", f"missing Gram matrix at alpha={ex.args[0]}") from ex
    # every entry is balanced, the unused ones too; the last entry for an index wins
    mats, logs = hermpd_batch(np.stack(mats) if stack is None else stack, logs)
    return MomentSystem.from_arrays(d, top, n, mats[take], logs[take])


def weight_system_from_json(data: dict, path: str):
    """Returns (WeightSystem, G0)."""
    d = _require_int(data, "d", path, 1)
    top = _require_int(data, "N", path, 0)
    n = _require_int(data, "fiber_dim", path, 1)
    if "g0" not in data:
        raise SchemaError(f"{path}.g0", "missing")
    g0 = hermpd_from_json(data["g0"], f"{path}.g0")
    if g0.dim != n:
        raise SchemaError(f"{path}.g0.matrix", f"expected dimension {n}, got {g0.dim}")
    weights_field = data.get("weights")
    if not isinstance(weights_field, list):
        raise SchemaError(f"{path}.weights", "expected an array of weight entries")
    stack = _matrix_stack(weights_field, n)
    mats, rows = [], {}
    for i, entry in enumerate(weights_field):
        epath = f"{path}.weights[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(epath, "expected an object")
        alpha = multiindex_from_json(entry.get("alpha"), f"{epath}.alpha", d)
        j = entry.get("j")
        if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j < d:
            raise SchemaError(f"{epath}.j", f"expected an integer in 0..{d - 1}")
        rows[(alpha, j)] = i  # the last entry for a key wins
        if stack is not None:
            continue
        if "matrix" not in entry:
            raise SchemaError(f"{epath}.matrix", "missing")
        mat = matrix_from_json(entry["matrix"], f"{epath}.matrix")
        if mat.shape != (n, n):
            raise SchemaError(f"{epath}.matrix", f"expected shape ({n}, {n})")
        mats.append(mat)
    if len(weights_field) < (size := d * simplex_size(d, top - 1)):  # as for grams
        raise SchemaError(f"{path}.weights", f"expected at least {size} entries")
    try:
        take = [rows[(alpha, j)] for alpha in _truncation(d, top).interior() for j in range(d)]
    except KeyError as ex:  # the first missing key, alpha-major
        raise SchemaError(f"{path}.weights", "missing weight at alpha={}, j={}".format(
            *ex.args[0])) from ex
    if stack is None:
        stack = np.array(mats, dtype=np.complex128).reshape(-1, n, n)
    take = np.array(take, dtype=np.intp).reshape(-1, d).T
    return WeightSystem.from_arrays(d, top, n, stack[take]), g0


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
