"""Command-line front end: run problems, generate them, validate inputs.

Problem files are JSON (version 1) with a kind (similarity | unitary |
oracle | diagnostic | validate), one or two system specs (explicit moments or
weights, or generated pochhammer / homogeneous / perturbed), and options.
A pair is resolved once, before its kind runs: a diagnostic's at its top
degree (its last degree), any other's at options.N when given; an explicit
system must have that N (a diagnostic's report records no N). Reports
record the resolved options and seed, not the input systems (those stay in
the problem file), so a run is reproducible from its problem file and
report; identical problem + seed gives a byte-identical report except for
the timing_seconds field.

Exit codes: 0 verdict produced, 2 input validation failure or an output path
that cannot be written, 3 schema error (an unreadable problem file included).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import equivalence as eq
from . import kernelgen as kg
from . import sampling
from . import serialization as ser
from .lattice import simplex_size
from .numerics import LinAlgError, hermpd_batch
from .serialization import SchemaError
from .shiftcore import (
    MomentSystem,
    ValidationFailedError,
    moments_from_weights,
    validate_weights,
)

KINDS = ("similarity", "unitary", "oracle", "diagnostic", "validate")
GENERATED_TYPES = ("pochhammer", "homogeneous", "perturbed")
DEFAULT_DEGREES = (8, 16, 24, 32)
ORACLE_TOL = 1e-9
ORACLE_SAMPLES = 8

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_SCHEMA = 3


class InputValidationError(Exception):
    """Input parses but fails a semantic requirement (exit code 2)."""


@contextlib.contextmanager
def _systems_failure(what: str, errors=(LinAlgError,)):
    """Turn a numeric failure inside the block into exit 2 naming systems."""
    try:
        yield
    except errors as ex:
        raise InputValidationError(f"systems: {what} ({ex})") from ex


NO_CERTIFICATE = "no certificate can be computed for this pair"


# ---------------------------------------------------------------------------
# Problem parsing and system resolution.
# ---------------------------------------------------------------------------

def parse_problem(data) -> dict:
    """Structural validation of a problem file; returns the checked dict."""
    if not isinstance(data, dict):
        raise SchemaError("$", "problem file must be a JSON object")
    version = data.get("version")
    if version != 1:
        raise SchemaError("version", "expected the integer 1")
    kind = data.get("kind")
    if kind not in KINDS:
        raise SchemaError("kind", f"expected one of {', '.join(KINDS)}")
    systems = data.get("systems")
    expected = 1 if kind == "validate" else 2
    if not isinstance(systems, list) or len(systems) != expected:
        raise SchemaError("systems", f"kind '{kind}' needs exactly {expected} system(s)")
    for i, spec in enumerate(systems):
        path = f"systems[{i}]"
        if not isinstance(spec, dict):
            raise SchemaError(path, "expected an object")
        stype = spec.get("type")
        if stype not in ("moments", "weights") + GENERATED_TYPES:
            raise SchemaError(f"{path}.type", "unknown system type")
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise SchemaError("options", "expected an object")
    for key, check, what in (
        ("seed", _is_natural, "a non-negative integer"),
        ("tol", _is_finite_positive, "a finite positive number"),
        ("N", _is_natural, "a non-negative integer"),
        ("degrees", _is_degree_list, "a strictly ascending list of >= 4 integers >= 1"),
    ):
        if key in options and not check(options[key]):
            raise SchemaError(f"options.{key}", f"expected {what}")
    return data


def _is_finite_positive(v) -> bool:
    return ser._is_finite_real(v) and v > 0


def _is_natural(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _is_degree_list(v) -> bool:
    return (isinstance(v, list) and len(v) >= 4
            and all(isinstance(x, int) and not isinstance(x, bool) and x >= 1 for x in v)
            and sorted(set(v)) == v)


def _kernel_from_spec(spec: dict, path: str, top_degree: int | None):
    """Resolve a generated system spec to a KernelSpec at the requested degree."""
    stype = spec["type"]
    if stype == "perturbed":
        base_spec = spec.get("base")
        if not isinstance(base_spec, dict) or base_spec.get("type") not in (
            "pochhammer", "homogeneous",
        ):
            raise SchemaError(f"{path}.base", "expected a pochhammer or homogeneous spec")
        base = _kernel_from_spec(base_spec, f"{path}.base", top_degree)
        reps_field = spec.get("replacements")
        if not isinstance(reps_field, list):
            raise SchemaError(f"{path}.replacements", "expected an array")
        mats, alphas, _, logs = ser.entries_from_json(
            reps_field, f"{path}.replacements", base.fiber_dim, base.d, ("alpha", "logscale"))
        mats, logs = hermpd_batch(mats, logs)
        try:
            perturbed, _ = kg.perturb_kernel(base, alphas, mats, logs)
        except (IndexError, ValueError) as ex:
            raise InputValidationError(f"{path}: {ex}") from ex
        return perturbed
    if stype == "pochhammer":
        for key in ("lambda", "mu"):
            if key not in spec:
                raise SchemaError(f"{path}.{key}", "missing")
            if not _is_finite_positive(spec[key]):
                raise SchemaError(f"{path}.{key}", "expected a finite positive number")
    elif stype != "homogeneous":
        raise SchemaError(f"{path}.type", "unknown generated type")
    d = spec.get("d", 2)
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise SchemaError(f"{path}.d", "expected a positive integer")
    if stype == "pochhammer":
        n_res = top_degree if top_degree is not None else spec.get("N")
        if not isinstance(n_res, int) or isinstance(n_res, bool) or n_res < 0:
            raise SchemaError(f"{path}.N", "expected a non-negative integer")
        pair = kg.PochhammerPair(float(spec["lambda"]), float(spec["mu"]))
        return kg.pochhammer_kernel(pair, d, n_res)
    coeffs_field = spec.get("coeffs_by_degree")
    if not isinstance(coeffs_field, list) or not coeffs_field:
        raise SchemaError(f"{path}.coeffs_by_degree", "expected a non-empty array")
    # A_0 sets the fibre dimension: n None reads it from the first matrix
    mats, _, _, logs = ser.entries_from_json(
        coeffs_field, f"{path}.coeffs_by_degree", None, d, ("logscale",))
    mats, logs = hermpd_batch(mats, logs)
    if top_degree is not None:
        if top_degree > len(mats) - 1:
            raise InputValidationError(
                f"{path}: homogeneous system provides degrees up to "
                f"{len(mats) - 1}, requested {top_degree}"
            )
        mats, logs = mats[:top_degree + 1], logs[:top_degree + 1]
    try:
        return kg.homogeneous_kernel(mats, logs, d)
    except ValueError as ex:
        raise InputValidationError(f"{path}: {ex}") from ex


def resolve_system(spec: dict, path: str, top_degree: int | None = None) -> MomentSystem:
    """Build the MomentSystem a system spec describes.

    Semantic failures (non-PD data, weight systems that fail validation,
    inconsistent dimensions) raise InputValidationError.
    """
    stype = spec["type"]
    try:
        if stype == "moments":
            ms = ser.moment_system_from_json(spec, path)
            if top_degree is not None and ms.N != top_degree:
                raise InputValidationError(
                    f"{path}: explicit system has N={ms.N}, options require {top_degree}"
                )
            return ms
        if stype == "weights":
            ws, g0 = ser.weight_system_from_json(spec, path)
            if top_degree is not None and ws.N != top_degree:
                raise InputValidationError(
                    f"{path}: explicit system has N={ws.N}, options require {top_degree}"
                )
            return moments_from_weights(ws, g0)  # validates: ValidationFailedError
        return kg.kernel_moments(_kernel_from_spec(spec, path, top_degree))
    # MemoryError: a generated spec may declare a lattice far past memory
    except (LinAlgError, ValidationFailedError, MemoryError) as ex:
        raise InputValidationError(f"{path}: {ex}") from ex


def _top_degree(problem: dict, degrees=None) -> tuple:
    """(top_degree, degrees) run and validate resolve a problem at: a diagnostic's
    last degree, its lower degrees being prefixes of that pair; else options.N."""
    options = problem.get("options", {})
    if problem["kind"] == "diagnostic":
        degrees = degrees or options.get("degrees", list(DEFAULT_DEGREES))
        return degrees[-1], degrees
    return options.get("N"), None


def _resolve_pair(problem: dict, top_degree: int | None):
    systems = problem["systems"]
    ms = resolve_system(systems[0], "systems[0]", top_degree)
    mt = resolve_system(systems[1], "systems[1]", top_degree)
    if not ms.same_shape(mt):
        raise InputValidationError(
            f"systems disagree in shape: ({ms.d},{ms.N},{ms.fiber_dim}) vs "
            f"({mt.d},{mt.N},{mt.fiber_dim})"
        )
    with np.errstate(over="ignore"):  # every kind compares the families in the log domain
        apart = np.flatnonzero(~np.isfinite(mt.logs - ms.logs))
    if apart.size:
        alpha = ms.truncation().alpha(apart[0])
        raise InputValidationError(f"systems: the logscales at alpha={alpha} "
                                   "differ by more than the double-precision range")
    return ms, mt


# ---------------------------------------------------------------------------
# Running problems.
# ---------------------------------------------------------------------------

def run_problem(problem: dict, *, seed=None, tol=None, degrees=None,
                threads: int = 1) -> dict:
    """Execute a parsed problem; returns the report dict (without timing)."""
    options = problem.get("options", {})
    kind = problem["kind"]
    seed = seed if seed is not None else options.get("seed", 0)
    tol_default = ORACLE_TOL if kind == "oracle" else eq.DEFAULT_TOL
    tol = float(tol if tol is not None else options.get("tol", tol_default))
    top_degree, degrees = _top_degree(problem, degrees)

    report = {
        "version": 1,
        "kind": kind,
        "options": {"seed": seed, "tol": tol},
    }
    if kind == "diagnostic":
        report["options"]["degrees"] = [int(x) for x in degrees]
    elif top_degree is not None:
        report["options"]["N"] = top_degree

    if kind == "validate":
        report.update(_run_validate(problem["systems"][0], top_degree))
        return report
    ms, mt = _resolve_pair(problem, top_degree)

    if kind == "similarity":
        with _systems_failure(NO_CERTIFICATE):
            cert = eq.optimize_C(ms, mt, seed=seed)
            verification = eq.verify_certificate(ms, mt, cert, tol)
        verdict = (
            eq.VERDICT_SIMILAR
            if cert.log_ratio <= math.log(eq.RATIO_CAP)
            else eq.VERDICT_INCONCLUSIVE
        )
        report.update(
            verdict=verdict,
            certificate=ser.certificate_to_json(cert),
            verification=ser.verification_to_json(verification),
            diagnostics={"optimize": ser.search_to_json(cert.search)},
        )
    elif kind == "unitary":
        result = eq.test_unitary_equivalence(ms, mt, tol, seed=seed)
        report.update(
            verdict="YES" if result.equivalent else "NO",
            unitary=ser.unitary_result_to_json(result),
        )
    elif kind == "oracle":
        if ms.N < 1:
            raise InputValidationError("systems[0].N: the oracle needs N >= 1 "
                                       "(N=0 leaves no intertwining equation)")
        # the oracle works on represented values, not log-scaled ones
        with _systems_failure("the dense oracle cannot represent this pair",
                              (LinAlgError, OverflowError)):
            report.update(_run_oracle(ms, mt, seed, tol))
    else:  # diagnostic; parse_problem guards the kind
        with _systems_failure(NO_CERTIFICATE):
            diag = eq.growth_diagnostic(ms, mt, degrees, seed=seed, threads=threads)
        report.update(verdict=diag.verdict, growth=ser.growth_to_json(diag))
    return report


def _run_oracle(ms: MomentSystem, mt: MomentSystem, seed, tol: float) -> dict:
    basis = eq.brute_force_intertwiner(ms, mt)
    shifts = basis.shifts
    rng = np.random.default_rng(seed)
    invertible, certs_pass = 0, True
    worst_level0 = worst_recursion = worst_intertwining = 0.0
    count = basis.solution_count
    for _ in range(ORACLE_SAMPLES):
        x = basis.transport(rng.standard_normal(count) + 1j * rng.standard_normal(count))
        lo, hi = x.singular_range  # the one SVD of X per sample
        if hi == 0.0 or lo <= 1e-8 * hi:
            continue
        invertible += 1
        worst_level0 = max(worst_level0, eq.level0_annihilation_residual(x))
        worst_recursion = max(worst_recursion, eq.recursion_residual(x, shifts))
        worst_intertwining = max(worst_intertwining, eq.intertwining_residual(x, shifts))
        cert = eq.certificate_from_intertwiner(x, shifts)
        certs_pass = certs_pass and eq.verify_certificate(ms, mt, cert, tol).passes
    checks_pass = (
        invertible > 0
        and worst_level0 <= tol
        and worst_recursion <= tol
        and worst_intertwining <= tol
        and certs_pass
    )
    verdict = "PASS" if checks_pass else (
        "INCONCLUSIVE" if invertible == 0 else "FAIL"
    )
    return {
        "verdict": verdict,
        "oracle": {
            "dimension": basis.dim,
            "solution_count": basis.solution_count,
            "samples": ORACLE_SAMPLES,
            "invertible_samples": invertible,
            "max_level0_residual": worst_level0,
            "max_recursion_residual": worst_recursion,
            "max_intertwining_residual": worst_intertwining,
            "all_certificates_pass": certs_pass,
        },
    }


def _run_validate(spec: dict, top_degree) -> dict:
    try:
        if spec.get("type") == "weights":
            with _systems_failure("systems[0].g0 is not a positive-definite matrix"):
                ws, _ = ser.weight_system_from_json(spec, "systems[0]")
            report = validate_weights(ws)
            return {
                "verdict": "VALID" if report.passes else "INVALID",
                "validation": ser.validation_to_json(report),
            }
        ms = resolve_system(spec, "systems[0]", top_degree)
    except InputValidationError as ex:
        return {"verdict": "INVALID", "validation": {"passes": False, "failures": [str(ex)]}}
    return {
        "verdict": "VALID",
        "validation": {
            "passes": True,
            "d": ms.d,
            "N": ms.N,
            "fiber_dim": ms.fiber_dim,
            "lattice_points": len(ms.truncation()),
        },
    }


# ---------------------------------------------------------------------------
# Generators.
# ---------------------------------------------------------------------------

def gen_pochhammer(args) -> dict:
    pair = kg.PochhammerPair(args.lam, args.mu)
    other = kg.PochhammerPair(args.lam2, args.mu2)
    problem = {
        "version": 1,
        "kind": args.kind,
        "systems": [
            {"type": "pochhammer", "lambda": args.lam, "mu": args.mu,
             "d": args.d, "N": args.N},
            {"type": "pochhammer", "lambda": args.lam2, "mu": args.mu2,
             "d": args.d, "N": args.N},
        ],
        "options": {"seed": args.seed, "tol": eq.DEFAULT_TOL},
        "ground_truth": {"similar": kg.pochhammer_ground_truth(pair, other)},
    }
    if args.kind == "diagnostic":
        problem["options"]["degrees"] = _parse_degrees(args.degrees)
    return problem


def gen_unitary_congruence(args):
    rng = np.random.default_rng(args.seed)
    ms = sampling.random_moment_system(args.d, args.N, args.n, rng)
    v0 = sampling.random_unitary(args.n, rng)
    twin = sampling.congruent_pair(ms, v0)
    problem = {
        "version": 1,
        "kind": "unitary",
        "systems": [
            ser.moment_system_to_json(ms),
            ser.moment_system_to_json(twin),
        ],
        "options": {"seed": args.seed, "tol": eq.DEFAULT_TOL},
        "ground_truth": {"unitarily_equivalent": True},
    }
    answer = {"V": ser.matrix_to_json(v0), "seed": args.seed}
    return problem, answer


def _parse_base(text: str):
    name, _, params = text.partition(":")
    if name != "pochhammer":
        raise InputValidationError(f"unsupported base {text!r}; use pochhammer:LAM,MU")
    try:
        lam, mu = (float(x) for x in params.split(","))
    except ValueError as ex:
        raise InputValidationError(f"cannot parse base parameters in {text!r}") from ex
    if not (_is_finite_positive(lam) and _is_finite_positive(mu)):
        raise InputValidationError(f"base parameters in {text!r} must be finite and positive")
    return lam, mu


def gen_perturb(args) -> dict:
    lam, mu = _parse_base(args.base)
    base_spec = {"type": "pochhammer", "lambda": lam, "mu": mu,
                 "d": args.d, "N": args.N}
    kernel = _kernel_from_spec(base_spec, "base", None)
    n = kernel.fiber_dim
    if args.replace0 is not None:
        alphas = np.zeros((1, args.d), dtype=np.int64)
        mats, logs = hermpd_batch(args.replace0 * np.eye(n, dtype=np.complex128)[None], [0.0])
    else:
        alphas = kernel.truncation().array[:simplex_size(args.d, args.max_degree)]
        mats, logs = sampling.random_pd_stack(len(alphas), n, args.seed)
    _, cert = kg.perturb_kernel(kernel, alphas, mats, logs)
    return {
        "version": 1,
        "kind": "similarity",
        "systems": [
            base_spec,
            {
                "type": "perturbed",
                "base": base_spec,
                "replacements": [  # lexicographic order
                    {"alpha": a, "logscale": lg, "matrix": m}
                    for a, lg, m in sorted(zip(alphas.tolist(), logs.tolist(),
                                               ser.matrix_to_json(mats)))
                ],
            },
        ],
        "options": {"seed": args.seed, "tol": eq.DEFAULT_TOL},
        "ground_truth": {
            "similar": True,
            "closed_form_certificate": ser.certificate_to_json(cert),
        },
    }


def gen_homogeneous(args) -> dict:
    rng = np.random.default_rng(args.seed)
    mats, logs = sampling.random_pd_stack(args.N + 1, args.n, rng)
    if args.independent:
        other, other_logs = sampling.random_pd_stack(args.N + 1, args.n, rng)
        ground = {}
    else:
        t = rng.standard_normal((args.n, args.n)) + 1j * rng.standard_normal(
            (args.n, args.n)
        )
        t += args.n * np.eye(args.n)
        other, other_logs = hermpd_batch(t.conj().T @ mats @ t, logs)
        ground = {"similar": True}
    problem = {
        "version": 1,
        "kind": args.kind,
        "systems": [
            {
                "type": "homogeneous",
                "d": args.d,
                "coeffs_by_degree": [{"logscale": lg, "matrix": m} for lg, m
                                     in zip(lgs.tolist(), ser.matrix_to_json(stack))],
            }
            for stack, lgs in ((mats, logs), (other, other_logs))
        ],
        "options": {"seed": args.seed, "tol": eq.DEFAULT_TOL},
    }
    if ground:
        problem["ground_truth"] = ground
    if args.kind == "diagnostic":
        problem["options"]["degrees"] = _parse_degrees(args.degrees)
    return problem


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def _parse_degrees(text: str) -> list:
    try:
        out = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as ex:
        raise InputValidationError(f"cannot parse degrees {text!r}") from ex
    if not _is_degree_list(out):
        raise InputValidationError("degrees must be >= 4 strictly ascending integers >= 1")
    return out


def _finite_positive_arg(text: str) -> float:
    if not _is_finite_positive(value := float(text)):
        raise argparse.ArgumentTypeError("expected a finite positive number")
    return value


def _natural_arg(text: str) -> int:
    if not _is_natural(value := int(text)):
        raise argparse.ArgumentTypeError("expected a non-negative integer")
    return value


def _positive_int_arg(text: str) -> int:
    if (value := int(text)) < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return value


def _sidecar_path(problem_path: str, tag: str) -> str:
    """`p.json` -> `p.<tag>.json`; only the file name's `.json` suffix is replaced."""
    base = problem_path[:-5] if problem_path.endswith(".json") else problem_path
    return f"{base}.{tag}.json"


def _write_json(path: str, payload: dict) -> None:
    """Write strict JSON; a NaN or infinity is refused before the file is touched."""
    try:
        text = ser.canonical_dumps(payload)
    except ValueError as ex:
        raise InputValidationError(f"{path} would not be strict JSON: {ex}") from ex
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as ex:
        raise InputValidationError(f"cannot write {path}: {ex.strerror or ex}") from ex


def _check_writable(path: str) -> None:
    """Refuse, as _write_json would, a directory or a path whose parent is not a
    writable directory; no file is created or touched."""
    parent = os.path.dirname(path) or "."
    for bad, code in ((os.path.isdir(path), errno.EISDIR),
                      (not os.path.isdir(parent), errno.ENOENT),
                      (not os.access(parent, os.W_OK), errno.EACCES)):
        if bad:
            raise InputValidationError(f"cannot write {path}: {os.strerror(code)}")


def _load_problem(path: str):
    """The JSON value of a problem file; SchemaError at $ when unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as ex:
        raise SchemaError("$", f"cannot read {path}: {ex}") from ex
    except UnicodeDecodeError as ex:
        raise SchemaError("$", f"not valid UTF-8 ({ex})") from ex
    # ValueError also covers an integer literal past int_max_str_digits
    except (ValueError, RecursionError) as ex:
        raise SchemaError("$", f"not valid JSON ({ex})") from ex


def _cmd_run(args) -> int:
    out_path = args.out or _sidecar_path(args.problem, "report")
    try:
        raw = _load_problem(args.problem)
        started = time.perf_counter()
        problem = parse_problem(raw)
        degrees = _parse_degrees(args.degrees) if args.degrees else None
        _check_writable(out_path)
        report = run_problem(
            problem,
            seed=args.seed,
            tol=args.tol,
            degrees=degrees,
            threads=max(1, args.threads),
        )
        report["timing_seconds"] = time.perf_counter() - started
        _write_json(out_path, report)
    except SchemaError as ex:
        print(f"schema error at {ex.path}: {ex.message}", file=sys.stderr)
        return EXIT_SCHEMA
    except (InputValidationError, eq.DimensionCapError) as ex:
        print(f"input validation failed: {ex}", file=sys.stderr)
        return EXIT_INVALID_INPUT

    if not args.quiet:
        print(f"verdict: {report['verdict']}")
        if "certificate" in report:
            print(f"  log_ratio: {report['certificate']['log_ratio']:.6e}")
        if "growth" in report:
            print(f"  slope: {report['growth']['slope']:.4f} "
                  f"(R^2 {report['growth']['r_squared']:.4f})")
        if "unitary" in report:
            print(f"  {report['unitary']['message']}")
        print(f"report written to {out_path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        problem = parse_problem(_load_problem(args.problem))
        top_degree, _ = _top_degree(problem)
        if problem["kind"] == "validate":
            resolve_system(problem["systems"][0], "systems[0]", top_degree)
        else:
            _resolve_pair(problem, top_degree)
    except SchemaError as ex:
        print(f"schema error at {ex.path}: {ex.message}", file=sys.stderr)
        return EXIT_SCHEMA
    except InputValidationError as ex:
        print(f"input validation failed: {ex}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    if not args.quiet:
        print("ok: problem file parses and all systems resolve")
    return EXIT_OK


def _cmd_gen(args) -> int:
    try:
        if args.generator == "pochhammer":
            problem = gen_pochhammer(args)
            answer = None
        elif args.generator == "unitary-congruence":
            problem, answer = gen_unitary_congruence(args)
        elif args.generator == "perturb":
            problem = gen_perturb(args)
            answer = None
        else:
            problem = gen_homogeneous(args)
            answer = None
        _write_json(args.out, problem)
        if answer is not None:
            answer_path = _sidecar_path(args.out, "answer")
            try:
                _write_json(answer_path, answer)
            except InputValidationError:
                os.remove(args.out)  # a problem without its answer is a partial output
                raise
    # MemoryError: the options may declare a lattice far past memory
    except (InputValidationError, MemoryError) as ex:
        print(f"parameter error: {ex}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    if not args.quiet:
        print(f"problem written to {args.out}")
        if answer is not None:
            print(f"hidden answer written to {answer_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multishift",
        description="similarity and unitary-equivalence certificates for "
                    "truncated operator-valued multishifts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a problem file and write a report")
    run.add_argument("problem")
    run.add_argument("--out", default=None, help="report path "
                     "(default: problem path with .report.json suffix)")
    run.add_argument("--seed", type=_natural_arg, default=None)
    run.add_argument("--tol", type=_finite_positive_arg, default=None)
    run.add_argument("--degrees", default=None,
                     help="comma-separated truncation degrees (diagnostic kind)")
    run.add_argument("--threads", type=int, default=1,
                     help="worker threads for per-degree runs (default: 1)")
    run.add_argument("--quiet", action="store_true")
    run.set_defaults(func=_cmd_run)

    val = sub.add_parser("validate", help="parse and validate a problem file")
    val.add_argument("problem")
    val.add_argument("--quiet", action="store_true")
    val.set_defaults(func=_cmd_validate)

    gen = sub.add_parser("gen", help="generate a problem file")
    gensub = gen.add_subparsers(dest="generator", required=True)

    poch = gensub.add_parser("pochhammer", help="a pair of Pochhammer kernels")
    poch.add_argument("--lambda", dest="lam", type=_finite_positive_arg, required=True)
    poch.add_argument("--mu", type=_finite_positive_arg, required=True)
    poch.add_argument("--lambda2", dest="lam2", type=_finite_positive_arg, required=True)
    poch.add_argument("--mu2", type=_finite_positive_arg, required=True)
    poch.add_argument("--d", type=_positive_int_arg, default=2)
    poch.add_argument("--N", type=_natural_arg, default=24)
    poch.add_argument("--kind", choices=("similarity", "diagnostic", "unitary"),
                      default="similarity")
    poch.add_argument("--degrees", default="8,16,24,32")
    poch.add_argument("--seed", type=_natural_arg, default=0)
    poch.add_argument("--out", default="pochhammer_problem.json")
    poch.add_argument("--quiet", action="store_true")

    uc = gensub.add_parser("unitary-congruence",
                           help="a hidden-unitary congruent pair plus answer file")
    uc.add_argument("--d", type=_positive_int_arg, default=2)
    uc.add_argument("--N", type=_natural_arg, default=4)
    uc.add_argument("--n", type=_positive_int_arg, default=3)
    uc.add_argument("--seed", type=_natural_arg, default=0)
    uc.add_argument("--out", default="unitary_problem.json")
    uc.add_argument("--quiet", action="store_true")

    pert = gensub.add_parser("perturb",
                             help="finite perturbation with closed-form certificate")
    pert.add_argument("--base", required=True, help="base kernel, e.g. pochhammer:1,2")
    pert.add_argument("--d", type=_positive_int_arg, default=2)
    pert.add_argument("--N", type=_natural_arg, default=20)
    pert.add_argument("--replace0", type=_finite_positive_arg, default=None,
                      help="replace C_0 by this multiple of the identity")
    pert.add_argument("--max-degree", dest="max_degree", type=_natural_arg, default=2,
                      help="replace all coefficients up to this degree (seeded)")
    pert.add_argument("--seed", type=_natural_arg, default=0)
    pert.add_argument("--out", default="perturb_problem.json")
    pert.add_argument("--quiet", action="store_true")

    hom = gensub.add_parser("homogeneous",
                            help="a pair of unitary-group homogeneous kernels")
    hom.add_argument("--d", type=_positive_int_arg, default=2)
    hom.add_argument("--N", type=_natural_arg, default=12)
    hom.add_argument("--n", type=_positive_int_arg, default=2)
    hom.add_argument("--seed", type=_natural_arg, default=0)
    hom.add_argument("--independent", action="store_true",
                     help="independent second family instead of a congruent one")
    hom.add_argument("--kind", choices=("similarity", "diagnostic"),
                     default="similarity")
    hom.add_argument("--degrees", default="4,6,8,10,12")
    hom.add_argument("--out", default="homogeneous_problem.json")
    hom.add_argument("--quiet", action="store_true")

    gen.set_defaults(func=_cmd_gen)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use, not at import.

    Reuse is safe: parse_args keeps no state between calls, and no argument
    has a default that argparse mutates (no `append` action).
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
