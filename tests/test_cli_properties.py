"""Property test: `multishift run` is total on mutated problem files.

Every mutated file must end in exit 0, 2 or 3 with no traceback, and a
report that is written must be strict JSON (no NaN, no Infinity).
"""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from multishift import cli, sampling
from multishift import serialization as ser
from multishift.shiftcore import canonical_weights


def _moment_problem(kind, systems, **options):
    return {"version": 1, "kind": kind,
            "systems": [ser.moment_system_to_json(ms) for ms in systems],
            "options": options}


def _base_problems():
    ms = sampling.random_moment_system(1, 1, 2, 5)
    mt = sampling.congruent_pair(ms, np.eye(2) + 0.2j * np.eye(2))
    poch = {"type": "pochhammer", "d": 2, "lambda": 1.0, "mu": 2.0, "N": 3}
    swap = {"type": "pochhammer", "d": 2, "lambda": 2.0, "mu": 1.0, "N": 3}
    return [
        _moment_problem("similarity", [ms, mt], seed=0),
        _moment_problem("unitary", [ms, ms], seed=0, tol=1e-8),
        _moment_problem("oracle", [ms, mt], seed=1),
        _moment_problem("validate", [ms]),
        {"version": 1, "kind": "diagnostic", "systems": [poch, swap],
         "options": {"degrees": [2, 3, 4, 5]}},
    ]


BASES = _base_problems()


def _paths(node, prefix=()):
    """Every position in a JSON tree, as a tuple of keys and indices."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replace(tree, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(tree))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def _pairs(mat):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]


WRONG_TYPES = ["x", None, True, {}, [], [[]], 1.5, -1, 0]
BAD_MATRICES = [
    _pairs(np.diag([1.0, -1.0])),              # indefinite
    _pairs(-np.eye(2)),                        # negative definite
    _pairs(np.zeros((2, 2))),                  # singular
    _pairs(np.ones((2, 2))),                   # rank one
    _pairs(np.eye(3)),                         # wrong fibre size
    _pairs([[1.0, 2.0], [0.0, 1.0]]),          # not Hermitian
]
EXTREME_SCALES = [1e308, -1e308, 745.0, -745.0, 5e-324, 1e200, -1e200, 700.0]


def _mutation(kind):
    if kind == "matrix":
        return st.sampled_from(BAD_MATRICES)
    if kind == "logscale":
        return st.sampled_from(EXTREME_SCALES)
    if kind == "N":
        return st.just(0)
    return st.sampled_from(WRONG_TYPES)


@st.composite
def mutated_problems(draw):
    problem = draw(st.sampled_from(BASES))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(problem))
        by_kind = {
            "matrix": [p for p in paths if p and p[-1] == "matrix"],
            "logscale": [p for p in paths if p and p[-1] == "logscale"],
            "N": [p for p in paths if p and p[-1] == "N"],
            "any": paths,
        }
        kind = draw(st.sampled_from([k for k, v in by_kind.items() if v]))
        path = draw(st.sampled_from(by_kind[kind]))
        problem = _replace(problem, path, draw(_mutation(kind)))
    return problem


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def _write_problem(path, problem):
    """A problem as JSON text, or raw bytes written as they are."""
    path.write_bytes(problem if isinstance(problem, bytes) else json.dumps(problem).encode())


# found by reading the loader: files json cannot decode without a traceback
UNPARSABLE_FILES = [b"\xff\xfe{}", b"[" * 100_000, b"1" * 5000]


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_problems())
# found by this test: the oracle overflowed or hit a singular solve
@example(_replace(BASES[2], ("systems", 0, "grams", 0, "logscale"), 1e308))
@example(_replace(BASES[2], ("systems", 0, "grams", 0, "logscale"), -1e308))
# found by test_gen_is_total: numpy's generators reject a negative seed
@example(_replace(BASES[0], ("options", "seed"), -1))
@example(UNPARSABLE_FILES[0])
@example(UNPARSABLE_FILES[1])
@example(UNPARSABLE_FILES[2])
def test_run_is_total_on_mutated_problems(problem):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "p.json", Path(tmp) / "r.json"
        _write_problem(path, problem)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["run", str(path), "--out", str(out), "--quiet"])
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 0:
            json.loads(out.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def _both_systems(problem, grams_index, logscale):
    for k in (0, 1):
        problem = _replace(problem, ("systems", k, "grams", grams_index, "logscale"), logscale)
    return problem


# found by the test above: equal extreme logscales in both families pass both
# unitary invariants, and the weights behind them overflowed; the second spans
# past the float range
@pytest.mark.parametrize("problem", [
    _both_systems(BASES[1], 0, 1e308),
    _both_systems(BASES[1], 0, -1e308),
    _both_systems(_both_systems(BASES[1], 0, 1e308), 1, -1e308),
])
def test_extreme_logscales_raise_no_numpy_warning(problem):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path, out = Path(tmp) / "p.json", Path(tmp) / "r.json"
        path.write_text(json.dumps(problem), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["run", str(path), "--out", str(out), "--quiet"])
        assert code == 0, err.getvalue()
        json.loads(out.read_text(encoding="utf-8"), parse_constant=_reject_constant)


# Moment files are read in one array pass and walked entry by entry only when
# that pass refuses them; each bad scalar sits at grams[1].matrix[0][1][0] and
# must give the walk's error line byte for byte.
PAIR_ERROR = ("schema error at systems[0].grams[1].matrix[0][1]: "
              "expected an [re, im] pair of finite numbers\n")


def _set_scalar(value):
    def mutate(matrix):
        matrix[0][1][0] = value
    return mutate


def _set_pair(matrix):
    matrix[0][1] = [0.5, 0.0, 0.0]


def _drop_last_entry(matrix):
    matrix[1].pop()


def _widen(matrix):
    for row in matrix:
        row.append([0.0, 0.0])


def _fibre_three(matrix):
    matrix[:] = _pairs(np.eye(3))


@pytest.mark.parametrize("mutate,expected", [
    (_set_scalar(True), PAIR_ERROR),
    (_set_scalar("1.5"), PAIR_ERROR),
    (_set_scalar(None), PAIR_ERROR),
    (_set_scalar(10**400), PAIR_ERROR),
    (_set_scalar(float("nan")), PAIR_ERROR),
    (_set_pair, PAIR_ERROR),
    (_drop_last_entry, "schema error at systems[0].grams[1].matrix[1]: ragged matrix rows\n"),
    (_fibre_three, "schema error at systems[0].grams[1].matrix: "
                   "expected dimension 2, got 3\n"),
    (_widen, "schema error at systems[0].grams[1].matrix: "
             "expected a square matrix, got (2, 3)\n"),
], ids=["bool", "string", "null", "int-past-float-range", "nan", "three-element-pair",
        "ragged-row", "wrong-fibre-size", "non-square"])
def test_bad_matrix_scalar_names_the_entry(mutate, expected):
    moments = ser.moment_system_to_json(sampling.random_moment_system(1, 2, 2, 42))
    mutate(moments["grams"][1]["matrix"])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.json"
        path.write_text(json.dumps({"version": 1, "kind": "validate", "systems": [moments]}),
                        encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["run", str(path), "--out", str(Path(tmp) / "r.json"), "--quiet"])
    assert code == 3
    assert err.getvalue() == expected


def test_boolean_multi_index_names_the_field():
    # [true, false] equals (1, 0) as a Python tuple; like every other integer
    # field, a multi-index refuses bools
    moments = ser.moment_system_to_json(sampling.random_moment_system(2, 1, 2, 42))
    assert moments["grams"][2]["alpha"] == [1, 0]
    moments["grams"][2]["alpha"] = [True, False]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.json"
        path.write_text(json.dumps({"version": 1, "kind": "validate", "systems": [moments]}),
                        encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["run", str(path), "--out", str(Path(tmp) / "r.json"), "--quiet"])
    assert code == 3
    assert err.getvalue() == ("schema error at systems[0].grams[2].alpha: "
                              "expected an array of non-negative integers\n")


def test_entry_errors_keep_their_order_when_every_matrix_is_valid():
    moments = ser.moment_system_to_json(sampling.random_moment_system(1, 2, 2, 42))
    moments["grams"][2]["alpha"] = [-1]
    with pytest.raises(ser.SchemaError, match=r"^s\.grams\[2\]\.alpha: "):
        ser.moment_system_from_json(moments, "s")
    moments["grams"][1]["logscale"] = True
    with pytest.raises(ser.SchemaError, match=r"^s\.grams\[1\]\.logscale: "):
        ser.moment_system_from_json(moments, "s")
    # the entry count is checked after the walk: a file too short for its
    # lattice still names its first bad entry, and a full count with a
    # repeated index names the first missing one
    moments["grams"][2]["alpha"] = [2]
    first = moments["grams"].pop(0)
    with pytest.raises(ser.SchemaError, match=r"^s\.grams\[0\]\.logscale: "):
        ser.moment_system_from_json(moments, "s")
    moments["grams"][0]["logscale"] = 0.0
    with pytest.raises(ser.SchemaError, match=r"^s\.grams: expected at least 3 entries$"):
        ser.moment_system_from_json(moments, "s")
    moments["grams"].append(dict(first, alpha=[1]))
    with pytest.raises(ser.SchemaError, match=r"^s\.grams: missing Gram matrix at alpha=\(0,\)"):
        ser.moment_system_from_json(moments, "s")
    ms = sampling.random_moment_system(2, 2, 2, 42)
    weights = ser.weight_system_to_json(canonical_weights(ms), ms.gram((0, 0)))
    del weights["weights"][0]
    weights["weights"][0]["j"] = 2
    with pytest.raises(ser.SchemaError, match=r"^s\.weights\[0\]\.j: "):
        ser.weight_system_from_json(weights, "s")
    # a bad matrix in entry 1 makes the array pass refuse; the walk still
    # names entry 1 before the bad j of entry 2
    ws = canonical_weights(ms)
    weights = ser.weight_system_to_json(ws, ms.gram((0, 0)))
    entries = weights["weights"]
    entries[1]["matrix"] = [[[1.0, 0.0]]]
    entries[2]["j"] = 2
    with pytest.raises(ser.SchemaError, match=r"^s\.weights\[1\]\.matrix: "):
        ser.weight_system_from_json(weights, "s")
    # entries are alpha-major: entry 5 is ((1, 0), 1); a repeated (alpha, j)
    # takes its last entry, and an entry outside the interior is ignored
    entries[:] = ser.weight_system_to_json(ws, ms.gram((0, 0)))["weights"]
    entries.append(dict(entries[0], matrix=entries[5]["matrix"]))
    entries.append({"alpha": [2, 0], "j": 0, "matrix": entries[3]["matrix"]})
    want = np.array(ws.weights)
    want[0, 0] = ws.weights[1, 2]
    assert ser.weight_system_from_json(weights, "s")[0].weights.tobytes() == want.tobytes()
    del entries[3]
    with pytest.raises(ser.SchemaError,
                       match=r"^s\.weights: missing weight at alpha=\(0, 1\), j=1$"):
        ser.weight_system_from_json(weights, "s")


# found by reading the loader: a file may declare a lattice far past memory
# (C(80, 40) indices at d = N = 40); the entry count is checked before the
# lattice is enumerated
HUGE_SYSTEMS = [
    ({"type": "moments", "d": 40, "N": 40, "fiber_dim": 1, "grams": []}, "grams"),
    ({"type": "weights", "d": 40, "N": 40, "fiber_dim": 1,
      "g0": {"logscale": 0.0, "matrix": [[[1.0, 0.0]]]}, "weights": []}, "weights"),
]


@pytest.mark.parametrize("spec,field", HUGE_SYSTEMS, ids=["moments", "weights"])
@pytest.mark.parametrize("kind", ["unitary", "validate"])
def test_huge_declared_lattice_exits_3(spec, field, kind):
    systems = [spec] * (1 if kind == "validate" else 2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.json"
        path.write_text(json.dumps({"version": 1, "kind": kind, "systems": systems}),
                        encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["run", str(path), "--out", str(Path(tmp) / "r.json"), "--quiet"])
    assert code == 3
    assert err.getvalue().startswith(f"schema error at systems[0].{field}: expected at least ")


def _limit_address_space():
    # a 1 GiB ceiling makes the failed allocation independent of the host's
    # overcommit policy and keeps the child's peak memory small
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


# a generated spec has no entries to count, so its lattice is enumerated
# until memory runs out; the size policy belongs to the spec, and the CLI
# only keeps the failure an input error
@pytest.mark.parametrize("subcommand", ["run", "validate"])
def test_huge_generated_lattice_exits_2(subcommand, tmp_path):
    spec = {"type": "pochhammer", "lambda": 1, "mu": 2, "d": 40, "N": 40}
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"version": 1, "kind": "similarity",
                                "systems": [spec, spec]}), encoding="utf-8")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "multishift", subcommand, str(path), "--quiet"],
        capture_output=True, text=True, env=env, preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("input validation failed: systems[0]: "), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "p.report.json").exists()


def test_huge_generated_lattice_exits_2_in_gen(tmp_path):
    out = tmp_path / "p.json"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "multishift", "gen", "perturb", "--base", "pochhammer:1,2",
         "--d", "40", "--N", "40", "--out", str(out), "--quiet"],
        capture_output=True, text=True, env=env, preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("parameter error: "), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("integer_rows", [(0, 1, 2), (1,)])
def test_integer_matrices_parse_like_their_float_twins(integer_rows):
    mats = [[[2, 1], [1, 3]], [[5, 0], [0, 1]], [[4, -1], [-1, 4]]]

    def system(number_types):
        grams = [{"alpha": [k], "logscale": 0.5 * k,
                  "matrix": [[[number_types[k](x), number_types[k](0)] for x in row]
                             for row in mats[k]]}
                 for k in range(3)]
        return {"type": "moments", "d": 1, "N": 2, "fiber_dim": 2, "grams": grams}

    ms = ser.moment_system_from_json(
        system([int if k in integer_rows else float for k in range(3)]), "s")
    twin = ser.moment_system_from_json(system([float] * 3), "s")
    assert ms.mats.tobytes() == twin.mats.tobytes()
    assert ms.logs.tobytes() == twin.logs.tobytes()


# Option values for the `gen` generators, (valid, invalid) per option;
# required options come first in each table. Sizes stay small (d, N, n <= 3),
# so every draw runs in milliseconds.
POSITIVE = (["1", "2.5", "0.5"], ["0", "-1", "nan", "inf", "1e400", "x"])
DIMENSION = (["1", "2", "3"], ["0", "-1", "1.5", "x"])
DEGREE = (["0", "1", "3"], ["-1", "2.0", "x"])
SEED = (["0", "7"], ["-1", "x"])
DEGREES = (["1,2,3,4", "2,4,6,8"], ["4,3,2,1", "1,2", "0,1,2,3", "x"])
GENERATORS = {
    "pochhammer": {"--lambda": POSITIVE, "--mu": POSITIVE, "--lambda2": POSITIVE,
                   "--mu2": POSITIVE, "--d": DIMENSION, "--N": DEGREE,
                   "--kind": (["similarity", "diagnostic", "unitary"], ["oracle"]),
                   "--degrees": DEGREES, "--seed": SEED},
    "unitary-congruence": {"--d": DIMENSION, "--N": DEGREE, "--n": DIMENSION,
                           "--seed": SEED},
    "perturb": {"--base": (["pochhammer:1,2", "pochhammer:2.5,0.5"],
                           ["pochhammer:2", "pochhammer:0,2", "pochhammer:nan,1",
                            "shift:1,2"]),
                "--d": DIMENSION, "--N": DEGREE, "--replace0": POSITIVE,
                "--max-degree": DEGREE, "--seed": SEED},
    "homogeneous": {"--d": DIMENSION, "--N": DEGREE, "--n": DIMENSION, "--seed": SEED,
                    "--kind": (["similarity", "diagnostic"], ["unitary"]),
                    "--degrees": DEGREES, "--independent": ([None], [])},
}
REQUIRED = {"pochhammer": 4, "perturb": 1}


@st.composite
def gen_arguments(draw):
    """A gen command line: valid values throughout, or one option broken
    (an invalid value, or a required option left out)."""
    generator = draw(st.sampled_from(sorted(GENERATORS)))
    table = GENERATORS[generator]
    required = list(table)[:REQUIRED.get(generator, 0)]
    broken = draw(st.one_of(st.none(), st.sampled_from(list(table))))
    argv = ["gen", generator]
    for option, (valid, invalid) in table.items():
        if option == broken and (invalid or option in required):
            if invalid and (option not in required or draw(st.booleans())):
                argv += [option, draw(st.sampled_from(invalid))]
            continue
        if option in required or draw(st.booleans()):
            value = draw(st.sampled_from(valid))
            argv += [option] if value is None else [option, value]
    return argv


def _main(argv):
    """cli.main's exit code, argparse's usage errors included, and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as ex:
            code = ex.code
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(gen_arguments())
def test_gen_is_total(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "p.json"
        code, err = _main(argv + ["--out", str(out), "--quiet"])
        assert code in (0, 2, 3), err
        assert "Traceback" not in err
        if code == 0:
            json.loads(out.read_text(encoding="utf-8"), parse_constant=_reject_constant)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_problems())
@example(UNPARSABLE_FILES[0])
@example(UNPARSABLE_FILES[1])
@example(UNPARSABLE_FILES[2])
def test_validate_is_total_on_mutated_problems(problem):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.json"
        _write_problem(path, problem)
        code, err = _main(["validate", str(path), "--quiet"])
        assert code in (0, 2, 3), err
        assert "Traceback" not in err
