"""The JSON writers: repr-exact values from one-pass conversions, the one
file layout, and files in the older indented layout."""

import json
import re
import struct

import numpy as np
import pytest

import helpers
from multishift import cli
from multishift import kernelgen as kg
from multishift import sampling
from multishift import serialization as ser
from multishift.numerics import hermpd
from multishift.serialization import canonical_dumps
from multishift.shiftcore import canonical_weights, moments_from_weights

# the wall-clock line that bench/checks.py strips before comparing reruns
TIMING_LINE = re.compile(r'\n *"timing_seconds": [^\n]*')


def _exact(tree):
    """tree with every float replaced by its IEEE bytes, so -0.0 != 0.0."""
    if isinstance(tree, float):
        return struct.pack("<d", tree)
    if isinstance(tree, dict):
        return {k: _exact(v) for k, v in tree.items()}
    if isinstance(tree, list):
        return [_exact(v) for v in tree]
    return tree


def _perturbed():
    spec = kg.pochhammer_kernel(kg.PochhammerPair(1.0, 2.0), 2, 6)
    rng = np.random.default_rng(7)
    replacements = {(0, 0): sampling.random_pd(2, rng), (1, 0): sampling.random_pd(2, rng)}
    return kg.kernel_moments(kg.perturb_kernel(spec, replacements)[0])


def _homogeneous():
    rng = np.random.default_rng(8)
    coeffs = [sampling.random_pd(3, rng, logscale_span=4.0) for _ in range(5)]
    return kg.kernel_moments(kg.homogeneous_kernel(coeffs, 2))


FAMILIES = {
    "random": lambda: sampling.random_moment_system(2, 3, 3, 11),
    "pochhammer": lambda: kg.kernel_moments(
        kg.pochhammer_kernel(kg.PochhammerPair(1.0, 2.0), 2, 8)),
    "perturbed": _perturbed,
    "homogeneous": _homogeneous,
}

EXTREMES = np.array([
    [complex(-0.0, 5e-324), complex(1.7976931348623157e308, -0.0)],
    [complex(-5e-324, -1.7976931348623157e308), complex(0.0, -0.0)],
])


class TestExactValues:
    def test_extreme_floats_keep_their_bits(self):
        ref = helpers.per_entry_matrix_to_json(EXTREMES)
        assert _exact(ser.matrix_to_json(EXTREMES)) == _exact(ref)
        assert _exact(ref[0][0][0]) == struct.pack("<d", -0.0)
        assert _exact(ref[1][1][1]) == struct.pack("<d", -0.0)

    def test_real_integer_and_stacked_input(self):
        for mat in (np.eye(2), [[2, 1], [1, 3]], EXTREMES.real):
            assert (_exact(ser.matrix_to_json(mat))
                    == _exact(helpers.per_entry_matrix_to_json(mat)))
        stack = np.stack([EXTREMES, EXTREMES.conj().T, np.eye(2)])
        assert (_exact(ser.matrix_to_json(stack))
                == _exact([helpers.per_entry_matrix_to_json(m) for m in stack]))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_moment_system(self, family):
        ms = FAMILIES[family]()
        grams = ser.moment_system_to_json(ms)["grams"]
        assert [entry["alpha"] for entry in grams] == [list(a) for a in ms.truncation()]
        for entry, alpha in zip(grams, ms.truncation()):
            gram = ms.gram(alpha)
            assert _exact(entry) == _exact({
                "alpha": list(alpha), "logscale": float(gram.logscale),
                "matrix": helpers.per_entry_matrix_to_json(gram.matrix)})

    @pytest.mark.parametrize("family", FAMILIES)
    def test_weight_system(self, family):
        ms = FAMILIES[family]()
        ws, g0 = canonical_weights(ms), ms.gram((0,) * ms.d)
        data = ser.weight_system_to_json(ws, g0)
        assert _exact(data["g0"]) == _exact({
            "logscale": float(g0.logscale),
            "matrix": helpers.per_entry_matrix_to_json(g0.matrix)})
        expected = [
            {"alpha": list(alpha), "j": j,
             "matrix": helpers.per_entry_matrix_to_json(ws.weight(alpha, j))}
            for alpha in ws.truncation().interior() for j in range(ws.d)]
        assert _exact(data["weights"]) == _exact(expected)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_weight_system_file_bytes(self, family):
        ms = FAMILIES[family]()
        ws, g0 = canonical_weights(ms), ms.gram((0,) * ms.d)
        per_key = {
            "type": "weights", "d": ws.d, "N": ws.N, "fiber_dim": ws.fiber_dim,
            "g0": {"logscale": float(g0.logscale),
                   "matrix": helpers.per_entry_matrix_to_json(g0.matrix)},
            "weights": [{"alpha": list(alpha), "j": j,
                         "matrix": helpers.per_entry_matrix_to_json(ws.weight(alpha, j))}
                        for alpha in ws.truncation().interior() for j in range(ws.d)],
        }
        assert canonical_dumps(ser.weight_system_to_json(ws, g0)) == canonical_dumps(per_key)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_weight_system_round_trip(self, family):
        ms = FAMILIES[family]()
        ws, g0 = canonical_weights(ms), ms.gram((0,) * ms.d)
        data = json.loads(canonical_dumps(ser.weight_system_to_json(ws, g0)))
        again, _ = ser.weight_system_from_json(data, "s")
        assert again.weights.tobytes() == ws.weights.tobytes()
        # an integer past int64 makes the array pass refuse; the per-entry
        # walk reads the same bits
        data["weights"][0]["matrix"][0][0][0] = 2 ** 70
        walked, _ = ser.weight_system_from_json(data, "s")
        want = np.array(ws.weights)
        want[0, 0, 0, 0] = complex(2 ** 70, want[0, 0, 0, 0].imag)
        assert walked.weights.tobytes() == want.tobytes()


def _problems():
    """One small problem of each solver kind; similarity reads a weight system."""
    ms = sampling.random_moment_system(2, 3, 2, 30)
    ws, g0 = helpers.random_weight_system(2, 3, 2, 31), hermpd(np.eye(2))
    twin = sampling.congruent_pair(ms, sampling.random_unitary(2, 32))
    other = sampling.random_moment_system(2, 2, 2, 33)
    poch = [{"type": "pochhammer", "lambda": lam, "mu": mu, "d": 2, "N": 10}
            for lam, mu in ((1.0, 2.0), (1.0, 3.0))]
    problems = {
        "similarity": [ser.weight_system_to_json(ws, g0),
                       ser.moment_system_to_json(moments_from_weights(ws, g0))],
        "unitary": [ser.moment_system_to_json(ms), ser.moment_system_to_json(twin)],
        "oracle": [ser.moment_system_to_json(other),
                   ser.moment_system_to_json(sampling.congruent_pair(other, np.eye(2) * 1.5))],
        "diagnostic": poch,
    }
    options = {"diagnostic": {"seed": 0, "degrees": [4, 6, 8, 10]}}
    return {kind: {"version": 1, "kind": kind, "systems": systems,
                   "options": options.get(kind, {"seed": 0})}
            for kind, systems in problems.items()}


PROBLEMS = _problems()


def _report(tmp_path, name, text):
    path = tmp_path / f"{name}.json"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / f"{name}.report.json"
    assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) == 0
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize("kind", PROBLEMS)
def test_report_layout(kind, tmp_path):
    problem = canonical_dumps(PROBLEMS[kind])
    texts = [_report(tmp_path, f"run{k}", problem) for k in range(2)]
    for text in texts:
        report = json.loads(text)
        lines = text.split("\n")
        assert lines[0] == "{" and lines[-2:] == ["}", ""]
        members = lines[1:-2]
        assert all(line.startswith('  "') for line in members)
        assert all(line.endswith(",") for line in members[:-1])
        keys = []
        for line in members:
            member = json.loads("{" + line.removesuffix(",") + "}")
            assert len(member) == 1
            (key, value), = member.items()
            assert _exact(value) == _exact(report[key])
            keys.append(key)
        assert keys == sorted(report)
        assert len(TIMING_LINE.findall(text)) == 1
    assert TIMING_LINE.sub("", texts[0]) == TIMING_LINE.sub("", texts[1])


def _stacks(problem):
    return [tuple(np.asarray(a).tobytes() for a in (ms.mats, ms.logs, ms.classes))
            for ms in (cli.resolve_system(spec, f"systems[{i}]")
                       for i, spec in enumerate(problem["systems"]))]


@pytest.mark.parametrize("kind", PROBLEMS)
def test_files_in_the_indented_layout_still_work(kind, tmp_path):
    obj = PROBLEMS[kind]
    indented = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    current = canonical_dumps(obj)
    assert indented != current
    assert _exact(json.loads(indented)) == _exact(json.loads(current))
    old, new = (cli.parse_problem(json.loads(text)) for text in (indented, current))
    assert _stacks(old) == _stacks(new)
    reports = [json.loads(_report(tmp_path, name, text))
               for name, text in (("indented", indented), ("current", current))]
    for report in reports:
        del report["timing_seconds"]
    assert _exact(reports[0]) == _exact(reports[1])


@pytest.mark.parametrize("obj", [{}, [], 1.5, "x", None, [{"b": 1, "a": [2, 3]}]])
def test_values_that_are_not_a_non_empty_object_take_one_line(obj):
    text = canonical_dumps(obj)
    assert text.count("\n") == 1 and text.endswith("\n")
    assert json.loads(text) == obj
