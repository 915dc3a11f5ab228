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
    mats, logs = sampling.random_pd_stack(2, 2, 7)
    return kg.kernel_moments(kg.perturb_kernel(spec, [(0, 0), (1, 0)], mats, logs)[0])


def _homogeneous():
    mats, logs = sampling.random_pd_stack(5, 3, 8, logscale_span=4.0)
    return kg.kernel_moments(kg.homogeneous_kernel(mats, logs, 2))


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
            for alpha in helpers.interior(ws.truncation()) for j in range(ws.d)]
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
                        for alpha in helpers.interior(ws.truncation()) for j in range(ws.d)],
        }
        assert canonical_dumps(ser.weight_system_to_json(ws, g0)) == canonical_dumps(per_key)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_weight_system_round_trip(self, family):
        ms = FAMILIES[family]()
        ws, g0 = canonical_weights(ms), ms.gram((0,) * ms.d)
        data = json.loads(canonical_dumps(ser.weight_system_to_json(ws, g0)))
        again, _ = ser.weight_system_from_json(data, "s")
        assert again.weights.tobytes() == ws.weights.tobytes()
        # the array pass reads an integer past int64 as float(int) does
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


class TestReaderPlacement:
    """The readers place each entry by the rank of its alpha: any file order
    reads the same stacks, the last entry for an index wins, and entries
    outside the lattice are ignored."""

    @staticmethod
    def _files(family):
        ms = FAMILIES[family]()
        ws, g0 = canonical_weights(ms), ms.gram((0,) * ms.d)
        return (json.loads(canonical_dumps(ser.moment_system_to_json(ms))),
                json.loads(canonical_dumps(ser.weight_system_to_json(ws, g0))))

    @staticmethod
    def _grams(data):
        ms = ser.moment_system_from_json(data, "s")
        return ms.mats.tobytes(), ms.logs.tobytes()

    @staticmethod
    def _weights(data):
        return ser.weight_system_from_json(data, "s")[0].weights.tobytes()

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_entry_order_reads_the_same_stacks(self, family, order):
        moments, weights = self._files(family)
        for data, field, read in ((moments, "grams", self._grams),
                                  (weights, "weights", self._weights)):
            want = read(data)
            entries = data[field]
            perm = (range(len(entries) - 1, -1, -1) if order == "reversed"
                    else np.random.default_rng(len(entries)).permutation(len(entries)))
            data[field] = [entries[i] for i in perm]
            assert read(data) == want

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_repeated_index_takes_its_last_entry(self, family):
        moments, weights = self._files(family)
        # the repeat carries the top-degree entry's data under index 1's alpha
        grams = moments["grams"]
        repeat = dict(grams[-1], alpha=grams[1]["alpha"])
        want = self._grams(dict(moments, grams=[grams[0], repeat, *grams[2:]]))
        assert want != self._grams(moments)
        assert self._grams(dict(moments, grams=[*grams, repeat])) == want
        assert self._grams(dict(moments, grams=[repeat, *grams])) == self._grams(moments)
        entries = weights["weights"]
        repeat = dict(entries[-1], alpha=entries[0]["alpha"], j=entries[0]["j"])
        want = self._weights(dict(weights, weights=[repeat, *entries[1:]]))
        assert want != self._weights(weights)
        assert self._weights(dict(weights, weights=[*entries, repeat])) == want
        assert self._weights(dict(weights, weights=[repeat, *entries])) == self._weights(weights)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_indices_outside_are_ignored(self, family):
        moments, weights = self._files(family)
        d, top = moments["d"], moments["N"]
        outside = [[top + 1] + [0] * (d - 1), [0] * (d - 1) + [top + 1],
                   [10**30] + [0] * (d - 1)]
        gram = moments["grams"][-1]
        extra = [dict(gram, alpha=alpha) for alpha in outside]
        assert self._grams(dict(moments, grams=[*extra, *moments["grams"], *extra])) == (
            self._grams(moments))
        weight = weights["weights"][-1]
        boundary = [top] + [0] * (d - 1)  # degree N: no weight leaves it
        extra = [dict(weight, alpha=alpha) for alpha in [boundary, *outside]]
        assert self._weights(dict(weights, weights=[*extra, *weights["weights"], *extra])) == (
            self._weights(weights))

    def test_the_first_missing_index_in_graded_order_is_named(self):
        moments, weights = self._files("random")  # d = 2, N = 3
        grams = moments["grams"]
        # (0, 2) and (1, 1) replaced by a repeat and an index past int64
        grams[4] = dict(grams[4], alpha=[10**30, 0])
        grams[3] = dict(grams[3], alpha=[0, 0])
        with pytest.raises(ser.SchemaError,
                           match=r"^s\.grams: missing Gram matrix at alpha=\(0, 2\)$"):
            ser.moment_system_from_json(moments, "s")
        entries = weights["weights"]
        entries[7] = dict(entries[7], alpha=[10**30, 0])  # ((0, 2), 1)
        entries[3] = dict(entries[3], alpha=[3, 0])  # ((0, 1), 1)
        with pytest.raises(ser.SchemaError,
                           match=r"^s\.weights: missing weight at alpha=\(0, 1\), j=1$"):
            ser.weight_system_from_json(weights, "s")


def _entry_arrays(family):
    """A family's four entry arrays as entries_from_json reads them: (entries,
    path, n, d, keys) for its Grams, its canonical weights, and its Grams
    without alphas as kernel coefficients (n read from the first) and with them
    as replacements."""
    ms = FAMILIES[family]()
    ws, g0 = canonical_weights(ms), ms.gram((0,) * ms.d)
    grams = json.loads(canonical_dumps(ser.moment_system_to_json(ms)))["grams"]
    weights = json.loads(canonical_dumps(ser.weight_system_to_json(ws, g0)))["weights"]
    coeffs = [{"logscale": e["logscale"], "matrix": e["matrix"]} for e in grams]
    n, d = ms.fiber_dim, ms.d
    return {"grams": (grams, "s.grams", n, d, KEYS["grams"]),
            "weights": (weights, "s.weights", n, d, KEYS["weights"]),
            "coeffs_by_degree": (coeffs, "s.coeffs_by_degree", None, d,
                                 KEYS["coeffs_by_degree"]),
            "replacements": (grams[::-1], "s.replacements", n, d, KEYS["replacements"])}


KEYS = {"grams": ("alpha", "logscale"), "weights": ("alpha", "j"),
        "coeffs_by_degree": ("logscale",), "replacements": ("alpha", "logscale")}
ARRAYS = tuple(KEYS)


def _typed(rows):
    return None if rows is None else [[(type(v), v) for v in row] for row in rows]


def _outcome(read, entries, path, n, d, keys):
    """What a reader gives: its stacks as bytes, alphas and js with their
    Python types, or the text of its SchemaError."""
    try:
        mats, alphas, js, logs = read(entries, path, n, d, keys)
    except ser.SchemaError as ex:
        return str(ex)
    if isinstance(alphas, np.ndarray):
        alphas, js = alphas.tolist(), None if js is None else js.tolist()
    mats = np.asarray(mats)
    return (mats.dtype, mats.shape, mats.tobytes(), _typed(alphas),
            _typed(None if js is None else [js]), None if logs is None else logs.tobytes())


def _both(entries, path, n, d, keys):
    """The reader's outcome, checked equal to the per-entry reference's."""
    got = _outcome(ser.entries_from_json, entries, path, n, d, keys)
    assert got == _outcome(helpers.per_entry_read, entries, path, n, d, keys)
    return got


FMAX_PLUS_ONE = int(np.finfo(np.float64).max) + 1  # rounds to the largest float
# fields the pass reads: indices past int64 (ranked -1 downstream) and int
# logscales inside the float range
READ_FIELDS = [("alpha", [10**30, 0]), ("alpha", [2**63, 0]), ("alpha", [2**64, 0]),
               ("logscale", 1), ("logscale", 10**300), ("logscale", FMAX_PLUS_ONE - 1)]
BAD_FIELDS = [
    ("alpha", [True, 0]), ("alpha", [1.0, 0]), ("alpha", [-1, 0]), ("alpha", [0]),
    ("alpha", "ab"), ("alpha", None), ("logscale", True), ("logscale", "0.5"),
    ("logscale", 10**400), ("logscale", None), ("logscale", float("inf")),
    ("logscale", float("nan")), ("alpha", [2**63, -1]), ("alpha", (0, 0)),
    ("logscale", FMAX_PLUS_ONE), ("j", True), ("j", -1), ("j", 2), ("j", 1.0), ("j", None),
    ("j", 2**70), ("j", "0"), *READ_FIELDS]


class TestEntryReader:
    """entries_from_json reads each array in one pass; where the pass refuses
    it, the walk names the first bad field as the per-entry reader does."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("array", ARRAYS)
    def test_files_read_the_references_stacks(self, family, array):
        entries, path, n, d, keys = _entry_arrays(family)[array]
        entries[1].pop("logscale", None)  # read as 0.0 by both
        assert not isinstance(_both(entries, path, n, d, keys), str)
        # a repeated index reads as one more row
        assert not isinstance(_both([*entries, entries[0]], path, n, d, keys), str)

    @pytest.mark.parametrize("array", ARRAYS)
    def test_an_empty_array_reads_as_no_rows(self, array):
        _, path, n, d, keys = _entry_arrays("random")[array]
        got = _both([], path, n if n is not None else 3, d, keys)
        assert got[1] == (0, 3, 3)

    @pytest.mark.parametrize("array,field,value", [
        (array, field, value) for array in ARRAYS for field, value in BAD_FIELDS
        if field in KEYS[array]])
    def test_bad_fields_are_named_as_the_reference_names_them(self, array, field, value):
        entries, path, n, d, keys = _entry_arrays("random")[array]  # d = 2
        entries[2][field] = value
        got = _both(entries, path, n, d, keys)
        assert isinstance(got, str) != any(
            (field, value) == (f, v) and type(value) is type(v) for f, v in READ_FIELDS)
        if isinstance(got, str):
            assert got.startswith(f"{path}[2].{field}: ")

    @pytest.mark.parametrize("value", [
        True, "1.5", None, 10**400, FMAX_PLUS_ONE, float("nan"), [0.5], 2**70, 7,
        FMAX_PLUS_ONE - 1])
    @pytest.mark.parametrize("array", ARRAYS)
    def test_matrix_scalars(self, array, value):
        entries, path, n, d, keys = _entry_arrays("random")[array]
        entries[2]["matrix"][0][1][0] = value
        got = _both(entries, path, n, d, keys)
        assert isinstance(got, str) == (value not in (2**70, 7, FMAX_PLUS_ONE - 1))

    @pytest.mark.parametrize("array", ARRAYS)
    def test_all_integer_matrices(self, array):
        entries, path, n, d, keys = _entry_arrays("random")[array]
        for entry in entries:
            entry["matrix"] = [[[int(i == k), 0] for k in range(3)] for i in range(3)]
        assert not isinstance(_both(entries, path, n, d, keys), str)

    @pytest.mark.parametrize("array", ARRAYS)
    @pytest.mark.parametrize("bad", ["not-an-object", "no-alpha", "no-matrix", "wide",
                                     "fibre-four", "ragged", "order"])
    def test_bad_entries(self, array, bad):
        entries, path, n, d, keys = _entry_arrays("random")[array]  # n = 3
        entry = entries[2]
        if bad == "not-an-object":
            entries[2] = [entry]
        elif bad == "no-alpha":
            entry.pop("alpha", None)
        elif bad == "no-matrix":
            del entry["matrix"]
        elif bad == "wide":
            for row in entry["matrix"]:
                row.append([0.0, 0.0])
        elif bad == "fibre-four":
            entry["matrix"] = helpers.per_entry_matrix_to_json(np.eye(4))
        elif bad == "ragged":
            entry["matrix"][1].pop()
        else:  # a later entry's bad alpha and logscale and an earlier one's matrix
            entries[4]["alpha"] = entries[4]["logscale"] = "x"
            entry["matrix"][0][0] = [1.0]
        got = _both(entries, path, n, d, keys)
        assert isinstance(got, str) == (bad != "no-alpha" or "alpha" in keys)
        if isinstance(got, str):
            assert got.startswith(f"{path}[2]")
