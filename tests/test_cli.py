import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helpers
from multishift import cli
from multishift import equivalence as eq
from multishift import kernelgen as kg
from multishift import numerics
from multishift import sampling
from multishift import serialization as ser
from multishift import shiftcore as sc
from multishift.lattice import simplex_size
from multishift.numerics import PositiveDefiniteError, hermpd
from multishift.serialization import canonical_dumps


def run_cli(argv):
    return cli.main([str(a) for a in argv])


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def report_bytes_without_timing(path):
    data = read_report(path)
    data.pop("timing_seconds", None)
    return canonical_dumps(data)


@pytest.fixture
def swap_problem(tmp_path):
    path = tmp_path / "swap.json"
    code = run_cli([
        "gen", "pochhammer", "--lambda", 1, "--mu", 2, "--lambda2", 2,
        "--mu2", 1, "--N", 16, "--out", path, "--quiet",
    ])
    assert code == 0
    return path


class TestGen:
    def test_pochhammer_ground_truth_field(self, swap_problem):
        data = read_report(swap_problem)
        assert data["ground_truth"]["similar"] is True
        assert data["kind"] == "similarity"

    def test_generated_files_roundtrip_byte_identical(self, swap_problem, tmp_path):
        run_cli(["gen", "unitary-congruence", "--d", 2, "--N", 3, "--n", 2,
                 "--seed", 1, "--out", tmp_path / "uc.json", "--quiet"])
        run_cli(["gen", "perturb", "--base", "pochhammer:1,2", "--N", 6,
                 "--max-degree", 1, "--seed", 2, "--out", tmp_path / "p.json",
                 "--quiet"])
        run_cli(["gen", "homogeneous", "--d", 2, "--N", 4, "--n", 2, "--seed", 3,
                 "--out", tmp_path / "h.json", "--quiet"])
        paths = [swap_problem, tmp_path / "uc.json", tmp_path / "p.json",
                 tmp_path / "h.json"]
        for path in paths:
            text = path.read_text(encoding="utf-8")
            assert canonical_dumps(json.loads(text)) == text, path

    def test_unitary_congruence_sidecar(self, tmp_path):
        out = tmp_path / "uc.json"
        assert run_cli([
            "gen", "unitary-congruence", "--d", 2, "--N", 3, "--n", 2,
            "--seed", 7, "--out", out, "--quiet",
        ]) == 0
        answer = tmp_path / "uc.answer.json"
        assert answer.exists()
        v = ser.matrix_from_json(read_report(answer)["V"], "V")
        assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-10)
        # the problem file itself must not leak the hidden unitary
        assert "V" not in read_report(out)

    def test_unitary_congruence_sidecar_name_comes_from_the_file_name(self, tmp_path):
        # a directory named like a report must not be renamed on the way
        out_dir = tmp_path / "x.report.d"
        out_dir.mkdir()
        assert run_cli(["gen", "unitary-congruence", "--N", 2, "--n", 2,
                        "--out", out_dir / "p.json", "--quiet"]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["p.answer.json", "p.json"]

    def test_unwritable_answer_leaves_no_problem_file(self, tmp_path, capsys):
        (tmp_path / "p.answer.json").mkdir()
        assert run_cli(["gen", "unitary-congruence", "--N", 2, "--n", 2,
                        "--out", tmp_path / "p.json", "--quiet"]) == 2
        assert f"cannot write {tmp_path / 'p.answer.json'}" in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()

    def test_perturb_embeds_certificate(self, tmp_path):
        out = tmp_path / "p.json"
        assert run_cli([
            "gen", "perturb", "--base", "pochhammer:1,2", "--N", 8,
            "--replace0", 4, "--out", out, "--quiet",
        ]) == 0
        gt = read_report(out)["ground_truth"]["closed_form_certificate"]
        assert gt["log_m1"] == pytest.approx(np.log(0.25))
        assert gt["log_m2"] == 0.0

    def test_homogeneous_pair(self, tmp_path):
        out = tmp_path / "h.json"
        assert run_cli([
            "gen", "homogeneous", "--d", 2, "--N", 6, "--n", 2, "--seed", 3,
            "--out", out, "--quiet",
        ]) == 0
        assert run_cli(["run", out, "--quiet"]) == 0
        report = read_report(tmp_path / "h.report.json")
        assert report["verdict"] == "SIMILAR_EVIDENCE"
        assert report["certificate"]["log_ratio"] <= 1e-6


class TestRun:
    def test_swap_similarity(self, swap_problem, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(["run", swap_problem, "--out", out, "--quiet"]) == 0
        report = read_report(out)
        assert report["verdict"] == "SIMILAR_EVIDENCE"
        c = ser.matrix_from_json(report["certificate"]["C"], "C")
        scale = np.abs(c).max()
        assert abs(c[0, 0]) <= 1e-6 * scale and abs(c[1, 1]) <= 1e-6 * scale
        assert "timing_seconds" in report

    def test_similarity_report_explains_the_search(self, swap_problem, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(["run", swap_problem, "--out", out, "--quiet"]) == 0
        search = read_report(out)["diagnostics"]["optimize"]
        assert search["start"] in ("identity", "alignment", "recovery", "random0", "random1")
        assert search["start_evaluations"] == 5
        assert set(search) == {"start", "start_evaluations", "starts", "descent", "bound"}
        # the swap is solved exactly by a start, so no bound is computed
        assert search["descent"] == {"exit": "bottomed out", "steps": 0, "evaluations": 0}
        assert search["bound"] is None
        starts = search["starts"]
        assert [s["name"] for s in starts] == [
            "identity", "alignment", "recovery", "random0", "random1"]
        assert min(s["value"] for s in starts) == next(
            s["value"] for s in starts if s["name"] == search["start"])

    def test_similarity_report_gives_the_level_zero_bound(self, tmp_path):
        path, out = tmp_path / "perturb.json", tmp_path / "report.json"
        assert run_cli(["gen", "perturb", "--base", "pochhammer:1,2", "--N", 12,
                        "--replace0", "2.5", "--out", path, "--quiet"]) == 0
        assert run_cli(["run", path, "--out", out, "--quiet"]) == 0
        report = json.loads(out.read_text(encoding="utf-8"), parse_constant=reject_constant)
        search = report["diagnostics"]["optimize"]
        # a level-zero perturbation: the identity start meets the bound
        assert search["descent"] == {"exit": "proven optimal", "steps": 0, "evaluations": 0}
        log_ratio = report["certificate"]["log_ratio"]
        assert search["bound"] > 0.0 and abs(log_ratio - search["bound"]) <= 1e-12

    def test_default_report_path(self, swap_problem):
        assert run_cli(["run", swap_problem, "--quiet"]) == 0
        expected = swap_problem.with_name("swap.report.json")
        assert expected.exists()

    def test_identical_explicit_unitary(self, tmp_path):
        ms = sampling.random_moment_system(2, 2, 2, 5)
        problem = {
            "version": 1,
            "kind": "unitary",
            "systems": [ser.moment_system_to_json(ms), ser.moment_system_to_json(ms)],
            "options": {"seed": 0, "tol": 1e-8},
        }
        path = tmp_path / "same.json"
        path.write_text(canonical_dumps(problem), encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == 0
        report = read_report(tmp_path / "same.report.json")
        assert report["verdict"] == "YES"
        v = ser.matrix_from_json(report["unitary"]["V"], "V")
        assert np.allclose(v, np.eye(2), atol=1e-6)

    def test_unitary_congruence_recovery(self, tmp_path):
        out = tmp_path / "uc.json"
        run_cli(["gen", "unitary-congruence", "--d", 2, "--N", 3, "--n", 3,
                 "--seed", 11, "--out", out, "--quiet"])
        assert run_cli(["run", out, "--quiet"]) == 0
        report = read_report(tmp_path / "uc.report.json")
        assert report["verdict"] == "YES"
        assert report["unitary"]["residual"] <= 1e-8
        assert report["unitary"]["null_dimension"] == 1
        assert report["unitary"]["residual_bound"] <= 1e-8
        assert "diagnostics" not in report

    def test_identity_level_zero_control_gets_a_proven_no(self, tmp_path):
        ms = helpers.normalized_to_identity(sampling.random_moment_system(2, 6, 3, 8))
        control = helpers.per_index_unitary(ms, np.random.default_rng(8))
        problem = {
            "version": 1,
            "kind": "unitary",
            "systems": [ser.moment_system_to_json(ms), ser.moment_system_to_json(control)],
        }
        path = tmp_path / "identity.json"
        path.write_text(canonical_dumps(problem), encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == 0
        report = read_report(tmp_path / "identity.report.json")
        assert report["verdict"] == "NO" and "diagnostics" not in report
        unitary = report["unitary"]
        assert unitary["null_dimension"] == 0 and unitary["residual_bound"] > 1e-8
        assert "(proven NO)" in unitary["message"] and "V" not in unitary

    def test_spectral_witness_report_has_no_null_space(self, tmp_path):
        ms = sampling.random_moment_system(2, 2, 2, 6)
        problem = {
            "version": 1,
            "kind": "unitary",
            "systems": [ser.moment_system_to_json(ms),
                        ser.moment_system_to_json(helpers.scaled_system(ms, 1.0))],
        }
        path = tmp_path / "scaled.json"
        path.write_text(canonical_dumps(problem), encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == 0
        report = read_report(tmp_path / "scaled.report.json")
        assert report["verdict"] == "NO"
        assert report["unitary"]["witness_alpha"] == [0, 0]
        assert report["unitary"]["witness_invariant"] == "spectrum"
        assert "diagnostics" not in report
        assert "null_dimension" not in report["unitary"]

    def test_trace_witness_report_has_no_null_space(self, tmp_path):
        ms = sampling.random_moment_system(2, 3, 3, 7)
        control = helpers.per_index_unitary(ms, np.random.default_rng(7))
        problem = {
            "version": 1,
            "kind": "unitary",
            "systems": [ser.moment_system_to_json(ms), ser.moment_system_to_json(control)],
        }
        path = tmp_path / "control.json"
        path.write_text(canonical_dumps(problem), encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == 0
        report = read_report(tmp_path / "control.report.json")
        assert report["verdict"] == "NO"
        assert report["unitary"]["witness_invariant"] == "trace"
        assert len(report["unitary"]["witness_alpha"]) == 2
        assert report["unitary"]["message"].startswith("level-zero traces")
        assert "diagnostics" not in report
        assert "residual_bound" not in report["unitary"]

    def test_diagnostic_kind(self, tmp_path):
        out = tmp_path / "diag.json"
        run_cli(["gen", "pochhammer", "--lambda", 1, "--mu", 2, "--lambda2", 1,
                 "--mu2", 3, "--kind", "diagnostic", "--degrees", "6,8,10,12",
                 "--out", out, "--quiet"])
        assert run_cli(["run", out, "--quiet"]) == 0
        report = read_report(tmp_path / "diag.report.json")
        assert report["verdict"] == "NOT_SIMILAR_EVIDENCE"
        assert len(report["growth"]["table"]) == 4
        assert report["options"]["degrees"] == [6, 8, 10, 12]

    def test_diagnostic_homogeneous_too_short_names_the_top_degree(self, tmp_path, capsys):
        # the pair is generated once, at the top degree, so the message names
        # that degree even though 11 is the first listed one past the data
        rng = np.random.default_rng(91)
        spec = {"type": "homogeneous", "d": 2, "coeffs_by_degree": [
            ser.hermpd_to_json(sampling.random_pd(2, rng)) for _ in range(11)]}
        path = tmp_path / "short.json"
        path.write_text(canonical_dumps({"version": 1, "kind": "diagnostic",
                                         "systems": [spec, spec],
                                         "options": {"degrees": [4, 11, 12, 13]}}),
                        encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "input validation failed: systems[0]: homogeneous system provides degrees "
            "up to 10, requested 13\n")

    def test_diagnostic_replacement_above_a_lower_degree_is_left_out(self, tmp_path):
        # degree 4's truncation of the perturbed family leaves the degree-5
        # replacement out: that pair is the base pair, and the search bottoms out
        base = {"type": "pochhammer", "lambda": 1.0, "mu": 2.0, "d": 2}
        perturbed = {"type": "perturbed", "base": base, "replacements": [
            {"alpha": [5, 0], "logscale": 0.0, "matrix": [[[3.0, 0.0], [0.0, 0.0]],
                                                         [[0.0, 0.0], [0.5, 0.0]]]}]}
        path = tmp_path / "above.json"
        path.write_text(canonical_dumps({"version": 1, "kind": "diagnostic",
                                         "systems": [base, perturbed],
                                         "options": {"degrees": [4, 6, 8, 10]}}),
                        encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == 0
        table = read_report(tmp_path / "above.report.json")["growth"]["table"]
        assert [row["degree"] for row in table] == [4, 6, 8, 10]
        assert table[0]["log_ratio"] <= 1e-13 < min(row["log_ratio"] for row in table[1:])
        assert [row["classes"] for row in table] == [5, 8, 10, 12]

    @pytest.mark.parametrize("threads", [1, 4])
    def test_diagnostic_resolves_the_pair_once_at_the_top_degree(self, tmp_path, monkeypatch,
                                                                 threads):
        path = tmp_path / "diag.json"
        assert run_cli(["gen", "pochhammer", "--lambda", 1, "--mu", 2, "--lambda2", 1,
                        "--mu2", 3, "--kind", "diagnostic", "--degrees", "6,8,10,12",
                        "--out", path, "--quiet"]) == 0
        calls, resolve = [], cli.resolve_system

        def counted(spec, where, top_degree=None):
            calls.append((where, top_degree))
            return resolve(spec, where, top_degree)

        monkeypatch.setattr(cli, "resolve_system", counted)
        assert run_cli(["run", path, "--threads", threads, "--quiet"]) == 0
        assert calls == [("systems[0]", 12), ("systems[1]", 12)]

    @pytest.mark.parametrize("second", [(1, 3), (2, 1), (1, 2)])
    def test_explicit_diagnostic_equals_the_generated_spec(self, tmp_path, capsys, second):
        # the explicit files are the generated pair at the top degree, one class per row
        degrees = [4, 6, 8, 10]
        specs = [{"type": "pochhammer", "lambda": lam, "mu": mu, "d": 2}
                 for lam, mu in ((1, 2), second)]

        def explicit(top):
            return [ser.moment_system_to_json(kg.kernel_moments(kg.pochhammer_kernel(
                kg.PochhammerPair(spec["lambda"], spec["mu"]), 2, top))) for spec in specs]

        reports = []
        for name, systems in (("generated", specs), ("explicit", explicit(10)),
                              ("past", explicit(12))):
            path = tmp_path / f"{name}.json"
            path.write_text(canonical_dumps({"version": 1, "kind": "diagnostic",
                                             "systems": systems,
                                             "options": {"degrees": degrees}}),
                            encoding="utf-8")
            reports.append((run_cli(["run", path, "--quiet"]), tmp_path / f"{name}.report.json"))
        assert [code for code, _ in reports] == [0, 0, 2]
        assert capsys.readouterr().err == (
            "input validation failed: systems[0]: explicit system has N=12, options require 10\n")
        generated, written = (read_report(out) for _, out in reports[:2])
        assert written["verdict"] == generated["verdict"]
        for row, want in zip(written["growth"]["table"], generated["growth"]["table"]):
            assert row["log_ratio"] == want["log_ratio"]
            assert (row["classes"], want["classes"]) == (simplex_size(2, row["degree"]),
                                                         row["degree"] + 1)

    def test_oracle_kind(self, tmp_path):
        ms = sampling.random_moment_system(2, 2, 2, 40)
        mt = sampling.congruent_pair(ms, np.eye(2) + 0.2j * np.eye(2))
        problem = {
            "version": 1,
            "kind": "oracle",
            "systems": [ser.moment_system_to_json(ms), ser.moment_system_to_json(mt)],
            "options": {"seed": 1},
        }
        path = tmp_path / "oracle.json"
        path.write_text(canonical_dumps(problem), encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == 0
        report = read_report(tmp_path / "oracle.report.json")
        assert report["verdict"] == "PASS"
        assert report["oracle"]["invertible_samples"] > 0
        assert report["oracle"]["max_recursion_residual"] <= 1e-9

    def test_oracle_takes_one_svd_of_x_per_sample(self, tmp_path, monkeypatch):
        d, top, n = 2, 2, 2
        ms = sampling.random_moment_system(d, top, n, 40)
        mt = sampling.congruent_pair(ms, np.eye(n) + 0.2j * np.eye(n))
        dim, keep = n * simplex_size(d, top), n * simplex_size(d, top - 1)
        path = tmp_path / "oracle.json"
        path.write_text(canonical_dumps({
            "version": 1, "kind": "oracle",
            "systems": [ser.moment_system_to_json(ms), ser.moment_system_to_json(mt)],
        }), encoding="utf-8")
        shapes = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert run_cli(["run", path, "--quiet"]) == 0
        oracle = read_report(tmp_path / "oracle.report.json")["oracle"]
        assert oracle["invertible_samples"] == oracle["samples"] > 0
        # X itself once per sample; X Mz_j - M~z_j X on the interior columns
        # once per coordinate and invertible sample; nothing else of size dim
        assert shapes.count((dim, dim)) == oracle["samples"]
        assert shapes.count((dim, keep)) == d * oracle["invertible_samples"]
        assert sum(len(s) == 2 and dim in s for s in shapes) == (d + 1) * oracle["samples"]

    def test_oracle_reads_one_singular_range_per_sample(self, tmp_path, monkeypatch):
        # the checks read the sample's cached range (IntertwinerMatrix.singular_range);
        # a check that took the range of X again would count here
        d, top, n = 2, 2, 2
        ms = sampling.random_moment_system(d, top, n, 40)
        mt = sampling.congruent_pair(ms, np.eye(n) + 0.2j * np.eye(n))
        path = write_pair_problem(tmp_path / "oracle.json", "oracle", ms, mt)
        shapes, singular_range = [], numerics.singular_range

        def counting(mat):
            shapes.append(np.shape(mat))
            return singular_range(mat)

        for module in (eq, numerics):  # spectral_norm reads the numerics name
            monkeypatch.setattr(module, "singular_range", counting)
        assert run_cli(["run", path, "--quiet"]) == 0
        oracle = read_report(tmp_path / "oracle.report.json")["oracle"]
        assert oracle["invertible_samples"] == oracle["samples"] > 0
        dim = n * simplex_size(d, top)
        assert shapes.count((dim, dim)) == oracle["samples"]

    def test_oracle_report_carries_rank_threshold(self, tmp_path):
        ms = sampling.random_moment_system(2, 3, 2, 41)
        mt = sampling.random_moment_system(2, 3, 2, 42)
        path = tmp_path / "oracle.json"
        path.write_text(canonical_dumps({
            "version": 1, "kind": "oracle",
            "systems": [ser.moment_system_to_json(ms), ser.moment_system_to_json(mt)],
        }), encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == 0
        oracle = read_report(tmp_path / "oracle.report.json")["oracle"]
        assert oracle["solution_count"] == oracle["dimension"] * 2 == 40
        assert 0.0 <= oracle["max_null_singular_value"] <= oracle["rank_threshold"] < 1e-6

    def test_explicit_weights_system_in_pairwise_run(self, tmp_path):
        from multishift.numerics import hermpd
        from multishift import shiftcore as sc
        ws = helpers.random_weight_system(2, 3, 2, 30)
        g0 = hermpd(np.eye(2))
        ms = sc.moments_from_weights(ws, g0)
        problem = {
            "version": 1,
            "kind": "similarity",
            "systems": [
                ser.weight_system_to_json(ws, g0),
                ser.moment_system_to_json(ms),
            ],
            "options": {"seed": 0},
        }
        path = tmp_path / "wm.json"
        path.write_text(canonical_dumps(problem), encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == 0
        report = read_report(tmp_path / "wm.report.json")
        # the two specs describe the same system, so the certificate is tight
        assert report["verdict"] == "SIMILAR_EVIDENCE"
        assert report["certificate"]["log_ratio"] <= 1e-9

    def test_validate_kind_weights(self, tmp_path):
        ws = helpers.random_weight_system(2, 3, 2, 6)
        from multishift.numerics import hermpd
        problem = {
            "version": 1,
            "kind": "validate",
            "systems": [ser.weight_system_to_json(ws, hermpd(np.eye(2)))],
        }
        path = tmp_path / "val.json"
        path.write_text(canonical_dumps(problem), encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == 0
        report = read_report(tmp_path / "val.report.json")
        assert report["verdict"] == "VALID"
        assert report["validation"]["passes"] is True

    # found by the property test: a g0 that is not positive definite raised
    # out of validate with a traceback; like an indefinite Gram it is INVALID
    def test_validate_weights_with_an_indefinite_g0_is_invalid(self, tmp_path):
        ws = helpers.random_weight_system(1, 1, 2, 6)
        data = ser.weight_system_to_json(ws, hermpd(np.eye(2)))
        data["g0"]["matrix"] = helpers.per_entry_matrix_to_json(np.diag([1.0, -1.0]))
        path = tmp_path / "val.json"
        path.write_text(canonical_dumps({"version": 1, "kind": "validate", "systems": [data]}),
                        encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == 0
        report = read_report(tmp_path / "val.report.json")
        assert report["verdict"] == "INVALID"
        assert report["validation"]["failures"] == [
            "systems: systems[0].g0 is not a positive-definite matrix "
            "(smallest eigenvalue -1.000e+00 is not positive)"]

    @pytest.mark.parametrize("kind", ["similarity", "validate"])
    def test_weight_system_is_validated_once(self, tmp_path, monkeypatch, kind):
        from multishift import shiftcore as sc
        from multishift.numerics import hermpd
        ws, g0 = helpers.random_weight_system(2, 3, 2, 30), hermpd(np.eye(2))
        systems = [ser.weight_system_to_json(ws, g0),
                   ser.moment_system_to_json(sc.moments_from_weights(ws, g0))]
        path = tmp_path / "w.json"
        path.write_text(canonical_dumps({"version": 1, "kind": kind, "options": {"seed": 0},
                                         "systems": systems[:1 if kind == "validate" else 2]}),
                        encoding="utf-8")
        real, calls = sc.validate_weights, []

        def counted(weights):
            calls.append(weights)
            return real(weights)

        monkeypatch.setattr(sc, "validate_weights", counted)
        monkeypatch.setattr(cli, "validate_weights", counted)
        assert run_cli(["run", path, "--quiet"]) == 0
        assert len(calls) == 1

    def test_invalid_weight_system_keeps_its_message(self, tmp_path, capsys):
        from multishift import shiftcore as sc
        from multishift.numerics import hermpd
        eye = np.eye(2, dtype=np.complex128)
        # the interior (0, 0), (0, 1), (1, 0) has ranks 0, 1, 2
        weights = np.tile(eye, (2, 3, 1, 1))
        partner = sc.moments_from_weights(sc.WeightSystem(2, 2, 2, weights), hermpd(eye))
        weights = weights.copy()
        weights[0, 0] = [[1.0, 1.0], [0.0, 1.0]]
        weights[1, 2] = [[0.0, 1.0], [1.0, 0.0]]
        weights[1, 1] = np.diag([1.0, 0.0])
        path = tmp_path / "bad.json"
        path.write_text(canonical_dumps({"version": 1, "kind": "similarity", "systems": [
            ser.weight_system_to_json(sc.WeightSystem(2, 2, 2, weights), hermpd(eye)),
            ser.moment_system_to_json(partner)]}), encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "input validation failed: systems[0]: weight validation: FAIL\n"
            "  max commutation residual: 1.000e+00\n"
            "  min singular-value ratio: 0.000e+00\n"
            "  max weight norm: 1.61803\n"
            "  - weight at alpha=(0, 1), j=1 is numerically singular\n"
            "  - commutation residual 1.000e+00 at alpha=(0, 0), i=0, j=1\n")
        assert not (tmp_path / "bad.report.json").exists()


def write_pair_problem(path, kind, ms, mt):
    problem = {
        "version": 1,
        "kind": kind,
        "systems": [ser.moment_system_to_json(ms), ser.moment_system_to_json(mt)],
    }
    path.write_text(canonical_dumps(problem), encoding="utf-8")
    return path


class TestExitCodes:
    # one mapping: a dense solve past its cap exits 2, from either kind; a
    # scalar family has n^2 unitary unknowns
    @pytest.mark.parametrize("kind,message", [
        ("unitary", "625 intertwiner unknowns exceed 576"),
        ("oracle", "fibre dimension 25 exceeds 24"),
    ])
    def test_dense_cap_exits_2(self, tmp_path, capsys, kind, message):
        ms = helpers.scalar_system(1, 1, 25)
        path = write_pair_problem(tmp_path / "wide.json", kind, ms, ms)
        assert run_cli(["run", path, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_wide_hidden_unitary_pair_is_answered(self, tmp_path):
        rng = np.random.default_rng(9)
        ms = sampling.random_moment_system(1, 1, 25, rng)
        mt = sampling.congruent_pair(ms, sampling.random_unitary(25, rng))
        path = write_pair_problem(tmp_path / "wide.json", "unitary", ms, mt)
        assert run_cli(["run", path, "--quiet"]) == 0
        unitary = read_report(tmp_path / "wide.report.json")["unitary"]
        assert unitary["null_dimension"] == 1 and unitary["residual"] <= 1e-12

    def test_capped_fibre_still_gets_its_witness(self, tmp_path):
        ms = helpers.scalar_system(1, 1, 25)
        mt = sampling.congruent_pair(ms, 2.0 * np.eye(25))
        path = write_pair_problem(tmp_path / "scaled.json", "unitary", ms, mt)
        assert run_cli(["run", path, "--quiet"]) == 0
        report = read_report(tmp_path / "scaled.report.json")
        assert report["verdict"] == "NO"
        assert report["unitary"]["witness_invariant"] == "spectrum"

    def test_schema_error_names_field(self, tmp_path, capsys):
        problem = {
            "version": 1,
            "kind": "unitary",
            "systems": [
                {"type": "moments", "d": 1, "N": 1, "grams": []},
                {"type": "pochhammer", "lambda": 1, "mu": 2, "d": 1, "N": 1},
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(canonical_dumps(problem), encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "systems[0].fiber_dim" in err

    # a coordinate past int64 is an index outside the lattice, not an OverflowError
    def test_extra_gram_past_int64_is_ignored(self, tmp_path, capsys):
        moments = ser.moment_system_to_json(sampling.random_moment_system(2, 2, 2, 42))
        moments["grams"].append(dict(moments["grams"][0], alpha=[10**30, 0]))
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"version": 1, "kind": "validate", "systems": [moments]}),
                        encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("alpha", [[10**30, 0], [4, 0]])
    def test_replacement_outside_the_truncation_exits_2(self, tmp_path, capsys, alpha):
        base = {"type": "pochhammer", "lambda": 1.0, "mu": 2.0, "d": 2, "N": 3}
        perturbed = {"type": "perturbed", "base": base, "replacements": [
            {"alpha": alpha, "logscale": 0.0, "matrix": [[[1.0, 0.0], [0.0, 0.0]],
                                                        [[0.0, 0.0], [1.0, 0.0]]]}]}
        path = tmp_path / "outside.json"
        path.write_text(json.dumps({"version": 1, "kind": "similarity",
                                    "systems": [base, perturbed]}), encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"input validation failed: systems[1]: replacement index {tuple(alpha)} "
            "outside the truncation\n")

    def test_repeated_replacement_takes_its_last_entry(self, tmp_path):
        base = {"type": "pochhammer", "lambda": 1.0, "mu": 2.0, "d": 2, "N": 6}
        rng = np.random.default_rng(83)
        first, later, other = ({"alpha": alpha, **ser.hermpd_to_json(sampling.random_pd(2, rng))}
                               for alpha in ([1, 1], [1, 1], [0, 1]))
        reports = []
        for name, entries in (("twice", [first, other, later]), ("later", [other, later]),
                              ("first", [other, first])):
            path = tmp_path / f"{name}.json"
            path.write_text(canonical_dumps({"version": 1, "kind": "similarity", "systems": [
                base, {"type": "perturbed", "base": base, "replacements": entries}]}),
                encoding="utf-8")
            assert run_cli(["run", path, "--quiet"]) == 0
            reports.append(report_bytes_without_timing(tmp_path / f"{name}.report.json"))
        assert reports[0] == reports[1] != reports[2]

    @staticmethod
    def _kernel_problem(tmp_path, array, entries):
        """A similarity problem whose second system is a homogeneous spec with
        entries as its coefficients, or a perturbed one with them as replacements."""
        base = {"type": "pochhammer", "lambda": 1.0, "mu": 2.0, "d": 2, "N": 3}
        spec = ({"type": "homogeneous", "d": 2, "coeffs_by_degree": entries}
                if array == "coeffs_by_degree"
                else {"type": "perturbed", "base": base, "replacements": entries})
        path = tmp_path / f"{array}.json"
        path.write_text(json.dumps({"version": 1, "kind": "similarity",
                                    "systems": [base, spec]}), encoding="utf-8")
        return path

    @staticmethod
    def _kernel_entries(matrices):
        return [{"alpha": [k, 0], "logscale": 0.0, "matrix": helpers.per_entry_matrix_to_json(m)}
                for k, m in enumerate(matrices)]

    # a Gram of another dimension than the fibre's is a schema error, and so now
    # is a kernel coefficient or replacement (kernelgen refused them with exit 2)
    @pytest.mark.parametrize("array", ["coeffs_by_degree", "replacements"])
    def test_kernel_matrix_of_another_dimension_names_its_field(self, tmp_path, capsys, array):
        entries = self._kernel_entries([np.eye(2), 2 * np.eye(3), np.eye(2), np.eye(2)])
        assert run_cli(["run", self._kernel_problem(tmp_path, array, entries), "--quiet"]) == 3
        assert capsys.readouterr().err == (
            f"schema error at systems[1].{array}[1].matrix: expected dimension 2, got 3\n")

    # the whole array is read before any matrix is balanced, as for Grams: a
    # schema error anywhere in it comes before an indefinite matrix earlier on
    @pytest.mark.parametrize("array", ["coeffs_by_degree", "replacements"])
    def test_schema_error_comes_before_an_earlier_indefinite_matrix(self, tmp_path, capsys,
                                                                   array):
        entries = self._kernel_entries([np.eye(2), np.diag([1.0, -1.0]), np.eye(2),
                                        np.eye(2)])
        entries[3]["logscale"] = "0.5"
        path = self._kernel_problem(tmp_path, array, entries)
        assert run_cli(["run", path, "--quiet"]) == 3
        assert capsys.readouterr().err == (
            f"schema error at systems[1].{array}[3].logscale: expected a finite real number\n")
        entries[3]["logscale"] = 0.5
        path = self._kernel_problem(tmp_path, array, entries)
        assert run_cli(["run", path, "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(
            "input validation failed: systems[1]: smallest eigenvalue -1.000e+00")

    # g0's dimension is checked before g0 is balanced, as an entry's is: one of
    # another dimension exits 3 whether or not it is positive definite
    @pytest.mark.parametrize("kind", ["similarity", "validate"])
    @pytest.mark.parametrize("g0", [np.eye(3), np.diag([1.0, -1.0, 1.0])])
    def test_g0_of_another_dimension_names_its_field(self, tmp_path, capsys, kind, g0):
        ws = helpers.random_weight_system(1, 1, 2, 6)
        data = ser.weight_system_to_json(ws, hermpd(np.eye(2)))
        data["g0"]["matrix"] = helpers.per_entry_matrix_to_json(g0)
        systems = [data, ser.moment_system_to_json(sc.moments_from_weights(ws, hermpd(np.eye(2))))]
        path = tmp_path / "g0.json"
        path.write_text(canonical_dumps({"version": 1, "kind": kind,
                                         "systems": systems[:2 if kind == "similarity" else 1]}),
                        encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == 3
        assert capsys.readouterr().err == (
            "schema error at systems[0].g0.matrix: expected dimension 2, got 3\n")

    def test_invalid_json_is_schema_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == 3

    def test_input_validation_failure(self, tmp_path):
        # parses fine but the Gram at alpha=0 is indefinite
        bad_gram = {
            "alpha": [0],
            "logscale": 0.0,
            "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
        }
        good = {
            "alpha": [1],
            "logscale": 0.0,
            "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        }
        problem = {
            "version": 1,
            "kind": "similarity",
            "systems": [
                {"type": "moments", "d": 1, "N": 1, "fiber_dim": 2,
                 "grams": [bad_gram, good]},
                {"type": "pochhammer", "lambda": 1, "mu": 2, "d": 1, "N": 1},
            ],
        }
        path = tmp_path / "indef.json"
        path.write_text(canonical_dumps(problem), encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == 2

    def test_mismatched_shapes_rejected(self, tmp_path):
        problem = {
            "version": 1,
            "kind": "similarity",
            "systems": [
                {"type": "pochhammer", "lambda": 1, "mu": 2, "d": 1, "N": 4},
                {"type": "pochhammer", "lambda": 1, "mu": 2, "d": 2, "N": 4},
            ],
        }
        path = tmp_path / "mismatch.json"
        path.write_text(canonical_dumps(problem), encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == 2

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_unreadable_file_is_schema_error(self, tmp_path, capsys, command):
        assert run_cli([command, tmp_path / "missing.json", "--quiet"]) == 3
        assert "schema error at $: cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("content,message", [
        (b"\xff\xfe{}", "not valid UTF-8"),
        (b"[" * 100_000, "maximum recursion depth exceeded"),
        (b"1" * 5000, "integer string conversion"),
    ], ids=["undecodable", "too-deep", "too-many-digits"])
    def test_unparsable_file_is_schema_error(self, tmp_path, capsys, command, content,
                                             message):
        path = tmp_path / "p.json"
        path.write_bytes(content)
        out = ["--out", tmp_path / "r.json"] if command == "run" else []
        assert run_cli([command, path, *out, "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("schema error at $: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("target", ["missing/r.json", "."],
                             ids=["missing-directory", "existing-directory"])
    def test_unwritable_report_is_a_clean_exit(self, swap_problem, tmp_path, capsys,
                                               target):
        out = tmp_path / target
        assert run_cli(["run", swap_problem, "--out", out, "--quiet"]) == 2
        assert f"cannot write {out}" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("target", ["missing/r.json", "."],
                             ids=["missing-directory", "existing-directory"])
    def test_unwritable_report_is_refused_before_solving(self, swap_problem, tmp_path,
                                                         capsys, monkeypatch, target):
        def solver_must_not_run(*args, **kwargs):
            raise AssertionError("the problem was solved before the output was checked")

        monkeypatch.setattr(cli, "run_problem", solver_must_not_run)
        out = tmp_path / target
        assert run_cli(["run", swap_problem, "--out", out, "--quiet"]) == 2
        assert f"cannot write {out}" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_schema_error_comes_before_the_output_check(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1, "kind": "nonsense", "systems": []}',
                        encoding="utf-8")
        out = tmp_path / "missing" / "r.json"
        assert run_cli(["run", path, "--out", out, "--quiet"]) == 3
        assert capsys.readouterr().err.startswith("schema error at ")

    def test_unwritable_problem_is_a_clean_exit(self, tmp_path, capsys):
        out = tmp_path / "missing" / "p.json"
        assert run_cli(["gen", "pochhammer", "--lambda", 1, "--mu", 2, "--lambda2", 2,
                        "--mu2", 1, "--out", out, "--quiet"]) == 2
        assert f"cannot write {out}" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text('{"version": 2, "kind": "unitary", "systems": []}',
                        encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == 3

    def test_validate_subcommand(self, swap_problem, tmp_path):
        assert run_cli(["validate", swap_problem, "--quiet"]) == 0
        path = tmp_path / "broken.json"
        path.write_text('{"version": 1}', encoding="utf-8")
        assert run_cli(["validate", path, "--quiet"]) == 3


    def test_oracle_at_degree_zero_names_the_field(self, tmp_path, capsys):
        ms = sampling.random_moment_system(2, 0, 2, 41)
        mt = sampling.congruent_pair(ms, np.eye(2) + 0.2j * np.eye(2))
        problem = {
            "version": 1,
            "kind": "oracle",
            "systems": [ser.moment_system_to_json(ms), ser.moment_system_to_json(mt)],
        }
        path = tmp_path / "oracle0.json"
        path.write_text(canonical_dumps(problem), encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == 2
        assert "systems[0].N" in capsys.readouterr().err
        assert not (tmp_path / "oracle0.report.json").exists()

    @pytest.mark.parametrize("field,token", [
        ("degrees", "[0, 4, 8, 12]"),
        ("tol", "1e400"),
        ("tol", "1" + "0" * 400),
    ], ids=["degree-zero", "tol-float-overflow", "tol-int-overflow"])
    def test_out_of_range_option_names_the_field(self, tmp_path, capsys, field, token):
        problem = {
            "version": 1,
            "kind": "diagnostic",
            "systems": [
                {"type": "pochhammer", "lambda": 1, "mu": 2, "d": 1},
                {"type": "pochhammer", "lambda": 1, "mu": 3, "d": 1},
            ],
            "options": {field: "TOKEN"},
        }
        path = tmp_path / "opt.json"
        path.write_text(json.dumps(problem).replace('"TOKEN"', token), encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == 3
        assert f"options.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--degrees", "0,4,8,12"), ("--tol", "inf")])
    def test_out_of_range_flag_rejected(self, swap_problem, flag, value):
        try:
            code = run_cli(["run", swap_problem, flag, value, "--quiet"])
        except SystemExit as ex:  # argparse rejects the value
            code = ex.code
        assert code == 2

    def test_pochhammer_past_single_logscale_range(self, tmp_path, capsys):
        problem = {
            "version": 1,
            "kind": "similarity",
            "systems": [
                {"type": "pochhammer", "lambda": 1, "mu": 2000, "d": 2, "N": 400},
                {"type": "pochhammer", "lambda": 1, "mu": 2000, "d": 2, "N": 400},
            ],
        }
        path = tmp_path / "wide.json"
        path.write_text(canonical_dumps(problem), encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == 2
        assert "double-precision range" in capsys.readouterr().err


    # a family spanning about +-1.7e308 nats paired with itself (the identity
    # certifies it; its whitened logscales overflow, so the two starts built
    # from them fail), and two families 2e308 nats apart
    @pytest.mark.parametrize("kind,logscales,code", [
        ("similarity", [(1.7e308, -1.7e308)] * 2, 0),
        ("similarity", [(-1.7e308, 1.7e308)] * 2, 0),
        ("unitary", [(-1.7e308, 1.7e308)] * 2, 0),
        ("similarity", [(1e308, 1e308), (-1e308, -1e308)], 2),
        ("unitary", [(1e308, 1e308), (-1e308, -1e308)], 2),
    ])
    def test_logscales_past_the_float_range(self, tmp_path, capsys, kind, logscales, code):
        systems = [{"type": "moments", "d": 1, "N": 1, "fiber_dim": 1, "grams": [
            {"alpha": [k], "logscale": x, "matrix": [[[1.0, 0.0]]]} for k, x in enumerate(pair)]}
            for pair in logscales]
        path = tmp_path / "far.json"
        path.write_text(canonical_dumps({"version": 1, "kind": kind, "systems": systems}),
                        encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert err == ("input validation failed: systems: the logscales at alpha=(0,) "
                           "differ by more than the double-precision range\n")
            return
        assert err == ""
        report = read_report(tmp_path / "far.report.json")
        if kind == "unitary":
            assert report["verdict"] == "YES"
            return
        assert report["certificate"]["log_ratio"] == 0.0
        starts = report["diagnostics"]["optimize"]["starts"]
        assert [s.get("error") for s in starts[1:3]] == ["OverflowError"] * 2

    @pytest.mark.parametrize("field", ["gram-entry", "logscale", "lambda"])
    def test_non_finite_number_names_the_field(self, tmp_path, capsys, field):
        # JSON reads 1e400 as inf
        moments = ser.moment_system_to_json(sampling.random_moment_system(1, 2, 2, 42))
        generated = {"type": "pochhammer", "lambda": 1, "mu": 2, "d": 1, "N": 2}
        if field == "gram-entry":
            moments["grams"][1]["matrix"][0][1][0] = "TOKEN"
            where = "systems[0].grams[1].matrix[0][1]"
        elif field == "logscale":
            moments["grams"][1]["logscale"] = "TOKEN"
            where = "systems[0].grams[1].logscale"
        else:
            generated["lambda"] = "TOKEN"
            where = "systems[1].lambda"
        problem = {"version": 1, "kind": "similarity", "systems": [moments, generated]}
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(problem).replace('"TOKEN"', "1e400"), encoding="utf-8")
        assert run_cli(["run", path, "--quiet"]) == 3
        assert f"schema error at {where}:" in capsys.readouterr().err
        assert not (tmp_path / "inf.report.json").exists()


    @pytest.mark.parametrize("kind,target", [
        ("similarity", "optimize_C"),
        ("similarity", "verify_certificate"),
        ("diagnostic", "growth_diagnostic"),
    ])
    def test_numeric_failure_names_systems(self, tmp_path, capsys, monkeypatch,
                                           kind, target):
        def fail(*args, **kwargs):
            raise PositiveDefiniteError("pencil matrix is not positive definite")

        path = tmp_path / "problem.json"
        assert run_cli(["gen", "pochhammer", "--lambda", 1, "--mu", 2, "--lambda2", 1,
                        "--mu2", 3, "--N", 4, "--kind", kind, "--degrees", "4,6,8,10",
                        "--out", path, "--quiet"]) == 0
        monkeypatch.setattr(eq, target, fail)
        assert run_cli(["run", path, "--quiet"]) == 2
        assert "systems: " in capsys.readouterr().err


class TestNearSingularGrams:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("alpha", [(0, 0), (1, 1)])
    @pytest.mark.parametrize("side", [0, 1])
    def test_similarity_run_is_total(self, tmp_path, side, alpha, seed):
        ms, mt = systems = helpers.near_singular_pair(side, alpha, seed)
        # the pencil kernel factors the Grams from their eigenpairs, so it has
        # a finite objective where a Cholesky factor of the Gram would fail
        objective = helpers.objective(ms, mt)
        assert math.isfinite(objective(np.eye(2, dtype=np.complex128)).value)

        path, out = tmp_path / "problem.json", tmp_path / "report.json"
        path.write_text(canonical_dumps({
            "version": 1, "kind": "similarity",
            "systems": [ser.moment_system_to_json(m) for m in systems],
        }), encoding="utf-8")
        assert run_cli(["run", path, "--out", out, "--quiet"]) == 0
        report = json.loads(out.read_text(encoding="utf-8"), parse_constant=reject_constant)
        assert all(s["value"] is not None for s in report["diagnostics"]["optimize"]["starts"])
        assert math.isfinite(report["certificate"]["log_ratio"])


def reject_constant(name):
    raise ValueError(f"non-finite number {name}")


class TestStrictJSON:
    def test_reports_of_every_kind_parse_strictly(self, swap_problem, tmp_path):
        problems = {"similarity": swap_problem}
        run_cli(["gen", "unitary-congruence", "--d", 2, "--N", 2, "--n", 2, "--seed", 3,
                 "--out", tmp_path / "unitary.json", "--quiet"])
        problems["unitary"] = tmp_path / "unitary.json"
        run_cli(["gen", "pochhammer", "--lambda", 1, "--mu", 2, "--lambda2", 1,
                 "--mu2", 3, "--kind", "diagnostic", "--degrees", "4,6,8,10",
                 "--out", tmp_path / "diagnostic.json", "--quiet"])
        problems["diagnostic"] = tmp_path / "diagnostic.json"
        ms = sampling.random_moment_system(2, 2, 2, 40)
        mt = sampling.congruent_pair(ms, np.eye(2) + 0.2j * np.eye(2))
        for kind, systems in (("oracle", [ms, mt]), ("validate", [ms])):
            path = tmp_path / f"{kind}.json"
            path.write_text(canonical_dumps({
                "version": 1, "kind": kind,
                "systems": [ser.moment_system_to_json(m) for m in systems],
            }), encoding="utf-8")
            problems[kind] = path
        for kind, path in problems.items():
            out = tmp_path / f"{kind}.out.json"
            assert run_cli(["run", path, "--out", out, "--quiet"]) == 0
            report = json.loads(out.read_text(encoding="utf-8"),
                                parse_constant=reject_constant)
            assert report["kind"] == kind

    def test_failed_and_non_finite_starts_are_strict_json(self):
        summary = eq.SearchSummary(
            "random0", 2,
            (eq.SearchStart("identity", math.inf),
             eq.SearchStart("alignment", None, "ConvergenceError"),
             eq.SearchStart("random0", 1.5)),
            eq.SearchStage("stationary", 4, 9), 0.25, 3,
        )
        data = json.loads(canonical_dumps(ser.search_to_json(summary)),
                          parse_constant=reject_constant)
        assert data["starts"] == [{"name": "identity", "value": None},
                                  {"name": "alignment", "error": "ConvergenceError"},
                                  {"name": "random0", "value": 1.5}]
        assert data["descent"] == {"exit": "stationary", "steps": 4, "evaluations": 9}
        assert data["bound"] == 0.25
        for bound in (None, math.inf, math.nan):
            data = json.loads(canonical_dumps(ser.search_to_json(summary._replace(bound=bound))),
                              parse_constant=reject_constant)
            assert data["bound"] is None

    def test_canonical_dumps_names_the_non_finite_number(self):
        for obj, where in (
            ({"growth": {"table": [1.0, float("nan")]}, "slope": 0.5}, r"growth\.table\[1\]"),
            ({"a": 1.0, "slope": float("-inf")}, r"slope"),
            ([0.0, [float("inf")]], r"\[1\]\[0\]"),
            (float("nan"), r"\$"),
        ):
            with pytest.raises(ValueError, match=rf"^non-finite number at {where}$"):
                canonical_dumps(obj)

    def test_non_finite_report_value_is_a_clean_exit(self, swap_problem, tmp_path,
                                                     capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_problem",
                            lambda problem, **kw: {"verdict": "X", "slope": float("inf")})
        out = tmp_path / "r.json"
        assert run_cli(["run", swap_problem, "--out", out, "--quiet"]) == 2
        assert "non-finite number at slope" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["pochhammer", "--lambda", "inf", "--mu", 2, "--lambda2", 2, "--mu2", 1],
        ["pochhammer", "--lambda", "nan", "--mu", 2, "--lambda2", 2, "--mu2", 1],
        ["perturb", "--base", "pochhammer:1,2", "--replace0", "inf"],
    ], ids=["lambda-inf", "lambda-nan", "replace0-inf"])
    def test_gen_rejects_non_finite_parameters(self, tmp_path, args):
        with pytest.raises(SystemExit) as info:
            run_cli(["gen", *args, "--out", tmp_path / "g.json", "--quiet"])
        assert info.value.code == 2
        assert not (tmp_path / "g.json").exists()

    def test_gen_rejects_non_finite_base(self, tmp_path, capsys):
        assert run_cli(["gen", "perturb", "--base", "pochhammer:1,inf",
                        "--out", tmp_path / "g.json", "--quiet"]) == 2
        assert "finite and positive" in capsys.readouterr().err


class TestDeterminism:
    def test_rerun_is_byte_identical_except_timing(self, swap_problem, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run_cli(["run", swap_problem, "--out", r1, "--quiet"])
        run_cli(["run", swap_problem, "--out", r2, "--quiet"])
        assert report_bytes_without_timing(r1) == report_bytes_without_timing(r2)

    def test_reports_hold_no_input_systems(self, tmp_path):
        unitary = tmp_path / "unitary.json"
        run_cli(["gen", "unitary-congruence", "--d", 2, "--N", 2, "--n", 2, "--seed", 3,
                 "--out", unitary, "--quiet"])
        ms = sampling.random_moment_system(2, 2, 2, 40)
        mt = sampling.congruent_pair(ms, np.eye(2) + 0.2j * np.eye(2))
        oracle = tmp_path / "oracle.json"
        oracle.write_text(canonical_dumps({
            "version": 1, "kind": "oracle",
            "systems": [ser.moment_system_to_json(ms), ser.moment_system_to_json(mt)],
        }), encoding="utf-8")
        for path in (unitary, oracle):
            r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
            assert run_cli(["run", path, "--out", r1, "--quiet"]) == 0
            assert run_cli(["run", path, "--out", r2, "--quiet"]) == 0
            assert "systems" not in read_report(r1)
            assert report_bytes_without_timing(r1) == report_bytes_without_timing(r2)

    def test_thread_count_does_not_change_report(self, tmp_path):
        out = tmp_path / "diag.json"
        run_cli(["gen", "pochhammer", "--lambda", 1, "--mu", 3, "--lambda2", 3,
                 "--mu2", 1, "--kind", "diagnostic", "--degrees", "6,8,10,12",
                 "--out", out, "--quiet"])
        r1, r8 = tmp_path / "t1.json", tmp_path / "t8.json"
        run_cli(["run", out, "--threads", 1, "--out", r1, "--quiet"])
        run_cli(["run", out, "--threads", 8, "--out", r8, "--quiet"])
        assert report_bytes_without_timing(r1) == report_bytes_without_timing(r8)



class TestParserReuse:
    """cli.main builds one argument parser per process and reuses it."""

    def test_parser_is_built_once_over_many_calls(self, swap_problem, tmp_path,
                                                  monkeypatch):
        builds = []

        def counting_build():
            builds.append(1)
            return real_build()

        real_build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        for k in range(3):
            assert run_cli(["run", swap_problem, "--out", tmp_path / f"r{k}.json",
                            "--quiet"]) == 0
            assert run_cli(["validate", swap_problem, "--quiet"]) == 0
            assert run_cli(["gen", "homogeneous", "--N", 2, "--out",
                            tmp_path / f"h{k}.json", "--quiet"]) == 0
        assert len(builds) == 1

    def test_import_builds_no_parser(self):
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *a, **k):\n"
            "    built.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import multishift.cli\n"
            "print(len(built), multishift.cli._parser.cache_info().currsize)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]

    def test_gen_defaults_do_not_leak_between_calls(self, tmp_path):
        poch = ["gen", "pochhammer", "--lambda", 1, "--mu", 2, "--lambda2", 2,
                "--mu2", 1, "--quiet", "--out"]
        assert run_cli([*poch, tmp_path / "n5.json", "--N", 5]) == 0
        assert run_cli([*poch, tmp_path / "n24.json"]) == 0
        assert read_report(tmp_path / "n5.json")["systems"][0]["N"] == 5
        assert read_report(tmp_path / "n24.json")["systems"][0]["N"] == 24

    def test_run_options_do_not_leak_between_calls(self, swap_problem, tmp_path):
        seeded, unseeded, fresh = (tmp_path / f"{name}.json"
                                   for name in ("seeded", "unseeded", "fresh"))
        assert run_cli(["run", swap_problem, "--seed", 7, "--out", seeded, "--quiet"]) == 0
        assert run_cli(["run", swap_problem, "--out", unseeded, "--quiet"]) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "multishift", "run", str(swap_problem),
             "--out", str(fresh), "--quiet"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert read_report(seeded)["options"]["seed"] == 7
        assert report_bytes_without_timing(unseeded) == report_bytes_without_timing(fresh)

    def test_validate_takes_no_out_option(self, swap_problem, tmp_path):
        # validate writes nothing, so --out is a usage error, not a silent no-op
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        out = tmp_path / "r.json"
        proc = subprocess.run(
            [sys.executable, "-m", "multishift", "validate", str(swap_problem),
             "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        assert "unrecognized arguments: --out" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_usage_error_does_not_spoil_the_next_call(self, swap_problem, tmp_path):
        with pytest.raises(SystemExit) as info:
            run_cli(["run", swap_problem, "--seed", -1, "--quiet"])
        assert info.value.code == 2
        out = tmp_path / "r.json"
        assert run_cli(["run", swap_problem, "--out", out, "--quiet"]) == 0
        assert read_report(out)["options"]["seed"] == 0


def test_import_leaves_the_thread_pool_unloaded():
    # only growth_diagnostic with threads > 1 imports concurrent.futures
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, multishift.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_console_entry_point(tmp_path):
    # the subprocess imports the same package as this test, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "multishift", "gen", "pochhammer", "--lambda", "1",
         "--mu", "2", "--lambda2", "2", "--mu2", "1", "--N", "6",
         "--out", str(tmp_path / "cli.json")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cli.json").exists()
