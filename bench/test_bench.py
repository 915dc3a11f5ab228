"""Tests of the benchmark itself, on shrunken workloads.

Run from the repository root:

    python3 -m pytest -q bench

The fixture `tiny` replaces the workload shapes with small ones, so every
kind of problem still runs through the CLI in a few seconds.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

COUNT_UNITS = ("count", "bytes")


def declared(key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[key]


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "CORE_SHAPES", ((1, 1, 2),))
    monkeypatch.setattr(workloads, "PAIR_DEGREE", 6)
    monkeypatch.setattr(workloads, "DIAG_DEGREES", (6, 8, 10, 12))
    monkeypatch.setattr(workloads, "UNITARY_POSITIVE_SHAPES", ((2, 3, 2),))
    monkeypatch.setattr(workloads, "UNITARY_NEGATIVE_SHAPES", ((2, 3, 2),))
    monkeypatch.setattr(workloads, "ORACLE_SHAPES", ((2, 2, 2),))
    monkeypatch.setattr(run, "WARMUP_S", 0.0)


def last_json_line(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_declared_metric(tiny, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)])
    assert code == 0
    lines, result = last_json_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = declared("per_layer" if trace else "end_to_end")
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert math.isfinite(value["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_planted_wrong_verdict_counts_as_failure(tiny, capsys, monkeypatch):
    real = run.answer

    def planted(*args, **kwargs):
        out = real(*args, **kwargs)
        out.texts[0] = out.texts[0].replace('"NOT_SIMILAR_EVIDENCE"', '"SIMILAR_EVIDENCE"')
        return out

    monkeypatch.setattr(run, "answer", planted)
    run.main(["--workload", "diagnose-pochhammer", "--seed", "0", "--seconds", "0.1"])
    lines, result = last_json_line(capsys)
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 2
    assert any("expected 'NOT_SIMILAR_EVIDENCE'" in line for line in lines)


def test_non_finite_report_fails_the_strict_parse():
    problem = workloads.Problem("p", "unitary", "p.json", {"verdict": "YES"})
    text = '{"kind": "unitary", "verdict": "YES", "unitary": {"residual": NaN}}'
    assert "strict JSON" in checks.check_report(problem, 0, text)
    assert checks.check_report(problem, 0, text.replace("NaN", "0.0")) is None
    assert checks.check_report(problem, 2, None) == "exit code 2"


def test_counts_repeat_exactly(tiny):
    runs = [run.run_workload("congruence-oracle", 5, 0.1, True) for _ in range(2)]
    units = {m["name"]: m["unit"] for m in declared("per_layer")}
    counts = [{k: v["value"] for k, v in r["result"]["metrics"].items()
               if units[k] in COUNT_UNITS} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["equivalence.oracle.unknowns"] > 0
    assert counts[0]["serialization.parse_matrices"] > 0


def test_layer_self_times_partition_the_traced_pass(tiny):
    metrics = run.run_workload("certify-random", 2, 0.1, True)["result"]["metrics"]
    layers = sum(metrics[name]["value"] for name in tracer.LAYER_TIMES)
    glue = metrics["trace.glue_s"]["value"]
    assert glue >= 0.0
    assert layers + glue == pytest.approx(metrics["trace.wall_s"]["value"], abs=1e-6)
    assert metrics["equivalence.objective_evals"]["value"] > 0


def test_wrappers_rebind_aliases_and_are_removed():
    from multishift import equivalence, numerics
    original = numerics.pencil_logrange_batch
    t = tracer.Tracer()
    assert t.install() > 0
    try:
        assert equivalence.pencil_logrange_batch is numerics.pencil_logrange_batch
        assert numerics.pencil_logrange_batch is not original
        assert t.leftover_wrappers()
    finally:
        t.remove()
    assert numerics.pencil_logrange_batch is original
    assert equivalence.pencil_logrange_batch is original
    assert t.leftover_wrappers() == []


def test_every_metric_and_workload_is_mapped():
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)
    assert set(layers["per_layer"]) == {m["name"] for m in declared("per_layer")}
    assert set(layers["end_to_end"]) == {m["name"] for m in declared("end_to_end")}
    assert set(layers["workloads"]) == set(workloads.WORKLOADS)
    for entry in layers["per_layer"].values():
        assert set(entry["on"]) <= set(workloads.WORKLOADS)
        assert set(entry["moves"]) <= set(layers["end_to_end"])


def test_without_package_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify-random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
