"""Strict report parsing and the per-kind output checks.

A report fails its check when the CLI exited non-zero, when the file is not
strict JSON (NaN and Infinity are rejected), or when its content disagrees
with the ground truth the benchmark generated. Every failure is counted; none
is dropped. The metric helpers below read only reports that passed, so they
may rely on the fields the checks require.
"""

from __future__ import annotations

import json
import re

_TIMING_LINE = re.compile(r'\n *"timing_seconds": [^\n]*')


class StrictJSONError(ValueError):
    """The report holds a non-finite number, which strict JSON forbids."""


def _reject_constant(name):
    raise StrictJSONError(f"non-finite number {name} in report")


def strict_loads(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def without_timing(text: str | None) -> str | None:
    """The report text minus its wall-clock line, for byte comparison."""
    return None if text is None else _TIMING_LINE.sub("", text)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _kind_fields_missing(report: dict) -> str | None:
    kind = report["kind"]
    if kind == "similarity":
        cert = report.get("certificate")
        if not isinstance(cert, dict) or not _is_number(cert.get("log_ratio")):
            return "similarity report has no numeric certificate log_ratio"
    elif kind == "diagnostic":
        growth = report.get("growth")
        table = growth.get("table") if isinstance(growth, dict) else None
        if not isinstance(table, list) or not all(
                isinstance(row, dict) and _is_number(row.get("log_ratio")) for row in table):
            return "diagnostic report has no growth table of log ratios"
    elif kind == "oracle":
        oracle = report.get("oracle")
        if not isinstance(oracle, dict) or not all(
                isinstance(oracle.get(k), int) for k in ("invertible_samples", "samples")):
            return "oracle report has no sample counts"
    return None


def check_report(problem, exit_code: int, text: str | None) -> str | None:
    """None when the report is right, otherwise a one-line reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if text is None:
        return "no report written"
    try:
        report = strict_loads(text)
    except ValueError as ex:
        return f"report is not strict JSON: {ex}"
    if not isinstance(report, dict) or report.get("kind") != problem.kind:
        return "report kind does not match the problem"
    missing = _kind_fields_missing(report)
    if missing:
        return missing
    expect = problem.expect
    if "verdict" in expect and report.get("verdict") != expect["verdict"]:
        return f"verdict {report.get('verdict')!r}, expected {expect['verdict']!r}"
    if "passes" in expect:
        verification = report.get("verification")
        if not isinstance(verification, dict) or verification.get("passes") is not True:
            return "certificate verification does not pass"
    return None


def certificate_log_ratios(text: str) -> list:
    """Certificate log(m2/m1) values of a passed similarity or diagnostic report."""
    report = strict_loads(text)
    if report["kind"] == "similarity":
        return [float(report["certificate"]["log_ratio"])]
    if report["kind"] == "diagnostic":
        return [float(row["log_ratio"]) for row in report["growth"]["table"]]
    return []


def oracle_samples(text: str) -> tuple:
    """(invertible samples, samples) of a passed oracle report, else (0, 0)."""
    report = strict_loads(text)
    if report["kind"] != "oracle":
        return 0, 0
    return report["oracle"]["invertible_samples"], report["oracle"]["samples"]
