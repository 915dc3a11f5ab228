"""Tier-1 guard: answers agree across OpenBLAS kernels.

A DYNAMIC_ARCH OpenBLAS picks its kernels from the host CPU at load time, and
OPENBLAS_CORETYPE overrides that choice for one process. The same problems
are answered in one subprocess per kernel: verdicts and descent exits must be
equal, and log ratios and unitary residual bounds within 1e-9.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from multishift import cli, sampling
from multishift import serialization as ser
from multishift.serialization import canonical_dumps

KERNELS = ("Haswell", "Sandybridge")
AGREEMENT = 1e-9
# runs each (problem, report) pair of its arguments; exits with the worst code
RUN_ALL = ("import sys\nfrom multishift import cli\nargs = sys.argv[1:]\n"
           "sys.exit(max(cli.main(['run', p, '--out', r, '--quiet'])\n"
           "             for p, r in zip(args[::2], args[1::2])))\n")


def _dynamic_arch() -> bool:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return "DYNAMIC_ARCH" in (blas.get("openblas configuration") or "")


def _write(path: Path, kind: str, ms, mt, seed: int) -> Path:
    path.write_text(canonical_dumps({
        "version": 1, "kind": kind,
        "systems": [ser.moment_system_to_json(ms), ser.moment_system_to_json(mt)],
        "options": {"seed": seed},
    }), encoding="utf-8")
    return path


def _problems(tmp_path: Path) -> list:
    """Three random similarity pairs drawn as the certify-random workload draws
    its core (d = 2, N = 3, n = 2 and d = 1, N = 2, n = 3), a hidden-unitary
    unitary problem and a small oracle problem."""
    paths = []
    for i, (d, top, n) in ((0, (2, 3, 2)), (3, (2, 3, 2)), (4, (1, 2, 3))):
        rng = np.random.default_rng([2401, i])
        pair = [sampling.random_moment_system(d, top, n, rng) for _ in range(2)]
        paths.append(_write(tmp_path / f"random{i}.json", "similarity", *pair, i))
    unitary = tmp_path / "unitary.json"
    assert cli.main(["gen", "unitary-congruence", "--d", "2", "--N", "3", "--n", "2",
                     "--seed", "1", "--out", str(unitary), "--quiet"]) == 0
    paths.append(unitary)
    ms = sampling.random_moment_system(2, 2, 2, np.random.default_rng([2401, 9]))
    mt = sampling.congruent_pair(ms, np.eye(2) + 0.2j * np.eye(2))
    paths.append(_write(tmp_path / "oracle.json", "oracle", ms, mt, 1))
    return paths


def _answers(paths: list, kernel: str) -> list:
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    reports = [p.with_name(f"{p.stem}.{kernel}.json") for p in paths]
    proc = subprocess.run([sys.executable, "-c", RUN_ALL,
                           *(str(x) for pair in zip(paths, reports) for x in pair)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = []
    for report in (json.loads(r.read_text(encoding="utf-8")) for r in reports):
        out.append((report["verdict"],
                    report.get("diagnostics", {}).get("optimize", {}).get("descent", {}).get("exit"),
                    report.get("certificate", {}).get("log_ratio"),
                    report.get("unitary", {}).get("residual_bound")))
    return out


@pytest.mark.skipif(not _dynamic_arch(),
                    reason="numpy's OpenBLAS is not built with DYNAMIC_ARCH, so "
                           "OPENBLAS_CORETYPE cannot choose its kernels")
def test_answers_agree_across_openblas_kernels(tmp_path):
    paths = _problems(tmp_path)
    first, second = (_answers(paths, kernel) for kernel in KERNELS)
    for path, a, b in zip(paths, first, second):
        assert a[:2] == b[:2], path.name
        for x, y in zip(a[2:], b[2:]):
            assert (x is None) == (y is None), path.name
            if x is not None:
                assert abs(x - y) <= AGREEMENT, path.name
