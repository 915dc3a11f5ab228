"""Seeded problem sets for the three benchmark workloads.

Each workload function writes its problem files into a directory and returns
the problems with the ground truth the benchmark checks every report against.
The same seed always gives byte-identical files. Files are written through the
package's own `gen` subcommands where one exists, and through
`serialization.moment_system_to_json` otherwise, so set-up exercises the
package's write path.

Why the certificate-search core of `certify-random` is fixed rather than
drawn from the seed: the finite-difference descent in `optimize_C` is chaotic
in its input. On one fixed random pair, changing only the optimizer seed, or
only a unitary change of frame of both families, moved the objective
evaluation count between 3,200 and 12,900 (see NOTES.md). A run that fits the
time budget answers about ten pairs, so seeded pairs would make `wall_s`
spread by about a third between seeds. The core pairs are therefore fixed
random draws, and the seed drives the other problems of the workload.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("certify-random", "diagnose-pochhammer", "congruence-oracle")

# Fixed draws for the certify-random core: (d, N, fibre n) per pair, drawn
# with numpy's default_rng([CORE_SUITE, index]).
CORE_SUITE = 2401
CORE_SHAPES = ((2, 3, 2),) * 4 + ((1, 2, 3),)
# Degree of the seeded swapped-Pochhammer and perturbation pairs.
PAIR_DEGREE = 30

DIAG_DEGREES = (16, 32, 64, 128)
DIAG_PAIRS = (((1, 2), (1, 3)), ((1, 2), (2, 1)))

# (d, N, fibre n) of the hidden-congruence unitary positives and negatives,
# and of the oracle pairs (truncated dimensions 18, 20 and 21). Every N and n
# of the positives' range appears once; the block of twelve at one mid-cost
# shape fills the middle ranks of the problem set, so problem_p50_s is a
# median over like problems instead of the time of whichever single problem
# lands on the median rank (one 0.2 s timing swings by 25% on a busy host).
UNITARY_POSITIVE_SHAPES = tuple(
    (2, N, n) for n in (2, 3, 4) for N in (6, 7, 8, 9, 10)
) + ((2, 9, 3),) * 12
UNITARY_NEGATIVE_SHAPES = ((2, 6, 2), (2, 8, 2), (2, 6, 3), (2, 8, 3), (2, 6, 4), (2, 7, 4))
ORACLE_SHAPES = ((2, 2, 3), (2, 3, 2), (1, 6, 3))


@dataclass(frozen=True)
class Problem:
    """One problem file and what its report must say."""

    pid: str
    kind: str
    path: str
    expect: dict


def _gen(args) -> None:
    from multishift import cli
    code = cli.main(["gen", *[str(a) for a in args], "--quiet"])
    if code != 0:
        raise RuntimeError(f"gen {args[0]} exited {code}")


def _write_problem(path: str, kind: str, ms, mt, seed: int, ground_truth: dict) -> None:
    from multishift import serialization as ser
    problem = {
        "version": 1,
        "kind": kind,
        "systems": [ser.moment_system_to_json(ms), ser.moment_system_to_json(mt)],
        "options": {"seed": seed},
        "ground_truth": ground_truth,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ser.canonical_dumps(problem))


def _ground_truth(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["ground_truth"]


def _certify_random(seed: int, workdir: str) -> list:
    from multishift import sampling
    out = []
    for i, (d, top, n) in enumerate(CORE_SHAPES):
        rng = np.random.default_rng([CORE_SUITE, i])
        ms = sampling.random_moment_system(d, top, n, rng)
        mt = sampling.random_moment_system(d, top, n, rng)
        path = os.path.join(workdir, f"random{i}.json")
        _write_problem(path, "similarity", ms, mt, i, {})
        out.append(Problem(f"random{i}", "similarity", path, {"passes": True}))

    path = os.path.join(workdir, "swap.json")
    _gen(["pochhammer", "--lambda", 1, "--mu", 2, "--lambda2", 2, "--mu2", 1,
          "--N", PAIR_DEGREE, "--seed", seed, "--out", path])
    out.append(Problem("swap", "similarity", path, {"passes": True}))

    factor = float(np.random.default_rng([CORE_SUITE, seed]).uniform(0.25, 4.0))
    path = os.path.join(workdir, "perturb.json")
    _gen(["perturb", "--base", "pochhammer:1,2", "--N", PAIR_DEGREE,
          "--replace0", repr(factor), "--seed", seed, "--out", path])
    out.append(Problem("perturb", "similarity", path, {"passes": True}))
    return out


def _diagnose_pochhammer(seed: int, workdir: str) -> list:
    out = []
    degrees = ",".join(str(x) for x in DIAG_DEGREES)
    for (lam, mu), (lam2, mu2) in DIAG_PAIRS:
        pid = f"poch{lam}{mu}-{lam2}{mu2}"
        path = os.path.join(workdir, f"{pid}.json")
        _gen(["pochhammer", "--lambda", lam, "--mu", mu, "--lambda2", lam2,
              "--mu2", mu2, "--d", 2, "--kind", "diagnostic", "--degrees", degrees,
              "--seed", seed, "--out", path])
        similar = _ground_truth(path)["similar"]
        verdict = "SIMILAR_EVIDENCE" if similar else "NOT_SIMILAR_EVIDENCE"
        out.append(Problem(pid, "diagnostic", path, {"verdict": verdict}))
    return out


def _congruence_oracle(seed: int, workdir: str) -> list:
    from multishift import sampling
    from multishift.numerics import hermpd
    from multishift.shiftcore import MomentSystem
    out = []
    for i, (d, top, n) in enumerate(UNITARY_POSITIVE_SHAPES):
        path = os.path.join(workdir, f"unitary{i}.json")
        _gen(["unitary-congruence", "--d", d, "--N", top, "--n", n,
              "--seed", seed * 1000 + i, "--out", path])
        out.append(Problem(f"unitary{i}", "unitary", path, {"verdict": "YES"}))

    # Controls: every Gram is moved by its own random unitary, so each index
    # keeps its spectrum but no common unitary exists.
    for i, (d, top, n) in enumerate(UNITARY_NEGATIVE_SHAPES):
        rng = np.random.default_rng([seed, 1, i])
        ms = sampling.random_moment_system(d, top, n, rng)
        grams = {}
        for alpha in ms.truncation():
            g = ms.gram(alpha)
            u = sampling.random_unitary(n, rng)
            grams[alpha] = hermpd(u.conj().T @ g.matrix @ u, g.logscale)
        mt = MomentSystem(d, top, n, grams)
        path = os.path.join(workdir, f"control{i}.json")
        _write_problem(path, "unitary", ms, mt, seed, {"unitarily_equivalent": False})
        out.append(Problem(f"control{i}", "unitary", path, {"verdict": "NO"}))

    for i, (d, top, n) in enumerate(ORACLE_SHAPES):
        rng = np.random.default_rng([seed, 2, i])
        ms = sampling.random_moment_system(d, top, n, rng)
        t = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        mt = sampling.congruent_pair(ms, t)
        path = os.path.join(workdir, f"oracle{i}.json")
        _write_problem(path, "oracle", ms, mt, seed, {"similar": True})
        out.append(Problem(f"oracle{i}", "oracle", path, {"verdict": "PASS"}))
    return out


_MAKERS = {
    "certify-random": _certify_random,
    "diagnose-pochhammer": _diagnose_pochhammer,
    "congruence-oracle": _congruence_oracle,
}


def build(workload: str, seed: int, workdir: str) -> list:
    """Write the workload's problem files for this seed; return the problems."""
    os.makedirs(workdir, exist_ok=True)
    return _MAKERS[workload](seed, workdir)
