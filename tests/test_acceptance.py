"""Acceptance suite: ground-truth cases and properties at desk scale.

Each criterion records one PASS/FAIL line (printed in the terminal summary)
and enforces its stated tolerance. Criteria:

1. swapped-exponent Pochhammer pair: explicit swap certificate verifies at
   1e-10 and the optimizer reaches log-ratio <= 1e-6 at degree 30, under 10 s.
2. growth diagnostics: exponent gap 1 gives slope in [0.8, 1.2] and a
   not-similar verdict; a swapped pair gives slope <= 0.1 and a similar
   verdict, both under 60 s.
3. finite perturbations carry their closed-form certificate at 1e-9.
4. hidden-unitary recovery at residual <= 1e-8, with spectral witnesses on
   negative controls.
5. brute-force intertwiner solutions have the level-0 annihilation, diagonal
   recursion, and norm-bound certificate structure at 1e-9.
6. adjoint-formula residual <= 1e-9 and invertible shift blocks.
7. canonical-weight path independence at 1e-9.
8. Pochhammer numerics: factorial identity at 1e-11 and log-log growth
   exponents against the centred order n + (a+b-1)/2, gap +/- 0.02 on
   orders 64..256.
9. byte-identical reports across reruns and thread counts.
"""

import json
import math
import time

import numpy as np

import helpers
from conftest import record_acceptance
from multishift import cli
from multishift import equivalence as eq
from multishift import kernelgen as kg
from multishift import sampling
from multishift import shiftcore as sc
from multishift.numerics import frob_norm, singular_range
from multishift.serialization import canonical_dumps

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def pochhammer_moments(lam, mu, d, top):
    return kg.kernel_moments(kg.pochhammer_kernel(kg.PochhammerPair(lam, mu), d, top))


def pair_generator(lam, mu, lam2, mu2, d=2):
    def gen(top):
        return pochhammer_moments(lam, mu, d, top), pochhammer_moments(lam2, mu2, d, top)
    return gen


def test_criterion_1_explicit_swap_certificate():
    started = time.perf_counter()
    ms = pochhammer_moments(1, 2, 2, 30)
    mt = pochhammer_moments(2, 1, 2, 30)
    report = eq.verify_certificate(ms, mt, eq.SimilarityCertificate(SWAP, 0.0, 0.0), 1e-10)
    cert = eq.optimize_C(ms, mt, seed=0)
    elapsed = time.perf_counter() - started
    ok = report.passes and cert.log_ratio <= 1e-6 and elapsed <= 10.0
    record_acceptance(
        1, ok,
        f"swap certificate verified={report.passes}, optimizer log_ratio="
        f"{cert.log_ratio:.2e}, {elapsed:.1f}s",
    )
    assert report.passes
    assert cert.log_ratio <= 1e-6
    assert elapsed <= 10.0


def test_criterion_2_growth_diagnostics():
    started = time.perf_counter()
    degrees = [8, 16, 24, 32, 48, 64]
    apart = eq.growth_diagnostic(*pair_generator(1, 2, 1, 3)(degrees[-1]), degrees, seed=0)
    swapped = eq.growth_diagnostic(*pair_generator(1, 3, 3, 1)(degrees[-1]), degrees, seed=0)
    elapsed = time.perf_counter() - started
    ok = (
        0.8 <= apart.slope <= 1.2
        and apart.verdict == eq.VERDICT_NOT_SIMILAR
        and abs(swapped.slope) <= 0.1
        and swapped.verdict == eq.VERDICT_SIMILAR
        and elapsed <= 60.0
    )
    record_acceptance(
        2, ok,
        f"exponent-gap slope {apart.slope:.3f} ({apart.verdict}), swapped slope "
        f"{swapped.slope:.1e} ({swapped.verdict}), {elapsed:.1f}s",
    )
    assert 0.8 <= apart.slope <= 1.2
    assert apart.verdict == eq.VERDICT_NOT_SIMILAR
    assert abs(swapped.slope) <= 0.1
    assert swapped.verdict == eq.VERDICT_SIMILAR
    assert elapsed <= 60.0


def test_criterion_3_perturbation_certificates():
    spec = kg.pochhammer_kernel(kg.PochhammerPair(1, 2), 2, 20)
    base = kg.kernel_moments(spec)
    low_degree = [alpha for alpha in spec.truncation() if sum(alpha) <= 2]
    failures = []
    for seed in range(10):
        mats, logs = sampling.random_pd_stack(len(low_degree), 2, seed)
        perturbed, cert = kg.perturb_kernel(spec, low_degree, mats, logs)
        report = eq.verify_certificate(base, kg.kernel_moments(perturbed), cert, 1e-9)
        if not report.passes:
            failures.append(seed)
    record_acceptance(
        3, not failures,
        f"closed-form certificates verified for 10 seeds at 1e-9"
        + (f" (failed: {failures})" if failures else ""),
    )
    assert not failures


def test_criterion_4_unitary_recovery():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        ms = sampling.random_moment_system(2, 4, 3, rng)
        v0 = sampling.random_unitary(3, rng)
        mt = sampling.congruent_pair(ms, v0)
        result = eq.test_unitary_equivalence(ms, mt, 1e-8)
        assert result.equivalent, seed
        worst = max(worst, result.residual)

    base = sampling.random_moment_system(2, 4, 3, 4100)
    scaled = eq.test_unitary_equivalence(
        base, helpers.scaled_system(base, math.log(2.0)), 1e-8
    )
    independent = eq.test_unitary_equivalence(
        base, sampling.random_moment_system(2, 4, 3, 4101), 1e-8
    )
    controls_ok = (
        not scaled.equivalent and scaled.witness is not None
        and not independent.equivalent and independent.witness is not None
    )
    ok = worst <= 1e-8 and controls_ok
    record_acceptance(
        4, ok,
        f"20 recoveries, max residual {worst:.2e}; negative controls "
        f"witnessed={controls_ok}",
    )
    assert worst <= 1e-8
    assert controls_ok


def test_criterion_5_intertwiner_oracle():
    worst_annih = worst_recur = 0.0
    total_invertible = 0
    certs_ok = True
    for seed in range(10):
        rng = np.random.default_rng(5000 + seed)
        ms = sampling.random_moment_system(2, 3, 2, rng)
        c0 = np.eye(2) + 0.3 * (
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        )
        mt = sampling.congruent_pair(ms, c0)
        assert ms.fiber_dim * len(ms.truncation()) <= 40
        basis = eq.brute_force_intertwiner(ms, mt)
        sampled = draws = 0
        while sampled < 4 and draws < 64:  # a wrong span fails here, not by timeout
            draws += 1
            coeffs = rng.standard_normal(basis.solution_count) \
                + 1j * rng.standard_normal(basis.solution_count)
            x = basis.combine(coeffs)
            lo, hi = singular_range(x.matrix)
            if lo <= 1e-8 * hi:
                continue
            sampled += 1
            total_invertible += 1
            worst_annih = max(worst_annih, eq.level0_annihilation_residual(x))
            worst_recur = max(worst_recur, eq.recursion_residual(x, basis.shifts))
            cert = eq.certificate_from_intertwiner(x, basis.shifts)
            certs_ok = certs_ok and eq.verify_certificate(ms, mt, cert, 1e-9).passes
        assert sampled == 4, f"seed {seed}: {sampled} invertible samples in {draws} draws"
    ok = worst_annih <= 1e-9 and worst_recur <= 1e-9 and certs_ok
    record_acceptance(
        5, ok,
        f"{total_invertible} invertible solutions: level-0 annihilation "
        f"{worst_annih:.1e}, recursion {worst_recur:.1e}, norm-bound "
        f"certificates pass={certs_ok}",
    )
    assert worst_annih <= 1e-9
    assert worst_recur <= 1e-9
    assert certs_ok


ADJOINT_SHAPES = [
    (1, 5, 3), (2, 4, 2), (3, 3, 2), (2, 3, 3), (1, 4, 2),
    (3, 2, 3), (2, 5, 2), (1, 3, 3), (3, 3, 3), (2, 4, 3),
] * 2


def test_criterion_6_adjoint_formula():
    worst = 0.0
    margins_ok = True
    for seed, (d, top, n) in enumerate(ADJOINT_SHAPES):
        ms = sampling.random_moment_system(d, top, n, 6000 + seed)
        for j in range(d):
            worst = max(worst, sc.check_adjoint_formula(ms, j))
            margins_ok = margins_ok and sc.build_mz(ms, j).min_singular_value > 0.0
    ok = worst <= 1e-9 and margins_ok
    record_acceptance(
        6, ok,
        f"20 systems: max adjoint residual {worst:.2e}, "
        f"all shift blocks invertible={margins_ok}",
    )
    assert worst <= 1e-9
    assert margins_ok


def test_criterion_7_path_independence():
    worst = 0.0
    for seed, (d, top, n) in enumerate([(2, 4, 2), (3, 3, 2), (2, 3, 3), (3, 4, 2)]):
        ms = sampling.random_moment_system(d, top, n, 7000 + seed)
        ws = sc.canonical_weights(ms)
        for alpha in ws.truncation():
            forward = sc.path_product(ws, alpha)
            backward = sc.path_product(ws, alpha, helpers.reverse_monotone_path(alpha))
            scale = max(frob_norm(forward), frob_norm(backward), 1e-300)
            worst = max(worst, frob_norm(forward - backward) / scale)
    ok = worst <= 1e-9
    record_acceptance(7, ok, f"max canonical-vs-reverse path deviation {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_8_factorial_identity():
    worst = 0.0
    acc = 0.0
    for n in range(1, 171):
        acc += math.log(n)
        worst = max(worst, abs(kg.log_pochhammer(1.0, n) - acc) / max(acc, 1.0))
    record_acceptance(
        "8a", worst <= 1e-11, f"log n! relative error {worst:.2e} (n <= 170)"
    )
    assert worst <= 1e-11


def test_criterion_8_growth_exponent_slopes():
    results = {}
    orders = np.arange(64, 257)
    # Gamma(n+b)/Gamma(n+a) = (n + (a+b-1)/2)^(b-a) * (1 + O(n^-2)) (Tricomi
    # and Erdelyi, Pacific J. Math. 1, 1951): about the centred order the
    # (a+b-1)(b-a)/(2n) term of the expansion in n vanishes, so the fitted
    # slope recovers the exponent gap at these finite orders, where a fit
    # against log n is biased low by ~0.07 for (2,5)
    for lam, lam2 in [(1.0, 2.0), (2.0, 5.0), (3.0, 3.0)]:
        x = np.log(orders + (lam + lam2 - 1.0) / 2.0)
        y = np.array([
            kg.log_pochhammer(lam2, int(n)) - kg.log_pochhammer(lam, int(n))
            for n in orders
        ])
        xm, ym = x.mean(), y.mean()
        slope = float(((x - xm) * (y - ym)).sum() / ((x - xm) ** 2).sum())
        results[(lam, lam2)] = slope
    ok = all(abs(results[p] - (p[1] - p[0])) <= 0.02 for p in results)
    detail = ", ".join(
        f"({int(l)},{int(t)}): {s:.4f}" for (l, t), s in results.items()
    )
    record_acceptance(
        "8b", ok,
        f"fitted slopes vs log(n + (a+b-1)/2) {detail} (want gap +/- 0.02)",
    )
    for (lam, lam2), slope in results.items():
        assert abs(slope - (lam2 - lam)) <= 0.02, (
            f"slope for ({lam},{lam2}) is {slope:.4f}, "
            f"outside {lam2 - lam} +/- 0.02"
        )


DETERMINISM_PROBLEMS = {
    "similarity_swap": {
        "version": 1,
        "kind": "similarity",
        "systems": [
            {"type": "pochhammer", "lambda": 1.0, "mu": 2.0, "d": 2, "N": 30},
            {"type": "pochhammer", "lambda": 2.0, "mu": 1.0, "d": 2, "N": 30},
        ],
        "options": {"seed": 0, "tol": 1e-10},
    },
    # degree list trimmed against criterion 2's full run to keep the
    # 4-way determinism matrix quick; the thread fan-out is per degree
    # either way
    "diagnostic_gap": {
        "version": 1,
        "kind": "diagnostic",
        "systems": [
            {"type": "pochhammer", "lambda": 1.0, "mu": 2.0, "d": 2, "N": 32},
            {"type": "pochhammer", "lambda": 1.0, "mu": 3.0, "d": 2, "N": 32},
        ],
        "options": {"seed": 0, "degrees": [8, 16, 24, 32]},
    },
    "unitary_pair": None,  # built below, needs generated matrices
    "oracle_pair": None,
}


def _determinism_problems(tmp_path):
    problems = dict(DETERMINISM_PROBLEMS)
    rng = np.random.default_rng(9000)
    from multishift import serialization as ser

    ms = sampling.random_moment_system(2, 4, 3, rng)
    mt = sampling.congruent_pair(ms, sampling.random_unitary(3, rng))
    problems["unitary_pair"] = {
        "version": 1,
        "kind": "unitary",
        "systems": [ser.moment_system_to_json(ms), ser.moment_system_to_json(mt)],
        "options": {"seed": 0, "tol": 1e-8},
    }
    ms2 = sampling.random_moment_system(2, 3, 2, rng)
    mt2 = sampling.congruent_pair(
        ms2, np.eye(2) + 0.3 * (rng.standard_normal((2, 2))
                                + 1j * rng.standard_normal((2, 2)))
    )
    problems["oracle_pair"] = {
        "version": 1,
        "kind": "oracle",
        "systems": [ser.moment_system_to_json(ms2), ser.moment_system_to_json(mt2)],
        "options": {"seed": 0},
    }
    paths = {}
    for name, problem in problems.items():
        path = tmp_path / f"{name}.json"
        path.write_text(canonical_dumps(problem), encoding="utf-8")
        paths[name] = path
    return paths


def _report_bytes(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    data.pop("timing_seconds", None)
    return canonical_dumps(data)


def test_criterion_9_determinism(tmp_path):
    paths = _determinism_problems(tmp_path)
    mismatches = []
    for name, problem_path in paths.items():
        outputs = []
        for tag, threads in (("a", 1), ("b", 1), ("t8", 8)):
            out = tmp_path / f"{name}.{tag}.report.json"
            code = cli.main([
                "run", str(problem_path), "--out", str(out),
                "--threads", str(threads), "--quiet",
            ])
            assert code == 0, name
            outputs.append(_report_bytes(out))
        if not outputs[0] == outputs[1] == outputs[2]:
            mismatches.append(name)
    record_acceptance(
        9, not mismatches,
        "reports byte-identical across reruns and threads 1 vs 8 "
        f"({len(paths)} problems)" + (f"; mismatched: {mismatches}" if mismatches else ""),
    )
    assert not mismatches
