import copy
import functools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from test_kernelgen import truncation_cases
from multishift import equivalence as eq
from multishift import kernelgen as kg
from multishift import sampling
from multishift import shiftcore as sc
from multishift.lattice import _truncation, simplex_size
from multishift.numerics import (
    LinAlgError,
    RankDeficientError,
    frob_norm,
    herm_eig_batch,
    hermpd,
    hermpd_batch,
    inv,
    inv_sqrt_pd,
    singular_range,
    sqrt_pd,
    symmetrize,
)

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def pochhammer_moments(lam, mu, d=2, top=10):
    return kg.kernel_moments(kg.pochhammer_kernel(kg.PochhammerPair(lam, mu), d, top))


def pochhammer_pair_generator(lam, mu, lam2, mu2, d=2):
    def gen(top):
        return (
            pochhammer_moments(lam, mu, d, top),
            pochhammer_moments(lam2, mu2, d, top),
        )
    return gen


class TestSandwichRatio:
    def test_identical_with_identity(self):
        ms = sampling.random_moment_system(2, 3, 2, 0)
        m1, m2, log_ratio = eq.sandwich_ratio(ms, ms, np.eye(2))
        assert m1 == pytest.approx(1.0, abs=1e-12)
        assert m2 == pytest.approx(1.0, abs=1e-12)
        assert log_ratio <= 1e-12

    def test_global_scaling(self):
        ms = sampling.random_moment_system(2, 3, 2, 1)
        mt = helpers.scaled_system(ms, math.log(2.0))
        m1, m2, log_ratio = eq.sandwich_ratio(ms, mt, np.eye(2))
        assert m1 == pytest.approx(2.0, rel=1e-12)
        assert m2 == pytest.approx(2.0, rel=1e-12)
        assert log_ratio <= 1e-12

    def test_paper_swap_certificate(self):
        # the explicit swapped-exponent certificate: C the swap, m1 = m2 = 1
        ms = pochhammer_moments(1, 2, top=16)
        mt = pochhammer_moments(2, 1, top=16)
        m1, m2, log_ratio = eq.sandwich_ratio(ms, mt, SWAP)
        assert m1 == pytest.approx(1.0, abs=1e-12)
        assert m2 == pytest.approx(1.0, abs=1e-12)
        assert log_ratio <= 1e-12

    def test_singular_c_rejected(self):
        ms = sampling.random_moment_system(1, 2, 2, 2)
        with pytest.raises(RankDeficientError):
            eq.sandwich_ratio(ms, ms, np.diag([1.0, 0.0]))

    def test_scalar_rescaling_of_c(self):
        ms = sampling.random_moment_system(2, 3, 2, 3)
        mt = sampling.random_moment_system(2, 3, 2, 4)
        c = sampling.random_unitary(2, 5) + 0.2 * np.eye(2)
        base = eq.sandwich_certificate(ms, mt, c)
        for factor in (2.0, -2.0, 2.0j, 0.125):
            scaled = eq.sandwich_certificate(ms, mt, factor * c)
            shift = 2.0 * math.log(abs(factor))
            assert scaled.log_m1 == pytest.approx(base.log_m1 - shift, abs=1e-13)
            assert scaled.log_m2 == pytest.approx(base.log_m2 - shift, abs=1e-13)
            assert scaled.log_ratio == pytest.approx(base.log_ratio, abs=1e-13)


class TestVerifyCertificate:
    def test_identity_certificate_zero_margins(self):
        ms = sampling.random_moment_system(2, 3, 2, 6)
        report = eq.verify_certificate(
            ms, ms, eq.SimilarityCertificate(np.eye(2), 0.0, 0.0), 1e-12
        )
        assert report.passes
        assert report.worst_lower_margin >= -1e-14
        assert report.worst_upper_margin >= -1e-14

    def test_perturbation_certificate(self):
        spec = kg.pochhammer_kernel(kg.PochhammerPair(1, 2), 2, 10)
        base = kg.kernel_moments(spec)
        rng = np.random.default_rng(7)
        perturbed, cert = kg.perturb_kernel(spec, [(0, 0), (0, 1)],
                                            *sampling.random_pd_stack(2, 2, rng))
        report = eq.verify_certificate(base, kg.kernel_moments(perturbed), cert, 1e-9)
        assert report.passes

    def test_unit_certificate_fails_at_high_degree(self):
        # (3)_n/(2)_n = (n+2)/2 exceeds 1, so (I, 1, 1) cannot survive
        ms = pochhammer_moments(1, 2, top=16)
        mt = pochhammer_moments(1, 3, top=16)
        report = eq.verify_certificate(
            ms, mt, eq.SimilarityCertificate(np.eye(2), 0.0, 0.0), 1e-8
        )
        assert not report.passes
        assert report.worst_lower_margin < -1e-2

    def test_certificate_symmetry(self):
        ms = sampling.random_moment_system(2, 3, 2, 8)
        c0 = np.array([[1.1, 0.2 - 0.3j], [0.1j, 0.8]])
        mt = sampling.congruent_pair(ms, c0)
        cert = eq.sandwich_certificate(ms, mt, c0)
        assert eq.verify_certificate(ms, mt, cert, 1e-10).passes
        swapped = cert.swapped()
        assert swapped.log_m1 == -cert.log_m2 and swapped.log_m2 == -cert.log_m1
        assert eq.verify_certificate(mt, ms, swapped, 1e-10).passes


class TestOptimizeC:
    def test_identical_systems(self):
        ms = sampling.random_moment_system(2, 3, 2, 9)
        cert = eq.optimize_C(ms, ms, seed=0)
        assert cert.log_ratio <= 1e-10
        # C is the identity up to scale: off-diagonal mass vanishes
        c = cert.C / cert.C[0, 0]
        assert np.allclose(c, np.eye(2), atol=1e-6)

    def test_swapped_pochhammer_pair(self):
        ms = pochhammer_moments(1, 2, top=24)
        mt = pochhammer_moments(2, 1, top=24)
        cert = eq.optimize_C(ms, mt, seed=0)
        assert cert.log_ratio <= 1e-6
        # recovered C is column-proportional to the swap matrix
        scale = np.abs(cert.C).max()
        assert abs(cert.C[0, 0]) <= 1e-6 * scale
        assert abs(cert.C[1, 1]) <= 1e-6 * scale

    def test_distinct_pair_lower_bound(self):
        # the scalar family spread at degree 24 after optimal 2-point scaling
        ms = pochhammer_moments(1, 2, top=24)
        mt = pochhammer_moments(1, 3, top=24)
        cert = eq.optimize_C(ms, mt, seed=0)
        assert cert.log_ratio >= math.log(13.0 / 2.0)

    def test_determinism(self):
        ms = sampling.random_moment_system(2, 3, 2, 10)
        mt = sampling.random_moment_system(2, 3, 2, 11)
        a = eq.optimize_C(ms, mt, seed=5)
        b = eq.optimize_C(ms, mt, seed=5)
        assert np.array_equal(a.C, b.C)
        assert a.log_m1 == b.log_m1 and a.log_m2 == b.log_m2

    @pytest.mark.parametrize("n,seed", [(2, 120), (3, 123), (4, 126)])
    def test_exact_congruence_found(self, n, seed):
        # whitening by the level-zero Grams turns any exact congruence into
        # a unitary one, so these pairs must come out with a tight certificate
        rng = np.random.default_rng(seed)
        ms = sampling.random_moment_system(2, 3, n, rng)
        c_true = np.eye(n) + 0.4 * (rng.standard_normal((n, n))
                                    + 1j * rng.standard_normal((n, n)))
        mt = sampling.congruent_pair(ms, c_true)
        cert = eq.optimize_C(ms, mt, seed=0)
        assert cert.log_ratio <= 1e-8

    def test_degree_zero_truncation(self):
        ms = sc.MomentSystem(2, 0, 2, {(0, 0): hermpd(np.diag([2.0, 1.0]))})
        mt = sampling.congruent_pair(ms, sampling.random_unitary(2, 7))
        assert eq.optimize_C(ms, mt, seed=0).log_ratio <= 1e-10
        assert eq.test_unitary_equivalence(ms, mt, 1e-8).equivalent
        # no interior columns: every operator on the single level intertwines
        assert eq.brute_force_intertwiner(ms, mt).solution_count == 4

    def test_congruence_invariance(self):
        ms = pochhammer_moments(1, 2, top=12)
        mt = pochhammer_moments(1, 3, top=12)
        cert = eq.optimize_C(ms, mt, seed=0)
        p = np.array([[1.3, 0.4j], [0.2, 0.9 + 0.1j]])
        transported = sampling.congruent_pair(ms, p)
        # the transported certificate achieves the same constants exactly
        moved = eq.sandwich_certificate(transported, mt, inv(p) @ cert.C)
        assert moved.log_ratio == pytest.approx(cert.log_ratio, abs=1e-8)
        # and the optimizer itself does at least as well
        redo = eq.optimize_C(transported, mt, seed=0)
        assert redo.log_ratio <= cert.log_ratio + 1e-8


def central_diff(func, mat, h=1e-6):
    """Gradient of a real function of a complex matrix, packed d/dRe + i d/dIm."""
    grad = np.zeros_like(mat)
    for idx in np.ndindex(mat.shape):
        for unit in (1.0, 1.0j):
            bump = np.zeros_like(mat)
            bump[idx] = unit * h
            grad[idx] += unit * (func(mat + bump) - func(mat - bump)) / (2.0 * h)
    return grad


def log_range(ms, mt, c):
    return helpers.cholesky_pencil_logrange(mt.mats, mt.logs, eq._congruence_stack(ms.mats, c),
                                            ms.logs)


# Log ratios the central-difference descent reached on the benchmark's fixed
# certify-random draws (default_rng([2401, i]), optimizer seed i) and on its
# N=30 swapped and perturbed Pochhammer pairs (seed 1).
CENTRAL_DIFFERENCE_LOG_RATIOS = {
    "random0": 3.102843933828464,
    "random1": 4.011888199898138,
    "random2": 2.8059236383421347,
    "random3": 3.0418400975397217,
    "random4": 1.6609678026864725,
    "swap": 4.440892098500626e-16,
    "perturb": 0.11755584653932837,
}

# Log ratios of the certify-random pairs before the descent stopped at the
# rounding floor; a descent may end within 1e-9 of them, not worse
BEFORE_FLOOR_LOG_RATIOS = {
    "random0": 2.9810954514333377,
    "random1": 3.9093326728060633,
    "random2": 2.728272117106618,
    "random3": 3.0147353637381267,
    "random4": 1.6609678026858248,
}


def certify_random_pair(name):
    if name.startswith("random"):
        i = int(name[-1])
        d, top, n = (1, 2, 3) if i == 4 else (2, 3, 2)
        rng = np.random.default_rng([2401, i])
        ms = sampling.random_moment_system(d, top, n, rng)
        return ms, sampling.random_moment_system(d, top, n, rng), i
    base = kg.pochhammer_kernel(kg.PochhammerPair(1, 2), 2, 30)
    if name == "swap":
        other = kg.pochhammer_kernel(kg.PochhammerPair(2, 1), 2, 30)
    else:
        factor = float(np.random.default_rng([2401, 1]).uniform(0.25, 4.0))
        other, _ = kg.perturb_kernel(base, [(0, 0)], *hermpd_batch(factor * np.eye(2)[None], [0.0]))
    return kg.kernel_moments(base), kg.kernel_moments(other), 1


class TestCertificateSearch:
    @pytest.mark.parametrize("shape", [(10, 2, 2), (3, 3, 3), (496, 2, 2), (28, 6, 6)])
    def test_congruence_stack_matches_per_row_products(self, shape):
        rng = np.random.default_rng(shape)
        mats = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        c = rng.standard_normal(shape[1:]) + 1j * rng.standard_normal(shape[1:])
        expected = np.stack([c.conj().T @ g @ c for g in mats])
        got = eq._congruence_stack(mats, c)
        assert got.shape == expected.shape
        assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)

    @pytest.mark.parametrize("shape", [(2, 3, 2), (1, 2, 3)])
    @pytest.mark.parametrize("seed", range(4))
    def test_extreme_gradients_match_central_differences(self, shape, seed):
        d, top, n = shape
        rng = np.random.default_rng([77, seed])
        ms = sampling.random_moment_system(d, top, n, rng)
        mt = sampling.random_moment_system(d, top, n, rng)
        c = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        objective = helpers.objective(ms, mt)
        ev = objective(c)
        # away from ties: unique extreme indices with simple extreme eigenvalues
        assert np.diff(np.sort(ev.hi))[-1] >= 1e-2 and np.diff(np.sort(ev.lo))[0] >= 1e-2
        assert np.diff(helpers.pencil_eigenpairs(objective, ev)[0], axis=1).min() >= 1e-2
        grad_max, grad_min = helpers.extreme_gradients(objective, ev)
        for grad, func in ((grad_max, lambda m: log_range(ms, mt, m)[1].max()),
                           (grad_min, lambda m: log_range(ms, mt, m)[0].min())):
            fd = central_diff(func, c)
            assert frob_norm(grad - fd) <= 1e-6 * frob_norm(fd)
        # the descent's gradient forms the same two columns from the two classes alone
        got = eq._gradient(objective, ev)
        assert got.tobytes() == (grad_max - grad_min).ravel().view(np.float64).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_descent_gradient_is_packed_in_real_coordinates(self, seed):
        # the directional derivative along a real 2n^2 direction is grad . d
        rng = np.random.default_rng([81, seed])
        ms = sampling.random_moment_system(2, 3, 2, rng)
        mt = sampling.random_moment_system(2, 3, 2, rng)
        objective = helpers.objective(ms, mt)
        c = np.eye(2) + 0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        grad = eq._gradient(objective, objective(c))
        assert grad.shape == (8,) and grad.dtype == np.float64
        x, h = c.ravel().view(np.float64), 1e-6
        for direction in np.eye(8):
            moved = [objective((x + t * direction).view(np.complex128).reshape(2, 2)).value
                     for t in (h, -h)]
            assert (moved[0] - moved[1]) / (2 * h) == pytest.approx(grad @ direction, abs=1e-6)

    @pytest.mark.parametrize("scale", [1.0, 0.0, 1e-16, -1e-20])
    def test_line_search_refuses_a_non_descent_direction(self, scale):
        # at slope >= 0, or at a slope whose sufficient-decrease bound rounds
        # to f, a trial equal to the start passes both Wolfe tests; the
        # search answers None before it evaluates anything
        rng = np.random.default_rng([83, 0])
        ms = sampling.random_moment_system(2, 3, 2, rng)
        mt = sampling.random_moment_system(2, 3, 2, rng)
        objective = helpers.objective(ms, mt)
        ev = objective(np.eye(2) + 0.3 * (rng.standard_normal((2, 2))
                                          + 1j * rng.standard_normal((2, 2))))
        grad = eq._gradient(objective, ev)
        before = objective.evaluations
        assert eq._line_search(objective, ev, grad, scale * grad) is None
        assert objective.evaluations == before
        found = eq._line_search(objective, ev, grad, -grad)
        assert found is not None and found[0].value < ev.value

    @pytest.mark.parametrize("name", sorted(BEFORE_FLOOR_LOG_RATIOS))
    def test_every_step_lowers_f(self, name, monkeypatch):
        search, lowered = eq._line_search, []

        def checked(objective, ev, grad, direction):
            found = search(objective, ev, grad, direction)
            if found is not None:
                lowered.append(found[0].value < ev.value)
            return found

        monkeypatch.setattr(eq, "_line_search", checked)
        ms, mt, seed = certify_random_pair(name)
        eq.optimize_C(ms, mt, seed=seed)
        assert lowered and lowered.count(False) == 0

    @pytest.mark.parametrize("name", sorted(CENTRAL_DIFFERENCE_LOG_RATIOS))
    def test_descent_ends_only_at_its_exits(self, name, monkeypatch):
        # every step is a line search that found one; a "no bracket" descent
        # ends on the one search that found none, and no other exit follows one
        search, found = eq._line_search, []

        def recorded(*args):
            result = search(*args)
            found.append(result is not None)
            return result

        monkeypatch.setattr(eq, "_line_search", recorded)
        ms, mt, seed = certify_random_pair(name)
        descent = eq.optimize_C(ms, mt, seed=seed).search.descent
        assert descent.exit in {"bottomed out", "proven optimal", "no bracket",
                                "iteration cap", "non-finite"}
        assert found == [True] * descent.steps + [False] * (descent.exit == "no bracket")

    def test_descent_stops_at_the_rounding_floor(self, monkeypatch):
        # at a gradient of norm 1e-7 the unit step's sufficient decrease,
        # WOLFE_C1 1e-14, is below half an ulp of f ~ 3, so no trial could
        # show a decrease
        gradient = eq._gradient

        def small(objective, ev):
            grad = gradient(objective, ev)
            return 1e-7 * grad / np.linalg.norm(grad)

        monkeypatch.setattr(eq, "_gradient", small)
        ms, mt, _ = certify_random_pair("random0")
        objective = helpers.objective(ms, mt)
        stage = eq._bfgs(objective, np.eye(2, dtype=np.complex128), 0.0,
                         np.random.default_rng(0))
        assert 1.0 <= objective.best.value < 8.0
        assert stage == ("no bracket", 0, 1)

    def test_recovery_start_is_finite_where_a_phase_reference_is_zero(self):
        # the target's Grams are diagonal, so the (0, 1) entry of its second
        # combination vanishes in its eigenframe while the rotated source's
        # does not; that phase stays 1 instead of 0 / 0
        def rotation(t):
            return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])

        grams, tgrams = {}, {}
        for k in range(4):
            diagonal = np.diag([1.0 + k, 2.0 + 0.5 * k * k])
            grams[(k,)] = hermpd(rotation(0.3 * k) @ diagonal @ rotation(0.3 * k).T)
            tgrams[(k,)] = hermpd(diagonal)
        ms, mt = sc.MomentSystem(1, 3, 2, grams), sc.MomentSystem(1, 3, 2, tgrams)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = eq.optimize_C(ms, mt, seed=0)
        recovery = next(s for s in cert.search.starts if s.name == "recovery")
        assert recovery.error is None and math.isfinite(recovery.value)
        assert eq.verify_certificate(ms, mt, cert).passes

    @pytest.mark.parametrize("n", [2, 3])
    def test_search_leaves_the_stage_a_cluster(self, n):
        # G~ = G at alpha = 0 and G~ > G elsewhere, so at the stage (a) start
        # the minimum is the n-fold eigenvalue 1 at alpha = 0, a kink the
        # perturbed start of the descent moves off
        rng = np.random.default_rng([78, n])
        ms = sampling.random_moment_system(2, 2, n, rng)
        grams = {}
        for alpha in ms.truncation():
            g = ms.gram(alpha).value()
            if sum(alpha):
                p = sampling.random_pd(n, rng).value()
                g = g + 0.5 * p / np.abs(p).max() * np.abs(g).max()
            grams[alpha] = hermpd(g)
        mt = sc.MomentSystem(2, 2, n, grams)
        c0 = inv_sqrt_pd(ms.gram((0, 0))).matrix @ sqrt_pd(mt.gram((0, 0))).matrix
        objective = helpers.objective(ms, mt)
        ev = objective(c0)
        lo = objective.lo_off[:, None] + helpers.pencil_eigenpairs(objective, ev)[0]
        cluster = lo <= lo[:, 0].min() + 1e-6
        assert cluster.sum() == n and cluster.sum(axis=1).max() == n
        cert = eq.optimize_C(ms, mt, seed=0)
        assert cert.search.descent.steps > 0
        assert cert.log_ratio < ev.value - 1e-3
        assert eq.verify_certificate(ms, mt, cert).passes

    @pytest.mark.parametrize("name", sorted(CENTRAL_DIFFERENCE_LOG_RATIOS))
    def test_certificates_no_worse_than_central_differences(self, name, monkeypatch):
        ms, mt, seed = certify_random_pair(name)
        # the benchmark tracer counts objective evaluations as calls of
        # equivalence.pencil_logrange_batch inside optimize_C: one per
        # evaluation, none for the bound, and no second pass for the certificate
        offsets, kernel, values = helpers.objective(ms, mt), eq.pencil_logrange_batch, []

        def counted(f, h, c):
            values.append(None)
            lo, hi, k = kernel(f, h, c)
            values[-1] = float((offsets.hi_off + hi).max()) - float((offsets.lo_off + lo).min())
            return lo, hi, k

        monkeypatch.setattr(eq, "pencil_logrange_batch", counted)
        cert = eq.optimize_C(ms, mt, seed=seed)
        search = cert.search
        assert len(values) == search.start_evaluations + search.descent.evaluations
        assert cert.log_ratio == min(v for v in values if v is not None)
        assert cert.log_ratio <= CENTRAL_DIFFERENCE_LOG_RATIOS[name] + 1e-9
        assert cert.log_ratio <= BEFORE_FLOOR_LOG_RATIOS.get(name, math.inf) + 1e-9
        assert eq.verify_certificate(ms, mt, cert).passes
        assert min(s.value for s in search.starts) == next(
            s.value for s in search.starts if s.name == search.start)
        assert search.descent.evaluations >= search.descent.steps >= 0
        # hardware-independent: a change here is a new search path
        start, exit_, zero_counts, tried = SEARCH_PATHS[name]
        assert (search.start, search.descent.exit) == (start, exit_)
        assert search.start_evaluations == len(search.starts) == tried
        assert [s.name for s in search.starts] == list(START_NAMES[:tried])
        if zero_counts:
            assert search.descent.steps == search.descent.evaluations == 0

    @pytest.mark.parametrize("name", ["random0", "random2", "random3"])
    def test_certificate_is_stable_under_rounding_of_the_start(self, name, monkeypatch):
        # the descent ends at a nonsmooth minimum or where no step shows a
        # decrease, not at a step cap, so rounding-level changes of its start
        # move the path but not the value
        ms, mt, seed = certify_random_pair(name)
        descend, ratios = eq._bfgs, []
        for k in range(5):
            monkeypatch.setattr(eq, "_bfgs", lambda objective, c, *rest, k=k: descend(
                objective, c * (1.0 + k * 1e-15), *rest))
            cert = eq.optimize_C(ms, mt, seed=seed)
            assert cert.search.descent.exit != "iteration cap"
            ratios.append(cert.log_ratio)
        assert max(ratios) - min(ratios) <= 1e-10


START_NAMES = ("identity", "alignment", "recovery", "random0", "random1")

# (start, descent exit, whether the descent took no step and no evaluation,
# how many starts the stage tried) per certify-random pair; step and
# evaluation counts are pinned only where they are 0, as rounding-level
# changes move them but not the values. The stage stops at the first start
# that bottoms out or is proven optimal.
SEARCH_PATHS = {
    "random0": ("alignment", "no bracket", False, 5),
    "random1": ("alignment", "no bracket", False, 5),
    "random2": ("recovery", "no bracket", False, 5),
    "random3": ("recovery", "no bracket", False, 5),
    "random4": ("recovery", "no bracket", False, 5),
    "swap": ("alignment", "bottomed out", True, 2),
    "perturb": ("identity", "proven optimal", True, 1),
}


@functools.lru_cache(maxsize=None)
def recovery_record(name):
    """The arguments the recovery start's _recover_congruence_unitary gets on
    a certify-random pair, with a copy of its generator: the whitened stacks
    of the pair's setup and the search's generator past the alignment
    weights. Built directly, as the stage stops before that start on some
    pairs; TestStartStage checks it against the call where the stage makes it."""
    ms, mt, seed = certify_random_pair(name)
    setup = eq._Setup(ms, mt)
    rng = np.random.default_rng(seed)
    rng.uniform(0.5, 1.5, size=len(setup.rows))
    return setup.whitened, rng


def every_start_value(ms, mt, seed):
    """The log ratios of all five starts of optimize_C's stage in order, each
    built and evaluated whatever the ones before it gave, from the draws the
    search makes."""
    setup = eq._Setup(ms, mt)
    objective = setup.objective(len(ms.truncation()))
    (left, right, _), n = setup.roots, ms.fiber_dim
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, size=len(setup.rows))
    units = [np.eye(n, dtype=np.complex128), eq._alignment_unitary(*setup.whitened, weights),
             eq._recover_congruence_unitary(*setup.whitened, rng)]
    for _ in range(eq.RANDOM_STARTS):
        units.append(eq.polar_unitary(rng.standard_normal((n, n))
                                      + 1j * rng.standard_normal((n, n))))
    return [objective(left.matrix @ w @ right.matrix).value for w in units]


def diagnose_pochhammer_pair(name, top=128):
    """The diagnose-pochhammer workload's gap pair (1,2)/(1,3) or swap pair
    (1,2)/(2,1) at d = 2."""
    return pochhammer_moments(1, 2, top=top), pochhammer_moments(
        *{"gap": (1, 3), "swap": (2, 1)}[name], top=top)


class TestStartStage:
    @pytest.mark.parametrize("name", sorted(SEARCH_PATHS))
    def test_each_start_is_built_when_the_stage_reaches_it(self, name, monkeypatch):
        # on the random pairs all five starts are tried, in order; the stage
        # of the swap and perturb pairs stops at its exit and builds nothing past it
        events, recoveries = [], []

        def spy(label, target):
            func = getattr(eq, target)

            def wrapped(*args):
                events.append(label)
                if label == "recovery":
                    recoveries.append((args[:4], copy.deepcopy(args[4])))
                return func(*args)
            monkeypatch.setattr(eq, target, wrapped)

        for label, target in (("evaluate", "pencil_logrange_batch"),
                              ("alignment", "_alignment_unitary"),
                              ("recovery", "_recover_congruence_unitary"),
                              ("random", "polar_unitary")):
            spy(label, target)
        ms, mt, seed = certify_random_pair(name)
        search = eq.optimize_C(ms, mt, seed=seed).search
        tried = SEARCH_PATHS[name][3]
        stage = ["evaluate", "alignment", "evaluate", "recovery", "evaluate",
                 "random", "evaluate", "random", "evaluate"][:2 * tried - 1]
        assert events[:len(stage)] == stage
        assert events[len(stage):] == ["evaluate"] * search.descent.evaluations
        assert [s.name for s in search.starts] == list(START_NAMES[:tried])
        if recoveries:
            (args, rng), (want_args, want_rng) = recoveries[0], recovery_record(name)
            assert [a.tobytes() for a in args] == [a.tobytes() for a in want_args]
            assert rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("workload,name", [("certify-random", "swap"),
                                               ("certify-random", "perturb"),
                                               ("diagnose-pochhammer", "gap"),
                                               ("diagnose-pochhammer", "swap")])
    def test_stage_that_stops_early_builds_no_recovery(self, workload, name, monkeypatch):
        # the recovery start is never reached; neither are the whitened stacks
        # where the identity start ends the stage
        recoveries, whitened = [], []
        recover, build = eq._recover_congruence_unitary, eq._Setup.__dict__["whitened"].func
        monkeypatch.setattr(eq, "_recover_congruence_unitary",
                            lambda *args: recoveries.append(args) or recover(*args))
        monkeypatch.setattr(eq._Setup, "whitened",
                            property(lambda setup: whitened.append(setup) or build(setup)))
        if workload == "diagnose-pochhammer":
            diag = eq.growth_diagnostic(*diagnose_pochhammer_pair(name), [16, 32, 64, 128],
                                        seed=1)
            assert set(diag.exits) == {"bottomed out" if name == "swap" else "proven optimal"}
        else:
            ms, mt, seed = certify_random_pair(name)
            eq.optimize_C(ms, mt, seed=seed)
        assert recoveries == []
        if name != "swap":
            assert whitened == []

    @pytest.mark.parametrize("name,top", [("swap", None), ("perturb", None), ("gap", 16),
                                          ("gap", 128), ("swap", 16), ("swap", 128)])
    def test_early_exit_is_within_its_tolerance_of_every_start(self, name, top):
        # the certify-random pairs, then the diagnose-pochhammer pairs at two degrees
        if top is None:
            ms, mt, seed = certify_random_pair(name)
        else:
            (ms, mt), seed = diagnose_pochhammer_pair(name, top), 1
        cert = eq.optimize_C(ms, mt, seed=seed)
        search, values = cert.search, every_start_value(ms, mt, seed)
        assert len(search.starts) < len(values)
        assert [s.value for s in search.starts] == values[:len(search.starts)]
        if search.descent.exit == "bottomed out":
            tolerance = eq.BOTTOM_VALUE
        else:
            assert search.descent.exit == "proven optimal"
            tolerance = eq.PROVEN_RTOL * max(1.0, cert.log_ratio)
        assert cert.log_ratio <= min(values) + tolerance


def level_zero_bound(ms, mt):
    setup = eq._Setup(ms, mt)
    return setup.objective(len(ms.truncation())).bound(setup.gaps)


def per_row_level_zero_bound(ms, mt):
    """The level-zero bound from every lattice row, by the pencil eigenvalues
    of each (G_beta, G_0) and (G~_beta, G~_0): the reference for the bound
    computed from the class rows."""
    zero = (0,) * ms.d
    gaps = []
    for beta in ms.truncation():
        src = helpers.pencil_logeigs(ms.gram(beta), ms.gram(zero))
        tgt = helpers.pencil_logeigs(mt.gram(beta), mt.gram(zero))
        gaps += [abs(tgt[-1] - src[-1]), abs(tgt[0] - src[0])]
    return max(gaps)


def perturbed_pochhammer_pair(seed):
    """Pochhammer (1,2) against a copy whose coefficients up to degree 2 are
    replaced by seeded random ones, each a class of its own."""
    base = kg.pochhammer_kernel(kg.PochhammerPair(1, 2), 2, 12)
    alphas = base.truncation().array[:simplex_size(2, 2)]  # |alpha| <= 2
    other, _ = kg.perturb_kernel(base, alphas,
                                 *sampling.random_pd_stack(len(alphas), 2, [82, seed]))
    return kg.kernel_moments(base), kg.kernel_moments(other)


# Mutations of _Setup.gaps and _Objective.bound these tests kill: a bound without
# the absolute value fails on the Pochhammer gap pairs and the perturb pair,
# whose bound-attaining gaps are negative; a bound that pairs lambda_max of
# one family with lambda_min of the other fails the per-row reference and
# exceeds the verified log ratio.
class TestLevelZeroBound:
    @pytest.mark.parametrize("name", sorted(CENTRAL_DIFFERENCE_LOG_RATIOS))
    def test_at_most_the_verified_log_ratio(self, name):
        ms, mt, seed = certify_random_pair(name)
        cert = eq.optimize_C(ms, mt, seed=seed)
        assert eq.verify_certificate(ms, mt, cert).passes
        bound = level_zero_bound(ms, mt)
        assert bound <= cert.log_ratio + 1e-12
        assert cert.search.bound in (None, bound)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(d=st.integers(1, 2), top=st.integers(1, 3), n=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_at_most_the_verified_log_ratio_on_drawn_pairs(self, d, top, n, seed):
        rng = np.random.default_rng(seed)
        ms = sampling.random_moment_system(d, top, n, rng)
        mt = sampling.random_moment_system(d, top, n, rng)
        cert = eq.optimize_C(ms, mt, seed=0)
        assert eq.verify_certificate(ms, mt, cert).passes
        assert level_zero_bound(ms, mt) <= cert.log_ratio + 1e-12

    @pytest.mark.parametrize("top", [16, 32, 64, 128])
    def test_proves_the_pochhammer_gap_certificates(self, top):
        ms, mt = pochhammer_moments(1, 2, top=top), pochhammer_moments(1, 3, top=top)
        cert = eq.optimize_C(ms, mt, seed=0)
        assert cert.search.descent == eq.SearchStage("proven optimal", 0, 0)
        assert abs(cert.log_ratio - cert.search.bound) <= 1e-12
        assert cert.search.bound == level_zero_bound(ms, mt)

    def test_proves_the_perturbed_certificate(self):
        ms, mt, seed = certify_random_pair("perturb")
        cert = eq.optimize_C(ms, mt, seed=seed)
        assert cert.search.descent.exit == "proven optimal"
        assert abs(cert.log_ratio - cert.search.bound) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_class_rows_match_the_per_row_reference(self, seed):
        ms, mt = perturbed_pochhammer_pair(seed)
        assert len(helpers.objective(ms, mt).rows) < len(ms.truncation())
        bound = level_zero_bound(ms, mt)
        assert abs(bound - per_row_level_zero_bound(ms, mt)) <= 1e-12 * max(1.0, bound)
        flat = level_zero_bound(helpers.identity_classes(ms), helpers.identity_classes(mt))
        assert abs(bound - flat) <= 1e-13 * max(1.0, bound)
        cert = eq.optimize_C(ms, mt, seed=seed)
        assert bound <= cert.log_ratio + 1e-12


def cholesky_pencil_eig(a_mats, b_mats):
    """Reference eigenpairs of the stacked pencils A x = lambda B x, by
    Cholesky and whitening: x = L^{-*} y for the eigenvectors y of
    L^{-1} A L^{-*}, with B = L L*. Eigenvalues ascending."""
    low = helpers.cholesky_batch(b_mats)
    eigs, y = herm_eig_batch(helpers.whiten_batch(low, a_mats))
    low_inv = helpers.solve_lower_batch(low, np.broadcast_to(np.eye(low.shape[1]), low.shape))
    return eigs, low_inv.conj().swapaxes(1, 2) @ y


def factored_kernel_pair(case):
    """One search's objective and (mats, logs, tmats, tlogs) at its rows."""
    if case == "pochhammer128":
        ms, mt = pochhammer_moments(1, 2, top=128), pochhammer_moments(1, 3, top=128)
    else:
        kind, n = case.split("-")
        rng = np.random.default_rng([79, int(n)])
        span = 300.0 if kind == "spread" else 1.0
        ms, mt = (sampling.random_moment_system(2, 3, int(n), rng, logscale_span=span)
                  for _ in range(2))
    objective = helpers.objective(ms, mt)
    rows = objective.rows
    assert len(rows) == (129 if case == "pochhammer128" else len(ms.truncation()))
    return objective, ms.mats[rows], ms.logs[rows], mt.mats[rows], mt.logs[rows]


def diagonal_pencil_logrange(mats, tmats, c):
    """Log extremes of the pencils (A, C* G C) for diagonal 2x2 stacks G, A,
    from the roots of det(A - lambda B) in extended precision: the stable
    quadratic formula on exact products of the double inputs."""
    ld = np.longdouble
    g = np.diagonal(mats, axis1=1, axis2=2).real.astype(ld)
    a = np.diagonal(tmats, axis1=1, axis2=2).real.astype(ld)
    re, im = c.real.astype(ld), c.imag.astype(ld)
    b00 = g @ (re[:, 0] ** 2 + im[:, 0] ** 2)
    b11 = g @ (re[:, 1] ** 2 + im[:, 1] ** 2)
    b01_re = g @ (re[:, 0] * re[:, 1] + im[:, 0] * im[:, 1])
    b01_im = g @ (re[:, 0] * im[:, 1] - im[:, 0] * re[:, 1])
    quad = b00 * b11 - b01_re ** 2 - b01_im ** 2
    lin = a[:, 0] * b11 + a[:, 1] * b00
    const = a[:, 0] * a[:, 1]
    q = (lin + np.sqrt(lin * lin - 4 * quad * const)) / 2
    return (np.log(const / q).astype(np.float64),
            np.log(q / quad).astype(np.float64))


FACTORED_CASES = ["random-1", "random-2", "random-3", "random-6", "spread-2", "pochhammer128"]


class TestFactoredObjective:
    """The pencil kernel, K = F C H from the eigenpairs of both stacks, against
    the Cholesky/whitening reference path (tests/helpers.py)."""

    @pytest.mark.parametrize("case", FACTORED_CASES)
    def test_log_ranges_match_the_cholesky_path(self, case):
        objective, mats, logs, tmats, tlogs = factored_kernel_pair(case)
        n = mats.shape[1]
        if case.startswith("spread"):
            assert np.ptp(tlogs - logs) >= 300.0
        cs = [np.eye(n)] + random_cs(n, 4, [80, n])
        if case == "pochhammer128":
            # the Grams are diagonal with condition up to 8,400, and the
            # Cholesky path loses up to 2.3e-10 nats at a general C (see
            # test_pochhammer_rows_match_extended_precision); it is exact at
            # diagonal and anti-diagonal C
            cs = [np.eye(n), SWAP, np.diag([2.0, 0.5j])]
        for c in cs:
            ev = objective(c)
            lo, hi = helpers.cholesky_pencil_logrange(tmats, tlogs,
                                                      eq._congruence_stack(mats, c), logs)
            assert np.abs(ev.lo - lo).max() <= 1e-12
            assert np.abs(ev.hi - hi).max() <= 1e-12
            assert ev.value == float(ev.hi.max()) - float(ev.lo.min())

    @pytest.mark.parametrize("case", FACTORED_CASES)
    def test_eigenpairs_match_the_cholesky_eigenpairs(self, case):
        objective, mats, logs, tmats, tlogs = factored_kernel_pair(case)
        n = mats.shape[1]
        c = random_cs(n, 1, [81, n])[0]
        loge_k, x_k, u_k = helpers.pencil_eigenpairs(objective, objective(c))
        eigs, x = cholesky_pencil_eig(tmats, eq._congruence_stack(mats, c))
        loge = np.log(eigs)
        if case == "pochhammer128":  # where the Cholesky path loses digits
            loge = np.stack(diagonal_pencil_logrange(mats, tmats, c), axis=1)
        for off in (objective.lo_off, objective.hi_off):
            assert np.abs(off[:, None] + loge_k - loge - (tlogs - logs)[:, None]).max() <= 1e-12
        # u x* per column is free of the eigenvectors' phases
        got = np.einsum("rik,rjk->rkij", u_k, x_k.conj())
        want = np.einsum("rik,rjk->rkij", mats @ c @ x, x.conj())
        scale = np.linalg.norm(want, axis=(2, 3), keepdims=True)
        assert (np.linalg.norm(got - want, axis=(2, 3), keepdims=True) / scale).max() <= 1e-9
        # x is B-orthonormal
        gram = x.conj().swapaxes(1, 2) @ eq._congruence_stack(mats, c) @ x
        assert np.abs(gram - np.eye(n)).max() <= 1e-9

    def test_pochhammer_rows_match_extended_precision(self):
        objective, mats, logs, tmats, tlogs = factored_kernel_pair("pochhammer128")
        for c in random_cs(2, 4, [80, 2]):
            ev = objective(c)
            lo, hi = diagonal_pencil_logrange(mats, tmats, c)
            assert np.abs(ev.lo - (lo + tlogs - logs)).max() <= 1e-13
            assert np.abs(ev.hi - (hi + tlogs - logs)).max() <= 1e-13

    @pytest.mark.parametrize("c", [np.diag([1.0, 0.0]), np.zeros((2, 2)), np.ones((2, 2))],
                             ids=["diagonal", "zero", "rank-one"])
    def test_singular_c_is_infinite(self, c):
        objective = factored_kernel_pair("random-2")[0]
        assert objective(c.astype(np.complex128)).value == math.inf
        assert objective.evaluations == 1 and objective.best.value == math.inf

    @pytest.mark.parametrize("side", [0, 1])
    def test_certificate_where_the_cholesky_path_fails(self, side):
        # seeds whose near-singular Gram makes the Cholesky path raise at the
        # identity: the certificate still has the factored kernel's constants
        for seed in range(20):
            ms, mt = helpers.near_singular_pair(side, (0, 0), seed)
            c = np.eye(2, dtype=np.complex128)
            try:
                log_range(ms, mt, c)
            except LinAlgError:
                break
        else:
            pytest.fail("no seed makes the Cholesky path fail")
        ev = helpers.objective(ms, mt)(c)
        cert = eq.sandwich_certificate(ms, mt, c)
        assert (cert.log_m1, cert.log_m2) == (ev.lo.min(), ev.hi.max())


def level_zero_case(case):
    """A pair for the level-zero root tests."""
    rng = np.random.default_rng([83, len(case)])
    if case.startswith("random"):
        n = int(case[-1])
        return tuple(sampling.random_moment_system(2, 2, n, rng) for _ in range(2))
    if case == "pochhammer":
        return pochhammer_moments(1, 2, 3, 6), pochhammer_moments(0.5, 4, 3, 6)
    if case == "near-singular":
        return helpers.near_singular_pair(1, (0, 0), 3)
    # level-zero logscales far apart
    ms = sampling.random_moment_system(2, 2, 3, rng)
    return ms, helpers.scaled_system(sampling.random_moment_system(2, 2, 3, rng), 600.0)


LEVEL_ZERO_CASES = ["random-2", "random-5", "pochhammer", "near-singular", "spread"]


class TestLevelZeroRoots:
    @pytest.mark.parametrize("case", LEVEL_ZERO_CASES)
    def test_roots_equal_the_one_matrix_passes(self, case):
        ms, mt = level_zero_case(case)
        zero = (0,) * ms.d
        wants = (inv_sqrt_pd(ms.gram(zero)), sqrt_pd(mt.gram(zero)), inv_sqrt_pd(mt.gram(zero)))
        roots = eq.level_zero_roots(ms, mt)
        assert len(roots) == 3
        for got, want in zip(roots, wants):
            assert got.matrix.tobytes() == want.matrix.tobytes()
            assert got.logscale == want.logscale

    @pytest.mark.parametrize("case", LEVEL_ZERO_CASES)
    def test_shift_pair_roots_equal_the_search_roots(self, case):
        # the oracle's certificate reads row 0 of the shift pair's root pass
        ms, mt = level_zero_case(case)
        shifts = eq.shift_pair(ms, mt)
        for got, want in zip((shifts.left, shifts.right), eq.level_zero_roots(ms, mt)[:2]):
            assert got.matrix.tobytes() == want.matrix.tobytes()
            assert got.logscale == want.logscale

    @pytest.mark.parametrize("case", LEVEL_ZERO_CASES)
    def test_one_evaluation_builds_no_roots(self, case, monkeypatch):
        # only the search's starts and bound read the roots and whitened stacks
        ms, mt = level_zero_case(case)
        calls, roots = [], eq.level_zero_roots
        monkeypatch.setattr(eq, "level_zero_roots", lambda *pair: calls.append(1) or roots(*pair))
        eq.sandwich_certificate(ms, mt, np.eye(ms.fiber_dim))
        eq.sandwich_ratio(ms, mt, np.eye(ms.fiber_dim))
        assert calls == []
        eq.optimize_C(ms, mt, seed=0)
        assert calls == [1]


class TestGrowthDiagnostic:
    def test_swapped_pair_similar(self):
        diag = eq.growth_diagnostic(
            *pochhammer_pair_generator(1, 2, 2, 1)(32), [8, 16, 24, 32], seed=0
        )
        assert diag.verdict == eq.VERDICT_SIMILAR
        assert abs(diag.slope) <= 0.05
        assert max(diag.log_ratios) <= 1e-6
        assert diag.starts == ("alignment",) * 4 and diag.exits == ("bottomed out",) * 4

    def test_distinct_pair_not_similar(self):
        diag = eq.growth_diagnostic(
            *pochhammer_pair_generator(1, 2, 1, 3)(32), [8, 16, 24, 32], seed=0
        )
        assert diag.verdict == eq.VERDICT_NOT_SIMILAR
        assert 0.8 <= diag.slope <= 1.2
        assert diag.r_squared >= 0.9

    def test_identical_pair(self):
        diag = eq.growth_diagnostic(
            *pochhammer_pair_generator(1, 2, 1, 2)(10), [4, 6, 8, 10], seed=0
        )
        assert diag.verdict == eq.VERDICT_SIMILAR
        assert abs(diag.slope) <= 1e-6
        assert max(diag.log_ratios) <= 1e-10

    def test_requires_four_ascending_degrees(self):
        gen = pochhammer_pair_generator(1, 2, 2, 1)
        with pytest.raises(ValueError):
            eq.growth_diagnostic(*gen(24), [8, 16, 24], seed=0)
        with pytest.raises(ValueError):
            eq.growth_diagnostic(*gen(24), [8, 16, 16, 24], seed=0)

    def test_requires_the_pair_to_reach_the_top_degree(self):
        # a lower-N pair is not cut short: its degrees past N would search the whole pair
        ms, mt = pochhammer_pair_generator(1, 2, 1, 3)(10)
        with pytest.raises(ValueError, match="top degree 12 exceeds the pair's N=10"):
            eq.growth_diagnostic(ms, mt, [4, 6, 8, 12], seed=0)
        # a pair past the top degree is searched on its prefixes
        low = eq.growth_diagnostic(*pochhammer_pair_generator(1, 2, 1, 3)(8), [4, 5, 6, 8])
        assert eq.growth_diagnostic(ms, mt, [4, 5, 6, 8]) == low

    def test_threaded_matches_serial(self):
        pair = pochhammer_pair_generator(1, 2, 1, 3)(12)
        serial = eq.growth_diagnostic(*pair, [6, 8, 10, 12], seed=0, threads=1)
        threaded = eq.growth_diagnostic(*pair, [6, 8, 10, 12], seed=0, threads=4)
        assert serial.log_ratios == threaded.log_ratios
        assert serial.slope == threaded.slope


def degree_class_pair(kind, d, top, rng_top=None):
    """A moment pair whose families carry degree classes, fibre 2. Its random
    draws are made for degree rng_top (default top), so the pairs of one
    rng_top are truncations of one pair."""
    draws = (top if rng_top is None else rng_top) + 1
    rng = np.random.default_rng([d, draws - 1, len(kind)])

    def homogeneous():
        mats, logs = sampling.random_pd_stack(draws, 2, rng)
        return kg.homogeneous_kernel(mats[:top + 1], logs[:top + 1], d)

    poch = kg.pochhammer_kernel(kg.PochhammerPair(1, 2), d, top)
    if kind == "pochhammer/pochhammer":
        pair = (poch, kg.pochhammer_kernel(kg.PochhammerPair(1, 3), d, top))
    elif kind == "homogeneous/homogeneous":
        pair = (homogeneous(), homogeneous())
    elif kind == "pochhammer/homogeneous":
        pair = (poch, homogeneous())
    else:  # perturbed/pochhammer
        alphas = poch.truncation().array[:simplex_size(d, 2)]  # |alpha| <= 2
        pair = (kg.perturb_kernel(poch, alphas,
                                  *sampling.random_pd_stack(len(alphas), 2, rng))[0], poch)
    return kg.kernel_moments(pair[0]), kg.kernel_moments(pair[1])


def full_lattice_objective(ms, mt):
    """The objective of the same pair rebuilt with identity class maps."""
    return helpers.objective(helpers.identity_classes(ms), helpers.identity_classes(mt))


def objective_gap(reduced, full, cs):
    """max over cs of the gaps between two objectives' lo.min() and hi.max()."""
    gaps = []
    for c in cs:
        r, f = reduced(c), full(c)
        gaps += [abs(r.lo.min() - f.lo.min()), abs(r.hi.max() - f.hi.max())]
    return max(gaps)


def random_cs(n, count, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(count)]


PAIR_KINDS = ["pochhammer/pochhammer", "homogeneous/homogeneous",
              "pochhammer/homogeneous", "perturbed/pochhammer"]


class TestDegreeClasses:
    @pytest.mark.parametrize("d,top", [(2, 10), (3, 6)])
    @pytest.mark.parametrize("kind", PAIR_KINDS)
    def test_reduced_objective_equals_full_lattice(self, kind, d, top):
        ms, mt = degree_class_pair(kind, d, top)
        reduced = helpers.objective(ms, mt)
        # perturbed: every index of degree <= 2 is a class of its own
        extra = simplex_size(d, 2) - 3 if kind.startswith("perturbed") else 0
        assert len(reduced.rows) == top + 1 + extra < simplex_size(d, top)
        # bit for bit: the rows of a joint class share both matrices
        assert objective_gap(reduced, full_lattice_objective(ms, mt), random_cs(2, 8, d)) == 0.0

    def test_merged_degrees_fail_the_equality(self, monkeypatch):
        # mutation check: a map that folds the degree holding the objective's
        # extreme into the degree below it drops that degree's pencil
        ms, mt = degree_class_pair("homogeneous/homogeneous", 2, 10)
        cs = random_cs(2, 8, 2)
        full = full_lattice_objective(ms, mt)
        lo, hi, _ = full.log_ranges(cs[0])
        extreme = [int(ms.classes[np.argmax(hi)]), int(ms.classes[np.argmin(lo)])]
        drop = max(extreme)
        assert drop > 0
        merged = np.where(ms.classes == drop, drop - 1, ms.classes)
        joint_classes = eq._joint_classes
        monkeypatch.setattr(eq, "_joint_classes", lambda a, b: joint_classes(merged, merged))
        assert objective_gap(helpers.objective(ms, mt), full, cs) > 1e-12

    @pytest.mark.parametrize("name", ["random0", "random4", "swap", "perturb"])
    def test_reduced_search_matches_full_lattice_search(self, name):
        ms, mt, seed = certify_random_pair(name)
        reduced = eq.optimize_C(ms, mt, seed=seed)
        full = eq.optimize_C(helpers.identity_classes(ms), helpers.identity_classes(mt),
                             seed=seed)
        if name.startswith("random"):
            # explicit pairs carry the identity map: the reduction changes no bit
            assert reduced.search.classes == len(ms.truncation())
            assert reduced.C.tobytes() == full.C.tobytes()
            assert (reduced.log_m1, reduced.log_m2) == (full.log_m1, full.log_m2)
        else:
            # perturb replaces only the zero index, already a class of its own
            assert reduced.search.classes == ms.N + 1
            assert abs(reduced.log_ratio - full.log_ratio) <= 1e-12

    def test_growth_table_counts_classes_and_residuals(self):
        degrees = [6, 8, 10, 12]
        diag = eq.growth_diagnostic(*pochhammer_pair_generator(1, 2, 1, 3)(12), degrees, seed=0)
        assert diag.classes == tuple(x + 1 for x in degrees)
        fit = diag.intercept + diag.slope * np.log(np.array(degrees, dtype=np.float64))
        assert np.allclose(diag.residuals, np.array(diag.log_ratios) - fit, rtol=0, atol=1e-15)
        assert abs(sum(diag.residuals)) <= 1e-12
        assert diag.starts == ("identity",) * 4 and diag.exits == ("proven optimal",) * 4

    @pytest.mark.parametrize("kind", PAIR_KINDS)
    @pytest.mark.parametrize("d,degrees", [(1, [4, 9, 16, 30]), (2, [3, 6, 8, 12]),
                                           (3, [2, 3, 5, 6])])
    def test_growth_equals_the_per_degree_reference(self, kind, d, degrees):
        # perturbed pairs replace degrees <= 2 only, inside every truncation
        def gen(top):
            return degree_class_pair(kind, d, top, rng_top=degrees[-1])

        got = eq.growth_diagnostic(*gen(degrees[-1]), degrees, seed=3)
        assert got == helpers.per_degree_growth_diagnostic(gen, degrees, seed=3)


def class_spanning_pair(d, top):
    """A from_arrays pair whose joint classes span degrees: a row of degree g
    is in class g // 2 of the source and g // 3 of the target, so degrees g
    and g + 1 share a joint class when g is even and g % 3 < 2. The offsets
    rise with the degree, so a truncation at such a g ends in a class whose
    largest offset is smaller than at the top degree."""
    rng = np.random.default_rng([85, d, top])
    deg = _truncation(d, top).array.sum(axis=1)

    def family(step, logs):
        classes = deg // step
        mats = np.stack([sampling.random_pd(2, rng).matrix for _ in range(classes.max() + 1)])
        return sc.MomentSystem.from_arrays(d, top, 2, mats, logs, classes)

    return (family(2, rng.uniform(-0.1, 0.1, len(deg))),
            family(3, 0.3 * deg + rng.uniform(-0.1, 0.1, len(deg))))


def shared_setup_cases(kind, d, degrees):
    """The moment pair of a kind at the top of degrees."""
    if kind == "spanning":
        return class_spanning_pair(d, degrees[-1])
    return degree_class_pair(kind, d, degrees[-1])


SPANNING_DEGREES = [4, 6, 10, 12]  # each ends inside a joint class


class TestSharedSearchSetup:
    """growth_diagnostic builds one _Setup at the top degree, and each degree's
    search reads prefixes of it."""

    @pytest.mark.parametrize("kind", PAIR_KINDS + ["spanning"])
    @pytest.mark.parametrize("d,degrees", [(1, [4, 9, 16, 30]), (2, [3, 6, 8, 12]),
                                           (3, [2, 3, 5, 6])])
    def test_each_degree_equals_a_fresh_search(self, kind, d, degrees):
        if kind == "spanning":
            degrees = SPANNING_DEGREES
        ms, mt = shared_setup_cases(kind, d, degrees)
        setup = eq._Setup(ms, mt)
        # top degree first: a search that left state in the setup would show
        for top in reversed(degrees):
            part, tpart = helpers.truncated(ms, top), helpers.truncated(mt, top)
            m = simplex_size(d, top)
            got, fresh = setup.objective(m), helpers.objective(part, tpart)
            for name in ("rows", "f", "h", "lo_off", "hi_off"):
                assert getattr(got, name).tobytes() == getattr(fresh, name).tobytes()
            cert = eq._search(setup, m, 3)
            want = eq.optimize_C(part, tpart, seed=3)
            assert cert.C.tobytes() == want.C.tobytes()
            assert (cert.log_m1, cert.log_m2) == (want.log_m1, want.log_m2)
            assert cert.search == want.search

    def test_spanning_classes_change_their_offsets(self):
        # the case the per-degree offsets are for: the top degree's would be wrong
        ms, mt = class_spanning_pair(2, SPANNING_DEGREES[-1])
        setup = eq._Setup(ms, mt)
        top = setup.objective(len(ms.truncation()))
        for degree in SPANNING_DEGREES[:-1]:
            part = setup.objective(simplex_size(2, degree))
            assert part.hi_off[-1] < top.hi_off[len(part.rows) - 1]

    def test_threads_share_one_setup(self):
        # eight threads search sixteen degrees on one _Setup, whose roots, whitened
        # stacks and gaps the first threads that need them make; every degree's
        # result is the serial one
        pair = pochhammer_pair_generator(1, 2, 1, 3)(19)
        degrees = list(range(4, 20))
        serial = eq.growth_diagnostic(*pair, degrees, seed=0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = eq.growth_diagnostic(*pair, degrees, seed=0, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    @pytest.mark.parametrize("kind", ["pochhammer", "homogeneous", "perturbed"])
    def test_no_family_gathers_its_rows(self, kind):
        families = []

        def gen(top):
            whole, _ = truncation_cases(kind, 2, top, top)
            other = kg.pochhammer_kernel(kg.PochhammerPair(1.0, 3.0), 2, top)
            pair = kg.kernel_moments(whole), kg.kernel_moments(other)
            families.extend([whole, other, *pair])
            return pair

        eq.growth_diagnostic(*gen(10), [4, 6, 8, 10], seed=0)
        assert len(families) == 4
        for family in families:
            assert "mats" not in vars(family)
            low = helpers.truncated(family, 6)
            assert "mats" not in vars(low)
            for part in (low, family, helpers.truncated(family, 6)):  # before and after a read
                assert part.mats.tobytes() == part.class_mats[part.classes].tobytes()
                assert not part.mats.flags.writeable
                assert part.mats is part.mats  # gathered once


def kronecker_rows(ms, mt):
    """Reference: the rows A_alpha = (w M_alpha (x) I - w~ I (x) M~_alpha^T) /
    ||w M_alpha||_F, w and w~ the balanced weights, stacked one by one."""
    n = ms.fiber_dim
    eye = np.eye(n)
    rows = []
    for mat, tmat, log, tlog in zip(ms.mats, mt.mats, ms.logs, mt.logs):
        top = max(log, tlog)
        w, wt = math.exp(log - top), math.exp(tlog - top)
        rows.append((w * np.kron(mat, eye) - wt * np.kron(eye, tmat.T))
                    / np.linalg.norm(w * mat))
    return np.vstack(rows)


def block_bound(ms, mt, tol, seed=0):
    """Reference for residual_bound, step by step as the README derives it:
    the seeded unit combination's eigenframes, clusters chained at gaps up
    to sqrt(m) tol + eta, and the Kronecker rows in W = Q* V Q~ coordinates
    restricted to the blocks."""
    n, m = ms.fiber_dim, len(ms.mats)
    x, y = eq._balanced_rows(ms.mats, ms.logs, mt.mats, mt.logs)
    t = np.random.default_rng(seed).standard_normal(m)
    (lam, q), (tlam, qt) = (np.linalg.eigh(np.tensordot(t / np.linalg.norm(t), z, 1))
                            for z in (x, y))
    eps = np.finfo(np.float64).eps
    eta = 4.0 * n * eps * math.sqrt(n) * (np.abs(lam).max() + np.abs(tlam).max())
    values = sorted([(v, side, i) for side, spectrum in enumerate((lam, tlam))
                     for i, v in enumerate(spectrum)])
    cluster, label = {}, 0
    for k, (v, side, i) in enumerate(values):
        label += k > 0 and v - values[k - 1][0] > math.sqrt(m) * tol + eta
        cluster[side, i] = label
    pairs = [(i, j) for i in range(n) for j in range(n) if cluster[0, i] == cluster[1, j]]
    off_pairs = [abs(lam[i] - tlam[j]) for i in range(n) for j in range(n)
                 if cluster[0, i] != cluster[1, j]]
    gap = min(off_pairs, default=math.inf)
    touched = min(len({i for i, _ in pairs}), len({j for _, j in pairs}))
    rows = (kronecker_rows(ms, mt) @ np.kron(q, qt.conj()))[:, [i * n + j for i, j in pairs]]
    least = np.linalg.svd(rows, compute_uv=False)[-1] ** 2 if pairs else 0.0
    mu = max(least - 8.0 * n * n * eps * m, 0.0)
    root_k = np.linalg.norm(np.linalg.norm(x, axis=(1, 2)) + np.linalg.norm(y, axis=(1, 2)))
    on = math.sqrt(mu * n) / math.hypot(1.0 + root_k / gap, math.sqrt(mu) / gap)
    off = gap * math.sqrt(n - touched) if touched < n else 0.0
    return max(max(on, off) - eta, 0.0) / math.sqrt(m)


def congruence_residual(ms, mt, v):
    """Reference: max_alpha ||G~_alpha - V* G_alpha V||_F / ||G_alpha||_F on
    the represented Grams."""
    worst = 0.0
    for alpha in ms.truncation():
        g, gt = ms.gram(alpha), mt.gram(alpha)
        g, gt = math.exp(g.logscale) * g.matrix, math.exp(gt.logscale) * gt.matrix
        worst = max(worst, np.linalg.norm(gt - v.conj().T @ g @ v) / np.linalg.norm(g))
    return worst


def block_sum(first, second):
    """The family alpha -> G_alpha + G'_alpha, block diagonal, of two
    families of one shape."""
    n, k = first.fiber_dim, second.fiber_dim
    mats = np.zeros((len(first.mats), n + k, n + k), dtype=np.complex128)
    top = np.maximum(first.logs, second.logs)
    mats[:, :n, :n] = np.exp(first.logs - top)[:, None, None] * first.mats
    mats[:, n:, n:] = np.exp(second.logs - top)[:, None, None] * second.mats
    mats, logs = hermpd_batch(mats, top)
    return sc.MomentSystem.from_arrays(first.d, first.N, n + k, mats, logs)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(d=st.sampled_from([1, 2]), top=st.integers(0, 5), n=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_unitary_decision_on_drawn_pairs(d, top, n, seed):
    rng = np.random.default_rng(seed)
    ms = sampling.random_moment_system(d, top, n, rng)
    mt = sampling.congruent_pair(ms, sampling.random_unitary(n, rng))
    result = eq.test_unitary_equivalence(ms, mt, 1e-8, seed=seed)
    assert result.equivalent and result.residual <= 1e-12
    if n == 1 or simplex_size(d, top) < 3:
        return  # one moved index, or scalars: a per-index control is a twin
    base = helpers.normalized_to_identity(ms)
    control = eq.test_unitary_equivalence(base, helpers.per_index_unitary(base, rng), 1e-8)
    assert not control.equivalent and control.residual_bound > 1e-8


class TestUnitaryEquivalence:
    def test_identical_systems(self):
        ms = sampling.random_moment_system(2, 3, 2, 20)
        result = eq.test_unitary_equivalence(ms, ms, 1e-8)
        assert result.equivalent
        assert np.allclose(result.V, np.eye(2), atol=1e-6)

    def test_scaled_system_witness_at_zero(self):
        ms = sampling.random_moment_system(2, 3, 2, 21)
        result = eq.test_unitary_equivalence(
            ms, helpers.scaled_system(ms, math.log(2.0)), 1e-8
        )
        assert not result.equivalent
        assert result.witness == (0, 0) and result.witness_invariant == "spectrum"

    @pytest.mark.parametrize("seed", range(5))
    def test_construct_then_recover(self, seed):
        rng = np.random.default_rng(1000 + seed)
        ms = sampling.random_moment_system(2, 4, 3, rng)
        v0 = sampling.random_unitary(3, rng)
        mt = sampling.congruent_pair(ms, v0)
        result = eq.test_unitary_equivalence(ms, mt, 1e-8)
        assert result.equivalent
        assert result.residual <= 1e-8
        v = result.V
        assert frob_norm(v.conj().T @ v - np.eye(3)) <= 1e-10

    @pytest.mark.parametrize("shape", [(28, 2), (36, 4), (66, 4), (496, 2), (28, 24)])
    def test_polish_operator_matches_the_coupling_sum(self, shape):
        m, n = shape
        rng = np.random.default_rng([71, m, n])
        w = rng.uniform(0.5, 1.5, size=m)
        mats = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
        tmats = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
        v = sampling.random_unitary(n, rng)
        expected = np.einsum("a,aik,kl,alj->ij", w, mats, v, tmats, optimize=True)
        got = (eq._polish_operator(w, mats, tmats) @ v.ravel()).reshape(n, n)
        assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)

    @pytest.mark.parametrize("shape", [(1, 3, 2), (2, 4, 3), (2, 6, 4), (1, 0, 3)])
    def test_intertwiner_gram_matches_the_kronecker_rows(self, shape):
        d, top, n = shape
        rng = np.random.default_rng([72, *shape])
        ms = sampling.random_moment_system(d, top, n, rng)
        mt = sampling.random_moment_system(d, top, n, rng)
        x, y = eq._balanced_rows(ms.mats, ms.logs, mt.mats, mt.logs)
        rows = kronecker_rows(ms, mt)
        every = np.divmod(np.arange(n * n), n)
        got = eq._intertwiner_gram(x, y, *every)
        assert np.linalg.norm(got - rows.conj().T @ rows) <= 1e-14 * np.linalg.norm(got)
        # on some of the coordinates, it is the principal submatrix on them
        keep = np.sort(rng.choice(n * n, size=n + 1, replace=False))
        part = eq._intertwiner_gram(x, y, every[0][keep], every[1][keep])
        assert np.linalg.norm(part - got[np.ix_(keep, keep)]) <= 1e-14 * np.linalg.norm(got)
        # for unitary V the rows give V's residuals, so L sums their squares
        v = sampling.random_unitary(n, rng)
        residuals = np.linalg.norm((rows @ v.ravel()).reshape(-1, n * n), axis=1)
        assert residuals.max() == pytest.approx(congruence_residual(ms, mt, v), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_identity_level_zero_controls_get_a_proven_no(self, n):
        # G_0 = I makes tr(G_0 G_beta) = tr G_beta, so both invariants match
        rng = np.random.default_rng([73, n])
        ms = helpers.normalized_to_identity(sampling.random_moment_system(2, 6, n, rng))
        control = helpers.per_index_unitary(ms, rng)
        m = len(ms.mats)
        result = eq.test_unitary_equivalence(ms, control, 1e-8)
        assert not result.equivalent and result.V is None
        assert result.witness is None and result.null_dimension == 0
        assert result.residual == result.residual_bound > 1e-3
        assert "(proven NO)" in result.message
        # the seeded combinations' spectra share no cluster, so every unitary's
        # W lies off the blocks: ||W||_F = sqrt(n), at least g apart
        t = np.random.default_rng(0).standard_normal(m)
        lam, tlam = (np.linalg.eigvalsh(np.tensordot(t / np.linalg.norm(t), rows, 1))
                     for rows in eq._balanced_rows(ms.mats, ms.logs, control.mats, control.logs))
        gap = np.abs(lam[:, None] - tlam).min()
        assert result.residual_bound == pytest.approx(gap * math.sqrt(n / m), rel=1e-9)
        # at tol 0.5 one cluster holds both spectra: the bound is L's own,
        # sqrt(n lambda_min(L) / m), from the rows' least singular value
        wide = eq.test_unitary_equivalence(ms, control, 0.5)
        smallest = np.linalg.svd(kronecker_rows(ms, control), compute_uv=False)[-1]
        assert wide.residual_bound == pytest.approx(math.sqrt(n * smallest ** 2 / m), rel=1e-9)
        assert not wide.equivalent and wide.null_dimension == 0 and wide.residual_bound > 0.5
        # no unitary beats either bound, the polish's best attempt included
        tried = [sampling.random_unitary(n, rng) for _ in range(20)] + [
            eq._recover_congruence_unitary(ms.mats, ms.logs, control.mats, control.logs, rng)]
        assert min(congruence_residual(ms, control, v) for v in tried) >= wide.residual_bound

    @pytest.mark.parametrize("n,tol", [(2, 0.03), (4, 0.01), (3, 0.04), (3, 0.2), (4, 1e-8)])
    def test_bound_follows_its_derivation(self, n, tol):
        # at these tolerances some eigenvalues share a cluster and some do
        # not, so both terms of the bound and the gap g take part
        rng = np.random.default_rng([73, n])
        ms = helpers.normalized_to_identity(sampling.random_moment_system(2, 6, n, rng))
        control = helpers.per_index_unitary(ms, rng)
        result = eq.test_unitary_equivalence(ms, control, tol)
        assert result.residual_bound == pytest.approx(block_bound(ms, control, tol), rel=1e-9)
        tried = [sampling.random_unitary(n, rng) for _ in range(20)] + [
            eq._recover_congruence_unitary(ms.mats, ms.logs, control.mats, control.logs, rng)]
        assert min(congruence_residual(ms, control, v) for v in tried) >= result.residual_bound

    def test_block_control_has_only_singular_intertwiners(self):
        # G = A + B with B_0 = I against A + (B moved per index): the traces
        # and spectra match, and I + 0 intertwines, so L itself proves
        # nothing. I + 0 lies on the blocks of the combinations, but the B
        # half of every unitary lies off them, and that proves the NO
        rng = np.random.default_rng(74)
        part = sampling.random_moment_system(2, 3, 2, rng)
        other = helpers.normalized_to_identity(sampling.random_moment_system(2, 3, 2, rng))
        ms = block_sum(part, other)
        mt = block_sum(part, helpers.per_index_unitary(other, rng))
        assert np.linalg.svd(kronecker_rows(ms, mt), compute_uv=False)[-1] <= 1e-12
        result = eq.test_unitary_equivalence(ms, mt, 1e-8)
        assert not result.equivalent and result.witness is None
        assert result.null_dimension >= 1 and result.residual_bound > 1e-8
        assert result.residual == result.residual_bound and "(proven NO)" in result.message
        tried = [sampling.random_unitary(4, rng) for _ in range(20)]
        assert min(congruence_residual(ms, mt, v) for v in tried) >= result.residual_bound

    @pytest.mark.parametrize("seed", range(3))
    def test_pochhammer_twin_has_a_two_dimensional_null_space(self, seed):
        ms = pochhammer_moments(1, 2, top=16)
        rng = np.random.default_rng([75, seed])
        mt = sampling.congruent_pair(ms, sampling.random_unitary(2, rng))
        result = eq.test_unitary_equivalence(ms, mt, 1e-8, seed=seed)
        assert result.equivalent and result.residual <= 1e-12
        assert result.null_dimension == 2

    @pytest.mark.parametrize("seed", range(4))
    def test_perturbed_positive_within_tol_is_recovered(self, seed):
        # the combinations' spectra differ by about 1e-6: a V meeting tol may
        # span that, so those eigenvalues share a cluster
        rng = np.random.default_rng([77, seed])
        ms = sampling.random_moment_system(2, 4, 3, rng)
        mt = sampling.congruent_pair(ms, sampling.random_unitary(3, rng))
        noise = rng.standard_normal(mt.mats.shape) + 1j * rng.standard_normal(mt.mats.shape)
        mats, logs = hermpd_batch(mt.mats + 1e-6 * (noise + noise.conj().transpose(0, 2, 1)),
                                  mt.logs)
        mt = sc.MomentSystem.from_arrays(2, 4, 3, mats, logs)
        result = eq.test_unitary_equivalence(ms, mt, 1e-3, seed=seed)
        assert result.equivalent and 1e-8 < result.residual <= 1e-4
        assert result.residual_bound <= result.residual
        assert congruence_residual(ms, mt, result.V) == pytest.approx(result.residual, rel=1e-9)

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("split", [1e-5, 1e-7])
    def test_nearly_reducible_positive_is_recovered(self, seed, split):
        # G_alpha = U diag(a, a, b) U* + split * noise: the combinations have
        # two eigenvalues about split apart, their frames set by the noise
        rng = np.random.default_rng([78, seed])
        u = sampling.random_unitary(3, rng)
        diag = rng.uniform(0.5, 2.0, (15, 3))
        diag[:, 1] = diag[:, 0]
        noise = rng.standard_normal((15, 3, 3)) + 1j * rng.standard_normal((15, 3, 3))
        mats = u @ (diag[:, :, None] * np.eye(3)) @ u.conj().T
        mats, logs = hermpd_batch(mats + split * (noise + noise.conj().transpose(0, 2, 1)),
                                  rng.uniform(-1.0, 1.0, 15))
        ms = sc.MomentSystem.from_arrays(2, 4, 3, mats, logs)
        mt = sampling.congruent_pair(ms, sampling.random_unitary(3, rng))
        result = eq.test_unitary_equivalence(ms, mt, 1e-8, seed=seed)
        assert result.equivalent and result.residual <= 1e-12

    @pytest.mark.parametrize("n", [25, 48])
    def test_wide_fibres_are_decided(self, n):
        # a generic combination has simple spectra: n unknowns, not n^2
        rng = np.random.default_rng([76, n])
        ms = sampling.random_moment_system(2, 3, n, rng)
        mt = sampling.congruent_pair(ms, sampling.random_unitary(n, rng))
        result = eq.test_unitary_equivalence(ms, mt, 1e-8)
        assert result.equivalent and result.residual <= 1e-12
        assert result.null_dimension == 1
        control = eq.test_unitary_equivalence(ms, helpers.per_index_unitary(ms, rng), 1e-8)
        assert not control.equivalent and control.witness_invariant == "trace"

    def test_unknown_cap_comes_after_the_invariants(self):
        # a scalar family's combination is one cluster: n^2 unknowns
        ms = helpers.scalar_system(1, 1, 24)
        assert eq.test_unitary_equivalence(ms, ms, 1e-8).null_dimension == 24 * 24
        ms = helpers.scalar_system(1, 1, 25)
        with pytest.raises(eq.DimensionCapError, match="625 intertwiner unknowns exceed 576"):
            eq.test_unitary_equivalence(ms, ms, 1e-8)
        scaled = eq.test_unitary_equivalence(ms, helpers.scaled_system(ms, math.log(2.0)), 1e-8)
        assert scaled.witness_invariant == "spectrum" and not scaled.equivalent

    # the shapes of the congruence-oracle benchmark's per-index-unitary controls
    @pytest.mark.parametrize("seed", range(1, 5))
    @pytest.mark.parametrize("shape", [(2, 6, 2), (2, 8, 2), (2, 6, 3), (2, 8, 3),
                                       (2, 6, 4), (2, 7, 4)])
    def test_per_index_unitary_control_has_a_trace_witness(self, seed, shape):
        d, top, n = shape
        rng = np.random.default_rng([seed, *shape])
        ms = sampling.random_moment_system(d, top, n, rng)
        result = eq.test_unitary_equivalence(ms, helpers.per_index_unitary(ms, rng),
                                             1e-8, seed=seed)
        assert not result.equivalent
        assert result.witness_invariant == "trace" and result.null_dimension is None
        assert result.witness is not None and result.witness != (0,) * d
        assert result.residual > 1e-8
        assert result.message.startswith("level-zero traces")

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("condition", [1.0, 1e2, 1e4, 1e6])
    def test_hidden_unitary_positive_gets_no_trace_witness(self, seed, condition):
        # condition is that of G_0; the eigenvalue lists still match up to 1e6
        rng = np.random.default_rng([1100, seed])
        n = 3
        base = sampling.random_moment_system(2, 5, n, rng)
        u = sampling.random_unitary(n, rng)
        mats, logs = np.array(base.mats), np.array(base.logs)
        mats[0] = u @ np.diag(np.geomspace(1.0, 1.0 / condition, n)) @ u.conj().T
        ms = sc.MomentSystem.from_arrays(2, 5, n, mats, logs)
        mt = sampling.congruent_pair(ms, sampling.random_unitary(n, rng))
        result = eq.test_unitary_equivalence(ms, mt, 1e-8)
        assert result.witness is None and result.witness_invariant is None
        assert result.equivalent and result.null_dimension == 1
        assert result.residual_bound <= 1e-8

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("condition", [1e8, 1e10])
    def test_ill_conditioned_hidden_unitary_positive_is_recovered(self, seed, condition):
        # the smallest eigenvalue of the rotated G_0 carries a relative
        # rounding error near eps * condition, far above tol: the allowance of
        # the eigenvalue-list check widens with lambda_max / lambda_j
        rng = np.random.default_rng([1100, seed])
        n = 3
        base = sampling.random_moment_system(2, 4, n, rng)
        u = sampling.random_unitary(n, rng)
        mats, logs = np.array(base.mats), np.array(base.logs)
        mats[0] = u @ np.diag(np.geomspace(1.0, 1.0 / condition, n)) @ u.conj().T
        ms = sc.MomentSystem.from_arrays(2, 4, n, mats, logs)
        mt = sampling.congruent_pair(ms, sampling.random_unitary(n, rng))
        result = eq.test_unitary_equivalence(ms, mt, 1e-8)
        assert result.equivalent and result.residual <= 1e-12
        # the allowance is per eigenvalue: a 1e-6 rescaling still shows at
        # the well-conditioned top of the spectrum
        scaled = eq.test_unitary_equivalence(ms, helpers.scaled_system(mt, 1e-6), 1e-8)
        assert scaled.witness == (0, 0) and scaled.witness_invariant == "spectrum"

    def test_trace_gap_is_a_sum_of_differences(self):
        # logscales near +-1e308 on both sides: l_0 + l_beta would overflow
        ms = sampling.random_moment_system(2, 3, 2, 27)
        logs = np.array(ms.logs)
        logs[0], logs[1] = 1e308, -1e308
        ms = sc.MomentSystem.from_arrays(2, 3, 2, ms.mats, logs)
        control = helpers.per_index_unitary(ms, np.random.default_rng(27))
        with np.errstate(all="raise"):
            result = eq.test_unitary_equivalence(ms, control, 1e-8)
        assert result.witness_invariant == "trace"
        assert math.isfinite(result.residual)

    def test_polish_stops_on_a_rank_deficient_coupling(self):
        # the recovery start of optimize_C keeps its last unitary iterate
        mats = np.zeros((3, 2, 2), dtype=np.complex128)
        mats[:, 0, 0] = [1.0, 2.0, 3.0]
        logs = np.zeros(3)
        v = eq._recover_congruence_unitary(mats, logs, mats, logs, np.random.default_rng(0))
        assert frob_norm(v.conj().T @ v - np.eye(2)) <= 1e-12

    def test_unitary_implies_similarity(self):
        rng = np.random.default_rng(31)
        ms = sampling.random_moment_system(2, 3, 3, rng)
        mt = sampling.congruent_pair(ms, sampling.random_unitary(3, rng))
        result = eq.test_unitary_equivalence(ms, mt, 1e-8)
        assert result.equivalent
        cert = eq.SimilarityCertificate(result.V, 0.0, 0.0)
        assert eq.verify_certificate(ms, mt, cert, 1e-8).passes

    def test_independent_systems_rejected(self):
        ms = sampling.random_moment_system(2, 3, 2, 22)
        mt = sampling.random_moment_system(2, 3, 2, 23)
        result = eq.test_unitary_equivalence(ms, mt, 1e-8)
        assert not result.equivalent
        assert result.witness is not None

    def test_similar_but_not_unitarily_equivalent(self):
        ms = sampling.random_moment_system(2, 2, 2, 24)
        c0 = np.array([[1.5, 0.0], [0.3, 0.7]], dtype=np.complex128)
        mt = sampling.congruent_pair(ms, c0)
        result = eq.test_unitary_equivalence(ms, mt, 1e-8)
        assert not result.equivalent


def whitened(ms):
    """The stack and logscales of ms moved by G_0^{-1/2}, as optimize_C
    hands them to the recovery start."""
    s = inv_sqrt_pd(ms.gram((0,) * ms.d))
    return symmetrize(eq._congruence_stack(ms.mats, s.matrix)), ms.logs + 2.0 * s.logscale


def polished_with_reference(args, rng, build=eq._polish_operator):
    """(V, start, reference) for the recovery start on args = (mats, logs,
    tmats, tlogs): its V, its start before the polish (no polish steps), and
    polar_polish_reference from that start on the same operator; the
    operator comes from build, each call gets a copy of rng."""
    ops, steps = [], eq.RECOVERY_POLISH_STEPS
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eq, "_polish_operator", lambda *a: ops.append(build(*a)) or ops[-1])
        v = eq._recover_congruence_unitary(*args, copy.deepcopy(rng))
        mp.setattr(eq, "RECOVERY_POLISH_STEPS", 0)
        start = eq._recover_congruence_unitary(*args, copy.deepcopy(rng))
    return v, start, helpers.polar_polish_reference(ops[0], start, steps)


# The polish on the bare SVD against the polish through polar_unitary: the
# same V, bit for bit.
class TestRecoveryPolish:
    @pytest.mark.parametrize("name", sorted(CENTRAL_DIFFERENCE_LOG_RATIOS))
    def test_matches_polar_unitary_on_the_certify_random_pairs(self, name):
        args, rng = recovery_record(name)
        v, start, reference = polished_with_reference(args, rng)
        assert v.tobytes() == reference.tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(d=st.sampled_from([1, 2]), top=st.integers(0, 4), n=st.integers(1, 4),
           congruent=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_polar_unitary_on_drawn_pairs(self, d, top, n, congruent, seed):
        rng = np.random.default_rng(seed)
        ms = sampling.random_moment_system(d, top, n, rng)
        mt = (sampling.congruent_pair(ms, sampling.random_unitary(n, rng)) if congruent
              else sampling.random_moment_system(d, top, n, rng))
        v, _, reference = polished_with_reference(whitened(ms) + whitened(mt), rng)
        assert v.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("rank", [0, 1])
    def test_both_stop_at_a_rank_deficient_coupling(self, n, rank):
        # op vec(V) is 0 or V_00 E_00: rank deficient at the first iteration
        rng = np.random.default_rng([84, n])
        ms, mt = (sampling.random_moment_system(2, 2, n, rng) for _ in range(2))
        op = np.zeros((n * n, n * n), dtype=np.complex128)
        op[0, 0] = rank
        v, start, reference = polished_with_reference(whitened(ms) + whitened(mt), rng,
                                                      lambda *a: op)
        assert v.tobytes() == start.tobytes() == reference.tobytes()


class TestDiagonalIntertwiner:
    def test_identity_case(self):
        ms = sampling.random_moment_system(2, 3, 2, 25)
        x = helpers.diagonal_intertwiner(ms, ms, np.eye(2))
        assert np.allclose(x.matrix, np.eye(x.matrix.shape[0]), atol=1e-10)

    def test_swap_pair_blocks_unitary(self):
        ms = pochhammer_moments(1, 2, top=8)
        mt = pochhammer_moments(2, 1, top=8)
        x = helpers.diagonal_intertwiner(ms, mt, SWAP)
        for alpha in ms.truncation():
            lo, hi = singular_range(helpers.diag_block(x, alpha))
            assert lo == pytest.approx(1.0, abs=1e-10)
            assert hi == pytest.approx(1.0, abs=1e-10)

    def test_scalar_blowup_blocks(self):
        top = 8
        grams = {(k,): hermpd(np.eye(1)) for k in range(top + 1)}
        ms = sc.MomentSystem(1, top, 1, grams)
        grams_t = {(k,): hermpd(np.eye(1), k * math.log(4.0)) for k in range(top + 1)}
        mt = sc.MomentSystem(1, top, 1, grams_t)
        x = helpers.diagonal_intertwiner(ms, mt, np.eye(1))
        for k in range(top + 1):
            assert helpers.diag_block(x, (k,))[0, 0].real == pytest.approx(2.0 ** k, rel=1e-11)
        assert eq.intertwining_residual(x, eq.shift_pair(ms, mt)) <= 1e-9
        _, _, log_ratio = eq.sandwich_ratio(ms, mt, np.eye(1))
        assert log_ratio == pytest.approx(top * math.log(4.0), rel=1e-12)

    def test_intertwines_and_singular_values_sandwiched(self):
        ms = sampling.random_moment_system(2, 3, 2, 26)
        c0 = np.array([[1.0, 0.3], [0.1j, 1.2]], dtype=np.complex128)
        mt = sampling.congruent_pair(ms, c0)
        x = helpers.diagonal_intertwiner(ms, mt, c0)
        assert eq.intertwining_residual(x, eq.shift_pair(ms, mt)) <= 1e-9
        m1, m2, _ = eq.sandwich_ratio(ms, mt, c0)
        for alpha in ms.truncation():
            lo, hi = singular_range(helpers.diag_block(x, alpha))
            assert lo >= math.sqrt(m1) * (1 - 1e-9)
            assert hi <= math.sqrt(m2) * (1 + 1e-9)


def kronecker_null_space(ms, mt):
    """Reference: the interior intertwining equations as one Kronecker system in
    vec(X) (column-major), and its null space from a dense SVD."""
    n, keep = ms.fiber_dim, ms.fiber_dim * simplex_size(ms.d, ms.N - 1) if ms.N else 0
    dim = n * simplex_size(ms.d, ms.N)
    eye = np.eye(dim)
    rows = [np.zeros((0, dim * dim))]
    for j in range(ms.d):
        mz, mzt = sc.build_mz(ms, j).full_matrix(), sc.build_mz(mt, j).full_matrix()
        rows.append(np.kron(mz[:, :keep].T, eye) - np.kron(eye[:, :keep].T, mzt))
    _, s, vh = np.linalg.svd(np.vstack(rows))  # full vh: every right vector
    rank = int(np.count_nonzero(s > 1e-10 * max(s.max(initial=0.0), 1.0)))
    return vh[rank:].conj().T


class TestBruteForceIntertwiner:
    def test_commutant_of_scalar_unweighted_shift(self):
        grams = {(0,): hermpd(np.eye(1)), (1,): hermpd(np.eye(1))}
        ms = sc.MomentSystem(1, 1, 1, grams)
        basis = eq.brute_force_intertwiner(ms, ms)
        assert basis.solution_count == 2
        for k in range(2):
            x = helpers.basis_element(basis, k).matrix
            assert abs(x[0, 1]) <= 1e-12
            assert abs(x[0, 0] - x[1, 1]) <= 1e-12

    def test_scalar_weight_doubling(self):
        ms = sc.MomentSystem(1, 1, 1, {
            (0,): hermpd(np.eye(1)), (1,): hermpd(np.eye(1)),
        })
        mt = sc.MomentSystem(1, 1, 1, {
            (0,): hermpd(np.eye(1)), (1,): hermpd(4.0 * np.eye(1)),
        })
        basis = eq.brute_force_intertwiner(ms, mt)
        assert basis.solution_count == 2
        for k in range(2):
            x = helpers.basis_element(basis, k).matrix
            assert abs(x[0, 1]) <= 1e-12
            # diagonal recursion forces the level-1 block to be twice level 0
            assert abs(x[1, 1] - 2.0 * x[0, 0]) <= 1e-12

    def test_dimension_cap(self):
        ms = sampling.random_moment_system(3, 9, 3, 27)  # 3 * 220 = 660 > 640
        with pytest.raises(eq.DimensionCapError):
            eq.brute_force_intertwiner(ms, ms)

    def test_fibre_cap(self):
        ms = sampling.random_moment_system(1, 1, 25, 28)  # dimension 50, fibre 25 > 24
        with pytest.raises(eq.DimensionCapError, match="fibre dimension 25"):
            eq.brute_force_intertwiner(ms, ms)

    @pytest.mark.parametrize("seed", range(3))
    def test_sampled_invertibles_satisfy_proof_structure(self, seed):
        rng = np.random.default_rng(2000 + seed)
        ms = sampling.random_moment_system(2, 3, 2, rng)
        c0 = np.eye(2) + 0.3 * (rng.standard_normal((2, 2))
                                + 1j * rng.standard_normal((2, 2)))
        mt = sampling.congruent_pair(ms, c0)
        basis = eq.brute_force_intertwiner(ms, mt)
        assert basis.solution_count > 0
        checked = 0
        for _ in range(6):
            coeffs = rng.standard_normal(basis.solution_count) \
                + 1j * rng.standard_normal(basis.solution_count)
            x = basis.transport(coeffs)
            lo, hi = singular_range(x.matrix)
            if lo <= 1e-8 * hi:
                continue
            checked += 1
            assert eq.level0_annihilation_residual(x) <= 1e-9
            assert eq.recursion_residual(x, basis.shifts) <= 1e-9
            assert eq.intertwining_residual(x, basis.shifts) <= 1e-9
            cert = eq.certificate_from_intertwiner(x, basis.shifts)
            assert eq.verify_certificate(ms, mt, cert, 1e-9).passes
            # X is block lower triangular in graded order, so [X^{-1}]_00 = X_00^{-1}
            points = len(ms.truncation())
            blocks = x.matrix.reshape(points, 2, points, 2)
            upper = np.triu_indices(points, 1)
            assert np.all(blocks[upper[0], :, upper[1], :] == 0.0)
            # the shift pair's roots are the one-matrix roots of level zero
            left, right = inv_sqrt_pd(ms.gram((0, 0))), sqrt_pd(mt.gram((0, 0)))
            want = math.exp(left.logscale + right.logscale) * (
                left.matrix @ inv(x.matrix[:2, :2]) @ right.matrix)
            assert cert.C.tobytes() == want.tobytes()
        assert checked > 0

    @pytest.mark.parametrize("d, top, n", [(1, 4, 2), (1, 6, 3), (2, 2, 3), (2, 4, 2),
                                           (3, 2, 2), (4, 2, 1)])
    def test_transported_intertwiner_is_block_lower_triangular(self, d, top, n):
        # certificate_from_intertwiner inverts X's level-zero block alone: that
        # is [X^{-1}]_00 only because no block above the diagonal is nonzero
        rng = np.random.default_rng([6200, d, top, n])
        ms = sampling.random_moment_system(d, top, n, rng)
        c0 = np.eye(n) + 0.3 * (rng.standard_normal((n, n))
                                + 1j * rng.standard_normal((n, n)))
        basis = eq.brute_force_intertwiner(ms, sampling.congruent_pair(ms, c0))
        x = basis.transport(rng.standard_normal(basis.solution_count)
                            + 1j * rng.standard_normal(basis.solution_count)).matrix
        points = len(ms.truncation())
        blocks = x.reshape(points, n, points, n)
        upper = np.triu_indices(points, 1)
        assert np.all(blocks[upper[0], :, upper[1], :] == 0.0)
        lo, hi = singular_range(x)
        assert lo > 1e-8 * hi
        level0 = inv(x[:n, :n])
        assert frob_norm(inv(x)[:n, :n] - level0) <= 1e-9 * frob_norm(level0)

    @pytest.mark.parametrize("top, n, d", [
        *((top, n, d) for top in range(4) for n in (1, 2, 3) for d in (1, 2)),
        *((top, n, 3) for top in (1, 2) for n in (1, 2)),
    ])
    def test_span_equals_kronecker_span(self, d, n, top):
        rng = np.random.default_rng([6000, d, n, top])
        ms = sampling.random_moment_system(d, top, n, rng)
        mt = sampling.random_moment_system(d, top, n, rng)
        basis = eq.brute_force_intertwiner(ms, mt)
        reference = kronecker_null_space(ms, mt)
        # N = 0 imposes no equation, so every operator intertwines
        assert basis.solution_count == reference.shape[1] == basis.dim * n
        dense = np.stack([helpers.basis_element(basis, k).matrix.ravel(order="F")
                          for k in range(basis.solution_count)], axis=1)
        q, _ = np.linalg.qr(dense)
        assert frob_norm(reference - q @ (q.conj().T @ reference)) <= 1e-9
        assert frob_norm(q - reference @ (reference.conj().T @ q)) <= 1e-9

    @pytest.mark.parametrize("d, top, n", [(1, 44, 3), (2, 8, 3), (3, 3, 2), (3, 4, 3),
                                           (4, 2, 3), (4, 3, 3)])
    def test_every_level_zero_column_transports_to_an_intertwiner(self, d, top, n):
        # independent pairs: the raise blocks telescope, so no equation
        # constrains X[:, 0]
        rng = np.random.default_rng([6100, d, top, n])
        ms = sampling.random_moment_system(d, top, n, rng)
        mt = sampling.random_moment_system(d, top, n, rng)
        basis = eq.brute_force_intertwiner(ms, mt)
        assert basis.dim <= 135
        for _ in range(2):
            x = basis.transport(rng.standard_normal(basis.solution_count)
                                + 1j * rng.standard_normal(basis.solution_count))
            assert eq.intertwining_residual(x, basis.shifts) <= 1e-12
            assert eq.recursion_residual(x, basis.shifts) <= 1e-12

    def test_full_solution_count_on_criterion_5_shapes(self):
        for seed in range(10):
            rng = np.random.default_rng(5000 + seed)
            ms = sampling.random_moment_system(2, 3, 2, rng)
            c0 = np.eye(2) + 0.3 * (rng.standard_normal((2, 2))
                                    + 1j * rng.standard_normal((2, 2)))
            basis = eq.brute_force_intertwiner(ms, sampling.congruent_pair(ms, c0))
            assert basis.solution_count == basis.dim * ms.fiber_dim == 40

    def test_membership_residual_rejects_non_intertwiners(self):
        rng = np.random.default_rng(3200)
        ms = sampling.random_moment_system(2, 2, 2, rng)
        mt = sampling.congruent_pair(ms, np.eye(2) + 0.2j * np.eye(2))
        basis = eq.brute_force_intertwiner(ms, mt)
        x = basis.transport(rng.standard_normal(basis.solution_count))
        assert helpers.membership_residual(basis, x) <= 1e-12
        bumped = x.matrix.copy()
        bumped[-1, -1] += frob_norm(x.matrix)
        assert helpers.membership_residual(basis, eq.IntertwinerMatrix(2, 2, 2, bumped)) >= 0.1

    def test_solution_space_contains_diagonal_intertwiner(self):
        rng = np.random.default_rng(3000)
        ms = sampling.random_moment_system(2, 3, 2, rng)
        c0 = np.eye(2) + 0.25 * (rng.standard_normal((2, 2))
                                 + 1j * rng.standard_normal((2, 2)))
        mt = sampling.congruent_pair(ms, c0)
        basis = eq.brute_force_intertwiner(ms, mt)
        x = helpers.diagonal_intertwiner(ms, mt, c0)
        assert helpers.membership_residual(basis, x) <= 1e-9

    def test_recovered_unitary_lies_in_span(self):
        rng = np.random.default_rng(3100)
        ms = sampling.random_moment_system(2, 3, 2, rng)
        v0 = sampling.random_unitary(2, rng)
        mt = sampling.congruent_pair(ms, v0)
        result = eq.test_unitary_equivalence(ms, mt, 1e-8)
        assert result.equivalent
        basis = eq.brute_force_intertwiner(ms, mt)
        x = helpers.diagonal_intertwiner(ms, mt, result.V)
        assert helpers.membership_residual(basis, x) <= 1e-9
