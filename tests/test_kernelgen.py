import math
import re

import numpy as np
import pytest

import helpers
from multishift import equivalence as eq
from multishift import kernelgen as kg
from multishift import sampling
from multishift import shiftcore as sc
from multishift.lattice import Truncation
from multishift.numerics import (
    HermPD,
    PositiveDefiniteError,
    hermpd,
    hermpd_batch,
    inv_pd,
)


def log_alpha_factorial(alpha):
    return sum(math.lgamma(a + 1) for a in alpha)


def per_index_pochhammer(pair, d, top):
    """Coefficients built one lattice index at a time: the balanced diagonal of
    degree |alpha|, with log(alpha!) taken off its logscale."""
    return {
        alpha: helpers.logscaled(log_diag(np.array([kg.log_pochhammer(pair.lam, sum(alpha)),
                                                    kg.log_pochhammer(pair.mu, sum(alpha))])),
                                 -log_alpha_factorial(alpha))
        for alpha in Truncation(d, top)
    }


def per_row_pochhammer(pair, d, top):
    """The earlier per-row formula: log(alpha!) is subtracted from both diagonal
    logs before the row is balanced."""
    coeffs = {}
    for alpha in Truncation(d, top):
        m, lfact = sum(alpha), log_alpha_factorial(alpha)
        coeffs[alpha] = log_diag(np.array([kg.log_pochhammer(pair.lam, m) - lfact,
                                           kg.log_pochhammer(pair.mu, m) - lfact]))
    return coeffs


def log_diag(logs):
    top = float(logs.max())
    return hermpd(np.diag(np.exp(logs - top)).astype(np.complex128), top)


def per_index_homogeneous(by_degree, d):
    """m! A_m at degree m, with log(alpha!) taken off its logscale."""
    return {
        alpha: helpers.logscaled(helpers.logscaled(by_degree[sum(alpha)],
                                                   kg.log_factorial(sum(alpha))),
                                 -log_alpha_factorial(alpha))
        for alpha in Truncation(d, len(by_degree) - 1)
    }


def per_row_homogeneous(by_degree, d):
    """The earlier per-row formula: the multinomial factor added as one log."""
    return {
        alpha: helpers.logscaled(
            by_degree[sum(alpha)], kg.log_factorial(sum(alpha)) - log_alpha_factorial(alpha))
        for alpha in Truncation(d, len(by_degree) - 1)
    }


def assert_rows_equal(family, get, reference):
    """Every row of an array-built family is bit-identical to the reference."""
    assert list(reference) == list(family.truncation())
    for alpha, want in reference.items():
        got = get(alpha)
        assert got.matrix.tobytes() == want.matrix.tobytes(), alpha
        assert np.float64(got.logscale).tobytes() == np.float64(want.logscale).tobytes(), alpha


def assert_rows_close(family, get, reference, rtol=1e-14):
    """Every represented row agrees with the reference to rtol, relative."""
    assert list(reference) == list(family.truncation())
    for alpha, want in reference.items():
        got = get(alpha)
        diff = math.exp(got.logscale - want.logscale) * got.matrix - want.matrix
        assert np.abs(diff).max() <= rtol * np.abs(want.matrix).max(), alpha


def assert_degree_classes(family):
    """Rows of one degree share one class, and the class is that degree."""
    degrees = [sum(alpha) for alpha in family.truncation()]
    assert family.classes.tolist() == degrees
    assert len(family.class_mats) == family.N + 1


class TestLogPochhammer:
    def test_empty_product(self):
        assert kg.log_pochhammer(0.7, 0) == 0.0

    def test_rising_from_one_is_factorial(self):
        assert kg.log_pochhammer(1.0, 3) == pytest.approx(math.log(6.0), rel=1e-14)

    def test_rising_from_two(self):
        # 2 * 3 * 4 = 24
        assert kg.log_pochhammer(2.0, 3) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_factorials_to_170(self):
        acc = 0.0
        for n in range(1, 171):
            acc += math.log(n)
            got = kg.log_pochhammer(1.0, n)
            assert abs(got - acc) <= 1e-11 * acc

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            kg.log_pochhammer(0.0, 2)
        with pytest.raises(ValueError):
            kg.log_pochhammer(1.0, -1)


class TestGradedLogFactorials:
    @pytest.mark.parametrize("d,top", [(1, 300), (2, 128), (3, 64), (4, 30), (4, 0)])
    def test_equals_the_cumsum_form_bit_for_bit(self, d, top):
        got = kg._graded_log_factorials(d, top)
        want = helpers.cumsum_graded_log_factorials(d, top)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


class TestPochhammerKernel:
    def test_hardy_case(self):
        spec = kg.pochhammer_kernel(kg.PochhammerPair(1.0, 1.0), 1, 5)
        ms = kg.kernel_moments(spec)
        for k in range(6):
            assert np.allclose(spec.coeff((k,)).value(), np.eye(2), atol=1e-14)
            assert np.allclose(ms.gram((k,)).value(), np.eye(2), atol=1e-14)

    def test_bergman_first_entry(self):
        spec = kg.pochhammer_kernel(kg.PochhammerPair(2.0, 1.0), 1, 6)
        for k in range(7):
            assert spec.coeff((k,)).value()[0, 0].real == pytest.approx(k + 1.0, rel=1e-13)

    def test_two_dim_entry(self):
        spec = kg.pochhammer_kernel(kg.PochhammerPair(1.0, 4.0), 2, 3)
        # (1)_2 / (1! 1!) = 2
        assert spec.coeff((1, 1)).value()[0, 0].real == pytest.approx(2.0, rel=1e-13)

    def test_moments_invert_coefficients(self):
        spec = kg.pochhammer_kernel(kg.PochhammerPair(1.5, 2.5), 2, 6)
        ms = kg.kernel_moments(spec)
        for alpha in spec.truncation():
            prod = spec.coeff(alpha).value() @ ms.gram(alpha).value()
            assert np.allclose(prod, np.eye(2), atol=1e-12)

    def test_high_degree_log_domain(self):
        spec = kg.pochhammer_kernel(kg.PochhammerPair(1.0, 2.0), 1, 200)
        ms = kg.kernel_moments(spec)
        g = ms.gram((200,))
        assert np.all(np.isfinite(g.matrix))
        # G_k second entry over first entry is k!/(2)_k = 1/(k+1)
        logeigs = np.sort(helpers.log_eigvals(g))
        assert logeigs[1] - logeigs[0] == pytest.approx(math.log(201.0), rel=1e-12)

    def test_swap_symmetry_bit_equal(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
        ms = kg.kernel_moments(kg.pochhammer_kernel(kg.PochhammerPair(1.0, 3.0), 2, 5))
        mt = kg.kernel_moments(kg.pochhammer_kernel(kg.PochhammerPair(3.0, 1.0), 2, 5))
        for alpha in ms.truncation():
            g, gt = ms.gram(alpha), mt.gram(alpha)
            assert g.logscale == gt.logscale
            assert np.array_equal(swap @ gt.matrix @ swap, g.matrix)


class TestArrayBuiltFamilies:
    """The stacked builders against the per-index construction, exactly."""

    @pytest.mark.parametrize("lam,mu,d,top", [
        (1.0, 2.0, 2, 8), (0.5, 4.5, 3, 5), (2.0, 1.0, 1, 40),
    ])
    def test_pochhammer(self, lam, mu, d, top):
        pair = kg.PochhammerPair(lam, mu)
        spec = kg.pochhammer_kernel(pair, d, top)
        coeffs = per_index_pochhammer(pair, d, top)
        assert_degree_classes(spec)
        assert_rows_equal(spec, spec.coeff, coeffs)
        assert_rows_close(spec, spec.coeff, per_row_pochhammer(pair, d, top))
        moments = kg.kernel_moments(spec)
        assert_degree_classes(moments)
        assert_rows_equal(moments, moments.gram,
                          {a: inv_pd(c) for a, c in coeffs.items()})

    @pytest.mark.parametrize("d,top,n", [(2, 5, 2), (3, 3, 3), (1, 6, 4)])
    def test_homogeneous(self, d, top, n):
        mats, logs = sampling.random_pd_stack(top + 1, n, 40 + n, logscale_span=3.0)
        by_degree = list(map(HermPD, mats, logs.tolist()))
        spec = kg.homogeneous_kernel(mats, logs, d)
        coeffs = per_index_homogeneous(by_degree, d)
        assert_degree_classes(spec)
        assert_rows_equal(spec, spec.coeff, coeffs)
        assert_rows_close(spec, spec.coeff, per_row_homogeneous(by_degree, d))
        moments = kg.kernel_moments(spec)
        assert_rows_equal(moments, moments.gram,
                          {a: inv_pd(c) for a, c in coeffs.items()})

    @pytest.mark.parametrize("seed", [0, 1])
    def test_perturbed(self, seed):
        pair = kg.PochhammerPair(1.0, 2.0)
        spec = kg.pochhammer_kernel(pair, 2, 6)
        alphas = [alpha for alpha in spec.truncation() if sum(alpha) <= 2]
        mats, logs = sampling.random_pd_stack(len(alphas), 2, seed)
        reps = dict(zip(alphas, map(HermPD, mats, logs.tolist())))
        perturbed, cert = kg.perturb_kernel(spec, alphas, mats, logs)
        coeffs = per_index_pochhammer(pair, 2, 6)
        coeffs.update(reps)
        assert_rows_equal(perturbed, perturbed.coeff, coeffs)
        # each replaced index is a class of its own; the other rows keep theirs
        trunc = spec.truncation()
        replaced = [trunc.position(a) for a in reps]
        own = perturbed.classes[replaced]
        assert len(set(own.tolist())) == len(reps) and own.min() > spec.classes.max()
        kept = np.setdiff1d(np.arange(len(trunc)), replaced)
        assert np.array_equal(perturbed.classes[kept], spec.classes[kept])
        moments = kg.kernel_moments(perturbed)
        assert_rows_equal(moments, moments.gram,
                          {a: inv_pd(c) for a, c in coeffs.items()})
        pencils = [helpers.pencil_logeigs(d, spec.coeff(a)) for a, d in reps.items()]
        assert cert.log_m1 == min(0.0, *(-float(p[-1]) for p in pencils))
        assert cert.log_m2 == max(0.0, *(-float(p[0]) for p in pencils))

    def test_stacks_are_read_only(self):
        spec = kg.pochhammer_kernel(kg.PochhammerPair(1.0, 2.0), 2, 3)
        ms = kg.kernel_moments(spec)
        for arr in (spec.mats, spec.logs, spec.classes, spec.class_mats,
                    ms.mats, ms.logs, ms.classes, ms.class_mats):
            assert not arr.flags.writeable

    def test_wide_spread_exceeds_single_logscale(self):
        # log((2000)_400 / (1)_400) is about 1077 nats, past the 690-nat
        # range one shared logscale can carry in double precision
        with pytest.raises(PositiveDefiniteError):
            kg.pochhammer_kernel(kg.PochhammerPair(1.0, 2000.0), 2, 400)


def truncation_cases(kind, d, top, low):
    """(whole, fresh): a family generated at degree top and the same family
    generated afresh at degree low, fibre 2. A perturbed family replaces
    indices of degree 1 and low + 1; the fresh one keeps those inside."""
    rng = np.random.default_rng([d, top, low, len(kind)])
    if kind == "pochhammer":
        pair = kg.PochhammerPair(1.0, 2.5)
        return kg.pochhammer_kernel(pair, d, top), kg.pochhammer_kernel(pair, d, low)
    if kind == "homogeneous":
        mats, logs = sampling.random_pd_stack(top + 1, 2, rng, logscale_span=3.0)
        return (kg.homogeneous_kernel(mats, logs, d),
                kg.homogeneous_kernel(mats[:low + 1], logs[:low + 1], d))
    pair = kg.PochhammerPair(2.0, 1.0)
    alphas = np.array([alpha for alpha in Truncation(d, top) if sum(alpha) in (1, low + 1)])
    mats, logs = sampling.random_pd_stack(len(alphas), 2, rng)
    inside = alphas.sum(axis=1) <= low
    whole, _ = kg.perturb_kernel(kg.pochhammer_kernel(pair, d, top), alphas, mats, logs)
    fresh, _ = kg.perturb_kernel(kg.pochhammer_kernel(pair, d, low),
                                 alphas[inside], mats[inside], logs[inside])
    return whole, fresh


class TestTruncated:
    """helpers.truncated(family, N) is the degree-N family, as prefix views:
    the reference for the prefixes of a shared search setup."""

    @staticmethod
    def assert_prefix_is_fresh(part, whole, fresh):
        assert type(part) is type(fresh)
        assert (part.d, part.N, part.fiber_dim) == (fresh.d, fresh.N, fresh.fiber_dim)
        assert part.truncation() is fresh.truncation()
        assert part.class_mats is whole.class_mats  # shared, not sliced
        for name in ("logs", "classes"):
            got, full = getattr(part, name), getattr(whole, name)
            assert got.base is not None and np.shares_memory(got, full)  # a view
            assert not got.flags.writeable
        # mats is gathered when first read, so it is compared by its bytes
        assert not part.mats.flags.writeable
        assert part.mats.tobytes() == fresh.mats.tobytes()
        assert part.logs.tobytes() == fresh.logs.tobytes()
        # a perturbed family numbers its replaced classes after its degrees, so
        # the numbers differ; the rows are grouped alike
        pairs = set(zip(part.classes.tolist(), fresh.classes.tolist()))
        assert len(pairs) == len(set(part.classes.tolist())) == len(set(fresh.classes.tolist()))

    @pytest.mark.parametrize("kind", ["pochhammer", "homogeneous", "perturbed"])
    @pytest.mark.parametrize("d,top", [(1, 12), (2, 8), (3, 5)])
    def test_prefix_equals_fresh_generation(self, kind, d, top):
        for low in (0, 1, top // 2, top - 1, top):
            whole, fresh = truncation_cases(kind, d, top, low)
            self.assert_prefix_is_fresh(helpers.truncated(whole, low), whole, fresh)
            moments = kg.kernel_moments(whole)
            self.assert_prefix_is_fresh(helpers.truncated(moments, low), moments,
                                        kg.kernel_moments(fresh))

    def test_degree_outside_the_family_is_refused(self):
        spec = kg.pochhammer_kernel(kg.PochhammerPair(1.0, 2.0), 2, 4)
        for bad in (-1, 5):
            with pytest.raises(ValueError, match=f"degree {bad} outside 0..4"):
                helpers.truncated(spec, bad)


class TestGroundTruth:
    def test_swapped_pair_similar(self):
        assert kg.pochhammer_ground_truth(
            kg.PochhammerPair(1, 2), kg.PochhammerPair(2, 1)
        )

    def test_equal_pair_similar(self):
        assert kg.pochhammer_ground_truth(
            kg.PochhammerPair(1, 2), kg.PochhammerPair(1, 2)
        )

    def test_distinct_pair_not_similar(self):
        assert not kg.pochhammer_ground_truth(
            kg.PochhammerPair(1, 2), kg.PochhammerPair(1, 3)
        )


class TestHomogeneousKernel:
    def test_scalar_one_dim_is_hardy(self):
        spec = kg.homogeneous_kernel(*hermpd_batch(np.ones((5, 1, 1)), np.zeros(5)), 1)
        for k in range(5):
            assert spec.coeff((k,)).value()[0, 0].real == pytest.approx(1.0)

    def test_reproduces_pochhammer(self):
        lam, mu, top = 1.5, 3.0, 6
        by_degree = hermpd_batch(np.array([
            np.diag([
                math.exp(kg.log_pochhammer(lam, m) - kg.log_factorial(m)),
                math.exp(kg.log_pochhammer(mu, m) - kg.log_factorial(m)),
            ]).astype(np.complex128)
            for m in range(top + 1)
        ]), np.zeros(top + 1))
        spec = kg.homogeneous_kernel(*by_degree, 2)
        want = kg.pochhammer_kernel(kg.PochhammerPair(lam, mu), 2, top)
        for alpha in spec.truncation():
            a, b = spec.coeff(alpha), want.coeff(alpha)
            diff = math.exp(a.logscale - b.logscale) * a.matrix - b.matrix
            assert np.abs(diff).max() <= 1e-12, alpha

    def test_multinomial_factor(self):
        spec = kg.homogeneous_kernel(*hermpd_batch(np.ones((3, 1, 1)), np.zeros(3)), 2)
        # 2!/(1! 1!) = 2
        assert spec.coeff((1, 1)).value()[0, 0].real == pytest.approx(2.0, rel=1e-13)

    def test_matrix_part_depends_on_degree_only(self):
        spec = kg.homogeneous_kernel(*sampling.random_pd_stack(5, 2, 21), 2)
        ms = kg.kernel_moments(spec)
        for alpha in spec.truncation():
            ref = (sum(alpha), 0)
            assert np.array_equal(ms.gram(alpha).matrix, ms.gram(ref).matrix)

    def test_dim_mismatch(self):
        # one stack holds one dimension: a stack of 2 x 3 matrices is refused
        with pytest.raises(ValueError):
            kg.homogeneous_kernel(np.ones((2, 2, 3), dtype=np.complex128), np.zeros(2), 2)


class TestPerturbKernel:
    def test_no_replacement(self):
        spec = kg.pochhammer_kernel(kg.PochhammerPair(1, 2), 2, 4)
        perturbed, cert = kg.perturb_kernel(spec, [], np.empty((0, 2, 2)), np.empty(0))
        assert cert.log_m1 == 0.0 and cert.log_m2 == 0.0
        for alpha in spec.truncation():
            got, want = perturbed.coeff(alpha), spec.coeff(alpha)
            assert got.matrix.tobytes() == want.matrix.tobytes()
            assert got.logscale == want.logscale

    def test_scaled_identity_replacement(self):
        spec = kg.pochhammer_kernel(kg.PochhammerPair(1, 2), 2, 4)
        zero = (0, 0)
        _, cert = kg.perturb_kernel(
            spec, [zero], *hermpd_batch(4.0 * np.eye(2, dtype=np.complex128)[None], [0.0])
        )
        assert cert.log_m1 == pytest.approx(math.log(0.25), rel=1e-14)
        assert cert.log_m2 == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_random_replacement_certificate_verifies(self, seed):
        spec = kg.pochhammer_kernel(kg.PochhammerPair(1, 2), 2, 8)
        base_moments = kg.kernel_moments(spec)
        alphas = [alpha for alpha in spec.truncation() if sum(alpha) <= 2]
        perturbed, cert = kg.perturb_kernel(
            spec, alphas, *sampling.random_pd_stack(len(alphas), 2, seed))
        report = eq.verify_certificate(
            base_moments, kg.kernel_moments(perturbed), cert, 1e-9
        )
        assert report.passes

    def test_out_of_range_index(self):
        spec = kg.pochhammer_kernel(kg.PochhammerPair(1, 2), 2, 3)
        with pytest.raises(IndexError):
            kg.perturb_kernel(spec, [(4, 0)], *hermpd_batch(np.eye(2)[None], [0.0]))

    @pytest.mark.parametrize("alpha", [(10**30, 0), (-1, 0), (0, 0, 0), (0,)])
    def test_index_outside_is_named_in_key_order(self, alpha):
        # the first outside index in entry order is named; an index of another
        # length puts every row outside, so the first row, alpha, is named
        alphas = ([(1, 0), alpha, (4, 0)] if len(alpha) == 2
                  else [alpha, (1,) + alpha[1:], alpha[:-1] + (1,)])
        spec = kg.pochhammer_kernel(kg.PochhammerPair(1, 2), 2, 3)
        mats, logs = hermpd_batch(np.tile(np.eye(2), (3, 1, 1)), np.zeros(3))
        with pytest.raises(IndexError, match=rf"^replacement index {re.escape(str(alpha))} "):
            kg.perturb_kernel(spec, alphas, mats, logs)

    def test_repeated_index_takes_its_last_entry(self):
        # (1, 1) is listed before (0, 1), and the graded order has it after
        spec = kg.pochhammer_kernel(kg.PochhammerPair(1, 2), 2, 4)
        mats, logs = sampling.random_pd_stack(3, 2, 84, logscale_span=2.0)
        twice, cert = kg.perturb_kernel(spec, [(1, 1), (1, 1), (0, 1)], mats, logs)
        once, want = kg.perturb_kernel(spec, [(1, 1), (0, 1)], mats[1:], logs[1:])
        for got, ref in ((twice.class_mats, once.class_mats), (twice.classes, once.classes),
                         (twice.logs, once.logs), (cert.log_m1, want.log_m1),
                         (cert.log_m2, want.log_m2)):
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
        earlier, _ = kg.perturb_kernel(spec, [(1, 1), (0, 1)], mats[[0, 2]], logs[[0, 2]])
        assert earlier.class_mats.tobytes() != once.class_mats.tobytes()


class TestBoundednessEstimate:
    def test_hardy_shift_norm(self):
        spec = kg.pochhammer_kernel(kg.PochhammerPair(1, 1), 1, 12)
        assert helpers.boundedness_estimate(spec, 0) == pytest.approx(1.0, abs=1e-12)

    def test_bergman_type_below_one(self):
        top = 9
        spec = kg.pochhammer_kernel(kg.PochhammerPair(2, 2), 1, top)
        got = helpers.boundedness_estimate(spec, 0)
        assert got == pytest.approx(math.sqrt(top / (top + 1.0)), rel=1e-12)
        assert got < 1.0

    def test_degree_zero_convention(self):
        spec = kg.pochhammer_kernel(kg.PochhammerPair(1, 2), 2, 0)
        assert helpers.boundedness_estimate(spec, 0) == 0.0
        assert helpers.boundedness_estimate(spec, 1) == 0.0

    @pytest.mark.parametrize("lam,mu,d,top", [
        (1.0, 2.0, 2, 6), (0.5, 3.0, 1, 8), (2.0, 2.0, 3, 4),
    ])
    def test_matches_build_mz_norm(self, lam, mu, d, top):
        spec = kg.pochhammer_kernel(kg.PochhammerPair(lam, mu), d, top)
        ms = kg.kernel_moments(spec)
        for j in range(d):
            be = helpers.boundedness_estimate(spec, j)
            mz = sc.build_mz(ms, j)
            assert abs(be - mz.norm_estimate) <= 1e-10

    def test_matches_build_mz_on_random_homogeneous(self):
        spec = kg.homogeneous_kernel(*sampling.random_pd_stack(5, 2, 33), 2)
        ms = kg.kernel_moments(spec)
        for j in range(2):
            assert abs(helpers.boundedness_estimate(spec, j)
                       - sc.build_mz(ms, j).norm_estimate) <= 1e-10


class TestGrowthSlopeTracksExponentGap:
    @staticmethod
    def _generator(pair_a, pair_b):
        def gen(top):
            a = kg.kernel_moments(kg.pochhammer_kernel(pair_a, 2, top))
            b = kg.kernel_moments(kg.pochhammer_kernel(pair_b, 2, top))
            return a, b
        return gen

    def test_equal_sets_stay_flat(self):
        gen = self._generator(kg.PochhammerPair(2, 5), kg.PochhammerPair(5, 2))
        diag = eq.growth_diagnostic(*gen(32), [8, 16, 24, 32], seed=0)
        assert abs(diag.slope) <= 0.1

    def test_gap_one(self):
        gen = self._generator(kg.PochhammerPair(1, 2), kg.PochhammerPair(1, 3))
        diag = eq.growth_diagnostic(*gen(32), [8, 16, 24, 32], seed=0)
        assert abs(diag.slope - 1.0) <= 0.2

    def test_gap_two(self):
        gen = self._generator(kg.PochhammerPair(1, 2), kg.PochhammerPair(1, 4))
        diag = eq.growth_diagnostic(*gen(128), [16, 32, 64, 128], seed=0)
        assert abs(diag.slope - 2.0) <= 0.2
        assert diag.verdict == eq.VERDICT_NOT_SIMILAR
