import math
import warnings

import numpy as np
import pytest

import helpers
from multishift import equivalence as eq
from multishift import kernelgen as kg
from multishift import lattice
from multishift import numerics
from multishift import sampling
from multishift import shiftcore as sc
from multishift.numerics import frob_norm, hermpd


def identity_stack(d, top, n):
    """(d, k, n, n) identity weights over the k interior indices, writable."""
    return np.tile(np.eye(n, dtype=np.complex128), (d, lattice.simplex_size(d, top - 1), 1, 1))


def identity_weights(d, top, n):
    return sc.WeightSystem(d, top, n, identity_stack(d, top, n))


def scalar_weights(d, top, values):
    """d scalar weights, constant per coordinate."""
    return sc.WeightSystem(d, top, 1, np.reshape(values, (d, 1, 1, 1))
                           * identity_stack(d, top, 1))


def singular_weights():
    """identity_weights(1, 2, 2) with the singular weight diag(1, 0) at alpha = 0."""
    weights = identity_stack(1, 2, 2)
    weights[0, 0] = np.diag([1.0, 0.0])
    return sc.WeightSystem(1, 2, 2, weights)


def noncommuting_weights():
    """Identities but at ((0, 0), 0) and ((1, 0), 1); (1, 0) has interior rank 2."""
    weights = identity_stack(2, 2, 2)
    weights[0, 0] = [[1.0, 1.0], [0.0, 1.0]]
    weights[1, 2] = [[0.0, 1.0], [1.0, 0.0]]
    return sc.WeightSystem(2, 2, 2, weights)


class TestValidateWeights:
    def test_identity_weights_pass(self):
        report = sc.validate_weights(identity_weights(2, 3, 2))
        assert report.passes
        assert report.max_commutation_residual == 0.0
        assert report.max_weight_norm == pytest.approx(1.0)

    def test_scalar_weights_commute(self):
        report = sc.validate_weights(scalar_weights(2, 3, [1.0, 2.0]))
        assert report.passes

    def test_noncommuting_pair_fails(self):
        report = sc.validate_weights(noncommuting_weights())
        assert not report.passes
        # direct 2x2 products: one order gives I, the other [[0,1],[1,1]]
        assert report.max_commutation_residual > 0.3

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e-160])
    def test_noncommuting_pair_fails_at_extreme_scales(self, scale):
        # unscaled, the products of 1e160 or 1e200 weights overflow (inf - inf)
        # and those of 1e-160 weights underflow, and either read PASS
        ws = noncommuting_weights()
        want = sc.validate_weights(ws)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sc.validate_weights(sc.WeightSystem(2, 2, 2, ws.weights * scale))
        assert not got.passes
        assert abs(got.max_commutation_residual - want.max_commutation_residual) <= 1e-15
        assert got.failures[-1].split(" at ")[1] == want.failures[-1].split(" at ")[1]

    def test_singular_weight_fails(self):
        report = sc.validate_weights(singular_weights())
        assert not report.passes
        assert any("singular" in f for f in report.failures)


class TestMomentsFromWeights:
    def test_identity(self):
        ms = sc.moments_from_weights(identity_weights(2, 3, 2), hermpd(np.eye(2)))
        for alpha in ms.truncation():
            g = ms.gram(alpha)
            assert np.allclose(g.value(), np.eye(2), atol=1e-14)

    def test_scalar_doubling(self):
        ms = sc.moments_from_weights(scalar_weights(1, 6, [2.0]), hermpd(np.eye(1)))
        for k in range(7):
            val = ms.gram((k,)).value()[0, 0].real
            assert val == pytest.approx(4.0 ** k, rel=1e-12)

    def test_two_dim_scalar_path_independent_product(self):
        a, b = 1.5, 0.5
        ms = sc.moments_from_weights(scalar_weights(2, 4, [a, b]), hermpd(np.eye(1)))
        for alpha in ms.truncation():
            want = a ** (2 * alpha[0]) * b ** (2 * alpha[1])
            assert ms.gram(alpha).value()[0, 0].real == pytest.approx(want, rel=1e-12)

    def test_validation_enforced(self):
        with pytest.raises(sc.ValidationFailedError):
            sc.moments_from_weights(singular_weights(), hermpd(np.eye(2)))

    def test_g0_normalization_enters(self):
        g0 = hermpd(np.diag([4.0, 1.0]))
        ms = sc.moments_from_weights(identity_weights(2, 2, 2), g0)
        assert np.allclose(ms.gram((1, 1)).value(), np.diag([4.0, 1.0]))


class TestCanonicalWeights:
    def test_identity_moments(self):
        ms = sc.moments_from_weights(identity_weights(2, 3, 2), hermpd(np.eye(2)))
        ws = sc.canonical_weights(ms)
        assert ws.weights.shape == (2, 6, 2, 2)
        for j, stack in enumerate(ws.weights):
            for r, w in enumerate(stack):
                assert np.allclose(w, np.eye(2), atol=1e-12), (j, r)

    def test_scalar_ratio(self):
        grams = {(k,): hermpd(np.eye(1), k * math.log(4.0)) for k in range(6)}
        ws = sc.canonical_weights(sc.MomentSystem(1, 5, 1, grams))
        assert ws.weights.shape == (1, 5, 1, 1)
        for r, w in enumerate(ws.weights[0]):
            assert w[0, 0].real == pytest.approx(2.0, rel=1e-12), r

    def test_degree_graded_moments_give_degree_graded_weights(self):
        # G_alpha depending only on |alpha| forces weights that do too
        rng = np.random.default_rng(0)
        per_degree = [sampling.random_pd(2, rng) for _ in range(5)]
        grams = {
            alpha: per_degree[sum(alpha)]
            for alpha in lattice.Truncation(2, 4)
        }
        ws = sc.canonical_weights(sc.MomentSystem(2, 4, 2, grams))
        for alpha in lattice.Truncation(2, 3):
            for j in range(2):
                ref_alpha = (sum(alpha), 0)
                ref = ws.weight(ref_alpha, 0)
                assert np.allclose(ws.weight(alpha, j), ref, atol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_commutation_residual(self, seed):
        ms = sampling.random_moment_system(2, 4, 2, seed)
        report = sc.validate_weights(sc.canonical_weights(ms))
        assert report.passes
        assert report.max_commutation_residual <= 1e-10

    @pytest.mark.parametrize("seed", [3, 4])
    def test_round_trip(self, seed):
        ms = sampling.random_moment_system(2, 3, 2, seed)
        ws = sc.canonical_weights(ms)
        rebuilt = sc.moments_from_weights(ws, hermpd(np.eye(2)))
        target = helpers.normalized_to_identity(ms)
        for alpha in ms.truncation():
            got, want = rebuilt.gram(alpha), target.gram(alpha)
            diff = math.exp(got.logscale - want.logscale) * got.matrix - want.matrix
            assert frob_norm(diff) / frob_norm(want.matrix) <= 1e-9, alpha

    @pytest.mark.parametrize("seed,d,top,n", [
        (5, 1, 5, 2), (6, 2, 4, 2), (7, 3, 3, 2), (8, 2, 4, 3),
    ])
    def test_path_independence(self, seed, d, top, n):
        ms = sampling.random_moment_system(d, top, n, seed)
        ws = sc.canonical_weights(ms)
        for alpha in ws.truncation():
            canonical = sc.path_product(ws, alpha)
            reverse = sc.path_product(ws, alpha, helpers.reverse_monotone_path(alpha))
            scale = max(frob_norm(canonical), frob_norm(reverse))
            assert frob_norm(canonical - reverse) <= 1e-9 * scale, alpha


class TestBuildMz:
    def test_identity_moments(self):
        ms = sc.moments_from_weights(identity_weights(2, 3, 2), hermpd(np.eye(2)))
        mz = sc.build_mz(ms, 0)
        assert mz.norm_estimate == pytest.approx(1.0, abs=1e-12)
        assert mz.blocks.shape == (6, 2, 2)
        for block in mz.blocks:
            assert np.allclose(block, np.eye(2), atol=1e-12)

    def test_unweighted_scalar_shift(self):
        grams = {(k,): hermpd(np.eye(1)) for k in range(7)}
        mz = sc.build_mz(sc.MomentSystem(1, 6, 1, grams), 0)
        assert mz.norm_estimate == pytest.approx(1.0, abs=1e-12)

    def test_bergman_type_blocks(self):
        # G_k = 1/(k+1) gives block(k) = sqrt((k+1)/(k+2))
        grams = {(k,): hermpd(np.eye(1), -math.log(k + 1)) for k in range(8)}
        mz = sc.build_mz(sc.MomentSystem(1, 7, 1, grams), 0)
        assert mz.dst.tolist() == list(range(1, 8))
        for k in range(7):  # (k,) has graded rank k
            want = math.sqrt((k + 1) / (k + 2))
            assert mz.blocks[k][0, 0].real == pytest.approx(want, rel=1e-12)

    def test_blocks_invertible_with_margin(self):
        ms = sampling.random_moment_system(2, 4, 3, 12)
        for j in range(2):
            mz = sc.build_mz(ms, j)
            assert mz.min_singular_value > 0.0

    def test_full_matrix_is_level_raising(self):
        ms = sampling.random_moment_system(2, 3, 2, 13)
        full = sc.build_mz(ms, 1).full_matrix()
        trunc = ms.truncation()
        n = ms.fiber_dim
        for r, row_alpha in enumerate(trunc):
            for c, col_alpha in enumerate(trunc):
                block = full[r * n:(r + 1) * n, c * n:(c + 1) * n]
                if row_alpha != helpers.shifted(col_alpha, 1):
                    assert np.all(block == 0.0)


def _reference_family(name):
    """The families the graded shift stacks are checked on against the per-index
    construction: random, degree-class, extra-class, homogeneous and N = 0."""
    rng = np.random.default_rng([60, len(name)])
    poch = kg.pochhammer_kernel(kg.PochhammerPair(1.0, 2.0), 2, 6)
    if name.startswith("random"):
        d, top, n = {"random1": (1, 6, 3), "random2": (2, 4, 2), "random3": (3, 3, 2)}[name]
        return sampling.random_moment_system(d, top, n, rng)
    if name == "pochhammer":
        return kg.kernel_moments(poch)
    if name == "perturbed":
        mats, logs = sampling.random_pd_stack(2, 2, rng)
        return kg.kernel_moments(kg.perturb_kernel(poch, [(0, 1), (1, 1)], mats, logs)[0])
    if name == "homogeneous":
        return kg.kernel_moments(
            kg.homogeneous_kernel(*sampling.random_pd_stack(5, 3, rng), 2))
    return sampling.random_moment_system(2, 0, 2, rng)


REFERENCE_FAMILIES = ["random1", "random2", "random3", "pochhammer", "perturbed",
                      "homogeneous", "degree0"]


class TestPerIndexReference:
    """The graded shift stacks from one root pass against one root call per index."""

    @pytest.mark.parametrize("name", REFERENCE_FAMILIES)
    def test_shifts_and_weights_are_bit_equal(self, name):
        ms = _reference_family(name)
        ws = sc.canonical_weights(ms)
        for j in range(ms.d):
            mz = sc.build_mz(ms, j)
            want = helpers.per_index_full_matrix(ms, j)
            assert mz.full_matrix().tobytes() == want.tobytes()
            blocks = helpers.per_index_raise_blocks(ms, j)
            for alpha, block in blocks.items():
                assert ws.weight(alpha, j).tobytes() == block.tobytes()
            svs = [numerics.singular_range(b) for b in blocks.values()]
            assert mz.norm_estimate == max((hi for _, hi in svs), default=0.0)
            assert mz.min_singular_value == min((lo for lo, _ in svs), default=0.0)

    @pytest.mark.parametrize("name", REFERENCE_FAMILIES)
    def test_diagonal_intertwiner_is_bit_equal(self, name):
        ms = _reference_family(name)
        c = sampling.random_pd(ms.fiber_dim, np.random.default_rng(61)).matrix
        c = c + 0.25j * np.eye(ms.fiber_dim)
        mt = sampling.congruent_pair(ms, c)
        got = helpers.diagonal_intertwiner(ms, mt, c).matrix
        assert got.tobytes() == helpers.per_index_diagonal_intertwiner(ms, mt, c).tobytes()

    @pytest.mark.parametrize("name", REFERENCE_FAMILIES)
    def test_closed_form_products_match_staircases(self, name):
        ms = _reference_family(name)
        mt = sampling.congruent_pair(ms, 2.0 * np.eye(ms.fiber_dim))
        shifts = eq.shift_pair(ms, mt)
        for got, want in ((shifts.tproducts, helpers.per_index_products(mt)),
                          (shifts.inv_products, helpers.per_index_inverse_products(ms))):
            err = np.linalg.norm(got - want, axis=(1, 2))
            assert np.all(err <= 1e-13 * np.linalg.norm(want, axis=(1, 2)))


def _reference_weights(name):
    """The weight systems the batched passes are checked on against the
    per-index validation and the per-row staircase walk."""
    shapes = {"random1": (1, 5, 3), "random2": (2, 4, 2), "random3": (3, 3, 2),
              "degree0": (2, 0, 2), "degree1": (2, 1, 2)}
    if name in shapes:
        d, top, n = shapes[name]
        return helpers.random_weight_system(d, top, n, [63, d, top])
    if name == "overflow":  # every product overflows, so each residual is inf - inf
        return scalar_weights(2, 3, [1e200, 1e200])
    return {"singular": singular_weights, "noncommuting": noncommuting_weights}[name]()


REFERENCE_WEIGHTS = ["random1", "random2", "random3", "singular", "noncommuting",
                     "degree0", "degree1", "overflow"]


class TestPerIndexWeightReference:
    """Validation and staircase products from batched passes over the weight
    stack against one call per index."""

    @pytest.mark.parametrize("name", REFERENCE_WEIGHTS)
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_validation_matches(self, name):
        ws = _reference_weights(name)
        got, want = sc.validate_weights(ws), helpers.per_index_validate_weights(ws)
        assert (got.passes, got.failures) == (want.passes, want.failures)
        assert got.min_singular_ratio.hex() == want.min_singular_ratio.hex()
        assert got.max_weight_norm.hex() == want.max_weight_norm.hex()
        # batched Frobenius norms may differ from vdot's in the last bit
        assert (abs(got.max_commutation_residual - want.max_commutation_residual)
                <= 1e-14 * want.max_commutation_residual)

    @pytest.mark.parametrize("name", REFERENCE_WEIGHTS)
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_staircase_products_are_bit_equal(self, name):
        ws = _reference_weights(name)
        got = sc._staircase_products(ws)
        assert got.tobytes() == helpers.per_row_staircase_products(ws).tobytes()

    def test_failures_keep_their_order(self):
        trunc, weights = lattice.Truncation(2, 3), identity_stack(2, 3, 2)
        for alpha, j in (((0, 2), 1), ((1, 0), 0), ((0, 2), 0), ((0, 0), 1)):
            weights[j, trunc.position(alpha)] = np.diag([1.0, 0.0])
        weights[0, trunc.position((1, 1))] = [[1.0, 1.0], [0.0, 1.0]]
        ws = sc.WeightSystem(2, 3, 2, weights)
        got, want = sc.validate_weights(ws), helpers.per_index_validate_weights(ws)
        assert got.failures == want.failures
        assert [f.split(" is ")[0] for f in got.failures[:4]] == [
            "weight at alpha=(0, 0), j=1", "weight at alpha=(1, 0), j=0",
            "weight at alpha=(0, 2), j=0", "weight at alpha=(0, 2), j=1"]
        assert got.failures[4].startswith("commutation residual ")


class TestRootPassCount:
    """Shifts come from one root pass per family: the number of eigensolves
    does not grow with the truncation."""

    @pytest.mark.parametrize("what", ["build_mz", "shift_pair", "diagonal_intertwiner"])
    def test_eigensolves_do_not_grow_with_degree(self, monkeypatch, what):
        real, calls = numerics.herm_eig_batch, []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        counts = []
        for top in (3, 12):
            ms, mt = (sampling.random_moment_system(2, top, 2, [62, top, k]) for k in (0, 1))
            run = {"build_mz": lambda: sc.build_mz(ms, 1),
                   "shift_pair": lambda: eq.shift_pair(ms, mt),
                   "diagonal_intertwiner": lambda: helpers.diagonal_intertwiner(ms, mt, np.eye(2))}
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(numerics, "herm_eig_batch", counted)
                run[what]()
            counts.append(len(calls))
        assert counts[0] == counts[1]


class TestAdjointFormula:
    def test_identity_moments_zero_residual(self):
        ms = sc.moments_from_weights(identity_weights(2, 3, 2), hermpd(np.eye(2)))
        for j in range(2):
            assert sc.check_adjoint_formula(ms, j) <= 1e-13

    def test_scalar_geometric(self):
        grams = {(k,): hermpd(np.eye(1), k * math.log(4.0)) for k in range(5)}
        ms = sc.MomentSystem(1, 4, 1, grams)
        # in orthonormal coordinates the adjoint block is the constant 2
        mz = sc.build_mz(ms, 0)
        for k in range(4):
            assert mz.blocks[k][0, 0].real == pytest.approx(2.0, rel=1e-12)
        assert sc.check_adjoint_formula(ms, 0) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_random_systems(self, seed):
        ms = sampling.random_moment_system(2, 4, 2, 50 + seed)
        for j in range(2):
            assert sc.check_adjoint_formula(ms, j) <= 1e-9


class TestConstruction:
    def test_missing_weight_rejected(self):
        # d = 1, N = 2 has two interior rows; a stack of one is refused
        with pytest.raises(ValueError, match=r"^expected a \(1, 2, 1, 1\) weight stack, "
                                             r"got \(1, 1, 1, 1\)$"):
            sc.WeightSystem(1, 2, 1, np.ones((1, 1, 1, 1), dtype=np.complex128))

    def test_mis_shaped_weight_rejected(self):
        with pytest.raises(ValueError, match=r"^expected a \(1, 2, 1, 1\) weight stack, "
                                             r"got \(1, 2, 2, 2\)$"):
            sc.WeightSystem(1, 2, 1, np.tile(np.eye(2, dtype=np.complex128), (1, 2, 1, 1)))

    def test_weight_stack_order_and_from_arrays(self):
        ws = helpers.random_weight_system(2, 3, 2, 19)
        for r, alpha in enumerate(helpers.interior(ws.truncation())):
            for j in range(2):
                assert ws.weight(alpha, j).base is not None
                assert np.array_equal(ws.weight(alpha, j), ws.weights[j, r])
        assert sc.WeightSystem(2, 3, 2, ws.weights).weights is ws.weights
        with pytest.raises(ValueError):
            sc.WeightSystem(2, 3, 2, ws.weights[:, 1:])
        with pytest.raises(ValueError):
            sc.WeightSystem(2, 2, 2, ws.weights)

    def test_weight_stack_is_read_only(self):
        ws = identity_weights(2, 2, 2)
        with pytest.raises(ValueError):
            ws.weights[0, 0] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            ws.weight((0, 0), 1)[0, 0] = 2.0
        mats = np.stack([np.stack([np.eye(2)] * 3)] * 2).astype(np.complex128)
        assert not sc.WeightSystem(2, 2, 2, mats).weights.flags.writeable

    def test_missing_gram_rejected(self):
        with pytest.raises(ValueError):
            sc.MomentSystem(1, 1, 1, {(0,): hermpd(np.eye(1))})

    def test_mis_sized_gram_rejected(self):
        grams = {(0,): hermpd(np.eye(1)), (1,): hermpd(np.eye(2))}
        with pytest.raises(ValueError):
            sc.MomentSystem(1, 1, 1, grams)

    def test_from_arrays_matches_mapping_constructor(self):
        ms = sampling.random_moment_system(2, 2, 2, 15)
        grams = {alpha: ms.gram(alpha) for alpha in ms.truncation()}
        again = sc.MomentSystem(2, 2, 2, grams)
        assert np.array_equal(again.mats, ms.mats)
        assert np.array_equal(again.logs, ms.logs)
        with pytest.raises(ValueError):
            sc.MomentSystem.from_arrays(2, 2, 2, ms.mats[1:], ms.logs[1:])
        with pytest.raises(ValueError):
            sc.MomentSystem.from_arrays(2, 2, 3, ms.mats, ms.logs)

    def test_moment_stacking_order(self):
        ms = sampling.random_moment_system(2, 2, 2, 14)
        mats, logs = ms.mats, ms.logs
        for k, alpha in enumerate(ms.truncation()):
            assert np.array_equal(mats[k], ms.gram(alpha).matrix)
            assert logs[k] == ms.gram(alpha).logscale


class TestClassMaps:
    def test_row_built_families_have_the_identity_map(self):
        ms = sampling.random_moment_system(2, 3, 2, 16)
        grams = {alpha: ms.gram(alpha) for alpha in ms.truncation()}
        weighted = sc.moments_from_weights(identity_weights(2, 3, 2), hermpd(np.eye(2)))
        for family in (ms, sc.MomentSystem(2, 3, 2, grams), weighted,
                       sampling.congruent_pair(ms, 2.0 * np.eye(2))):
            assert family.classes.tolist() == list(range(10))
            assert family.mats is family.class_mats

    def test_class_stack_is_gathered_bit_for_bit(self):
        ms = sampling.random_moment_system(1, 2, 2, 17)  # three class matrices
        logs = np.array([0.0, 0.5, -1.0, 2.0, 0.25, 3.0])
        classes = np.array([0, 1, 1, 2, 0, 2])
        family = sc.GradedFamily(2, 2, 2, ms.mats, logs, classes)
        for k, c in enumerate(classes):
            assert family.mats[k].tobytes() == ms.mats[c].tobytes()
        row = family.row((1, 1))  # graded rank 4
        assert row.logscale == 0.25 and row.matrix.tobytes() == ms.mats[0].tobytes()

    def test_bad_class_maps_rejected(self):
        ms = sampling.random_moment_system(1, 2, 2, 18)
        logs = np.zeros(6)
        with pytest.raises(ValueError):
            sc.GradedFamily(2, 2, 2, ms.mats, logs, [0, 1, 2, 3, 0, 0])  # no class 3
        with pytest.raises(ValueError):
            sc.GradedFamily(2, 2, 2, ms.mats, logs, [0, 1, 2])  # one per row
        with pytest.raises(ValueError):
            sc.GradedFamily(2, 2, 2, ms.mats, logs)  # three rows for six indices
