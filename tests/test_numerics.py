import math

import numpy as np
import helpers
import pytest

from multishift import numerics as nx


def random_hermitian(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def random_pd_matrix(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T + n * np.eye(n)


class TestHermEig:
    def test_identity(self):
        eigs, v = nx.herm_eig(np.eye(2))
        assert np.allclose(eigs, [1.0, 1.0])
        assert nx.frob_norm(v.conj().T @ v - np.eye(2)) <= 1e-12

    def test_diagonal(self):
        eigs, v = nx.herm_eig(np.diag([3.0, 1.0]))
        assert np.allclose(eigs, [1.0, 3.0])
        # eigenvectors are permuted identity columns
        assert np.allclose(np.abs(v), [[0.0, 1.0], [1.0, 0.0]])

    def test_two_by_two_hand_case(self):
        # char. polynomial x^2 - 4x + 3 has roots 1 and 3
        eigs, _ = nx.herm_eig([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(eigs, [1.0, 3.0], atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reconstruction(self, n, seed):
        m = random_hermitian(n, np.random.default_rng(seed))
        eigs, v = nx.herm_eig(m)
        scale = max(nx.frob_norm(m), 1e-300)
        assert nx.frob_norm(v @ np.diag(eigs) @ v.conj().T - m) <= 1e-11 * scale
        assert nx.frob_norm(v.conj().T @ v - np.eye(n)) <= 1e-12
        assert np.all(np.diff(eigs) >= 0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(nx.NonHermitianError):
            nx.herm_eig([[1.0, 1.0], [0.0, 1.0]])

    def test_mild_asymmetry_symmetrized(self):
        m = np.array([[2.0, 1.0 + 1e-10], [1.0, 2.0]])
        eigs, _ = nx.herm_eig(m)
        assert np.allclose(eigs, [1.0, 3.0], atol=1e-9)


def random_hermitian_stack(rng, n, m=60):
    """Hermitian (m, n, n) stack at scales 1e-20 to 1e20, with diagonal rows
    and scalar rows (every eigenvalue equal)."""
    a = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    a = 0.5 * (a + a.conj().swapaxes(1, 2))
    a *= 10.0 ** rng.uniform(-20.0, 20.0, m)[:, None, None]
    a[::5] *= np.eye(n)
    a[1::7] = rng.uniform(-3.0, 3.0, (len(a[1::7]), 1, 1)) * np.eye(n)
    a[2::11] = a[2::11, :1, :1] * np.eye(n)
    return a


class TestHermEigBatch:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vectors_reconstruct_and_are_unitary(self, n, seed):
        a = random_hermitian_stack(np.random.default_rng([seed, n]), n)
        eigs, v = nx.herm_eig_batch(a, vectors=True)
        assert np.all(np.diff(eigs, axis=1) >= 0.0)
        scale = np.sqrt((np.abs(a) ** 2).sum(axis=(1, 2)))
        rebuilt = (v * eigs[:, None, :]) @ v.conj().swapaxes(1, 2)
        assert np.all(np.abs(rebuilt - a).max(axis=(1, 2)) <= 1e-14 * scale)
        gram = v.conj().swapaxes(1, 2) @ v
        assert np.abs(gram - np.eye(n)).max() <= 5e-16 * n

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rows_equal_single_matrix_result(self, n):
        a = random_hermitian_stack(np.random.default_rng([3, n]), n)
        for vectors in (False, True):
            eigs, v = nx.herm_eig_batch(a, vectors=vectors)
            for k in range(len(a)):
                one, one_v = nx.herm_eig_batch(a[k:k + 1], vectors=vectors)
                assert bits(eigs[k]) == bits(one[0]), k
                if vectors:
                    assert bits(v[k]) == bits(one_v[0]), k


class TestCholeskyAndSolve:
    def test_cholesky_reconstruction(self):
        # the Cholesky factor of the tests' reference pencil path
        rng = np.random.default_rng(3)
        g = random_pd_matrix(4, rng)
        low = helpers.cholesky_batch(g[None])[0]
        assert nx.frob_norm(low @ low.conj().T - g) <= 1e-12 * nx.frob_norm(g)

    def test_cholesky_indefinite(self):
        with pytest.raises(helpers.CholeskyError):
            helpers.cholesky_batch(np.diag([1.0, -1.0])[None])

    def test_solve_and_inv(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        x = nx.inv(a)
        assert nx.frob_norm(a @ x - np.eye(5)) <= 1e-12

    def test_solve_singular(self):
        with pytest.raises(nx.SingularMatrixError):
            nx.solve(np.zeros((2, 2)), np.eye(2))


class TestHermPD:
    def test_balancing_convention(self):
        h = nx.hermpd(np.diag([3e5, 1e5]))
        lo, hi = nx.singular_range(h.matrix)
        assert 0.5 <= hi <= 2.0
        assert np.allclose(h.value(), np.diag([3e5, 1e5]))

    def test_rebalance_idempotent(self):
        h = nx.hermpd(np.diag([7.25e8, 3.5e8, 1.0e8]), logscale=2.5)
        again = nx.hermpd(h.matrix, h.logscale)
        assert again.logscale == h.logscale
        assert np.array_equal(again.matrix, h.matrix)
        third = nx.hermpd(again.matrix, again.logscale)
        assert third.logscale == again.logscale
        assert np.array_equal(third.matrix, again.matrix)

    def test_not_positive_definite(self):
        with pytest.raises(nx.PositiveDefiniteError):
            nx.hermpd(np.diag([1.0, 0.0]))

    def test_from_log_diag_large_range(self):
        mats, tops = nx.hermpd_from_log_diag_batch([[500.0, 400.0]])
        logeigs = helpers.log_eigvals(nx.HermPD(mats[0], tops[0]))
        assert np.allclose(logeigs, [400.0, 500.0], atol=1e-9)

    def test_from_log_diag_overflow_guard(self):
        with pytest.raises(nx.PositiveDefiniteError):
            nx.hermpd_from_log_diag_batch([[0.0, -800.0]])


def bits(a):
    """Exact byte image of an array, so signed zeros count as different."""
    return np.ascontiguousarray(a).tobytes()


def random_balancing_stack(n, rng, m=40):
    """PD matrices spread over 60 decades, every seventh one diagonal."""
    mats = []
    for k in range(m):
        mat = random_pd_matrix(n, rng) * 10.0 ** rng.uniform(-30.0, 30.0)
        if k % 7 == 0:
            mat = np.diag(np.diag(mat).real).astype(np.complex128)
        mats.append(mat)
    logs = rng.uniform(-50.0, 50.0, m)
    logs[::5] = 0.0
    logs[1::9] = -0.0
    return np.stack(mats), logs


class TestBatchedBalancing:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_equal_per_matrix_hermpd(self, n, seed):
        raw, logs = random_balancing_stack(n, np.random.default_rng(seed))
        mats, out_logs = nx.hermpd_batch(raw, logs)
        assert not mats.flags.writeable
        for k in range(len(raw)):
            h = nx.hermpd(raw[k], logs[k])
            assert bits(mats[k]) == bits(h.matrix), k
            assert bits(out_logs[k]) == bits(np.float64(h.logscale)), k

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_inverse_rows_equal_per_matrix_inv_pd(self, n):
        raw, logs = random_balancing_stack(n, np.random.default_rng(10 + n))
        mats, logs = nx.hermpd_batch(raw, logs)
        inv_mats, inv_logs = nx.inv_pd_batch(mats, logs)
        for k in range(len(mats)):
            h = nx.inv_pd(nx.HermPD(mats[k], float(logs[k])))
            assert bits(inv_mats[k]) == bits(h.matrix), k
            assert bits(inv_logs[k]) == bits(np.float64(h.logscale)), k

    def test_log_diag_rows_equal_per_row(self):
        rng = np.random.default_rng(5)
        rows = rng.uniform(-300.0, 300.0, (200, 2))
        rows = rows[rows.max(axis=1) - rows.min(axis=1) <= 690.0]
        mats, tops = nx.hermpd_from_log_diag_batch(rows)
        for k, row in enumerate(rows):
            # the per-row construction hermpd_from_log_diag used before the stacks
            h = nx.hermpd(np.diag(np.exp(row - row.max())).astype(np.complex128), row.max())
            assert bits(mats[k]) == bits(h.matrix)
            assert tops[k] == h.logscale

    def test_first_failing_row_raises(self):
        raw = np.stack([np.eye(2), np.diag([1.0, -1.0]), np.eye(2)])
        with pytest.raises(nx.PositiveDefiniteError):
            nx.hermpd_batch(raw, np.zeros(3))
        raw[1] = [[1.0, 1.0], [0.0, 1.0]]
        with pytest.raises(nx.NonHermitianError):
            nx.hermpd_batch(raw, np.zeros(3))
        with pytest.raises(ValueError):
            nx.hermpd_batch(raw, np.zeros(2))


class TestSqrt:
    def test_identity(self):
        s = nx.sqrt_pd(nx.hermpd(np.eye(3)))
        assert np.allclose(s.value(), np.eye(3))

    def test_diagonal(self):
        s = nx.sqrt_pd(nx.hermpd(np.diag([4.0, 9.0])))
        assert np.allclose(s.value(), np.diag([2.0, 3.0]))

    def test_two_by_two_same_eigenvectors(self):
        h = nx.hermpd([[2.0, 1.0], [1.0, 2.0]])
        s = nx.sqrt_pd(h)
        eigs, v = nx.herm_eig(s.matrix)
        want = np.array([1.0, math.sqrt(3.0)]) * math.exp(-s.logscale)
        assert np.allclose(eigs, want, rtol=1e-12)
        base_eigs, base_v = nx.herm_eig(h.matrix)
        # same eigenvectors up to phase: columns agree in absolute value
        assert np.allclose(np.abs(v), np.abs(base_v), atol=1e-10)

    def test_square_recovers(self):
        rng = np.random.default_rng(5)
        h = nx.hermpd(random_pd_matrix(3, rng), logscale=1.75)
        s = nx.sqrt_pd(h)
        assert abs(2.0 * s.logscale - h.logscale) <= 1e-12 + abs(h.logscale) * 1e-12
        left = s.value() @ s.value()
        assert nx.frob_norm(left - h.value()) <= 1e-11 * nx.frob_norm(h.value())

    def test_sqrt_inv_sqrt_pair(self):
        rng = np.random.default_rng(6)
        h = nx.hermpd(random_pd_matrix(4, rng))
        prod = nx.sqrt_pd(h).value() @ nx.inv_sqrt_pd(h).value()
        assert nx.frob_norm(prod - np.eye(4)) <= 1e-10


class TestPencil:
    def test_identity_pencil(self):
        rng = np.random.default_rng(7)
        h = nx.hermpd(random_pd_matrix(3, rng))
        assert np.allclose(np.exp(helpers.pencil_logeigs(h, h)), np.ones(3), atol=1e-12)

    def test_scalar_multiple(self):
        rng = np.random.default_rng(8)
        h = nx.hermpd(random_pd_matrix(3, rng))
        doubled = helpers.logscaled(h, math.log(2.0))
        assert np.allclose(np.exp(helpers.pencil_logeigs(doubled, h)), 2.0 * np.ones(3),
                           rtol=1e-12)

    def test_diagonal_ratio(self):
        a = nx.hermpd(np.diag([1.0, 4.0]))
        b = nx.hermpd(np.diag([4.0, 1.0]))
        assert np.allclose(np.exp(helpers.pencil_logeigs(a, b)), [0.25, 4.0], rtol=1e-13)

    @pytest.mark.parametrize("c", [2.0, 0.5, 7.0])
    def test_scale_covariance_in_log_domain(self, c):
        # scaling A by c shifts every log eigenvalue by exactly log(c);
        # only float log/add rounding (a few ulps) separates the two sides
        rng = np.random.default_rng(9)
        a = nx.hermpd(random_pd_matrix(3, rng), logscale=0.75)
        b = nx.hermpd(random_pd_matrix(3, rng), logscale=-0.25)
        base = helpers.pencil_logeigs(a, b)
        shifted = helpers.pencil_logeigs(helpers.logscaled(a, math.log(c)), b)
        assert np.allclose(shifted, base + math.log(c), rtol=0, atol=1e-13)

    def test_indefinite_denominator_raises(self):
        a = nx.hermpd(np.eye(2))
        bad = nx.HermPD(np.diag([1.0, -1.0]).astype(complex), 0.0)
        with pytest.raises(nx.PositiveDefiniteError):
            helpers.pencil_logeigs(a, bad)


class TestPolar:
    def test_unitary_fixed_point(self):
        rng = np.random.default_rng(10)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u0 = nx.polar_unitary(z)
        assert nx.frob_norm(nx.polar_unitary(u0) - u0) <= 1e-12

    def test_positive_scaling_removed(self):
        assert np.allclose(nx.polar_unitary(2.0 * np.eye(3)), np.eye(3), atol=1e-13)

    def test_per_entry_phases(self):
        u = nx.polar_unitary(np.diag([2.0, -3.0]))
        assert np.allclose(u, np.diag([1.0, -1.0]), atol=1e-13)

    def test_minimizes_distance(self):
        rng = np.random.default_rng(11)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u = nx.polar_unitary(z)
        assert nx.frob_norm(u.conj().T @ u - np.eye(3)) <= 1e-12
        base = nx.frob_norm(u - z)
        for k in range(8):
            w = nx.polar_unitary(
                rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            )
            assert base <= nx.frob_norm(w - z) + 1e-12

    def test_rank_deficient(self):
        with pytest.raises(nx.RankDeficientError):
            nx.polar_unitary(np.diag([1.0, 0.0]))
