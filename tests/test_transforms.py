import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fftddm import oracle, transforms
from fftddm.errors import ValidationError

NS = [2, 3, 4, 8, 16, 32]


def cases():
    for bc in transforms.BC_PAIRS:
        for n in NS:
            if bc == "PP" and n % 2:
                continue
            yield bc, n


class TestEigenvalues:
    def test_dd_n1(self):
        lam = transforms.eigenvalues("DD", 1, 1.0, 1.0)
        np.testing.assert_allclose(lam, [-4.0], atol=1e-15)

    def test_dd_n3(self):
        lam = transforms.eigenvalues("DD", 3, 1.0, 1.0)
        np.testing.assert_allclose(
            sorted(lam), sorted([-4 + np.sqrt(2), -4.0, -4 - np.sqrt(2)]))

    def test_nn_n3_uses_denominator_n(self):
        # dense eigendecomposition of the corner-modified matrix pins the
        # cosine argument to (j-1) pi / n, not (j-1) pi / (n-1)
        lam = transforms.eigenvalues("NN", 3, 1.0, 0.0)
        np.testing.assert_allclose(sorted(lam), [-3.0, -1.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("bc,n", list(cases()))
    def test_matches_dense_spectrum(self, bc, n):
        lam = transforms.eigenvalues(bc, n, 1.7, 0.3, kappa=-0.5)
        A = oracle.assemble_axis_matrix(bc, n, 1.7, 0.3, kappa=-0.5)
        dense = np.linalg.eigvalsh(A)
        np.testing.assert_allclose(sorted(lam), dense, atol=1e-10)

    def test_kappa_is_a_plain_shift(self):
        base = transforms.eigenvalues("DD", 5, 1.0, 1.0)
        shifted = transforms.eigenvalues("DD", 5, 1.0, 1.0, kappa=3.5)
        np.testing.assert_allclose(shifted - base, 3.5)

    def test_unknown_bc_rejected(self):
        with pytest.raises(ValidationError, match="DN"):
            transforms.eigenvalues("DN", 4, 1.0, 1.0)


# (first, last) half-cell ends of a Dirichlet axis
HALF_ENDS = ((1, 0), (0, 1), (1, 1))


def half_cell_axis_matrix(n, ends, delta_t, delta_o, kappa):
    """The DD axis matrix with -delta_t added at each half-cell end."""
    A = oracle.assemble_axis_matrix("DD", n, delta_t, delta_o, kappa=kappa)
    A[0, 0] -= delta_t * ends[0]
    A[-1, -1] -= delta_t * ends[1]
    return A


class TestHalfCellPlans:
    @pytest.mark.parametrize("ends", HALF_ENDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17])
    def test_diagonalizes_the_axis(self, n, ends):
        plan = transforms.make_plan("DD", n, 1.3, 0.4, 0.2, ends)
        assert plan.ends == ends
        Q = np.column_stack(
            [transforms.apply_Q(plan, col) for col in np.eye(n)])
        assert np.abs(Q.T @ Q - np.eye(n)).max() <= 1e-13
        D = Q.T @ half_cell_axis_matrix(n, ends, 1.3, 0.4, 0.2) @ Q
        lam = plan.eigenvalues
        assert np.abs(D - np.diag(lam)).max() \
            <= 1e-12 * np.abs(lam).max()

    @pytest.mark.parametrize("n", [5, 300])
    def test_dense_at_any_length(self, n, rng):
        # Q is not symmetric: Q^T and Q are two products with the cached
        # shifted sine matrix, past the DST-I's dense cut too
        plan = transforms.make_plan("DD", n, 1.0, 1.0, 0.0, (0, 1))
        Q = transforms.sine_matrix(n, 0, 1)
        assert plan.twiddles[0] is Q and plan.twiddles[1].base is Q
        V = rng.standard_normal((2, n))
        np.testing.assert_array_equal(transforms.apply_Qt(plan, V), V @ Q)
        np.testing.assert_array_equal(transforms.apply_Q(plan, V), V @ Q.T)

    def test_pure_ends_keep_the_dst1(self):
        a, b = (transforms.make_plan("DD", 9, 1.0, 1.0, 0.0, e)
                for e in ((0, 0), [0, 0]))
        np.testing.assert_array_equal(
            a.eigenvalues, transforms.eigenvalues("DD", 9, 1.0, 1.0))
        assert a.twiddles[0] is a.twiddles[1] is b.twiddles[0]
        assert a.ends == b.ends == (0, 0)

    @pytest.mark.parametrize("bc", ["NN", "PP"])
    def test_ends_need_a_dirichlet_pair(self, bc):
        with pytest.raises(ValidationError, match="half-cell"):
            transforms.make_plan(bc, 4, 1.0, 1.0, 0.0, (1, 0))


class TestMakePlan:
    def test_pp_odd_rejected(self):
        with pytest.raises(ValidationError):
            transforms.make_plan("PP", 3, 1.0, 1.0)

    def test_zero_length_rejected(self):
        with pytest.raises(ValidationError):
            transforms.make_plan("DD", 0, 1.0, 1.0)

    def test_unknown_bc_rejected(self):
        with pytest.raises(ValidationError, match="DN"):
            transforms.make_plan("DN", 4, 1.0, 1.0)

    def test_eigenvalues_read_only(self):
        plan = transforms.make_plan("DD", 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            plan.eigenvalues[0] = 0.0

    def test_short_sine_plans_share_one_read_only_matrix(self):
        a, b = (transforms.make_plan("DD", 192, 1.0, d, 0.5) for d in (1, 2))
        q = a.twiddles[0]
        assert q.shape == (192, 192) and not q.flags.writeable
        assert all(t is q for t in (*a.twiddles, *b.twiddles))
        # longer sine transforms keep the FFT kernel's one scale
        assert transforms.make_plan("DD", 257, 1.0, 1.0).twiddles[0].shape \
            == ()

    @pytest.mark.parametrize("bc", ["NN", "PP"])
    def test_short_cosine_and_fourier_plans_are_dense(self, bc):
        # up to length 128 one product with (Q, Q^T) beats the FFT call;
        # past it the plan keeps the FFT kernel's twiddle rows
        short, long = (transforms.make_plan(bc, n, 1.0, 1.0)
                       for n in (128, 130))
        Q = oracle.assemble_eigvector_matrix(bc, 128)
        assert all(t.ndim == 2 and not t.flags.writeable
                   for t in short.twiddles)
        np.testing.assert_allclose(short.twiddles[0], Q, rtol=0, atol=1e-12)
        np.testing.assert_allclose(short.twiddles[1], Q.T, rtol=0, atol=1e-12)
        assert all(t.ndim == 1 for t in long.twiddles)

    def test_plans_compare_by_identity(self):
        a, b = (transforms.make_plan("NN", 8, 1.0, 1.0, 0.0) for _ in range(2))
        assert a == a and a != b
        plans = [a, b, a]
        assert b in plans and plans.count(a) == 2 and plans.index(b) == 1
        assert len({a, b}) == 2


class TestApplyQ:
    def test_dd_n3_first_basis_vector(self):
        plan = transforms.make_plan("DD", 3, 1.0, 1.0)
        out = transforms.apply_Q(plan, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, [0.5, 1.0 / np.sqrt(2), 0.5],
                                   atol=1e-14)

    def test_zero_maps_to_zero(self):
        for bc, n in cases():
            plan = transforms.make_plan(bc, n, 1.0, 1.0)
            assert not transforms.apply_Q(plan, np.zeros(n)).any()

    def test_nn_n4_second_column(self):
        plan = transforms.make_plan("NN", 4, 1.0, 1.0)
        Q = oracle.assemble_eigvector_matrix("NN", 4)
        out = transforms.apply_Q(plan, np.eye(4)[1])
        np.testing.assert_allclose(out, Q[:, 1], atol=1e-13)

    def test_length_mismatch_rejected(self):
        plan = transforms.make_plan("DD", 4, 1.0, 1.0)
        with pytest.raises(ValidationError):
            transforms.apply_Q(plan, np.zeros(5))

    def test_batched_rows_match_loop(self, rng):
        plan = transforms.make_plan("PP", 8, 1.0, 1.0)
        V = rng.standard_normal((5, 8))
        batched = transforms.apply_Q(plan, V)
        for row, want in zip(V, batched):
            np.testing.assert_allclose(transforms.apply_Q(plan, row), want,
                                       atol=1e-13)


class TestOrthogonality:
    @pytest.mark.parametrize("bc,n", list(cases()))
    def test_round_trip_identity(self, bc, n, rng):
        plan = transforms.make_plan(bc, n, 1.0, 1.0)
        v = rng.standard_normal(n)
        w = transforms.apply_Qt(plan, transforms.apply_Q(plan, v))
        assert np.abs(w - v).max() <= 1e-12 * max(np.abs(v).max(), 1.0)

    @given(n=st.integers(2, 24))
    @settings(max_examples=25, deadline=None)
    def test_dd_self_transpose(self, n):
        plan = transforms.make_plan("DD", n, 1.0, 1.0)
        v = np.sin(np.arange(n) + 0.5)
        np.testing.assert_allclose(transforms.apply_Q(plan, v),
                                   transforms.apply_Qt(plan, v), atol=1e-12)


class TestDiagonalization:
    @pytest.mark.parametrize("bc,n", [(bc, n) for bc, n in cases() if n <= 16])
    def test_qt_a_q_is_diagonal(self, bc, n):
        plan = transforms.make_plan(bc, n, 1.3, 0.4, kappa=0.2)
        A = oracle.assemble_axis_matrix(bc, n, 1.3, 0.4, kappa=0.2)
        Q = np.column_stack(
            [transforms.apply_Q(plan, col) for col in np.eye(n)])
        D = Q.T @ A @ Q
        lam = plan.eigenvalues
        err = np.abs(D - np.diag(lam)).max()
        assert err <= 1e-10 * max(np.abs(lam).max(), 1.0)


# every small length, plus 64, and 192 and 256, whose n + 1 is prime; then
# 257, 384, 512 and 513, past the last dense sine transform, so the FFT
# kernel _dst1 is checked too; 126 to 130 straddle the dense cut of the
# cosine and Fourier bases, so their FFT kernels run at 129 and 130
PARITY_NS = list(range(1, 34)) + [64, 126, 127, 128, 129, 130, 192, 256,
                                   257, 384, 512, 513]


class TestFftMatchesDense:
    @pytest.mark.parametrize("n,bc", [(n, bc) for n in PARITY_NS
                                      for bc in transforms.BC_PAIRS
                                      if bc != "PP" or n % 2 == 0])
    def test_apply_q_equals_dense_q(self, bc, n, rng):
        plan = transforms.make_plan(bc, n, 1.0, 1.0)
        Q = oracle.assemble_eigvector_matrix(bc, n)
        batch = rng.standard_normal((3, n))
        # the transposed view is what a transform along x receives
        transposed = rng.standard_normal((n, 3)).T
        assert not transposed.flags.c_contiguous or n == 1
        for V in (batch, transposed):
            for got, want in ((transforms.apply_Q(plan, V), V @ Q.T),
                              (transforms.apply_Qt(plan, V), V @ Q)):
                assert got.shape == V.shape
                err = np.abs(got - want).max()
                assert err <= 1e-12 * np.abs(want).max()
