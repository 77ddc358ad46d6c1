import numpy as np
import pytest

from fftddm import oracle
from fftddm.errors import SingularOperatorError, ValidationError

from conftest import make_rect


class TestAxisMatrix:
    def test_dd_n2(self):
        A = oracle.assemble_axis_matrix("DD", 2, 1.0, 1.0)
        np.testing.assert_allclose(A, [[-4.0, 1.0], [1.0, -4.0]])

    def test_nn_n2_corner_entries(self):
        A = oracle.assemble_axis_matrix("NN", 2, 1.0, 1.0)
        np.testing.assert_allclose(A, [[-3.0, 1.0], [1.0, -3.0]])

    def test_pp_n3_circulant(self):
        A = oracle.assemble_axis_matrix("PP", 3, 1.0, 1.0)
        np.testing.assert_allclose(A, [[-4.0, 1.0, 1.0],
                                       [1.0, -4.0, 1.0],
                                       [1.0, 1.0, -4.0]])

    def test_kappa_on_diagonal(self):
        A = oracle.assemble_axis_matrix("DD", 3, 2.0, 0.5, kappa=0.25)
        np.testing.assert_allclose(np.diag(A), -2.0 * 2.5 + 0.25)

    def test_unknown_pair_rejected(self):
        with pytest.raises(ValidationError):
            oracle.assemble_axis_matrix("DN", 3, 1.0, 1.0)


class TestRectMatrix:
    def test_symmetry(self, rng):
        for x_pair, y_pair in (("DD", "DD"), ("NN", "DD"), ("DD", "PP")):
            sub = make_rect(4, 4, x_pair, y_pair, kappa=-1.0)
            A = oracle.assemble_rect_matrix(sub)
            np.testing.assert_allclose(A, A.T, atol=1e-14)

    def test_dd_3x3_row_sums(self):
        # interior row of the 5-point stencil sums to 0, boundary rows to -delta
        A = oracle.assemble_rect_matrix(make_rect(3, 3))
        center = 4  # node (2, 2)
        assert A[center].sum() == pytest.approx(0.0)
        assert A[0].sum() == pytest.approx(-2.0)

    def test_size_guard(self):
        with pytest.raises(ValidationError):
            oracle.assemble_rect_matrix(make_rect(200, 200))


class TestDenseKernels:
    def test_lu_tridiagonal_example(self):
        M = np.array([[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]])
        x = oracle.dense_lu_solve(M, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(x, [-0.75, -0.5, -0.25])

    def test_lu_singular_raises(self):
        with pytest.raises(SingularOperatorError):
            oracle.dense_lu_solve(np.ones((3, 3)), np.ones(3))


class TestEigvectorMatrix:
    @pytest.mark.parametrize("bc,n", [("DD", 5), ("NN", 5), ("PP", 6)])
    def test_orthonormal_and_diagonalizing(self, bc, n):
        Q = oracle.assemble_eigvector_matrix(bc, n)
        np.testing.assert_allclose(Q.T @ Q, np.eye(n), atol=1e-13)
        A = oracle.assemble_axis_matrix(bc, n, 1.0, 0.0)
        D = Q.T @ A @ Q
        np.testing.assert_allclose(D, np.diag(np.diag(D)), atol=1e-12)
