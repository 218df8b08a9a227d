import numpy as np
import pytest

from hdrmimo.linalg import (
    dominant_eigenpair,
    hadamard,
    householder_apply,
    posdef_inverse_apply,
)
from oracles import complex_sign, householder_matrix, random_complex


class TestComplexSign:
    def test_phase_of_nonzero(self):
        assert complex_sign(3.0) == 1.0
        assert complex_sign(-2.0) == -1.0
        assert complex_sign(2j) == 1j

    def test_zero_maps_to_one(self):
        assert complex_sign(0.0) == 1.0 + 0.0j


class TestHouseholderMatrix:
    def test_axis_reflection(self):
        q = householder_matrix(np.array([1.0, 0.0]))
        assert np.allclose(q, np.array([[-1.0, 0.0], [0.0, 1.0]]))

    def test_hand_arithmetic_example(self):
        # v = [8, 4]: ||v||^2 = 80, 2 v v^H / 80 = [[1.6, .8], [.8, .4]]
        q = householder_matrix(np.array([8.0, 4.0]))
        assert np.allclose(q, np.array([[-0.6, -0.8], [-0.8, 0.6]]), atol=1e-14)

    def test_involution_and_unitarity(self):
        rng = np.random.default_rng(1)
        for m in (2, 4, 8, 16):
            v = random_complex(rng, m)
            q = householder_matrix(v)
            assert np.allclose(q @ q, np.eye(m), atol=1e-12)
            assert np.allclose(q, q.conj().T, atol=1e-14)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            householder_matrix(np.zeros(3))


class TestHouseholderApply:
    def test_hand_arithmetic_example(self):
        out = householder_apply(np.array([8.0, 4.0]), np.array([3.0, 4.0]))
        assert np.allclose(out, [-5.0, 0.0], atol=1e-14)

    def test_orthogonal_input_unchanged(self):
        v = np.array([1.0 + 1j, 2.0])
        x = np.array([2.0, -1.0 + 1j])  # v^H x = (1-1j)*2 + 2*(-1+1j) = 0
        assert abs(np.vdot(v, x)) < 1e-15
        assert np.allclose(householder_apply(v, x), x, atol=1e-14)

    def test_normal_vector_negated(self):
        rng = np.random.default_rng(2)
        v = random_complex(rng, 5)
        assert np.allclose(householder_apply(v, v), -v, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            householder_apply(np.ones(3), np.ones(4))

    def test_matches_dense_multiply(self):
        rng = np.random.default_rng(3)
        for _ in range(250):
            for m in (2, 4, 8, 16):
                v = random_complex(rng, m)
                x = random_complex(rng, m)
                dense = householder_matrix(v) @ x
                fast = householder_apply(v, x)
                assert np.linalg.norm(fast - dense) <= 1e-12 * np.linalg.norm(x)

    def test_norm_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = int(rng.integers(2, 17))
            v = random_complex(rng, m)
            x = random_complex(rng, m)
            assert np.isclose(
                np.linalg.norm(householder_apply(v, x)),
                np.linalg.norm(x),
                rtol=1e-12,
            )

    def test_matrix_columns(self):
        rng = np.random.default_rng(5)
        v = random_complex(rng, 6)
        x = random_complex(rng, 6, 9)
        dense = householder_matrix(v) @ x
        assert np.allclose(householder_apply(v, x), dense, atol=1e-12)


def _power_iteration_top(c, iters=5000):
    # Independent route to the dominant eigenpair for oracle comparisons.
    rng = np.random.default_rng(0)
    x = rng.standard_normal(c.shape[0]) + 1j * rng.standard_normal(c.shape[0])
    x = x / np.linalg.norm(x)
    lam = 0.0
    for _ in range(iters):
        y = c @ x
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0
        x = y / norm
        lam = float(np.real(np.vdot(x, c @ x)))
    return lam


class TestDominantEigenpair:
    def test_diagonal_case(self):
        value, vector = dominant_eigenpair(np.diag([4.0, 1.0]).astype(complex))
        assert np.isclose(value, 4.0)
        assert np.isclose(abs(vector[0]), 1.0, atol=1e-12)
        assert abs(vector[1]) < 1e-12

    def test_degenerate_spectrum(self):
        value, vector = dominant_eigenpair(np.eye(3, dtype=complex))
        assert np.isclose(value, 1.0)
        assert np.isclose(np.linalg.norm(vector), 1.0, atol=1e-10)

    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            c = a @ a.conj().T
            value, vector = dominant_eigenpair(c)
            assert np.isclose(value, _power_iteration_top(c), rtol=1e-8)
            residual = np.linalg.norm(c @ vector - value * vector)
            assert residual <= 1e-10 * value

    def test_rayleigh_quotient_upper_bound(self):
        rng = np.random.default_rng(7)
        a = random_complex(rng, 8, 8)
        c = a @ a.conj().T
        value, _ = dominant_eigenpair(c)
        z = random_complex(rng, 8, 1000)
        z = z / np.linalg.norm(z, axis=0)
        quotients = np.real(np.sum(z.conj() * (c @ z), axis=0))
        assert np.all(value >= quotients - 1e-9 * value)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            dominant_eigenpair(np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex))


class TestPosdefInverseApply:
    def test_identity(self):
        rng = np.random.default_rng(8)
        b = random_complex(rng, 4, 3)
        assert np.allclose(posdef_inverse_apply(np.eye(4, dtype=complex), b), b)

    def test_diagonal(self):
        x = posdef_inverse_apply(np.diag([2.0, 4.0]).astype(complex), np.eye(2))
        assert np.allclose(x, np.diag([0.5, 0.25]))

    def test_residual_and_double_solve(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = random_complex(rng, 10, 10)
            a = g @ g.conj().T + np.eye(10)
            b = random_complex(rng, 10, 4)
            x = posdef_inverse_apply(a, b)
            residual = np.linalg.norm(a @ x - b, axis=0)
            assert np.all(residual <= 1e-9 * np.linalg.norm(b))
            again = posdef_inverse_apply(a, a @ x)
            assert np.allclose(again, x, atol=1e-8 * np.linalg.norm(x))

    def test_indefinite_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            posdef_inverse_apply(np.diag([1.0, -1.0]).astype(complex), np.eye(2))

    def test_diagonally_scaled_matrix_accepted(self):
        # D A D for a well-conditioned A and row scales spanning 8 decades:
        # each pivot is as large against its own diagonal entry as for A.
        rng = np.random.default_rng(10)
        g = random_complex(rng, 6, 6)
        a = g @ g.conj().T + 6.0 * np.eye(6)
        d = np.logspace(0, -8, 6)
        b = random_complex(rng, 6, 2)
        x = posdef_inverse_apply(d[:, None] * a * d[None, :], b)
        expected = np.linalg.solve(a, b / d[:, None])
        scaled_x = d[:, None] * x
        assert np.linalg.norm(scaled_x - expected) <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("scales", [np.ones(3), np.logspace(0, -8, 3)])
    def test_singular_rejected_at_any_row_scale(self, scales):
        v = np.array([1.0, 2.0 - 1.0j, 3.0j]) * scales
        with pytest.raises(np.linalg.LinAlgError):
            posdef_inverse_apply(np.outer(v, v.conj()), np.eye(3))


class TestHadamard:
    def test_order_two(self):
        assert np.array_equal(hadamard(2), np.array([[1.0, 1.0], [1.0, -1.0]]))

    def test_sylvester_doubling(self):
        h2 = hadamard(2)
        expected = np.block([[h2, h2], [h2, -h2]])
        assert np.array_equal(hadamard(4), expected)

    def test_orthogonality_exact(self):
        for k in (1, 2, 4, 8, 16, 32, 64):
            s = hadamard(k)
            assert np.array_equal(s @ s.T, k * np.eye(k))
            assert np.array_equal(np.abs(s), np.ones((k, k)))

    def test_non_power_of_two_rejected(self):
        for k in (0, 3, 6, 12, -4):
            with pytest.raises(ValueError):
                hadamard(k)
