"""Operator plumbing: adjoint consistency and spectral norm estimation.

The norm oracle used here is an independent one-sided Jacobi SVD working
on the dense matrix, so the power iteration is checked against a method
with a completely different convergence mechanism.
"""

import numpy as np
import pytest

from pdsplit import linops
from pdsplit.linops import (DenseOperator, DiagonalOperator, OperatorNormError,
                            ScaledIdentity, estimate_operator_norm,
                            negated_identity, NORM_SAFETY)


def jacobi_largest_singular_value(M, sweeps=60):
    """Largest singular value via one-sided Jacobi rotations on columns."""
    U = np.array(M, dtype=float)
    n = U.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                app = U[:, p] @ U[:, p]
                aqq = U[:, q] @ U[:, q]
                apq = U[:, p] @ U[:, q]
                off = max(off, abs(apq))
                if abs(apq) < 1e-15:
                    continue
                tau = (aqq - app) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                up = U[:, p].copy()
                U[:, p] = c * up - s * U[:, q]
                U[:, q] = s * up + c * U[:, q]
        if off < 1e-14:
            break
    return float(np.sqrt(max(np.sum(U * U, axis=0))))


def test_adjoint_consistency_dense():
    rng = np.random.default_rng(7)
    op = DenseOperator(rng.standard_normal((6, 9)))
    for _ in range(100):
        v = rng.standard_normal(9)
        w = rng.standard_normal(6)
        assert np.isclose(w @ op.apply(v), op.adjoint(w) @ v, rtol=1e-12, atol=1e-12)


def test_adjoint_consistency_structured():
    rng = np.random.default_rng(8)
    ops = [DiagonalOperator(rng.standard_normal(5)), ScaledIdentity(-2.5, 5)]
    for op in ops:
        for _ in range(100):
            v = rng.standard_normal(5)
            w = rng.standard_normal(5)
            assert np.isclose(w @ op.apply(v), op.adjoint(w) @ v, rtol=1e-12, atol=1e-12)


def test_to_dense_matches_apply():
    rng = np.random.default_rng(9)
    M = rng.standard_normal((4, 7))
    op = DenseOperator(M)
    v = rng.standard_normal(7)
    assert np.allclose(op.to_dense() @ v, op.apply(v))
    assert np.allclose(negated_identity(3).to_dense(), -np.eye(3))


@pytest.mark.parametrize("shape", [(5, 5), (8, 3), (3, 8), (20, 20)])
def test_power_iteration_against_jacobi_svd(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    M = rng.standard_normal(shape)
    est = estimate_operator_norm(DenseOperator(M), tol=1e-12)
    ref = jacobi_largest_singular_value(M)
    assert abs(est - ref) <= 1e-8 * ref


def test_norm_scaled_identity():
    op = ScaledIdentity(-3.25, 6)
    assert abs(op.norm() - 3.25) <= 1e-10


def test_norm_diagonal():
    op = DiagonalOperator(np.array([3.0, -4.0, 1.0]))
    assert abs(op.norm() - 4.0) <= 1e-8


def test_zero_operator_norm_is_exact_zero():
    op = DenseOperator(np.zeros((4, 4)))
    assert estimate_operator_norm(op) == 0.0
    assert op.norm() == 0.0


def test_norm_bound_inflates():
    op = DenseOperator(np.array([[2.0]]))
    assert op.norm_bound() == pytest.approx(2.0 * NORM_SAFETY)
    assert op.norm_bound() >= op.norm()


def test_norm_cache_is_set_once(monkeypatch):
    calls = []
    monkeypatch.setattr(linops, "estimate_operator_norm", lambda op: calls.append(op) or 5.0)
    op = DenseOperator(np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert op.norm() == 5.0 and op.norm() == 5.0
    assert calls == [op]
    # a direct estimate (the unpatched function) leaves the operator's cache alone
    fresh = DenseOperator(np.array([[3.0]]))
    assert estimate_operator_norm(fresh) == pytest.approx(3.0)
    assert fresh._norm is None


def test_nonconvergence_raises_with_last_estimate():
    # a single iteration can never satisfy the relative-change test
    op = DenseOperator(np.diag([1.0, 0.9]))
    with pytest.raises(OperatorNormError) as exc:
        estimate_operator_norm(op, tol=1e-12, max_iters=1)
    assert exc.value.last_estimate > 0.8
