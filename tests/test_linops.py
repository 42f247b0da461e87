"""Operator plumbing: adjoint consistency and exact spectral norms.

The norm oracle for small matrices is an independent one-sided Jacobi SVD
working on the dense matrix, a method unrelated to the Gram eigenvalue it
checks; larger ones use LAPACK's SVD.
"""

import numpy as np
import pytest

from pdsplit import linops
from pdsplit.bench import generate_lad
from pdsplit.linops import (DenseOperator, DiagonalOperator, ScaledIdentity,
                            estimate_operator_norm, negated_identity,
                            NORM_SAFETY)

# above this many columns and rows the Jacobi oracle is too slow: use LAPACK
JACOBI_MAX_SIDE = 256


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


def _count_products(monkeypatch):
    """Count ``DenseOperator`` forward and adjoint products from now on."""
    count = [0]

    def counted(product):
        def wrapper(op, v):
            count[0] += 1
            return product(op, v)
        return wrapper

    for name in ("apply", "adjoint"):
        monkeypatch.setattr(DenseOperator, name, counted(getattr(DenseOperator, name)))
    return count


# the last two shapes are above JACOBI_MAX_SIDE, so LAPACK is their reference
@pytest.mark.parametrize("shape", [(5, 5), (8, 3), (3, 8), (20, 20), (600, 300), (300, 900)])
def test_gram_norm_against_svd(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    M = rng.standard_normal(shape)
    est = estimate_operator_norm(DenseOperator(M))
    if min(shape) > JACOBI_MAX_SIDE:
        ref = np.linalg.svd(M, compute_uv=False)[0]
    else:
        ref = jacobi_largest_singular_value(M)
    assert abs(est - ref) <= 1e-12 * ref


def _clustered(m, n, seed):
    """``m×n`` with singular values 1, 0.999, then 0.99 down to 0.1."""
    rng = np.random.default_rng(seed)
    k = min(m, n)
    sigma = np.concatenate(([1.0, 0.999], np.linspace(0.99, 0.1, k - 2)))
    U = np.linalg.qr(rng.standard_normal((m, k)))[0]
    V = np.linalg.qr(rng.standard_normal((n, k)))[0]
    return (U * sigma) @ V.T


@pytest.mark.parametrize("shape", [(200, 100), (600, 300), (300, 600)])
def test_norm_bound_never_under_a_clustered_spectrum(shape):
    # sigma_max is 0.1 % above the next singular value: an iterative
    # estimate stopped early falls below it here, safety factor included
    for seed in range(20):
        M = _clustered(*shape, seed)
        assert DenseOperator(M).norm_bound() >= np.linalg.svd(M, compute_uv=False)[0]


def test_norm_of_a_low_rank_operator_is_exact(monkeypatch):
    rng = np.random.default_rng(3)
    M = rng.standard_normal((400, 5)) @ rng.standard_normal((5, 900))
    count = _count_products(monkeypatch)
    est = estimate_operator_norm(DenseOperator(M))
    ref = np.linalg.svd(M, compute_uv=False)[0]
    assert abs(est - ref) <= 1e-12 * ref
    # rank 5 of 400: the Gram eigenvalue is exact without an operator product
    assert count[0] == 0


def test_norm_products_on_the_large_lad_instance(monkeypatch):
    count = _count_products(monkeypatch)
    bundle = generate_lad(500, 2000, seed=1)
    assert count[0] == 0   # the norm comes from the dense Gram matrix
    M = bundle.prox_form.A.to_dense()
    ref = np.linalg.svd(M, compute_uv=False)[0]
    assert abs(bundle.prox_form.A.norm() - ref) <= 1e-12 * ref


def test_norm_scaled_identity():
    op = ScaledIdentity(-3.25, 6)
    assert op.norm() == 3.25


def test_norm_diagonal():
    op = DiagonalOperator(np.array([3.0, -4.0, 1.0]))
    assert op.norm() == 4.0


def test_zero_operator_norm_is_exact_zero():
    for shape in ((4, 4), (300, 400)):   # a small and a large Gram matrix
        op = DenseOperator(np.zeros(shape))
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

