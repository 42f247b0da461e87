"""Linear operators with adjoints and cached exact spectral norms.

All operators are dense, double precision, and immutable after construction
except for the norm cache, which :meth:`LinearOperator.norm` fills once.
:func:`estimate_operator_norm` gives the norm exactly up to rounding: by a
closed form, by one dense Gram eigenvalue, or by Lanczos, by size.
"""

import numpy as np

__all__ = [
    "LinearOperator",
    "DenseOperator",
    "DiagonalOperator",
    "ScaledIdentity",
    "negated_identity",
    "estimate_operator_norm",
]

# Safety inflation applied on top of the computed norm before it enters any
# step-size condition.  The contraction theory tolerates a norm over-estimate
# but not an under-estimate; the computed norm is exact up to rounding, a
# relative error far below this margin.
NORM_SAFETY = 1.0 + 1e-6

# Operators whose smaller side has at most this many entries take their
# norm from the dense Gram matrix on that side; larger ones run Lanczos,
# which keeps no Gram matrix.
GRAM_MAX_SIDE = 256


class LinearOperator:
    """Base class: a linear map with an adjoint and a cached norm.

    Subclasses implement ``apply``, ``adjoint`` and ``to_dense``; ``shape``
    is ``(rows, cols)``.
    """

    def __init__(self, shape):
        self.shape = (int(shape[0]), int(shape[1]))
        self._norm = None

    def apply(self, v):
        raise NotImplementedError

    def adjoint(self, w):
        raise NotImplementedError

    def to_dense(self):
        raise NotImplementedError

    def norm(self):
        """Spectral norm (largest singular value), computed on first use."""
        if self._norm is None:
            self._norm = float(estimate_operator_norm(self))
        return self._norm

    def norm_bound(self):
        """Safely inflated norm for use in step-size conditions."""
        return self.norm() * NORM_SAFETY


class DenseOperator(LinearOperator):
    """Operator backed by a dense matrix."""

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-D")
        super().__init__(matrix.shape)
        self.matrix = matrix

    def apply(self, v):
        return self.matrix @ v

    def adjoint(self, w):
        return self.matrix.T @ w

    def to_dense(self):
        return self.matrix


class DiagonalOperator(LinearOperator):
    """Square operator ``diag(d)``."""

    def __init__(self, diag):
        diag = np.asarray(diag, dtype=float)
        if diag.ndim != 1:
            raise ValueError("diag must be 1-D")
        super().__init__((diag.size, diag.size))
        self.diag = diag

    def apply(self, v):
        return self.diag * v

    def adjoint(self, w):
        return self.diag * w

    def to_dense(self):
        return np.diag(self.diag)


class ScaledIdentity(LinearOperator):
    """Operator ``c * I`` on R^n."""

    def __init__(self, scale, n):
        super().__init__((n, n))
        self.scale = float(scale)

    def apply(self, v):
        return self.scale * v

    def adjoint(self, w):
        return self.scale * w

    def to_dense(self):
        return self.scale * np.eye(self.shape[0])


def negated_identity(n):
    """``-I`` on R^n, the coupling operator of composite problems."""
    return ScaledIdentity(-1.0, n)


def estimate_operator_norm(op):
    """The largest singular value of ``op``, exact up to rounding.

    A scaled identity and a diagonal operator have closed forms.  Otherwise
    the norm is the square root of the top eigenvalue of the Gram operator
    on the smaller side, ``A A^T`` or ``A^T A``: taken from the dense Gram
    matrix when that side has at most :data:`GRAM_MAX_SIDE` entries, else by
    :func:`_lanczos_norm`, which uses at most two products per entry of
    that side.  A zero operator returns 0 exactly.
    :meth:`LinearOperator.norm` calls this once per operator and caches
    the result.
    """
    rows, cols = op.shape
    if rows <= 0 or cols <= 0:
        raise ValueError("operator must have positive dimensions")
    if isinstance(op, ScaledIdentity):
        return abs(op.scale)
    if isinstance(op, DiagonalOperator):
        return float(np.max(np.abs(op.diag)))
    if min(rows, cols) > GRAM_MAX_SIDE:
        return _lanczos_norm(op)
    M = op.to_dense()
    gram = M @ M.T if rows <= cols else M.T @ M
    return float(np.sqrt(max(0.0, np.linalg.eigvalsh(gram)[-1])))


def _lanczos_norm(op):
    """``sqrt(theta + rho)`` from Lanczos on the smaller-side Gram operator.

    The Krylov basis starts from a seeded random vector and grows one
    fully reorthogonalized vector per step, each step one forward and one
    adjoint product.  ``theta`` is the top Ritz value and
    ``rho = beta |s_last|`` its residual, so an eigenvalue lies within
    ``rho`` of ``theta``; from a random start the top one is found first
    (Kuczynski and Wozniakowski, SIAM J. Matrix Anal. Appl., 1992).  The
    loop stops once ``rho <= 1e-13 theta``, when the basis spans an
    invariant subspace (``beta = 0``), or after ``dim`` steps, where the
    Ritz values are the eigenvalues.  The Ritz pair costs a dense
    eigensolve of the k×k tridiagonal matrix, so the residual test runs
    on steps about k/8 apart, which adds at most an eighth to the steps.
    """
    rows, cols = op.shape
    if rows <= cols:
        dim, gram = rows, lambda v: op.apply(op.adjoint(v))
    else:
        dim, gram = cols, lambda v: op.adjoint(op.apply(v))
    q = np.random.default_rng(12345).standard_normal(dim)
    basis = (q / np.linalg.norm(q))[None, :]
    alphas, betas, check_at = [], [], 1
    while True:
        w = gram(basis[-1])
        alphas.append(basis[-1] @ w)
        for _ in range(2):   # twice is enough to keep the basis orthonormal
            w -= basis.T @ (basis @ w)
        beta = np.linalg.norm(w)
        k = len(alphas)
        exhausted = beta == 0.0 or k == dim
        if exhausted or k >= check_at:
            tridiagonal = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            ritz, vectors = np.linalg.eigh(tridiagonal)
            theta, rho = ritz[-1], beta * abs(vectors[-1, -1])
            if exhausted or rho <= 1e-13 * theta:
                return float(np.sqrt(max(0.0, theta + rho)))
            check_at = k + 1 + k // 8
        betas.append(beta)
        basis = np.vstack((basis, w / beta))
