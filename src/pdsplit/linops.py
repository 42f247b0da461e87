"""Linear operators with adjoints and cached spectral norm estimates.

All operators are dense, double precision, and immutable after construction
except for the set-once norm cache.
"""

import numpy as np

__all__ = [
    "LinearOperator",
    "DenseOperator",
    "DiagonalOperator",
    "ScaledIdentity",
    "negated_identity",
    "OperatorNormError",
    "estimate_operator_norm",
]

# Safety inflation applied on top of the power-iteration estimate before the
# norm enters any step-size condition.  The contraction theory tolerates a
# norm over-estimate but not an under-estimate.
NORM_SAFETY = 1.0 + 1e-6


class OperatorNormError(RuntimeError):
    """Power iteration failed to converge; carries the last estimate."""

    def __init__(self, message, last_estimate):
        super().__init__(message)
        self.last_estimate = last_estimate


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

    def set_norm(self, value):
        """Set-once norm cache."""
        if self._norm is None:
            self._norm = float(value)
        return self._norm

    def norm(self, tol=1e-8, max_iters=5000):
        """Spectral norm (largest singular value), estimated on first use."""
        if self._norm is None:
            self.set_norm(estimate_operator_norm(self, tol=tol, max_iters=max_iters))
        return self._norm

    def norm_bound(self):
        """Safely inflated norm for use in step-size conditions."""
        return self.norm() * NORM_SAFETY

    def __matmul__(self, v):
        return self.apply(v)


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


def estimate_operator_norm(op, tol=1e-8, max_iters=5000):
    """Estimate the largest singular value of ``op`` by power iteration.

    Runs power iteration on ``A^T A`` from a deterministic seeded start and
    stops once the relative change between successive estimates drops below
    ``tol``.  The result is cached on the operator.  A zero operator returns
    0 exactly.

    Raises
    ------
    OperatorNormError
        If the relative change has not dropped below ``tol`` within
        ``max_iters`` iterations; the exception carries the last estimate.
    """
    rows, cols = op.shape
    if rows <= 0 or cols <= 0:
        raise ValueError("operator must have positive dimensions")
    if tol <= 0:
        raise ValueError("tol must be positive")

    rng = np.random.default_rng(12345)
    q = rng.standard_normal(cols)
    q /= np.linalg.norm(q)

    estimate = 0.0
    for _ in range(max_iters):
        z = op.adjoint(op.apply(q))
        nz = np.linalg.norm(z)
        if nz == 0.0:
            op.set_norm(0.0)
            return 0.0
        new_estimate = np.sqrt(nz)  # ||A^T A q|| -> sigma_max^2 for unit q
        q = z / nz
        if estimate > 0.0 and abs(new_estimate - estimate) < tol * estimate:
            op.set_norm(new_estimate)
            return new_estimate
        estimate = new_estimate

    raise OperatorNormError(
        f"power iteration did not converge within {max_iters} iterations",
        estimate,
    )
