"""Linear operators with adjoints and cached exact spectral norms.

All operators are dense, double precision, and immutable after construction
except for the norm cache, which :meth:`LinearOperator.norm` fills once.
:func:`estimate_operator_norm` gives the norm exactly up to rounding: by a
closed form, or by the top eigenvalue of the dense Gram matrix.
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
        self.matrix, self._transposed = matrix, matrix.T

    def apply(self, v):
        return self.matrix @ v

    def adjoint(self, w):
        return self._transposed @ w

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
    the norm is the square root of the top eigenvalue of the dense Gram
    matrix on the smaller side, ``A A^T`` or ``A^T A``, which has no more
    entries than the dense matrix itself and costs no operator product.  A
    zero operator returns 0 exactly.  :meth:`LinearOperator.norm` calls
    this once per operator and caches the result.
    """
    rows, cols = op.shape
    if rows <= 0 or cols <= 0:
        raise ValueError("operator must have positive dimensions")
    if isinstance(op, ScaledIdentity):
        return abs(op.scale)
    if isinstance(op, DiagonalOperator):
        return float(np.max(np.abs(op.diag)))
    M = op.to_dense()
    gram = M @ M.T if rows <= cols else M.T @ M
    return float(np.sqrt(max(0.0, np.linalg.eigvalsh(gram)[-1])))
