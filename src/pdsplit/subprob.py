"""Augmented block subproblems shared by the Gauss-Seidel schemes.

Each non-linearized block update minimizes

    h(u) + sigma/2 ||C u||^2 + weight/2 ||u||^2 - <r, u>

over the block's set (folded into ``h``'s prox).  The caller forms the
right-hand side ``r`` with one adjoint product, and every solve reads it as
it is.  The solve is closed form when ``C`` is a scaled identity (the
augmented term merges into the prox) or when the block oracle solves the
subproblem itself (``QuadraticProx``, ``SquaredL2``, and ``ElasticNet`` by
active-set Newton, which may decline); otherwise an inner loop of
accelerated proximal gradient is used.  An iterative solve starts at
``center``.  The loop returns ``T(z)``, one prox-gradient step from the
extrapolated point ``z``, as soon as
``||T(z) - z|| <= inner_tol * (1 + ||T(z)||)``: the test of
:func:`prox_gradient_step`, which a Newton answer must pass too.  When it
reaches ``inner_max_iters`` first it returns the last ``T(z)`` with an
:class:`InnerLoopCapWarning` naming the cap, the residual and the
tolerance.  Both limits are fixed for all schemes, recorded in
:data:`OPTIONS`.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .linops import ScaledIdentity

__all__ = ["SolverOptions", "OPTIONS", "InnerLoopCapWarning", "solve_augmented_subproblem"]


@dataclass
class SolverOptions:
    """Stopping rule of the augmented-subproblem inner loop."""

    inner_tol: float = 1e-10
    inner_max_iters: int = 500


OPTIONS = SolverOptions()   # the one rule every scheme's inner loop reads


class InnerLoopCapWarning(RuntimeWarning):
    """The inner loop stopped at its cap; ``residual`` is its last residual."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


def solve_augmented_subproblem(block, r, C, sigma, weight, center):
    """Scaled-identity merge, else the oracle's closed form, else the inner loop."""
    if isinstance(C, ScaledIdentity):
        rho = sigma * C.scale * C.scale + weight
        return block.prox(r / rho, 1.0 / rho)

    closed = block.solve_augmented(r, C, sigma, weight, center)
    if closed is not None:
        return closed
    return _inner_prox_gradient(block, r, C, sigma, weight, center)


def prox_gradient_step(block, z, Cz, C, sigma, weight, r):
    """``T(z)``, the residual ``||T(z) - z||`` and whether it passes the stopping
    test ``residual <= inner_tol * (1 + ||T(z)||)``.  ``T`` is one prox-gradient
    step, of length ``1 / (sigma ||C||^2 + weight)``, on the smooth part, whose
    gradient is ``sigma C^T C z + weight z - r``; ``Cz = C z``."""
    step = 1.0 / (sigma * C.norm_bound() ** 2 + weight)
    grad = sigma * C.adjoint(Cz) + weight * z - r
    u_next = block.prox(z - step * grad, step)
    residual = np.linalg.norm(u_next - z)
    return u_next, residual, residual <= OPTIONS.inner_tol * (1.0 + np.linalg.norm(u_next))


def _inner_prox_gradient(block, r, C, sigma, weight, center):
    """Accelerated proximal gradient on the smooth quadratic part, prox on the block.

    The smooth part is ``weight``-strongly convex with gradient Lipschitz
    constant ``lip``, so constant momentum ``(1 - sqrt(q)) / (1 + sqrt(q))``
    with ``q = weight / lip`` needs about ``sqrt(lip / weight)`` iterations
    where plain proximal gradient needs ``lip / weight``.  ``C u`` is carried
    between iterations, so each one costs one forward and one adjoint product.
    """
    lip = sigma * C.norm_bound() ** 2 + weight
    root_q = np.sqrt(weight / lip)
    momentum = (1.0 - root_q) / (1.0 + root_q)
    u = np.array(center, dtype=float)
    Cu = C.apply(u)
    z, Cz = u, Cu
    u_next, residual = u, np.inf   # returned as is when the cap is 0
    for _ in range(OPTIONS.inner_max_iters):
        u_next, residual, accepted = prox_gradient_step(block, z, Cz, C, sigma, weight, r)
        if accepted:
            return u_next
        Cu_next = C.apply(u_next)
        z = u_next + momentum * (u_next - u)
        Cz = Cu_next + momentum * (Cu_next - Cu)
        u, Cu = u_next, Cu_next
    warnings.warn(InnerLoopCapWarning(
        f"augmented-subproblem inner loop hit its cap of {OPTIONS.inner_max_iters} "
        f"iterations at residual {residual:.3e} (tolerance {OPTIONS.inner_tol:.1e}, "
        f"relative to 1 + ||u||)", float(residual)), stacklevel=2)
    return u_next
