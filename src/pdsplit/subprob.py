"""Augmented block subproblems shared by the Gauss-Seidel schemes.

Each non-linearized block update minimizes

    h(u) + sigma/2 ||C u||^2 + weight/2 ||u||^2 - <r, u>

over the block's set (folded into ``h``'s prox).  The caller forms the
right-hand side ``r`` with one adjoint product, and every solve reads it as
it is.  A block's :class:`BlockSolve` takes one path: ``merge`` when ``C``
is a scaled identity (the augmented term merges into the prox), ``closed``
when the oracle solves it (``QuadraticProx``, ``SquaredL2``, and ``ElasticNet``
by active-set Newton, which may decline to ``inner``), else ``inner``: an
inner loop of accelerated proximal gradient.  An iterative solve starts at
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
    """The inner loop stopped at its cap.  The message names the cap, the last
    residual and the tolerance; the residual is kept on ``BlockSolve.cap_residuals``."""


class BlockSolve:
    """The augmented solve of ``block`` through ``C`` on the path chosen here.
    Since :meth:`reset` it counts its calls, its declines (None answers of the
    closed form, each solved by the inner loop) and the inner loop's cap residuals."""

    def __init__(self, block, C):
        self.block, self.C = block, C
        self.path = ("merge" if isinstance(C, ScaledIdentity)
                     else "closed" if hasattr(block, "solve_augmented") else "inner")
        self.reset()

    def reset(self):
        self.calls, self.declines, self.cap_residuals = 0, 0, []

    def counts(self):
        return {"path": self.path, "calls": self.calls, "declines": self.declines,
                "cap_hits": len(self.cap_residuals),
                "worst_cap_residual": max(self.cap_residuals, default=None)}


def solve_augmented_subproblem(solve, r, sigma, weight, center):
    """The block's subproblem on ``solve``'s path; the call and a declined closed form are counted."""
    solve.calls += 1
    if solve.path == "merge":
        rho = sigma * solve.C.scale * solve.C.scale + weight
        return solve.block.prox(r / rho, 1.0 / rho)
    if solve.path == "closed":
        closed = solve.block.solve_augmented(r, solve.C, sigma, weight, center)
        if closed is not None:
            return closed
        solve.declines += 1
    return _inner_prox_gradient(solve, r, sigma, weight, center)


def prox_gradient_step(block, z, CtCz, C, sigma, weight, r):
    """``T(z)``, the residual ``||T(z) - z||`` and whether it passes the stopping
    test ``residual <= inner_tol * (1 + ||T(z)||)``.  ``T`` is one prox-gradient
    step, of length ``1 / (sigma ||C||^2 + weight)``, on the smooth part, whose
    gradient is ``sigma C^T C z + weight z - r``; ``CtCz = C^T C z``."""
    step = 1.0 / (sigma * C.norm_bound() ** 2 + weight)
    grad = sigma * CtCz + weight * z - r
    u_next = block.prox(z - step * grad, step)
    residual = np.linalg.norm(u_next - z)
    return u_next, residual, residual <= OPTIONS.inner_tol * (1.0 + np.linalg.norm(u_next))


def _inner_prox_gradient(solve, r, sigma, weight, center):
    """Accelerated proximal gradient on the smooth quadratic part, prox on the block.

    The smooth part is ``weight``-strongly convex with gradient Lipschitz
    constant ``lip``, so constant momentum ``(1 - sqrt(q)) / (1 + sqrt(q))``
    with ``q = weight / lip`` needs about ``sqrt(lip / weight)`` iterations
    where plain proximal gradient needs ``lip / weight``.  ``C u`` is carried
    between iterations, so each one costs one forward and one adjoint product.
    """
    block, C = solve.block, solve.C
    lip = sigma * C.norm_bound() ** 2 + weight
    root_q = np.sqrt(weight / lip)
    momentum = (1.0 - root_q) / (1.0 + root_q)
    u = np.array(center, dtype=float)
    Cu = C.apply(u)
    z, Cz = u, Cu
    u_next, residual = u, np.inf   # returned as is when the cap is 0
    for _ in range(OPTIONS.inner_max_iters):
        u_next, residual, accepted = prox_gradient_step(block, z, C.adjoint(Cz), C, sigma, weight, r)
        if accepted:
            return u_next
        Cu_next = C.apply(u_next)
        z = u_next + momentum * (u_next - u)
        Cz = Cu_next + momentum * (Cu_next - Cu)
        u, Cu = u_next, Cu_next
    solve.cap_residuals.append(float(residual))
    warnings.warn(InnerLoopCapWarning(
        f"augmented-subproblem inner loop hit its cap of {OPTIONS.inner_max_iters} "
        f"iterations at residual {residual:.3e} (tolerance {OPTIONS.inner_tol:.1e}, "
        f"relative to 1 + ||u||)"), stacklevel=2)
    return u_next
