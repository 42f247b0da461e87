"""Problem abstraction: oracles, the separable problem, and basic residuals.

A separable problem is ``min f(x) + g(y)  s.t.  A x + B y = b`` with ``f``
and ``g`` accessed only through proximal / gradient oracles.  Constraint
sets are folded into the prox oracles (the prox projects), never
represented standalone.
"""

import math
from functools import cached_property

import numpy as np

from .linops import DenseOperator, LinearOperator, ScaledIdentity
from .subprob import BlockSolve

__all__ = [
    "ProxOracle",
    "SmoothOracle",
    "SaddlePoint",
    "SeparableProblem",
    "lagrangian_value",
    "feasibility_residual",
]


def _nonnegative(name, value):
    """``value`` as a float; raises ``ValueError`` naming ``name`` unless it is
    finite and at least 0 (a NaN fails both)."""
    value = float(value)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be nonnegative and finite, not {value!r}")
    return value


class ProxOracle:
    """Oracle for a proper closed convex function ``h`` (set folded in).

    Subclasses implement ``value`` (extended real, ``inf`` outside the
    constraint set) and ``prox``, where ``prox(z, tau)`` minimizes
    ``h(u) + ||u - z||^2 / (2 tau)``.  Some in ``pdsplit.prox`` also have
    ``solve_augmented(r, C, sigma, weight, center)``, the closed form of
    ``pdsplit.subprob``'s augmented subproblem for a ``C`` that is not a
    scaled identity, which returns None to decline to the inner loop.
    """

    strong_convexity = 0.0

    def value(self, z):
        raise NotImplementedError

    def prox(self, z, tau):
        raise NotImplementedError


class SmoothOracle:
    """Oracle for a differentiable convex function with known constants."""

    def __init__(self, lipschitz, strong_convexity=0.0):
        self.lipschitz = _nonnegative("lipschitz", lipschitz)
        self.strong_convexity = _nonnegative("strong_convexity", strong_convexity)
        if self.strong_convexity > self.lipschitz:
            raise ValueError("strong convexity modulus cannot exceed the Lipschitz constant")

    def value(self, z):
        raise NotImplementedError

    def gradient(self, z):
        raise NotImplementedError


class SaddlePoint:
    """Reference saddle point ``(x*, y*, lambda*)`` of the Lagrangian."""

    def __init__(self, x, y, lam):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.lam = np.asarray(lam, dtype=float)


class SeparableProblem:
    """``min f(x) + g(y)  s.t.  A x + B y = b``.

    The f-block is either a single prox oracle, or a pair
    ``(smooth, prox)`` for solvers that take a gradient step on the smooth
    part.  ``mu_f`` / ``mu_g`` are the strong convexity moduli that drive
    the parameter recursion, checked finite and nonnegative; they default
    to the oracles' declared moduli, read on first use, so building a
    problem decomposes nothing; ``solves`` maps ``"f"`` and ``"g"`` to their solves.
    ``saddle``, the reference point of every diagnostic, is fixed when the
    problem is built; ``f_saddle`` and ``saddle_residual`` hold ``F(x*, y*)``
    and ``A x* + B y* - b`` there, or None without one.
    """

    def __init__(self, f, g, A, B, b, mu_f=None, mu_g=None, saddle=None):
        if not isinstance(A, LinearOperator) or not isinstance(B, LinearOperator):
            raise TypeError("A and B must be LinearOperator instances")
        b = np.asarray(b, dtype=float)
        if A.shape[0] != B.shape[0] or b.shape != (A.shape[0],):
            raise ValueError(f"A, B and b must map into the same space; A has {A.shape[0]} rows, "
                             f"B {B.shape[0]}, and b has shape {b.shape}")

        self.f_smooth, self.f_prox = f if isinstance(f, tuple) else (None, f)
        if self.f_smooth is not None and not isinstance(self.f_smooth, SmoothOracle):
            raise TypeError("the smooth part of the f-block must be a SmoothOracle")

        self.g = g
        self.A, self.B, self.b = A, B, b
        self.solves = {"f": BlockSolve(self.f_prox, A), "g": BlockSolve(g, B)}
        self._mu = tuple(None if mu is None else _nonnegative(name, mu)
                         for name, mu in (("mu_f", mu_f), ("mu_g", mu_g)))

        self._saddle, self.f_saddle, self.saddle_residual = saddle, None, None
        if saddle is not None:
            shapes = (saddle.x.shape, saddle.y.shape, saddle.lam.shape)
            if shapes != ((A.shape[1],), (B.shape[1],), b.shape):
                raise ValueError(f"the saddle point's x, y and lam must have shapes {(A.shape[1],)}, "
                                 f"{(B.shape[1],)} and {b.shape}, not {shapes}")
            self.saddle_residual = A.apply(saddle.x) + B.apply(saddle.y) - b
            self.f_saddle = self.objective(saddle.x, saddle.y)
            feas = float(np.linalg.norm(self.saddle_residual))
            if feas > 1e-8 * (1.0 + np.linalg.norm(b)):
                raise ValueError(f"supplied saddle point is infeasible: residual {feas:.3e}")

    @property
    def saddle(self):
        return self._saddle

    @property
    def composite(self):
        """True when ``B = -I`` and ``b = 0``: the problem is ``min f(x) + g(A x)``."""
        return isinstance(self.B, ScaledIdentity) and self.B.scale == -1.0 and not np.any(self.b)

    @cached_property
    def eigenbasis(self):
        """``(problem, Vx, Vy)``: this problem with ``x = Vx x~`` and ``y = Vy y~``,
        formed on first use.  A block turns into the eigenbasis of
        its quadratic when its operator is exactly a ``DenseOperator`` and its
        oracles exactly one ``QuadraticProx``, plus ``SquaredL2`` in a split
        f-block (a subclass may do what its data do not say); any other keeps
        its basis (``V`` None).  With none turned, the problem is its own."""
        from .prox import QuadraticProx, SquaredL2   # prox builds on this module
        blocks = []
        for oracles, C in (((self.f_smooth, self.f_prox), self.A), ((self.g,), self.B)):
            kinds = [type(h) for h in oracles if h is not None]
            quad = next((h for h in oracles if type(h) is QuadraticProx), None)
            turned = (type(C) is DenseOperator and kinds.count(QuadraticProx) == 1
                      and set(kinds) <= {QuadraticProx, SquaredL2} and quad.in_eigenbasis(C))
            blocks.append((tuple(turned[0] if h is quad else h for h in oracles), *turned[1:])
                          if turned else (oracles, C, None))
        ((f_smooth, f_prox), A, Vx), ((g,), B, Vy) = blocks
        if Vx is None and Vy is None:
            return self, None, None
        s = self.saddle
        saddle = None if s is None else SaddlePoint(s.x if Vx is None else Vx.T @ s.x,
                                                    s.y if Vy is None else Vy.T @ s.y, s.lam)
        f = f_prox if f_smooth is None else (f_smooth, f_prox)
        return SeparableProblem(f, g, A, B, self.b, self.mu_f, self.mu_g, saddle), Vx, Vy

    @property
    def mu_f(self):
        return (self.f_smooth or self.f_prox).strong_convexity if self._mu[0] is None else self._mu[0]

    @property
    def mu_g(self):
        return self.g.strong_convexity if self._mu[1] is None else self._mu[1]

    @property
    def dim_x(self):
        return self.A.shape[1]

    @property
    def dim_y(self):
        return self.B.shape[1]

    @property
    def dim_lam(self):
        return self.b.size

    def objective(self, x, y):
        """``F(x, y) = f(x) + g(y)``, extended real."""
        val = self.f_prox.value(x)
        if self.f_smooth is not None:
            val = val + self.f_smooth.value(x)
        return val + self.g.value(y)


def feasibility_residual(problem, state):
    """Euclidean norm of the constraint residual ``A x + B y - b`` at the
    iterate state's point, which the state keeps (see ``IterateState.residual``);
    ``np.linalg.norm``'s own arithmetic, without its per-call dispatch."""
    res = state.residual(problem)
    return math.sqrt(res.dot(res))


def lagrangian_value(problem, state, lam, objective):
    """``f(x) + g(y) + <lam, A x + B y - b>`` at the iterate state's point,
    extended real, given that point's ``objective`` ``F(x, y)``.  Over the
    last axis: a state of stacked points, with their residuals kept, and an
    array of their objectives give one value per point.

    Returns ``inf`` when ``x`` or ``y`` violates its constraint set (the
    indicator lives inside the block values): the pairing term of a finite
    point is finite, so a non-finite objective stays the value.
    """
    return objective + np.vecdot(lam, state.residual(problem))
