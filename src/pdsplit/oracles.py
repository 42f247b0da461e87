"""Problem abstraction: oracles, the separable problem, and basic residuals.

A separable problem is ``min f(x) + g(y)  s.t.  A x + B y = b`` with ``f``
and ``g`` accessed only through proximal / gradient oracles.  Constraint
sets are folded into the prox oracles (the prox projects), never
represented standalone.
"""

import numpy as np

from .linops import LinearOperator

__all__ = [
    "ProxOracle",
    "SmoothOracle",
    "QuadraticSmooth",
    "SaddlePoint",
    "SeparableProblem",
    "lagrangian_value",
    "feasibility_residual",
]


class ProxOracle:
    """Oracle for a proper closed convex function ``h`` (set folded in).

    Subclasses implement ``value`` (extended real, ``inf`` outside the
    constraint set) and ``prox``, where ``prox(z, tau)`` minimizes
    ``h(u) + ||u - z||^2 / (2 tau)``.
    """

    strong_convexity = 0.0

    def value(self, z):
        raise NotImplementedError

    def prox(self, z, tau):
        raise NotImplementedError

    def solve_augmented(self, linear, C, offset, sigma, weight, center):
        """Minimize ``h(u) + <linear,u> + sigma/2 ||Cu+offset||^2
        + weight/2 ||u-center||^2`` when a closed form exists.

        Returns None when this oracle has no closed form for a general
        coupling operator ``C``; the solver then falls back to the
        scaled-identity merge or an inner loop.
        """
        return None


class SmoothOracle:
    """Oracle for a differentiable convex function with known constants."""

    def __init__(self, lipschitz, strong_convexity=0.0):
        if strong_convexity > lipschitz:
            raise ValueError("strong convexity modulus cannot exceed the Lipschitz constant")
        self.lipschitz = float(lipschitz)
        self.strong_convexity = float(strong_convexity)

    def value(self, z):
        raise NotImplementedError

    def gradient(self, z):
        raise NotImplementedError


class QuadraticSmooth(SmoothOracle):
    """``(1/2) x^T P x + p^T x`` with SPD (or PSD) ``P``."""

    def __init__(self, P, p=None):
        P = np.asarray(P, dtype=float)
        p = np.zeros(P.shape[0]) if p is None else np.asarray(p, dtype=float)
        eigs = np.linalg.eigvalsh(0.5 * (P + P.T))
        super().__init__(lipschitz=float(eigs[-1]), strong_convexity=float(max(eigs[0], 0.0)))
        self.P = P
        self.p = p

    def value(self, z):
        return 0.5 * z @ (self.P @ z) + self.p @ z

    def gradient(self, z):
        return self.P @ z + self.p


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
    the parameter recursion; they default to the oracles' declared moduli.
    """

    def __init__(self, f, g, A, B, b, mu_f=None, mu_g=None, saddle=None):
        if not isinstance(A, LinearOperator) or not isinstance(B, LinearOperator):
            raise TypeError("A and B must be LinearOperator instances")
        b = np.asarray(b, dtype=float)
        if A.shape[0] != B.shape[0] or A.shape[0] != b.size:
            raise ValueError("A, B and b must map into the same space")

        if isinstance(f, tuple):
            f_smooth, f_prox = f
            if not isinstance(f_smooth, SmoothOracle):
                raise TypeError("the smooth part of the f-block must be a SmoothOracle")
            self.f_smooth, self.f_prox = f_smooth, f_prox
            default_mu_f = f_smooth.strong_convexity
        else:
            self.f_smooth, self.f_prox = None, f
            default_mu_f = f.strong_convexity

        self.g = g
        self.A, self.B, self.b = A, B, b
        self.mu_f = default_mu_f if mu_f is None else float(mu_f)
        self.mu_g = g.strong_convexity if mu_g is None else float(mu_g)

        if saddle is not None:
            if saddle.x.size != A.shape[1] or saddle.y.size != B.shape[1] or saddle.lam.size != b.size:
                raise ValueError("saddle point dimensions do not match the problem")
            feas = feasibility_residual_arrays(A, B, b, saddle.x, saddle.y)
            if feas > 1e-8 * (1.0 + np.linalg.norm(b)):
                raise ValueError(f"supplied saddle point is infeasible: residual {feas:.3e}")
        self.saddle = saddle

    @property
    def dim_x(self):
        return self.A.shape[1]

    @property
    def dim_y(self):
        return self.B.shape[1]

    @property
    def dim_lam(self):
        return self.b.size

    def initial_point(self, x0=None, y0=None, lam0=None):
        """Start ``(x0, y0, lam0)`` as float vectors, zeros where omitted.

        Raises ``ValueError`` naming the block whose length does not match
        the problem, instead of letting a wrong shape broadcast.
        """
        point = []
        for name, z, dim in (("x0", x0, self.dim_x), ("y0", y0, self.dim_y),
                             ("lam0", lam0, self.dim_lam)):
            z = np.zeros(dim) if z is None else np.asarray(z, dtype=float)
            if z.shape != (dim,):
                raise ValueError(f"{name} has shape {z.shape}; the problem needs ({dim},)")
            point.append(z)
        return tuple(point)

    def f_value(self, x):
        val = self.f_prox.value(x)
        if self.f_smooth is not None:
            val = val + self.f_smooth.value(x)
        return val

    def g_value(self, y):
        return self.g.value(y)

    def objective(self, x, y):
        """``F(x, y) = f(x) + g(y)``, extended real."""
        return self.f_value(x) + self.g_value(y)

    def has_smooth_f(self):
        return self.f_smooth is not None


def feasibility_residual_arrays(A, B, b, x, y):
    return float(np.linalg.norm(A.apply(x) + B.apply(y) - b))


def feasibility_residual(problem, x, y):
    """Euclidean norm of the constraint residual ``A x + B y - b``."""
    return feasibility_residual_arrays(problem.A, problem.B, problem.b, x, y)


def lagrangian_value(problem, x, y, lam):
    """``f(x) + g(y) + <lam, A x + B y - b>``, extended real.

    Returns ``inf`` when ``x`` or ``y`` violates its constraint set (the
    indicator lives inside the block values).
    """
    base = problem.objective(x, y)
    if not np.isfinite(base):
        return base
    pairing = float(lam @ (problem.A.apply(x) + problem.B.apply(y) - problem.b))
    return base + pairing
