"""The step skeleton of all six schemes, and the first family's block forms.

The schemes share one rescaled flow and differ only in which block, if
any, takes the implicit (augmented) step: ``x`` for ``semiB``, ``y`` for
``semiA``, none for ``explicit``.  With ``c = a / theta``, the multiplier's
prediction ``lam_bar`` and update are one map, ``lam + c (A v + B w - b)``:
the prediction sees the fresh velocity on the implicit side only.

A block steps through a pair of forms, a prox form (against ``lam_bar``)
and an augmented form, each given the side.  This module's pair
:data:`F_BLOCK`, which the y-block always takes and family 1's x-block
too, is one linearized step on either side.  On side y, with
``eta = (1 + a) beta + mu_g a`` and ``y_tilde = y + (a beta / eta)(w - y)``,
the prox form is ``y+ = prox_{tau g}(y_tilde - tau B^T lam_bar)``,
``tau = a^2 / eta``.  The augmented form, with penalty ``sigma = 1/theta_{k+1}``
and weight ``eta / a^2``, is linearized at
``lam_hat = lam - (A x + B y - b) / theta + c (A v - A x)``, whose
residual and product the state keeps, and hands ``g``'s solve
``r = weight y_tilde - B^T (lam_hat + sigma (A x - b))``.  Then
``w+ = y+ + (y+ - y) / a``.  Side x reads ``f``, ``A``, ``gamma``, ``mu_f``,
``x``, ``v`` and ``B y`` instead.  ``driver._STEPS`` binds :func:`step` to
each scheme's implicit side and family pair.
"""

from dataclasses import dataclass, field

import numpy as np

from .subprob import solve_augmented_subproblem

__all__ = ["IterateState", "step", "F_BLOCK"]


@dataclass
class IterateState:
    """Iterates of all eight methods: the points ``x``, ``y``, their
    velocities ``v``, ``w`` and the multiplier ``lam``; also ``A x``, ``B y``
    and ``A x + B y - b`` once known (:meth:`products`, :meth:`residual`), and
    ``A v`` where the pdhg step left it (the scheme step does not read it).
    None of the four enters ``repr`` or ``==``."""

    x: np.ndarray
    v: np.ndarray
    y: np.ndarray
    w: np.ndarray
    lam: np.ndarray
    Ax: np.ndarray = field(default=None, kw_only=True, repr=False, compare=False)
    By: np.ndarray = field(default=None, kw_only=True, repr=False, compare=False)
    Av: np.ndarray = field(default=None, kw_only=True, repr=False, compare=False)
    res: np.ndarray = field(default=None, kw_only=True, repr=False, compare=False)

    def products(self, problem):
        """``A x`` and ``B y``: as the ladmm or pdhg step that made this state
        left them, else computed on first use (for a scheme, by the trace
        row) and kept."""
        if self.Ax is None:
            self.Ax, self.By = problem.A.apply(self.x), problem.B.apply(self.y)
        return self.Ax, self.By

    def residual(self, problem):
        """``A x + B y - b`` from :meth:`products`, formed on first use and kept."""
        if self.res is None:
            Ax, By = self.products(problem)
            self.res = Ax + By - problem.b
        return self.res

    @staticmethod
    def cold_start(problem, x0=None, y0=None, lam0=None):
        """Start with v0 = x0 and w0 = y0, as float vectors, zeros where
        omitted.  Raises ``ValueError`` naming the block whose length does
        not match the problem, instead of letting a wrong shape broadcast."""
        point = []
        for name, z, dim in (("x0", x0, problem.dim_x), ("y0", y0, problem.dim_y),
                             ("lam0", lam0, problem.dim_lam)):
            z = np.zeros(dim) if z is None else np.asarray(z, dtype=float)
            if z.shape != (dim,):
                raise ValueError(f"{name} has shape {z.shape}; the problem needs ({dim},)")
            point.append(z)
        x0, y0, lam0 = point
        return IterateState(x=x0, v=x0.copy(), y=y0, w=y0.copy(), lam=lam0)


def step(implicit, f_block, problem, state, ps, ps_next, alpha):
    """One step of the scheme whose implicit side is ``implicit`` (``"x"``,
    ``"y"`` or None), the x-block through ``f_block``.  Each form returns the
    side's new point and velocity: the prox form ``(side, problem, state, ps,
    alpha, lam_bar)`` and the augmented form ``(side, problem, state, ps,
    ps_next, alpha, held)``, ``held`` being the prediction's ``B w`` on side x
    and ``A v`` on side y."""
    A, B, c = problem.A, problem.B, alpha / ps.theta
    # A v and B w as the prediction sees them: fresh on the implicit side
    Av = None if implicit == "x" else A.apply(state.v)
    Bw = None if implicit == "y" else B.apply(state.w)
    if implicit == "x":
        x, v = f_block[1]("x", problem, state, ps, ps_next, alpha, Bw)
        Av = A.apply(v)
    elif implicit == "y":
        y, w = F_BLOCK[1]("y", problem, state, ps, ps_next, alpha, Av)
        Bw = B.apply(w)
    lam_bar = state.lam + c * (Av + Bw - problem.b)
    if implicit != "x":
        x, v = f_block[0]("x", problem, state, ps, alpha, lam_bar)
        Av = A.apply(v)
    if implicit != "y":
        y, w = F_BLOCK[0]("y", problem, state, ps, alpha, lam_bar)
        Bw = B.apply(w)
    return IterateState(x, v, y, w, state.lam + c * (Av + Bw - problem.b))


def _block(side, problem, state, ps, alpha):
    """The side's oracle, operator and point, its scaled weight ``eta`` and
    the centre it steps from."""
    if side == "x":
        h, C, z, velocity, coeff, mu = problem.f_prox, problem.A, state.x, state.v, ps.gamma, ps.mu_f
    else:
        h, C, z, velocity, coeff, mu = problem.g, problem.B, state.y, state.w, ps.beta, ps.mu_g
    eta = (1.0 + alpha) * coeff + mu * alpha
    return h, C, z, eta, z + (alpha * coeff / eta) * (velocity - z)


def _prox_form(side, problem, state, ps, alpha, lam_bar):
    h, C, z, eta, center = _block(side, problem, state, ps, alpha)
    tau = alpha ** 2 / eta
    z_new = h.prox(center - tau * C.adjoint(lam_bar), tau)
    return z_new, z_new + (z_new - z) / alpha


def _augmented_form(side, problem, state, ps, ps_next, alpha, held):
    _, C, z, eta, center = _block(side, problem, state, ps, alpha)
    Ax, By = state.products(problem)
    other, solve = (By, problem.solves["f"]) if side == "x" else (Ax, problem.solves["g"])
    lam_hat = state.lam - state.residual(problem) / ps.theta + (alpha / ps.theta) * (held - other)
    sigma, weight = 1.0 / ps_next.theta, eta / alpha ** 2
    r = weight * center - C.adjoint(lam_hat + sigma * (other - problem.b))
    z_new = solve_augmented_subproblem(solve, r, sigma, weight, center)
    return z_new, z_new + (z_new - z) / alpha


F_BLOCK = (_prox_form, _augmented_form)
