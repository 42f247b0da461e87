"""The step skeleton of all six schemes, and the first family's f-block.

The schemes share one rescaled flow and differ only in which block, if
any, takes the implicit (augmented) step: ``x`` for ``semiB``, ``y`` for
``semiA``, none for ``explicit``.  The skeleton writes the y-block and the
multiplier once.  With ``c = a / theta`` and the scaled weights

    eta_g = (1 + a) beta + mu_g a        y_tilde = y + (a beta / eta_g)(w - y)

the y-block is a prox step ``y+ = prox_{tau g}(y_tilde - tau B^T lam_bar)``,
``tau = a^2 / eta_g``, or an augmented step with penalty ``1/theta_{k+1}``
linearized at ``lam_hat = lam - (A x + B y - b) / theta + c A(v - x)``,
whose drift is ``A v - A x``, the prediction's product less the state's
kept one; then ``w+ = y+ + (y+ - y) / a``.  The prediction ``lam_bar`` and
the update are one map, ``lam + c (A v + B w - b)``: the prediction sees
the fresh velocity on the implicit side only, the update both fresh
velocities.

Each family module supplies its f-block as one pair ``F_BLOCK``: a prox
form (against ``lam_bar``) and an augmented form; ``driver._STEPS`` binds
:func:`step` to each scheme's ``implicit`` side and family pair.  The first
family's f-block mirrors the y-block, with ``eta_f = (1 + a) gamma + mu_f a``,
``x_tilde``, ``A`` and ``lam_hat = lam - (A x + B y - b) / theta + c B(w - y)``,
with ``B(w - y)`` formed as ``B w - B y``.
"""

from dataclasses import dataclass, field

import numpy as np

from .subprob import solve_augmented_subproblem

__all__ = ["IterateState", "step", "F_BLOCK"]


@dataclass
class IterateState:
    """Iterates of all eight methods: the points ``x``, ``y``, their
    velocities ``v``, ``w`` and the multiplier ``lam``; also the products
    ``A x`` and ``B y`` once they are known (see :meth:`products`), and
    ``A v`` where the pdhg step left it (the scheme step does not read it).
    None of the three enters ``repr`` or ``==``."""

    x: np.ndarray
    v: np.ndarray
    y: np.ndarray
    w: np.ndarray
    lam: np.ndarray
    Ax: np.ndarray = field(default=None, kw_only=True, repr=False, compare=False)
    By: np.ndarray = field(default=None, kw_only=True, repr=False, compare=False)
    Av: np.ndarray = field(default=None, kw_only=True, repr=False, compare=False)

    def products(self, problem):
        """``A x`` and ``B y``: as the ladmm or pdhg step that made this state
        left them, else computed on first use (for a scheme, by the trace
        row) and kept."""
        if self.Ax is None:
            self.Ax, self.By = problem.A.apply(self.x), problem.B.apply(self.y)
        return self.Ax, self.By

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


def _weights(point, velocity, coeff, mu, alpha):
    """Scaled prox weight ``eta`` and the centre the block steps from."""
    eta = (1.0 + alpha) * coeff + mu * alpha
    return eta, point + (alpha * coeff / eta) * (velocity - point)


def _augmented_step(problem, state, ps, ps_next, alpha, side, eta, center, held):
    """Augmented step of block ``side`` (``"x"`` or ``"y"``) with penalty
    ``1/theta_{k+1}`` and weight ``eta / a^2``, linearized at ``lam_hat``.
    ``held`` is the product the step formed for its prediction, ``B w`` on
    side x and ``A v`` on side y; the drift ``B w - B y`` or ``A v - A x``
    takes it and the state's kept product, so the step makes no product
    for it."""
    b = problem.b
    Ax, By = state.products(problem)
    if side == "x":
        block, C, offset, drift = problem.f_prox, problem.A, By - b, held - By
    else:
        block, C, offset, drift = problem.g, problem.B, Ax - b, held - Ax
    lam_hat = state.lam - (Ax + By - b) / ps.theta + (alpha / ps.theta) * drift
    return solve_augmented_subproblem(
        block, C.adjoint(lam_hat), C, offset,
        sigma=1.0 / ps_next.theta, weight=eta / alpha ** 2, center=center,
    )


def step(implicit, f_block, problem, state, ps, ps_next, alpha):
    """One step of the scheme whose implicit side is ``implicit`` (``"x"``,
    ``"y"`` or None).  ``f_block`` is the family's f-block pair, each form
    returning ``(x+, v+)``: the prox form ``(problem, state, ps, alpha,
    lam_bar)`` and the augmented form ``(problem, state, ps, ps_next,
    alpha, Bw)``, which only ``implicit == "x"`` takes."""
    f_prox, f_augmented = f_block
    A, B, b = problem.A, problem.B, problem.b
    c = alpha / ps.theta
    eta_g, y_tilde = _weights(state.y, state.w, ps.beta, ps.mu_g, alpha)

    # A v and B w as the prediction sees them: fresh on the implicit side
    Av = A.apply(state.v) if implicit != "x" else None
    Bw = B.apply(state.w) if implicit != "y" else None
    if implicit == "x":
        x_new, v_new = f_augmented(problem, state, ps, ps_next, alpha, Bw)
        Av = A.apply(v_new)
    elif implicit == "y":
        y_new = _augmented_step(problem, state, ps, ps_next, alpha, "y", eta_g, y_tilde, Av)
        w_new = y_new + (y_new - state.y) / alpha
        Bw = B.apply(w_new)
    lam_bar = state.lam + c * (Av + Bw - b)

    if implicit != "x":
        x_new, v_new = f_prox(problem, state, ps, alpha, lam_bar)
        Av = A.apply(v_new)
    if implicit != "y":
        tau = alpha ** 2 / eta_g
        y_new = problem.g.prox(y_tilde - tau * B.adjoint(lam_bar), tau)
        w_new = y_new + (y_new - state.y) / alpha
        Bw = B.apply(w_new)

    lam_new = state.lam + c * (Av + Bw - b)
    return IterateState(x=x_new, v=v_new, y=y_new, w=w_new, lam=lam_new)


def _f1_prox(problem, state, ps, alpha, lam_bar):
    eta_f, x_tilde = _weights(state.x, state.v, ps.gamma, ps.mu_f, alpha)
    s = alpha ** 2 / eta_f
    x_new = problem.f_prox.prox(x_tilde - s * problem.A.adjoint(lam_bar), s)
    return x_new, x_new + (x_new - state.x) / alpha


def _f1_augmented(problem, state, ps, ps_next, alpha, Bw):
    eta_f, x_tilde = _weights(state.x, state.v, ps.gamma, ps.mu_f, alpha)
    x_new = _augmented_step(problem, state, ps, ps_next, alpha, "x", eta_f, x_tilde, Bw)
    return x_new, x_new + (x_new - state.x) / alpha


F_BLOCK = (_f1_prox, _f1_augmented)
