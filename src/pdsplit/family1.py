"""The step skeleton of all six schemes, and the first family's f-block.

The schemes share one rescaled flow and differ only in which block, if
any, takes the implicit (augmented) step: ``x`` for ``semiB``, ``y`` for
``semiA``, none for ``explicit``.  The skeleton writes the y-block and the
multiplier once.  With ``c = a / theta`` and the scaled weights

    eta_g = (1 + a) beta + mu_g a        y_tilde = y + (a beta / eta_g)(w - y)

the y-block is a prox step ``y+ = prox_{tau g}(y_tilde - tau B^T lam_bar)``,
``tau = a^2 / eta_g``, or an augmented step with penalty ``1/theta_{k+1}``
linearized at ``lam_hat = lam - (A x + B y - b) / theta + c A(v - x)``;
then ``w+ = y+ + (y+ - y) / a``.  The prediction ``lam_bar`` and the update
are one map, ``lam + c (A v + B w - b)``: the prediction sees the fresh
velocity on the implicit side only, the update both fresh velocities.

Each family supplies its f-block update in a prox form (against
``lam_bar``) and an augmented form.  The first family's f-block mirrors
the y-block, with ``eta_f = (1 + a) gamma + mu_f a``, ``x_tilde``, ``A``
and ``lam_hat = lam - (A x + B y - b) / theta + c B(w - y)``.
"""

from dataclasses import dataclass

import numpy as np

from .subprob import solve_augmented_subproblem

__all__ = ["IterateState", "step", "step_f1_semi_b", "step_f1_semi_a", "step_f1_explicit"]


@dataclass
class IterateState:
    """Iterates of every scheme; ``u`` is the second family's last
    correction midpoint, kept for diagnostics."""

    x: np.ndarray
    v: np.ndarray
    y: np.ndarray
    w: np.ndarray
    lam: np.ndarray
    u: np.ndarray = None

    @staticmethod
    def cold_start(problem, x0=None, y0=None, lam0=None):
        """Defaults: zero primals and multiplier, v0 = x0, w0 = y0."""
        x0, y0, lam0 = problem.initial_point(x0, y0, lam0)
        return IterateState(x=x0, v=x0.copy(), y=y0, w=y0.copy(), lam=lam0)


def _weights(point, velocity, coeff, mu, alpha):
    """Scaled prox weight ``eta`` and the centre the block steps from."""
    eta = (1.0 + alpha) * coeff + mu * alpha
    return eta, point + (alpha * coeff / eta) * (velocity - point)


def _augmented_step(problem, state, ps, ps_next, alpha, options, side, eta, center):
    """Augmented step of block ``side`` (``"x"`` or ``"y"``) with penalty
    ``1/theta_{k+1}`` and weight ``eta / a^2``, linearized at ``lam_hat``."""
    A, B, b = problem.A, problem.B, problem.b
    Ax, By = A.apply(state.x), B.apply(state.y)
    if side == "x":
        block, C, oracle = problem.f_prox, A, options.x_augmented_oracle
        offset, drift = By - b, B.apply(state.w - state.y)
    else:
        block, C, oracle = problem.g, B, options.y_augmented_oracle
        offset, drift = Ax - b, A.apply(state.v - state.x)
    lam_hat = state.lam - (Ax + By - b) / ps.theta + (alpha / ps.theta) * drift
    return solve_augmented_subproblem(
        block, C.adjoint(lam_hat), C, offset,
        sigma=1.0 / ps_next.theta, weight=eta / alpha ** 2, center=center,
        options=options, oracle=oracle,
    )


def step(implicit, f_update, problem, state, ps, ps_next, alpha, options):
    """One step of the scheme whose implicit side is ``implicit`` (``"x"``,
    ``"y"`` or None).  ``f_update`` is the family's f-block update, returning
    ``(x+, v+, u)``: its augmented form ``(problem, state, ps, ps_next,
    alpha, options, Bw)`` when ``implicit == "x"``, else its prox form
    ``(problem, state, ps, alpha, lam_bar)``."""
    A, B, b = problem.A, problem.B, problem.b
    c = alpha / ps.theta
    eta_g, y_tilde = _weights(state.y, state.w, ps.beta, ps.mu_g, alpha)

    # A v and B w as the prediction sees them: fresh on the implicit side
    Av = A.apply(state.v) if implicit != "x" else None
    Bw = B.apply(state.w) if implicit != "y" else None
    if implicit == "x":
        x_new, v_new, u = f_update(problem, state, ps, ps_next, alpha, options, Bw)
        Av = A.apply(v_new)
    elif implicit == "y":
        y_new = _augmented_step(problem, state, ps, ps_next, alpha, options, "y", eta_g, y_tilde)
        w_new = y_new + (y_new - state.y) / alpha
        Bw = B.apply(w_new)
    lam_bar = state.lam + c * (Av + Bw - b)

    if implicit != "x":
        x_new, v_new, u = f_update(problem, state, ps, alpha, lam_bar)
        Av = A.apply(v_new)
    if implicit != "y":
        tau = alpha ** 2 / eta_g
        y_new = problem.g.prox(y_tilde - tau * B.adjoint(lam_bar), tau)
        w_new = y_new + (y_new - state.y) / alpha
        Bw = B.apply(w_new)

    lam_new = state.lam + c * (Av + Bw - b)
    return IterateState(x=x_new, v=v_new, y=y_new, w=w_new, lam=lam_new, u=u)


def _f1_prox(problem, state, ps, alpha, lam_bar):
    eta_f, x_tilde = _weights(state.x, state.v, ps.gamma, ps.mu_f, alpha)
    s = alpha ** 2 / eta_f
    x_new = problem.f_prox.prox(x_tilde - s * problem.A.adjoint(lam_bar), s)
    return x_new, x_new + (x_new - state.x) / alpha, None


def _f1_augmented(problem, state, ps, ps_next, alpha, options, Bw):
    eta_f, x_tilde = _weights(state.x, state.v, ps.gamma, ps.mu_f, alpha)
    x_new = _augmented_step(problem, state, ps, ps_next, alpha, options, "x", eta_f, x_tilde)
    return x_new, x_new + (x_new - state.x) / alpha, None


def step_f1_semi_b(problem, state, ps, ps_next, alpha, options):
    """Augmented x-step with penalty ``1/theta_{k+1}``, prox y-step."""
    return step("x", _f1_augmented, problem, state, ps, ps_next, alpha, options)


def step_f1_semi_a(problem, state, ps, ps_next, alpha, options):
    """Augmented y-step, prox x-step; mirror of :func:`step_f1_semi_b`."""
    return step("y", _f1_prox, problem, state, ps, ps_next, alpha, options)


def step_f1_explicit(problem, state, ps, ps_next, alpha, options):
    """Parallel linearized step: both blocks prox against the same
    multiplier prediction, no data dependence between them."""
    return step(None, _f1_prox, problem, state, ps, ps_next, alpha, options)
