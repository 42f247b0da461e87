"""Second scheme family's f-block: gradient step on the smooth f-part, prox
on the rest, and an averaging correction that keeps iterates inside the
set.  The y-block and multiplier updates are the skeleton's in ``family1``.

The f-block is ``f = f1 + f2`` with ``f1`` smooth.  The velocity update
acts on ``v``; the correction

    u = (x + a v) / (1 + a)        x+ = (x + a v+) / (1 + a)

sandwiches it, with the auxiliary weights

    eta_f~ = gamma + mu_f a        v_tilde = (gamma v + mu_f a u) / eta_f~
"""

from .family1 import step
from .subprob import solve_augmented_subproblem

__all__ = ["step_f2_semi_b", "step_f2_semi_a", "step_f2_explicit"]


def _aux(state, ps, alpha):
    u = (state.x + alpha * state.v) / (1.0 + alpha)
    eta_ft = ps.gamma + ps.mu_f * alpha
    v_tilde = (ps.gamma * state.v + ps.mu_f * alpha * u) / eta_ft
    return u, eta_ft, v_tilde


def _f2_prox(problem, state, ps, alpha, lam_bar):
    u, eta_ft, v_tilde = _aux(state, ps, alpha)
    s = alpha / eta_ft
    grad = problem.f_smooth.gradient(u) + problem.A.adjoint(lam_bar)
    v_new = problem.f_prox.prox(v_tilde - s * grad, s)
    return (state.x + alpha * v_new) / (1.0 + alpha), v_new


def _f2_augmented(problem, state, ps, ps_next, alpha, Bw):
    u, eta_ft, v_tilde = _aux(state, ps, alpha)
    d = problem.f_smooth.gradient(u) + problem.A.adjoint(state.lam)
    v_new = solve_augmented_subproblem(
        problem.f_prox, d, problem.A, Bw - problem.b,
        sigma=alpha / ps.theta, weight=eta_ft / alpha, center=v_tilde,
    )
    return (state.x + alpha * v_new) / (1.0 + alpha), v_new


def step_f2_semi_b(problem, state, ps, ps_next, alpha):
    """Augmented v-step against the stale ``w``, prox y-step against the
    fresh multiplier prediction."""
    return step("x", _f2_augmented, problem, state, ps, ps_next, alpha)


def step_f2_semi_a(problem, state, ps, ps_next, alpha):
    """Augmented y-step with penalty ``1/theta_{k+1}``, prox v-step."""
    return step("y", _f2_prox, problem, state, ps, ps_next, alpha)


def step_f2_explicit(problem, state, ps, ps_next, alpha):
    """Fully prox/gradient-explicit; the v- and y-updates are order
    independent."""
    return step(None, _f2_prox, problem, state, ps, ps_next, alpha)
