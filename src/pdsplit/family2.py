"""Second scheme family's f-block pair ``F_BLOCK``: gradient step on the smooth
f-part, prox on the rest, and an averaging correction that keeps iterates inside
the set.  The y-block and multiplier updates are those of ``family1.step``,
and both forms take the side first, as there (here always ``"x"``).

The f-block is ``f = f1 + f2`` with ``f1`` smooth.  The velocity update
acts on ``v``; the correction

    u = (x + a v) / (1 + a)        x+ = (x + a v+) / (1 + a)

sandwiches it, with the auxiliary weights

    eta_f~ = gamma + mu_f a        v_tilde = (gamma v + mu_f a u) / eta_f~

and the augmented form hands ``f``'s solve, for penalty ``sigma = a / theta`` and
weight ``eta_f~ / a``, ``r = weight v_tilde - grad f1(u) - A^T (lam + sigma (B w - b))``.
"""

from .subprob import solve_augmented_subproblem

__all__ = ["F_BLOCK"]


def _aux(state, ps, alpha):
    u = (state.x + alpha * state.v) / (1.0 + alpha)
    eta_ft = ps.gamma + ps.mu_f * alpha
    v_tilde = (ps.gamma * state.v + ps.mu_f * alpha * u) / eta_ft
    return u, eta_ft, v_tilde


def _f2_prox(side, problem, state, ps, alpha, lam_bar):
    u, eta_ft, v_tilde = _aux(state, ps, alpha)
    s = alpha / eta_ft
    grad = problem.f_smooth.gradient(u) + problem.A.adjoint(lam_bar)
    v_new = problem.f_prox.prox(v_tilde - s * grad, s)
    return (state.x + alpha * v_new) / (1.0 + alpha), v_new


def _f2_augmented(side, problem, state, ps, ps_next, alpha, Bw):
    u, eta_ft, v_tilde = _aux(state, ps, alpha)
    sigma, weight = alpha / ps.theta, eta_ft / alpha
    r = (weight * v_tilde - problem.f_smooth.gradient(u)
         - problem.A.adjoint(state.lam + sigma * (Bw - problem.b)))
    v_new = solve_augmented_subproblem(problem.solves["f"], r, sigma, weight, v_tilde)
    return (state.x + alpha * v_new) / (1.0 + alpha), v_new


F_BLOCK = (_f2_prox, _f2_augmented)
