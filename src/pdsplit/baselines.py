"""Reference first-order methods used for comparison runs and for
approximating optimal values: linearized method of multipliers and a
primal-dual hybrid gradient iteration.

These are unaccelerated; their role is to provide trustworthy (if slow)
iterates against which the accelerated schemes are benchmarked.  Both
step on the schemes' ``IterateState`` and, like them, keep no ergodic average.
"""

from dataclasses import dataclass

import numpy as np

from .driver import check_f_block, iterate
from .family1 import IterateState
# not used here: perfbench/tracer.py wraps these two names in this module
from .diagnostics import sparsity  # noqa: F401
from .oracles import feasibility_residual  # noqa: F401

__all__ = [
    "ladmm_run",
    "step_ladmm",
    "pdhg_run",
    "step_pdhg",
    "approximate_optimum",
    "OptimumEstimate",
    "NotApplicableError",
]


class NotApplicableError(ValueError):
    """The method does not apply to the problem's structure."""


def step_ladmm(problem, state, tx, ty):
    """One linearized multiplier step with penalty 1.

    Both primal blocks are prox steps on the linearized augmented
    Lagrangian (Gauss-Seidel order: x first, then y against the new x).
    The velocities of the returned state are its points: ``v = x``,
    ``w = y``; it keeps ``A x+``, ``B y+`` and their residual, which the
    next step and the trace row reuse.
    """
    A, B, b = problem.A, problem.B, problem.b
    _, By = state.products(problem)

    res = state.residual(problem) + state.lam
    x_new = problem.f_prox.prox(state.x - tx * A.adjoint(res), tx)

    Ax_new = A.apply(x_new)
    res = Ax_new + By - b + state.lam
    y_new = problem.g.prox(state.y - ty * B.adjoint(res), ty)

    By_new = B.apply(y_new)
    res_new = Ax_new + By_new - b
    return IterateState(x=x_new, v=x_new, y=y_new, w=y_new, lam=state.lam + res_new,
                        Ax=Ax_new, By=By_new, res=res_new)


def ladmm_run(problem, max_iters, x0=None, y0=None, lam0=None, record_every=1,
              iterate_callback=None):
    """Run the linearized multiplier method with penalty 1 for ``max_iters``
    steps; return ``driver.iterate``'s ``RunResult``, whose ``params`` is None.

    A true return of ``iterate_callback(k, state)`` ends the run at that row.
    The ``theta`` and ``alpha`` columns do not apply to this method; theta
    is recorded as 1 throughout so the CSV schema stays uniform.
    """
    check_f_block(problem, "ladmm", smooth=False)
    state = IterateState.cold_start(problem, x0, y0, lam0)
    tx = 1.0 / problem.A.norm_bound() ** 2
    ty = 1.0 / problem.B.norm_bound() ** 2
    return iterate(problem, state, max_iters, {"scheme": "ladmm"},
                   lambda problem, s: step_ladmm(problem, s, tx, ty),
                   iterate_callback=iterate_callback, record_every=record_every)


def step_pdhg(problem, state, tau, sigma):
    """One primal-dual hybrid gradient step for ``min f(x) + g(Ax)``.

    The dual prox is evaluated through the identity
    ``prox_{sigma g*}(z) = z - sigma prox_{g/sigma}(z/sigma)``, which also
    exposes the primal point ``y = prox_{g/sigma}(z/sigma)``.  ``v`` is the
    extrapolation ``2 x+ - x``, the schemes' velocity at ``alpha = 1``.
    The step forms ``A x+`` and leaves it on the state it returns, with
    ``B y+`` and ``A v+ = 2 A x+ - A x``: the trace row makes no product,
    and the next step's one forward product is its own ``A x+``.  A cold or
    hand-built state, which has no ``A v``, has it computed; its next state
    differs from a looped state's by rounding only.
    """
    A = problem.A
    Ax, _ = state.products(problem)
    Av = A.apply(state.v) if state.Av is None else state.Av
    z = state.lam + sigma * Av
    y_new = problem.g.prox(z / sigma, 1.0 / sigma)
    lam_new = z - sigma * y_new

    x_new = problem.f_prox.prox(state.x - tau * A.adjoint(lam_new), tau)
    Ax_new = A.apply(x_new)
    return IterateState(x=x_new, v=2.0 * x_new - state.x, y=y_new, w=y_new, lam=lam_new,
                        Ax=Ax_new, By=problem.B.apply(y_new), Av=2.0 * Ax_new - Ax)


def pdhg_run(problem, max_iters, x0=None, lam0=None, iterate_callback=None):
    """Run the primal-dual iteration with steps ``tau = sigma = 1/||A||`` for
    ``max_iters`` steps, or until ``iterate_callback(k, state)`` returns true;
    return ``driver.iterate``'s ``RunResult``, whose ``params`` is None.  The
    start is the cold start with ``y0 = 0``, which the step never reads."""
    if not problem.composite:
        raise NotApplicableError("this primal-dual iteration applies to composite "
                                 "problems only: B = -I and b = 0")
    check_f_block(problem, "pdhg", smooth=False)
    state = IterateState.cold_start(problem, x0, None, lam0)
    tau = sigma = 1.0 / problem.A.norm_bound()
    return iterate(problem, state, max_iters, {"scheme": "pdhg", "tau": tau, "sigma": sigma},
                   lambda problem, s: step_pdhg(problem, s, tau, sigma),
                   iterate_callback=iterate_callback)


@dataclass
class OptimumEstimate:
    """Best objective seen on a long reference run plus a crude error bar."""

    value: float
    uncertainty: float
    x: np.ndarray


def approximate_optimum(problem, iters=20000):
    """Estimate the optimal value with a long multiplier-method run.

    The uncertainty is the objective movement over the last half of the
    run (plus the final feasibility residual scaled by the multiplier
    norm), which upper-bounds how much further progress the tail was still
    making.  ``iters = 0`` returns the initial objective with infinite
    uncertainty.
    """
    check = max((iters + 1) // 2, 1)
    result = ladmm_run(problem, iters, record_every=check)
    trace, state = result.trace, result.state
    objs = [r.obj for r in trace.rows if r.obj is not None]
    if iters == 0 or len(objs) < 2:
        val = objs[-1] if objs else np.inf
        return OptimumEstimate(value=val, uncertainty=np.inf, x=state.x)
    final = objs[-1]
    drift = abs(objs[-1] - objs[-2])
    feas = trace.rows[-1].feas
    unc = drift + feas * (1.0 + float(np.linalg.norm(state.lam)))
    return OptimumEstimate(value=final, uncertainty=unc, x=state.x)
