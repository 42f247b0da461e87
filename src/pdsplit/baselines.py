"""Reference first-order methods used for comparison runs and for
approximating optimal values: linearized method of multipliers and a
primal-dual hybrid gradient iteration.

These are unaccelerated; their role is to provide trustworthy (if slow)
iterates against which the accelerated schemes are benchmarked.
"""

import time
from dataclasses import dataclass

import numpy as np

from .diagnostics import IterationTrace, TraceRow, sparsity
from .linops import ScaledIdentity
from .oracles import feasibility_residual

__all__ = [
    "BaselineState",
    "ladmm_run",
    "step_ladmm",
    "PDHGState",
    "pdhg_run",
    "step_pdhg",
    "approximate_optimum",
    "OptimumEstimate",
]


@dataclass
class BaselineState:
    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray


def _f_prox(problem):
    if problem.has_smooth_f():
        raise ValueError("baselines need a pure prox f-block; fold the smooth "
                         "part into a quadratic prox oracle")
    return problem.f_prox


def _record_run(problem, state, max_iters, record_every, trace, step):
    """Apply ``step`` ``max_iters`` times, recording the rows whose index is
    a multiple of ``record_every`` and the last one."""
    t_start = time.perf_counter()
    for k in range(max_iters + 1):
        if k % record_every == 0 or k == max_iters:
            obj = problem.objective(state.x, state.y)
            trace.append(TraceRow(
                k=k, theta=1.0,
                obj=float(obj) if np.isfinite(obj) else None,
                feas=feasibility_residual(problem, state.x, state.y),
                sparsity=sparsity(state.x),
                seconds=time.perf_counter() - t_start))
        if k == max_iters:
            break
        state = step(state)
    return trace, state


def step_ladmm(problem, state, sigma, tx, ty):
    """One linearized multiplier step with penalty ``sigma``.

    Both primal blocks are prox steps on the linearized augmented
    Lagrangian (Gauss-Seidel order: x first, then y against the new x).
    """
    A, B, b = problem.A, problem.B, problem.b
    f = _f_prox(problem)

    res = A.apply(state.x) + B.apply(state.y) - b + state.lam / sigma
    x_new = f.prox(state.x - tx * sigma * A.adjoint(res), tx)

    res = A.apply(x_new) + B.apply(state.y) - b + state.lam / sigma
    y_new = problem.g.prox(state.y - ty * sigma * B.adjoint(res), ty)

    lam_new = state.lam + sigma * (A.apply(x_new) + B.apply(y_new) - b)
    return BaselineState(x=x_new, y=y_new, lam=lam_new)


def ladmm_run(problem, max_iters, sigma=1.0, x0=None, y0=None, lam0=None,
              record_every=1):
    """Run the linearized multiplier method and collect a standard trace.

    The ``theta`` and ``alpha`` columns do not apply to this method; theta
    is recorded as 1 throughout so the CSV schema stays uniform.
    """
    x, y, lam = problem.initial_point(x0, y0, lam0)
    state = BaselineState(x=x, y=y, lam=lam)

    tx = 1.0 / (sigma * problem.A.norm_bound() ** 2)
    ty = 1.0 / (sigma * problem.B.norm_bound() ** 2)

    trace = IterationTrace(meta={"scheme": "ladmm", "sigma": sigma,
                                 "max_iters": max_iters})
    return _record_run(problem, state, max_iters, record_every, trace,
                       lambda s: step_ladmm(problem, s, sigma, tx, ty))


@dataclass
class PDHGState:
    x: np.ndarray
    x_bar: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    x_sum: np.ndarray
    y_sum: np.ndarray
    count: int

    def ergodic(self):
        return self.x_sum / self.count, self.y_sum / self.count


def _check_pdhg_applicable(problem):
    B = problem.B
    if not (isinstance(B, ScaledIdentity) and B.scale == -1.0):
        raise ValueError("this primal-dual iteration applies to composite "
                         "problems with B = -I only")
    if np.any(problem.b != 0.0):
        raise ValueError("this primal-dual iteration needs a zero right-hand side")


def step_pdhg(problem, state, tau, sigma):
    """One primal-dual hybrid gradient step for ``min f(x) + g(Ax)``.

    The dual prox is evaluated through the identity
    ``prox_{sigma g*}(z) = z - sigma prox_{g/sigma}(z/sigma)``, which also
    exposes the primal point ``y = prox_{g/sigma}(z/sigma)``.
    """
    A = problem.A
    f = _f_prox(problem)

    z = state.lam + sigma * A.apply(state.x_bar)
    y_new = problem.g.prox(z / sigma, 1.0 / sigma)
    lam_new = z - sigma * y_new

    x_new = f.prox(state.x - tau * A.adjoint(lam_new), tau)
    x_bar = 2.0 * x_new - state.x
    return PDHGState(x=x_new, x_bar=x_bar, y=y_new, lam=lam_new,
                     x_sum=state.x_sum + x_new, y_sum=state.y_sum + y_new,
                     count=state.count + 1)


def pdhg_run(problem, max_iters, x0=None, lam0=None, record_every=1):
    """Run the primal-dual iteration with steps ``tau = sigma = 1/||A||``."""
    _check_pdhg_applicable(problem)
    x, _, lam = problem.initial_point(x0, None, lam0)
    y = problem.A.apply(x)
    state = PDHGState(x=x, x_bar=x.copy(), y=y, lam=lam,
                      x_sum=np.zeros_like(x), y_sum=np.zeros_like(y), count=0)

    nA = problem.A.norm_bound()
    tau = sigma = 1.0 / nA

    trace = IterationTrace(meta={"scheme": "pdhg", "tau": tau, "sigma": sigma,
                                 "max_iters": max_iters})
    return _record_run(problem, state, max_iters, record_every, trace,
                       lambda s: step_pdhg(problem, s, tau, sigma))


@dataclass
class OptimumEstimate:
    """Best objective seen on a long reference run plus a crude error bar."""

    value: float
    uncertainty: float
    x: np.ndarray
    y: np.ndarray


def approximate_optimum(problem, iters=20000, sigma=1.0):
    """Estimate the optimal value with a long multiplier-method run.

    The uncertainty is the objective movement over the last half of the
    run (plus the final feasibility residual scaled by the multiplier
    norm), which upper-bounds how much further progress the tail was still
    making.  ``iters = 0`` returns the initial objective with infinite
    uncertainty.
    """
    check = max(iters // 2, 1)
    trace, state = ladmm_run(problem, iters, sigma=sigma, record_every=check)
    objs = [r.obj for r in trace.rows if r.obj is not None]
    if iters == 0 or len(objs) < 2:
        val = objs[-1] if objs else np.inf
        return OptimumEstimate(value=val, uncertainty=np.inf, x=state.x, y=state.y)
    final = objs[-1]
    drift = abs(objs[-1] - objs[-2])
    feas = trace.rows[-1].feas
    unc = drift + feas * (1.0 + float(np.linalg.norm(state.lam)))
    return OptimumEstimate(value=final, uncertainty=unc, x=state.x, y=state.y)
