"""Run loop shared by all schemes: step-size solve, parameter advance,
iteration step, trace recording.

The trace records, for every index ``k``, the parameters *before* the step
(so ``theta_k`` is the product of ``1/(1+alpha_i)`` over ``i < k``) together
with the step size ``alpha_k`` that was used to leave index ``k``.  The last
row has no ``alpha``.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import family1, family2
from .diagnostics import (IterationTrace, LyapunovInputs, TraceRow,
                          lagrangian_gap, lyapunov, r0, sparsity)
from .oracles import feasibility_residual
from .params import ParamState, Scheme, StepSizeRule, advance, solve_step_size
from .subprob import SolverOptions

__all__ = ["RunBudget", "RunResult", "run", "build_rule"]

_STEPS = {
    Scheme.F1_SEMI_B: family1.step_f1_semi_b,
    Scheme.F1_SEMI_A: family1.step_f1_semi_a,
    Scheme.F1_EXPLICIT: family1.step_f1_explicit,
    Scheme.F2_SEMI_B: family2.step_f2_semi_b,
    Scheme.F2_SEMI_A: family2.step_f2_semi_a,
    Scheme.F2_EXPLICIT: family2.step_f2_explicit,
}


@dataclass
class RunBudget:
    """Iteration cap plus optional early-exit targets."""

    max_iters: int = 1000
    target_feasibility: float = None
    target_obj_residual: float = None   # |F - F*|, needs a known F*


@dataclass
class RunResult:
    trace: IterationTrace
    state: object
    params: ParamState


def build_rule(problem, scheme):
    """Assemble the step-size rule from the problem's operator norms."""
    lip = problem.f_smooth.lipschitz if problem.has_smooth_f() else 0.0
    return StepSizeRule(
        scheme=scheme,
        norm_A=problem.A.norm_bound(),
        norm_B=problem.B.norm_bound(),
        lipschitz_f=lip,
    )


def run(problem, scheme, budget, x0=None, y0=None, lam0=None,
        options=None, gamma0=None, beta0=None, lyapunov_inputs=None,
        f_star=None, iterate_callback=None):
    """Run one scheme on one problem and return its trace.

    The Lyapunov and gap columns are only populated when a reference
    saddle point is available (``lyapunov_inputs`` or ``problem.saddle``).
    ``iterate_callback(k, state)`` is invoked at every recorded index for
    callers that need the full iterate, which the trace does not keep.
    """
    if isinstance(budget, int):
        budget = RunBudget(max_iters=budget)
    options = options or SolverOptions()

    if scheme.family == 2 and not problem.has_smooth_f():
        raise ValueError(f"{scheme.value} needs a smooth f-part; the problem has none")
    if scheme.family == 1 and problem.has_smooth_f():
        raise ValueError(f"{scheme.value} treats f through its prox only; "
                         "fold the smooth part into the prox oracle or use "
                         "a gradient-based scheme")

    if lyapunov_inputs is None:
        lyapunov_inputs = LyapunovInputs(saddle=problem.saddle, f_star=f_star)
    elif lyapunov_inputs.saddle is None:
        lyapunov_inputs.saddle = problem.saddle
    saddle = lyapunov_inputs.saddle

    state = family1.IterateState.cold_start(problem, x0, y0, lam0)

    ps = ParamState.initial(mu_f=problem.mu_f, mu_g=problem.mu_g,
                            gamma0=gamma0, beta0=beta0)
    rule = build_rule(problem, scheme)
    step = _STEPS[scheme]

    trace = IterationTrace(meta={
        "scheme": scheme.value,
        "dim_x": problem.dim_x, "dim_y": problem.dim_y, "dim_lam": problem.dim_lam,
        "mu_f": ps.mu_f, "mu_g": ps.mu_g,
        "gamma0": ps.gamma0, "beta0": ps.beta0,
        "max_iters": budget.max_iters,
    })
    e0 = lyapunov(problem, state, ps, lyapunov_inputs)
    r0_val = r0(problem, state, ps, lyapunov_inputs)
    if e0 is not None:
        trace.meta["e0"] = e0
        trace.meta["r0"] = r0_val

    t_start = time.perf_counter()
    for k in range(budget.max_iters + 1):
        feas = feasibility_residual(problem, state.x, state.y)
        obj = problem.objective(state.x, state.y)
        obj = float(obj) if np.isfinite(obj) else None
        gap = ey = None
        if saddle is not None:
            gap = lagrangian_gap(problem, state.x, state.y, state.lam, saddle)
            ey = lyapunov(problem, state, ps, lyapunov_inputs, gap=gap)
        row = TraceRow(k=k, theta=ps.theta, obj=obj, feas=feas, gap=gap,
                       lyap=ey, sparsity=sparsity(state.x),
                       seconds=time.perf_counter() - t_start)
        trace.append(row)
        if iterate_callback is not None:
            iterate_callback(k, state)

        done = k == budget.max_iters
        if budget.target_feasibility is not None and feas <= budget.target_feasibility:
            done = True
        if (budget.target_obj_residual is not None and obj is not None
                and lyapunov_inputs.f_star is not None
                and abs(obj - lyapunov_inputs.f_star) <= budget.target_obj_residual):
            done = True
        if done:
            break

        alpha = solve_step_size(ps, rule)
        row.alpha = alpha
        ps_next = advance(ps, alpha)
        state = step(problem, state, ps, ps_next, alpha, options)
        ps = ps_next

    trace.meta["iterations"] = trace.rows[-1].k
    return RunResult(trace=trace, state=state, params=ps)
