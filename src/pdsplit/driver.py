"""The run loop of all eight methods: the six schemes and the two baselines.

:func:`iterate` records the trace rows, ends the run where the iterate
callback returns true and raises ``FloatingPointError`` on a non-finite iterate.
A scheme also has a parameter schedule: before each step the loop solves
the step size and advances ``(theta, gamma, beta)``.

The trace records, for every index ``k``, the parameters *before* the step
(so ``theta_k`` is the product of ``1/(1+alpha_i)`` over ``i < k``) together
with the step size ``alpha_k`` that was used to leave index ``k``.  The last
row has no ``alpha``.  A baseline has no schedule: its rows have theta = 1
and empty ``alpha``, ``gap`` and ``lyap``, even when a saddle is known.
``record_every`` keeps only the rows whose index is a multiple of it, and
the last; only the reference-optimum estimate sets it.  A row is stamped with
its ``seconds`` when recorded; its ``gap``, ``lyap`` and ``sparsity`` are
filled with those of up to :data:`BLOCK_ROWS` rows at once, when the block is
full or the run ends, bit for bit the values one row alone would get.
"""

import math
import numbers
import time
from dataclasses import dataclass, replace
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import family1, family2
from .diagnostics import (IterationTrace, TraceRow, lagrangian_gap, lyapunov,
                          r0, sparsity)
from .oracles import feasibility_residual
from .params import ParamState, Scheme, StepSizeRule, advance, solve_step_size

__all__ = ["RunResult", "run", "iterate", "build_rule", "check_f_block"]

BLOCK_ROWS = 64   # rows whose gap, merit and sparsity one call of each evaluates

_STEPS = {s: partial(family1.step, s.implicit, (family1, family2)[s.family - 1].F_BLOCK)
          for s in Scheme}


@dataclass
class RunResult:
    trace: IterationTrace
    state: object
    params: ParamState      # None for a method without a parameter schedule


def build_rule(problem, scheme):
    """Assemble the step-size rule from the problem's operator norms."""
    lip = 0.0 if problem.f_smooth is None else problem.f_smooth.lipschitz
    return StepSizeRule(
        scheme=scheme,
        norm_A=problem.A.norm_bound(),
        norm_B=problem.B.norm_bound(),
        lipschitz_f=lip,
    )


def check_f_block(problem, method, smooth):
    """Raise ``ValueError`` unless the f-block is split (``smooth``) or prox-only."""
    if (problem.f_smooth is not None) != smooth:
        raise ValueError(f"{method} needs a smooth f-part; the problem has none" if smooth
                         else f"{method} treats f through its prox only; fold the smooth "
                         "part into the prox oracle or use a gradient-based scheme")


def run(problem, scheme, max_iters, x0=None, y0=None, lam0=None,
        gamma0=None, beta0=None, iterate_callback=None):
    """Run one scheme on one problem for ``max_iters`` steps and return its trace.

    The Lyapunov and gap columns, and ``R0`` in the trace header, are only
    populated when ``problem.saddle`` is known; ``E0`` is row 0's merit.  The
    augmented-subproblem inner loop stops by the fixed rule in
    :data:`pdsplit.subprob.OPTIONS`.  ``iterate_callback(k, state)`` is invoked
    at every row, with the full iterate, which the trace does not keep; a true
    return ends the run at that row.
    """
    check_f_block(problem, scheme.value, smooth=scheme.family == 2)
    state = family1.IterateState.cold_start(problem, x0, y0, lam0)
    ps = ParamState.initial(mu_f=problem.mu_f, mu_g=problem.mu_g,
                            gamma0=gamma0, beta0=beta0)
    meta = {
        "scheme": scheme.value,
        "dim_x": problem.dim_x, "dim_y": problem.dim_y, "dim_lam": problem.dim_lam,
        "mu_f": ps.mu_f, "mu_g": ps.mu_g,
        "gamma0": ps.gamma0, "beta0": ps.beta0,
    }
    return iterate(problem, state, max_iters, meta, _STEPS[scheme],
                   ps=ps, rule=build_rule(problem, scheme), iterate_callback=iterate_callback)


def iterate(problem, state, max_iters, meta, step, ps=None, rule=None,
            iterate_callback=None, record_every=1):
    """Step ``state`` ``max_iters`` times or until ``iterate_callback`` returns true.

    ``meta`` starts the trace header and names the method under
    ``"scheme"``.  With a parameter schedule (``ps`` and its ``rule``)
    the step is ``step(problem, state, ps, ps_next, alpha)``, else
    ``step(problem, state)``, on ``problem.eigenbasis``.  The callback and
    the caller get states in the original basis: the callback's keep the
    row's products and residual, the returned one has ``A x``, ``B y`` and a
    kept ``A v`` formed by the original operators, its residual from them.
    ``trace.meta["blocks"]`` holds each block's basis and its solve's counts
    over the run.  The callback sees a row before its block is filled.  A
    ``max_iters`` or ``record_every`` that is not an integer (a ``bool``
    included) raises ``TypeError``, one too small ``ValueError``.
    """
    for name, value in (("max_iters", max_iters), ("record_every", record_every)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TypeError(f"{name} must be an integer, not {value!r}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be at least 0, not {max_iters}")
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, not {record_every}")
    if ps is not None and record_every != 1:
        raise ValueError("record_every applies only to a method without a parameter schedule")
    turned, Vx, Vy = problem.eigenbasis
    for solve in turned.solves.values():
        solve.reset()
    merit = ps is not None and turned.saddle is not None
    trace = IterationTrace(meta=dict(meta, max_iters=max_iters))
    state = _rotated(state, Vx, Vy, back=False)

    start, kept = state, []   # kept: the pending rows' arrays that _fill reads
    t_start = time.perf_counter()
    for k in range(max_iters + 1):
        if k % record_every == 0 or k == max_iters:
            _check_finite(trace.meta["scheme"], k, state)
            # A x + B y - b and F(x, y) once per row; the gap, r0 and the step reuse them
            feas = feasibility_residual(turned, state)
            objective = turned.objective(state.x, state.y)
            row = TraceRow(k=k, theta=1.0 if ps is None else ps.theta,
                           obj=float(objective) if math.isfinite(objective) else None,
                           feas=feas, seconds=time.perf_counter() - t_start)
            trace.rows.append(row)
            kept.append((state.x, state.v, state.w, state.lam, state.res, objective,
                         ps.theta, ps.gamma, ps.beta) if merit else (state.x,))
            seen = None if iterate_callback is None else _rotated(state, Vx, Vy, back=True)
            stop = (seen is not None and iterate_callback(k, seen)) or k == max_iters
            if stop or len(kept) == BLOCK_ROWS:
                _fill(trace.rows[-len(kept):], kept, turned, merit, Vx)
                kept = []
            if stop:
                break

        if ps is None:
            state = step(turned, state)
            continue
        alpha = solve_step_size(ps, rule)
        row.alpha = alpha
        ps_next = advance(ps, alpha)
        state = step(turned, state, ps, ps_next, alpha)
        ps = ps_next

    if merit:
        trace.meta["r0"] = r0(turned, start, trace.rows[0].lyap)
    trace.meta["blocks"] = {role: {"basis": "original" if V is None else "eigen", **solve.counts()}
                            for (role, solve), V in zip(turned.solves.items(), (Vx, Vy))}
    if turned is not problem:   # products as a run in this basis would leave them
        state = _rotated(state, Vx, Vy, back=True) if seen is None else seen
        state.Ax, state.By, state.res = problem.A.apply(state.x), problem.B.apply(state.y), None
        state.Av = None if state.Av is None else problem.A.apply(state.v)
    return RunResult(trace=trace, state=state, params=ps)


def _fill(rows, kept, problem, merit, Vx):
    """Fill ``rows``' sparsity, and with ``merit`` their gap and merit, from
    ``kept``, one tuple per row, stacked: one call of each diagnostic per
    block, the block's ``x`` turned back by one product."""
    cols = [np.array(c) for c in zip(*kept)]
    x = cols[0] if Vx is None else cols[0] @ Vx.T
    for row, count in zip(rows, sparsity(x).tolist()):
        row.sparsity = count
    if merit:
        _, v, w, lam, res, objective, theta, gamma, beta = cols
        block = family1.IterateState(x=cols[0], v=v, y=None, w=w, lam=lam, res=res)
        gap = lagrangian_gap(problem, block, objective)
        ey = lyapunov(problem, block, SimpleNamespace(theta=theta, gamma=gamma, beta=beta), gap)
        for row, g, e in zip(rows, gap.tolist(), ey.tolist()):
            row.gap, row.lyap = g, e


def _rotated(state, Vx, Vy, back):
    """``state`` with ``x, v`` times ``Vx^T`` and ``y, w`` times ``Vy^T`` (``Vx``
    and ``Vy`` when ``back``; a None leaves its block), and its products and
    residual, which a rotation leaves unchanged up to rounding."""
    if Vx is None and Vy is None:
        return state
    x, v, y, w = (z if V is None else (V if back else V.T) @ z
                  for V, z in ((Vx, state.x), (Vx, state.v), (Vy, state.y), (Vy, state.w)))
    return replace(state, x=x, v=v, y=y, w=w)


def _check_finite(method, k, state):
    """Raise FloatingPointError naming a non-finite block; a finite sum of squares rules one out."""
    if not math.isfinite(state.x.dot(state.x) + state.y.dot(state.y) + state.lam.dot(state.lam)):
        for block in ("x", "y", "lam"):
            if not np.isfinite(getattr(state, block)).all():
                raise FloatingPointError(f"{method}: non-finite {block} at iteration {k}")
