"""Lyapunov values, residual bound certificates, sparsity, and run traces.

Trace CSV schema (one row per iteration, exact header):

    k,theta,alpha,obj,feas,gap,lyap,sparsity,seconds

Missing values (no reference saddle point) serialize as empty fields.
"""

import io
import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .oracles import feasibility_residual, lagrangian_value

__all__ = [
    "LyapunovInputs",
    "TraceRow",
    "IterationTrace",
    "lyapunov",
    "r0",
    "lagrangian_gap",
    "certify_bounds",
    "BoundReport",
    "sparsity",
    "write_csv",
]

CSV_COLUMNS = ("k", "theta", "alpha", "obj", "feas", "gap", "lyap", "sparsity", "seconds")


@dataclass
class LyapunovInputs:
    """Reference quantities needed by the certified bounds."""

    saddle: object = None            # SaddlePoint or None
    f_star: float = None             # F(x*, y*)
    m_g: float = None                # Lipschitz constant of g, if known


@dataclass
class TraceRow:
    k: int
    theta: float
    alpha: float = None
    obj: float = None
    feas: float = None
    gap: float = None
    lyap: float = None
    sparsity: int = None
    seconds: float = None


@dataclass
class IterationTrace:
    """Per-iteration diagnostics plus a header identifying the run."""

    meta: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)

    def column(self, name):
        return [getattr(r, name) for r in self.rows]

    def to_csv(self, path_or_buf):
        write_csv(path_or_buf, CSV_COLUMNS, map(attrgetter(*CSV_COLUMNS), self.rows))

    def to_csv_string(self):
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def write_csv(path_or_buf, columns, rows):
    """Write ``columns`` and then ``rows`` (values in column order) to a path or a
    buffer: None as an empty field, ``k`` and ``sparsity`` as they are, any
    other value as ``repr(float(v))``, so the same numbers give the same bytes.
    The bytes are ``csv.writer``'s for rows of two or more such fields: joined
    by ``,``, each line ended by ``\\r\\n``."""
    if not hasattr(path_or_buf, "write"):
        with open(path_or_buf, "w", newline="") as fh:
            return write_csv(fh, columns, rows)
    formats = [str if c in ("k", "sparsity") else _float_field for c in columns]
    lines = (",".join(["" if v is None else f(v) for f, v in zip(formats, row)]) for row in rows)
    path_or_buf.write("".join(f"{line}\r\n" for line in (",".join(columns), *lines)))


def _float_field(v):
    return repr(float(v))


def lagrangian_gap(problem, state, objective):
    """``L(x, y, lam*) - L(x*, y*, lam)`` at the iterate state, given its
    ``objective`` ``F(x, y)``; nonnegative at the problem's true saddle.
    ``L(x*, y*, lam)`` pairs ``lam`` with the problem's saddle residual.
    Over the last axis: a state of stacked points and their objectives give
    one gap per point, each the bits of its own evaluation."""
    return (lagrangian_value(problem, state, problem.saddle.lam, objective)
            - (problem.f_saddle + np.vecdot(state.lam, problem.saddle_residual)))


def lyapunov(problem, state, ps, gap):
    """Discrete merit: Lagrangian gap plus weighted distances to the saddle.

    ``E_k = gap + gamma/2 ||v - x*||^2 + beta/2 ||w - y*||^2
    + theta/2 ||lam - lam*||^2``

    ``ps`` supplies ``theta``, ``gamma`` and ``beta``; ``gap`` is the
    Lagrangian gap of ``state`` against ``problem.saddle``.
    Over the last axis, as :func:`lagrangian_gap`: stacked points with one
    ``theta``, ``gamma``, ``beta`` and ``gap`` each give one merit per point.
    """
    saddle = problem.saddle
    dv, dw, dlam = state.v - saddle.x, state.w - saddle.y, state.lam - saddle.lam
    return (gap + 0.5 * ps.gamma * np.vecdot(dv, dv) + 0.5 * ps.beta * np.vecdot(dw, dw)
            + 0.5 * ps.theta * np.vecdot(dlam, dlam))


def r0(problem, state, e0):
    """``sqrt(2 E_0) + ||lam_0 - lam*|| + ||A x_0 + B y_0 - b||`` at k=0,
    from the merit ``e0`` of ``state`` and the residual the state keeps."""
    if problem.saddle is None:
        return None
    return (math.sqrt(2.0 * max(e0, 0.0))
            + float(np.linalg.norm(state.lam - problem.saddle.lam))
            + feasibility_residual(problem, state))


@dataclass
class BoundReport:
    """Per-bound worst relative violations over a trace."""

    applicable: bool
    max_violation: dict = field(default_factory=dict)
    flagged_rows: dict = field(default_factory=dict)

    def clean(self, slack=0.0):
        return self.applicable and all(v <= slack for v in self.max_violation.values())


def certify_bounds(trace, inputs, composite_column=None, p_star=None):
    """Check the certified decay bounds row by row, with E0 row 0's ``lyap``
    (clamped at 0) and R0 ``trace.meta["r0"]``, neither of which the report keeps.

    Bounds checked (when the needed inputs exist):
      feas <= theta * R0
      gap  <= theta * E0
      |obj - F*| <= theta * (E0 + ||lam*|| R0)
      composite: 0 <= P - P* <= theta * (E0 + (||lam*|| + M_g) R0)

    Violations are reported (relative, with additive-plus-relative slack
    absorbed by the caller), never thrown.  A ``composite_column`` without
    ``p_star`` or ``inputs.m_g``, or not one entry a row, raises ``ValueError``.
    """
    if inputs.saddle is None or not trace.rows:
        return BoundReport(applicable=False)

    e0 = trace.rows[0].lyap
    if e0 is None:
        return BoundReport(applicable=False)
    e0 = max(e0, 0.0)
    # R0 needs the initial multiplier distance, which only the run itself
    # knows; the solver records it in the trace header.
    r0_val = trace.meta.get("r0")
    if r0_val is None:
        return BoundReport(applicable=False)

    lam_norm, f_star = float(np.linalg.norm(inputs.saddle.lam)), inputs.f_star
    table = {}   # bound name -> [(k, relative excess)] over the rows it applies to
    for row in trace.rows:
        th = row.theta
        obj_err = None if row.obj is None or f_star is None else abs(row.obj - f_star)
        for name, value, bound in (("feasibility", row.feas, th * r0_val),
                                   ("gap", row.gap, th * e0),
                                   ("objective", obj_err, th * (e0 + lam_norm * r0_val))):
            if value is not None:
                table.setdefault(name, []).append((row.k, _rel_excess(value, bound)))

    if composite_column is not None:
        for name, value in (("p_star", p_star), ("inputs.m_g", inputs.m_g)):
            if value is None:
                raise ValueError(f"a composite_column needs {name}")
        if len(composite_column) != len(trace.rows):
            raise ValueError(f"composite_column has {len(composite_column)} entries; "
                             f"the trace has {len(trace.rows)} rows")
        rows = list(zip(trace.rows, composite_column))
        table["composite"] = [
            (row.k, _rel_excess(p - p_star, row.theta * (e0 + (lam_norm + inputs.m_g) * r0_val)))
            for row, p in rows]
        table["composite-nonneg"] = [(row.k, max(-(p - p_star), 0.0) / (1.0 + abs(p_star)))
                                     for row, p in rows]

    flagged = {name: [(k, v) for k, v in excess if v > 0.0] for name, excess in table.items()}
    return BoundReport(applicable=True,
                       max_violation={n: max([v for _, v in f], default=0.0)
                                      for n, f in flagged.items()},
                       flagged_rows={n: [k for k, _ in f] for n, f in flagged.items() if f})


def _rel_excess(value, bound):
    """Relative amount by which ``value`` exceeds ``bound``: 0 if it holds,
    inf if either is NaN."""
    excess = value - bound
    if excess <= 0.0:
        return 0.0
    if math.isnan(excess):
        return math.inf
    return excess / (1.0 + abs(bound))


def sparsity(x):
    """Number of entries with ``|x_i| > 1e-6 * ||x||_inf``, over the last axis:
    one count for a point, one per point for a stack of them."""
    ax = np.abs(x)
    return np.count_nonzero(ax > 1e-6 * ax.max(axis=-1, keepdims=True, initial=0.0), axis=-1)
