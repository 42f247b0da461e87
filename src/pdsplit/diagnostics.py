"""Lyapunov values, residual bound certificates, sparsity, and run traces.

Trace CSV schema (one row per iteration, exact header):

    k,theta,alpha,obj,feas,gap,lyap,sparsity,seconds

Missing values (no reference saddle point) serialize as empty fields.
"""

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field

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
]

CSV_COLUMNS = ("k", "theta", "alpha", "obj", "feas", "gap", "lyap", "sparsity", "seconds")


@dataclass
class LyapunovInputs:
    """Reference quantities needed by the certified bounds."""

    saddle: object = None            # SaddlePoint or None
    f_star: float = None             # F(x*, y*)
    m_g: float = None                # Lipschitz constant of g, if known

    def resolved_lam_norm(self):
        if self.saddle is None:
            return None
        return float(np.linalg.norm(self.saddle.lam))


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

    def append(self, row):
        self.rows.append(row)

    def column(self, name):
        return [getattr(r, name) for r in self.rows]

    def config_hash(self):
        blob = json.dumps(self.meta, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def to_csv(self, path_or_buf):
        if hasattr(path_or_buf, "write"):
            self._write(path_or_buf)
        else:
            with open(path_or_buf, "w", newline="") as fh:
                self._write(fh)

    def _write(self, fh):
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in self.rows:
            out = []
            for c in CSV_COLUMNS:
                v = getattr(r, c)
                if v is None:
                    out.append("")
                elif c in ("k", "sparsity"):
                    out.append(v)
                else:
                    out.append(repr(float(v)))
            writer.writerow(out)

    def to_csv_string(self):
        buf = io.StringIO()
        self._write(buf)
        return buf.getvalue()

    @staticmethod
    def from_csv(path):
        trace = IterationTrace()
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for rec in reader:
                trace.append(TraceRow(
                    k=int(rec["k"]),
                    theta=float(rec["theta"]),
                    alpha=float(rec["alpha"]) if rec["alpha"] else None,
                    obj=float(rec["obj"]) if rec["obj"] else None,
                    feas=float(rec["feas"]) if rec["feas"] else None,
                    gap=float(rec["gap"]) if rec["gap"] else None,
                    lyap=float(rec["lyap"]) if rec["lyap"] else None,
                    sparsity=int(rec["sparsity"]) if rec["sparsity"] else None,
                    seconds=float(rec["seconds"]) if rec["seconds"] else None,
                ))
        return trace


def lagrangian_gap(problem, x, y, lam, saddle):
    """``L(x, y, lam*) - L(x*, y*, lam)``; nonnegative at a true saddle."""
    return (lagrangian_value(problem, x, y, saddle.lam)
            - lagrangian_value(problem, saddle.x, saddle.y, lam))


def lyapunov(problem, state, ps, inputs, gap=None):
    """Discrete merit: Lagrangian gap plus weighted distances to the saddle.

    ``E_k = gap + gamma/2 ||v - x*||^2 + beta/2 ||w - y*||^2
    + theta/2 ||lam - lam*||^2``

    ``ps`` supplies ``theta``, ``gamma`` and ``beta``.  ``gap`` is the
    Lagrangian gap of ``state``, computed here unless the caller has it.
    """
    saddle = inputs.saddle
    if saddle is None:
        return None
    if gap is None:
        gap = lagrangian_gap(problem, state.x, state.y, state.lam, saddle)
    return (gap
            + 0.5 * ps.gamma * float(np.sum((state.v - saddle.x) ** 2))
            + 0.5 * ps.beta * float(np.sum((state.w - saddle.y) ** 2))
            + 0.5 * ps.theta * float(np.sum((state.lam - saddle.lam) ** 2)))


def r0(problem, state, ps, inputs):
    """``sqrt(2 E_0) + ||lam_0 - lam*|| + ||A x_0 + B y_0 - b||`` at k=0."""
    saddle = inputs.saddle
    if saddle is None:
        return None
    e0 = lyapunov(problem, state, ps, inputs)
    e0 = max(e0, 0.0)
    return (math.sqrt(2.0 * e0)
            + float(np.linalg.norm(state.lam - saddle.lam))
            + feasibility_residual(problem, state.x, state.y))


@dataclass
class BoundReport:
    """Per-bound worst relative violations over a trace."""

    applicable: bool
    e0: float = None
    r0: float = None
    max_violation: dict = field(default_factory=dict)
    flagged_rows: dict = field(default_factory=dict)

    def clean(self, slack=0.0):
        return self.applicable and all(v <= slack for v in self.max_violation.values())


def certify_bounds(trace, inputs, composite_column=None, p_star=None):
    """Check the certified decay bounds row by row.

    Bounds checked (when the needed inputs exist):
      feas <= theta * R0
      gap  <= theta * E0
      |obj - F*| <= theta * (E0 + ||lam*|| R0)
      composite: 0 <= P - P* <= theta * (E0 + (||lam*|| + M_g) R0)

    Violations are reported (relative, with additive-plus-relative slack
    absorbed by the caller), never thrown.
    """
    if inputs.saddle is None or not trace.rows:
        return BoundReport(applicable=False)

    first = trace.rows[0]
    e0 = first.lyap
    if e0 is None:
        return BoundReport(applicable=False)
    e0 = max(e0, 0.0)
    # R0 needs the initial multiplier distance, which only the run itself
    # knows; the solver records it in the trace header.
    r0_val = trace.meta.get("r0")
    if r0_val is None:
        return BoundReport(applicable=False)

    lam_norm = inputs.resolved_lam_norm()
    report = BoundReport(applicable=True, e0=e0, r0=r0_val)

    def track(name, k, violation):
        cur = report.max_violation.get(name, 0.0)
        if violation > cur:
            report.max_violation[name] = violation
        if violation > 0.0:
            report.flagged_rows.setdefault(name, []).append(k)
        else:
            report.max_violation.setdefault(name, 0.0)

    for row in trace.rows:
        th = row.theta
        if row.feas is not None:
            bound = th * r0_val
            track("feasibility", row.k, _rel_excess(row.feas, bound))
        if row.gap is not None:
            bound = th * e0
            track("gap", row.k, _rel_excess(row.gap, bound))
        if row.obj is not None and inputs.f_star is not None and lam_norm is not None:
            bound = th * (e0 + lam_norm * r0_val)
            track("objective", row.k, _rel_excess(abs(row.obj - inputs.f_star), bound))

    if composite_column is not None and p_star is not None and inputs.m_g is not None:
        for row, pval in zip(trace.rows, composite_column):
            bound = row.theta * (e0 + (lam_norm + inputs.m_g) * r0_val)
            track("composite", row.k, _rel_excess(pval - p_star, bound))
            track("composite-nonneg", row.k, max(-(pval - p_star), 0.0) / (1.0 + abs(p_star)))

    return report


def _rel_excess(value, bound):
    """Relative amount by which ``value`` exceeds ``bound`` (0 if it holds)."""
    excess = value - bound
    if excess <= 0.0:
        return 0.0
    return excess / (1.0 + abs(bound))


def sparsity(x, threshold=None):
    """Number of entries with ``|x_i| > threshold``.

    Default threshold is ``1e-6 * ||x||_inf``.
    """
    x = np.asarray(x)
    if threshold is None:
        mx = float(np.max(np.abs(x))) if x.size else 0.0
        threshold = 1e-6 * mx
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    return int(np.count_nonzero(np.abs(x) > threshold))
