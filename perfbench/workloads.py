"""Workload definitions and one measured round of each.

A round runs, on the instance of the workload seed:

* the **bench pass**: one ``bench.run_benchmark`` call, the path a
  ``pdsplit-bench`` user takes (generation, reference optimum, every
  method, trace CSVs and ``summary.json``);
* the **library pass**: ``bench.generate_problem`` and then every method
  through ``bench._run_method``, the CLI's own dispatch, keeping each
  trace's ``seconds`` column.  After each method solve one short
  continuous-flow integration runs (RK4 plus merit certification) on a
  6x6 quadratic from the same generator, as in ``demos/continuous_flow.py``.

Every library call goes through its module attribute, so the tracer's
wrappers see it.  Every operation is checked; a failed check counts the
operation as failed and never aborts the round.
"""

import gc
import hashlib
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    m: int
    n: int
    methods: tuple
    iters: int                 # outer iterations per method solve
    round_s: float             # nominal round time; a run makes seconds // round_s rounds
    obj_target: float          # relative objective error, as summary.json's obj_rel
    feas_target: float         # feasibility residual, as summary.json's feas_rel
    setup_panel: int = 1       # instances timed as set-up in every round
    tta_methods: tuple = None  # methods summed into tta_s; None means all

    def rounds(self, seconds):
        # fixed by --seconds and never by measured speed, so that both sides
        # of a comparison take their medians over the same number of rounds
        return max(2, int(seconds // self.round_s))

    def setup_seeds(self, seed):
        """Instance seeds timed as set-up: the run's own, then others from it.

        Set-up time follows the number of power iterations the operator
        norms take, and that varies from instance to instance by up to 10x,
        so one instance would make ``setup_s`` a figure of the seed.
        """
        return [seed + 1000 * j for j in range(self.setup_panel)]

    @property
    def timed_methods(self):
        return self.methods if self.tta_methods is None else self.tta_methods


# Budgets and targets: at the seed commit every timed method met its targets
# within ``iters`` on every instance seed tried (39 lad-inner, 24 lad-large,
# 42 quad-saddle), with at least 20 % of the budget to spare.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="lad-inner", problem="lad-case1", m=50, n=200,
        methods=("f1-semiB", "f2-semiB"), iters=200, round_s=6.5,
        obj_target=0.02, feas_target=0.015, setup_panel=32),
    Workload(
        name="lad-large", problem="lad-case1", m=500, n=2000,
        methods=("f1-semiA", "f1-explicit", "f2-semiA", "f2-explicit", "ladmm", "pdhg"),
        iters=350, round_s=9.5, obj_target=0.5, feas_target=0.15, setup_panel=4,
        tta_methods=("f1-semiA", "f1-explicit", "f2-semiA", "f2-explicit", "ladmm")),
    Workload(
        name="quad-saddle", problem="quadratic-synthetic", m=50, n=200,
        methods=("f1-semiB", "f1-semiA", "f1-explicit", "f2-semiB", "f2-semiA",
                 "f2-explicit", "ladmm"),
        iters=550, round_s=12.0, obj_target=0.3, feas_target=0.05, setup_panel=8),
)}

FLOW = {"m": 6, "n": 6, "T": 0.5, "h": 1e-3}
FLOW_GROWTH_TOL = 1e-5     # allowed growth of e^t E(t), relative to E(0)
BOUND_SLACK = 1e-8         # certify_bounds slack, as the acceptance suite uses


# A failed operation reads as infinitely slow: its time is math.inf, so a
# metric can never improve because an operation failed and dropped out.
@dataclass
class RoundResult:
    setup_s: dict = field(default_factory=dict)   # set-up instance seed -> generate_problem
    bench_s: float = None                         # the bench pass
    solve_s: dict = field(default_factory=dict)   # method -> library-pass solve
    iters: dict = field(default_factory=dict)     # method -> outer iterations
    hit_s: dict = field(default_factory=dict)     # timed method -> trace seconds at the targets
    flow_s: dict = field(default_factory=dict)    # method -> the flow run after its solve
    rows: int = 0                                 # library-pass trace rows
    csv_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def fail(self, what):
        self.failed += 1
        self.failures.append(what)


def _first_hit(trace, f_star, obj_target, feas_target):
    """``seconds`` at the first row meeting both targets, or None.

    The objective error is relative to the k=0 error and the feasibility
    residual relative to the k=0 residual (absolute when that is zero),
    the normalisation ``summary.json`` uses for ``obj_rel``/``feas_rel``.
    """
    rows = trace.rows
    obj0 = abs(rows[0].obj - f_star) or 1.0
    feas0 = rows[0].feas or 1.0
    for row in rows:
        if row.obj is None:
            continue
        if abs(row.obj - f_star) / obj0 <= obj_target and row.feas / feas0 <= feas_target:
            return row.seconds
    return None


def _csv_digest(trace):
    """Digest of the trace CSV with ``seconds`` blanked, as the CLI writes it."""
    from pdsplit.diagnostics import IterationTrace
    blank = IterationTrace(meta=trace.meta, rows=[replace(r, seconds=None) for r in trace.rows])
    return hashlib.sha256(blank.to_csv_string().encode()).hexdigest()


def _file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_round(wl, seed, out_dir, digests, tracer=None):
    """Run one round; ``digests`` carries bench CSV hashes across rounds."""
    from pdsplit import bench
    from pdsplit.diagnostics import LyapunovInputs, certify_bounds

    res = RoundResult()

    def phase(name, run_id):
        if tracer is not None:
            tracer.phase, tracer.run_id = name, run_id

    phase("flow", f"s{seed}.flow")
    flow_bundle = bench.generate_quadratic(FLOW["m"], FLOW["n"], seed=seed)
    if tracer is not None:
        tracer.register(flow_bundle)
    config = bench.RunConfig(problem=wl.problem, m=wl.m, n=wl.n, seed=seed,
                             methods=tuple(wl.methods), iters=wl.iters,
                             out=os.path.join(out_dir, "bench"))

    # -- bench pass
    phase("bench", f"s{seed}.bench")
    t0 = time.perf_counter()
    summary = bench.run_benchmark(config)
    res.bench_s = time.perf_counter() - t0
    f_star = summary["fstar"]
    bench_digest = {}
    for tag in wl.methods:
        res.attempted += 1
        entry = summary["methods"].get(tag, {})
        if "error" in entry or "trace" not in entry:
            res.fail(f"bench {tag}: {entry.get('error', 'missing')}")
            continue
        path = os.path.join(config.out, entry["trace"])
        res.csv_bytes += os.path.getsize(path)
        digest = bench_digest[tag] = _file_digest(path)
        if digests.setdefault(tag, digest) != digest:
            res.fail(f"bench {tag}: trace CSV differs between rounds")
    if summary["fstar_uncertainty"] > 0.0:
        # the reference optimum is an operation of its own on lad-*;
        # its error bar, relative to the k=0 error, must sit below the target
        res.attempted += 1
        first = next((e for e in summary["methods"].values() if "checkpoints" in e), None)
        obj0 = abs(first["checkpoints"][0]["obj"] - f_star) if first else 0.0
        if not summary["fstar_uncertainty"] / (obj0 or 1.0) < wl.obj_target:
            res.fail(f"reference: uncertainty {summary['fstar_uncertainty']:.3g} "
                     "above the objective target")
    del summary
    gc.collect()   # free the bench pass's instance now, so peak memory repeats

    # -- library pass
    phase("setup", f"s{seed}.setup")
    # the run's own instance comes last and is kept for the methods; one
    # instance is alive at a time, so peak memory is that of one
    for setup_seed in reversed(wl.setup_seeds(seed)):
        bundle = None
        t0 = time.perf_counter()
        bundle = bench.generate_problem(replace(config, seed=setup_seed))
        res.setup_s[setup_seed] = time.perf_counter() - t0
    for tag in wl.methods:
        res.attempted += 1
        phase("lib", f"s{seed}.lib.{tag}")
        t0 = time.perf_counter()
        try:
            trace, x_final = bench._run_method(bundle, tag, wl.iters)
        except Exception as exc:  # noqa: BLE001 - counted, the round goes on
            res.fail(f"lib {tag}: {type(exc).__name__}: {exc}")
            res.solve_s[tag], res.iters[tag] = math.inf, 0
            if tag in wl.timed_methods:
                res.hit_s[tag] = math.inf
            continue
        res.solve_s[tag] = time.perf_counter() - t0
        res.iters[tag] = trace.rows[-1].k
        res.rows += len(trace.rows)
        problems = []
        if not np.all(np.isfinite(x_final)):
            problems.append("non-finite final iterate")
        if tag in bench_digest and _csv_digest(trace) != bench_digest[tag]:
            problems.append("trace differs from the bench pass CSV")
        if tag in wl.timed_methods:
            hit = _first_hit(trace, f_star, wl.obj_target, wl.feas_target)
            if hit is None:
                problems.append("missed the time-to-accuracy target")
            res.hit_s[tag] = math.inf if hit is None else hit
        if bundle.prox_form.saddle is not None and tag not in ("ladmm", "pdhg"):
            inputs = LyapunovInputs(saddle=bundle.prox_form.saddle, f_star=bundle.f_star)
            report = certify_bounds(trace, inputs)
            if not report.clean(slack=BOUND_SLACK):
                problems.append(f"certified bounds violated: {report.max_violation}")
        if problems:
            res.fail(f"lib {tag}: " + "; ".join(problems))
        phase("flow", f"s{seed}.flow")
        _flow(flow_bundle.prox_form, tag, res)
    del bundle
    gc.collect()
    return res


def _flow(problem, tag, res):
    """One RK4 integration of the flow plus its merit certification."""
    from pdsplit import odeflow

    res.attempted += 1
    t0 = time.perf_counter()
    try:
        traj = odeflow.integrate(problem, odeflow.initial_state(problem), T=FLOW["T"], h=FLOW["h"])
        scaled = [math.exp(st.t) * odeflow.lyapunov_continuous(problem, st, problem.saddle)
                  for st in traj]
    except Exception as exc:  # noqa: BLE001 - counted, the round goes on
        res.fail(f"flow after {tag}: {type(exc).__name__}: {exc}")
        res.flow_s[tag] = math.inf
        return
    res.flow_s[tag] = time.perf_counter() - t0
    tol = FLOW_GROWTH_TOL * scaled[0]
    if any(b > a + tol for a, b in zip(scaled, scaled[1:])):
        res.fail(f"flow after {tag}: scaled merit grows")
