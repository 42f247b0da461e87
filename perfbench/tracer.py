"""In-memory span tracer that wraps pdsplit's public functions from outside.

Each wrapper is installed at the place the library looks the function up:
a module global (``driver.lagrangian_gap``), an entry of ``driver._STEPS``,
or a class attribute (``DenseOperator.apply``).  Nothing under ``src/`` is
edited; :meth:`Tracer.uninstall` puts every original back.

A span is ``(id, parent id, name, start, end, run id)``.  Self time is a
span's duration minus the time its child spans cover.  Durations, self
times and operator-product counts are aggregated as the spans close, per
phase (``bench``, ``setup``, ``lib``, ``flow``), so memory stays bounded;
the first ``SPAN_CAP`` spans are also kept verbatim for :meth:`write_spans`.
"""

import csv
import functools
import time
import weakref
from collections import defaultdict

# Span name -> layer category.  A product or a nested span is attributed to
# every category open on the stack when it runs.
CATEGORY = {
    "linops.A.apply": "linops", "linops.A.adjoint": "linops",
    "linops.B.apply": "linops", "linops.B.adjoint": "linops",
    "linops.norm": "norm",
    "prox.f": "prox", "prox.g": "prox", "prox.solve_augmented": "prox",
    "oracles.grad": "grad",
    "params.step_size": "params", "params.advance": "params",
    "family1.step": "step", "family2.step": "step", "baselines.step": "step",
    "subprob.solve": "subprob", "subprob.inner": "subprob",
    "diagnostics.feas": "diag", "diagnostics.objective": "diag",
    "diagnostics.gap": "diag", "diagnostics.lyapunov": "diag",
    "diagnostics.r0": "diag", "diagnostics.sparsity": "diag",
    "diagnostics.csv_write": "csv",
    "driver.run": "method", "baselines.run": "method",
    "baselines.reference": "reference",
    "bench.run_benchmark": "bench", "bench.generate": "generate",
    "bench.run_method": "run_method",
    "odeflow.integrate": "flow", "odeflow.rhs": "rhs", "odeflow.merit": "merit",
}

SPAN_CAP = 100_000   # spans kept verbatim for write_spans


def _product_bytes(op):
    """Bytes one product with ``op`` reads and writes, from its shape."""
    rows, cols = op.shape
    if hasattr(op, "matrix"):
        return 8 * (rows * cols + rows + cols)
    if hasattr(op, "diag"):
        return 8 * 3 * rows
    return 8 * 2 * rows


class Tracer:
    def __init__(self):
        self.phase = "lib"
        self.run_id = ""
        self.op_roles = weakref.WeakKeyDictionary()     # operator -> "A" | "B"
        self.block_roles = weakref.WeakKeyDictionary()  # prox oracle -> "f" | "g"
        self.stack = []               # open frames
        self.count = defaultdict(int)       # (phase, name) -> calls
        self.total = defaultdict(float)     # (phase, name) -> seconds
        self.self_time = defaultdict(float)  # (phase, name) -> seconds
        self.outer = defaultdict(float)     # (phase, category) -> seconds, nesting removed
        self.products = defaultdict(int)    # (phase, category, "fwd"|"adj") -> products
        self.bytes = defaultdict(int)       # (phase, category) -> bytes
        self.nested = defaultdict(int)      # (phase, open category, name) -> calls
        self.inner_iters = defaultdict(list)  # phase -> prox calls per subproblem solve
        self.spans = []
        self._next_id = 0
        self._patches = []

    # -- spans ------------------------------------------------------------

    def enter(self, name):
        parent = self.stack[-1] if self.stack else None
        cats = parent[4] if parent else frozenset()
        cat = CATEGORY[name]
        sid = self._next_id
        self._next_id += 1
        # name, start, time covered by children, id, open categories with
        # this one, open categories before it, parent id, nested prox calls
        frame = [name, time.perf_counter(), 0.0, sid, cats | {cat},
                 cats, parent[3] if parent else -1, 0]
        self.stack.append(frame)
        if name in ("prox.f", "prox.g"):
            for f in reversed(self.stack):
                if f[0] == "subprob.solve":
                    f[7] += 1
                    break

    def exit(self):
        end = time.perf_counter()
        name, start, child, sid, cats, parent_cats, parent_id, inner = self.stack.pop()
        dur = end - start
        key = (self.phase, name)
        self.count[key] += 1
        self.total[key] += dur
        self.self_time[key] += dur - child
        cat = CATEGORY[name]
        if cat not in parent_cats:
            self.outer[(self.phase, cat)] += dur
        for open_cat in parent_cats:
            self.nested[(self.phase, open_cat, name)] += 1
        if self.stack:
            self.stack[-1][2] += dur
        if name == "subprob.solve":
            self.inner_iters[self.phase].append(inner)
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent_id, name, start, end, self.run_id))

    def product(self, op, kind):
        cats = self.stack[-1][4] if self.stack else frozenset()
        nbytes = _product_bytes(op)
        for cat in cats:
            self.products[(self.phase, cat, kind)] += 1
            self.bytes[(self.phase, cat)] += nbytes

    def register(self, bundle):
        """Record which operator is A or B and which oracle is f or g."""
        for problem in (bundle.prox_form, bundle.split_form):
            if problem is None:
                continue
            self.op_roles[problem.A] = "A"
            self.op_roles[problem.B] = "B"
            self.block_roles[problem.f_prox] = "f"
            self.block_roles[problem.g] = "g"

    # -- wrapping ---------------------------------------------------------

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return wrapper

    def _product_span(self, kind, fn):
        @functools.wraps(fn)
        def wrapper(op, v):
            self.enter(f"linops.{self.op_roles.get(op, 'A')}.{'apply' if kind == 'fwd' else 'adjoint'}")
            try:
                self.product(op, kind)
                return fn(op, v)
            finally:
                self.exit()
        return wrapper

    def _prox_span(self, fn):
        @functools.wraps(fn)
        def wrapper(oracle, *args, **kwargs):
            self.enter(f"prox.{self.block_roles.get(oracle, 'f')}")
            try:
                return fn(oracle, *args, **kwargs)
            finally:
                self.exit()
        return wrapper

    def _patch(self, owner, attr, wrapper):
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = wrapper
        else:
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr, name):
        original = owner[attr] if isinstance(owner, dict) else vars(owner)[attr]
        self._patch(owner, attr, self._span(name, original))

    def install(self):
        """Wrap every traced entry point of an imported ``pdsplit``."""
        from pdsplit import (baselines, bench, diagnostics, driver, family1,
                             family2, linops, odeflow, oracles, prox, subprob)
        for cls in (linops.DenseOperator, linops.DiagonalOperator, linops.ScaledIdentity):
            self._patch(cls, "apply", self._product_span("fwd", vars(cls)["apply"]))
            self._patch(cls, "adjoint", self._product_span("adj", vars(cls)["adjoint"]))
        self._wrap(linops, "estimate_operator_norm", "linops.norm")

        classes = {c for c in (*vars(prox).values(), *vars(oracles).values())
                   if isinstance(c, type) and issubclass(c, (oracles.ProxOracle, oracles.SmoothOracle))}
        for cls in sorted(classes, key=lambda c: c.__qualname__):
            if "prox" in vars(cls):
                self._patch(cls, "prox", self._prox_span(vars(cls)["prox"]))
            if "solve_augmented" in vars(cls):
                self._wrap(cls, "solve_augmented", "prox.solve_augmented")
            if "gradient" in vars(cls):
                self._wrap(cls, "gradient", "oracles.grad")
        self._wrap(oracles.SeparableProblem, "objective", "diagnostics.objective")

        for scheme in list(driver._STEPS):
            self._wrap(driver._STEPS, scheme, f"family{scheme.family}.step")
        for attr, name in (("feasibility_residual", "diagnostics.feas"),
                           ("lagrangian_gap", "diagnostics.gap"),
                           ("lyapunov", "diagnostics.lyapunov"),
                           ("r0", "diagnostics.r0"),
                           ("sparsity", "diagnostics.sparsity"),
                           ("solve_step_size", "params.step_size"),
                           ("advance", "params.advance"),
                           ("run", "driver.run")):
            self._wrap(driver, attr, name)
        self._wrap(family1, "solve_augmented_subproblem", "subprob.solve")
        self._wrap(family2, "solve_augmented_subproblem", "subprob.solve")
        self._wrap(subprob, "_inner_prox_gradient", "subprob.inner")

        for attr, name in (("step_ladmm", "baselines.step"),
                           ("step_pdhg", "baselines.step"),
                           ("feasibility_residual", "diagnostics.feas"),
                           ("sparsity", "diagnostics.sparsity"),
                           ("ladmm_run", "baselines.run"),
                           ("pdhg_run", "baselines.run"),
                           ("approximate_optimum", "baselines.reference")):
            self._wrap(baselines, attr, name)
        self._wrap(diagnostics.IterationTrace, "to_csv", "diagnostics.csv_write")

        generate = bench.generate_problem
        tracer = self

        @functools.wraps(generate)
        def generate_and_register(config):
            bundle = generate(config)
            tracer.register(bundle)
            return bundle
        self._patch(bench, "generate_problem", self._span("bench.generate", generate_and_register))
        self._wrap(bench, "_run_method", "bench.run_method")
        self._wrap(bench, "run_benchmark", "bench.run_benchmark")

        for attr, name in (("rhs", "odeflow.rhs"), ("integrate", "odeflow.integrate"),
                           ("lyapunov_continuous", "odeflow.merit")):
            self._wrap(odeflow, attr, name)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- output -----------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "parent", "name", "start", "end", "run_id"))
            writer.writerows(self.spans)
