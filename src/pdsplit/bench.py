"""Benchmark instance generators, the benchmark runner, and its CLI.

Instances
---------
``lad-case1`` / ``lad-case2``
    Sparse regression with an l1 data-fit: ``min f(x) + ||Ax - d||_1``
    split as ``g(y) = ||y - d||_1`` with the coupling ``Ax - y = 0``.
    Case 1 uses ``f = 2 ||x||_1``; case 2 adds a strongly convex ridge,
    ``f = 2 ||x||_1 + 0.05 ||x||^2`` (modulus 0.1).
``svm-l1`` / ``svm-elastic``
    Regularized hinge-loss classification ``min f(x) + (1/m) sum_j
    max(0, 1 - c_j (w_j^T x - b_j))`` split through ``y = Wx - b``.
``quadratic-synthetic``
    Random strongly convex quadratics on both blocks with the saddle point
    planted through the first-order optimality system, giving an exact
    reference optimum.

Outputs
-------
Per-method trace CSVs (the standard diagnostics schema) plus a summary
JSON holding relative errors at logarithmically spaced checkpoints.  The
benchmark zeroes out wall-clock columns so identical configs produce
byte-identical files.
"""

import argparse
import json
import numbers
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import baselines, driver
from .linops import DenseOperator, negated_identity
from .oracles import SaddlePoint, SeparableProblem
from .params import Scheme
from .prox import ElasticNet, QuadraticProx, ShiftedL1, HingeSum, SquaredL2

__all__ = [
    "RunConfig",
    "ProblemBundle",
    "generate_lad",
    "generate_svm",
    "generate_quadratic",
    "generate_problem",
    "checkpoint_indices",
    "run_benchmark",
    "main",
    "METHOD_TAGS",
]

PROBLEM_KINDS = {
    "lad-case1": lambda c: generate_lad(c.m, c.n, c.seed, 1, c.sparsity_fraction, c.noise_variance),
    "lad-case2": lambda c: generate_lad(c.m, c.n, c.seed, 2, c.sparsity_fraction, c.noise_variance),
    "svm-l1": lambda c: generate_svm(c.m, c.n, c.seed, False, c.flip_fraction),
    "svm-elastic": lambda c: generate_svm(c.m, c.n, c.seed, True, c.flip_fraction),
    "quadratic-synthetic": lambda c: generate_quadratic(c.m, c.n, c.seed),
}
SCHEME_TAGS = tuple(s.value for s in Scheme)
BASELINE_TAGS = ("ladmm", "pdhg")
METHOD_TAGS = SCHEME_TAGS + BASELINE_TAGS


@dataclass
class RunConfig:
    """Everything that determines a benchmark run."""

    problem: str = "lad-case1"
    m: int = 50
    n: int = 200
    seed: int = 0
    sparsity_fraction: float = 0.1
    noise_variance: float = 0.01
    flip_fraction: float = 0.1
    methods: tuple = ("f1-semiA",)
    iters: int = 2000
    out: str = "bench-out"

    def validate(self):
        if self.problem not in PROBLEM_KINDS:
            raise ValueError(f"unknown problem kind {self.problem!r}; "
                             f"choose from {tuple(PROBLEM_KINDS)}")
        if isinstance(self.methods, str):
            raise ValueError(f"methods must be a sequence of tags, not the string {self.methods!r}")
        if len(self.methods) == 0:
            raise ValueError("methods must name at least one method")
        for i, tag in enumerate(self.methods):
            if tag not in METHOD_TAGS:
                raise ValueError(f"unknown method {tag!r}; choose from {METHOD_TAGS}")
            if tag in self.methods[:i]:
                raise ValueError(f"method {tag!r} is repeated; each method runs once")
        for name in ("iters", "seed", "m", "n", "sparsity_fraction", "noise_variance", "flip_fraction"):
            value, integer = getattr(self, name), name in ("iters", "seed", "m", "n")
            if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
                raise ValueError(f"{name} must be {'an integer' if integer else 'a real number'}, got {value!r}")
            setattr(self, name, int(value) if integer else float(value))   # numpy scalars too
        if not (0.0 < self.sparsity_fraction <= 1.0):
            raise ValueError("sparsity_fraction must lie in (0, 1]")
        for name, lo, hi in (("iters", 0, np.inf), ("seed", 0, np.inf), ("m", 1, np.inf),
                             ("n", 1, np.inf), ("noise_variance", 0, np.inf),
                             ("flip_fraction", 0, 1)):
            value = getattr(self, name)
            if not lo <= value <= hi:
                raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value!r}")


@dataclass
class ProblemBundle:
    """One generated instance in the two oracle layouts the solvers need.

    ``prox_form`` folds the whole f-block into a single prox oracle (the
    implicit schemes and baselines); ``split_form`` exposes the smooth
    part separately (the gradient-based schemes).  Every generator builds
    both through ``_bundle``.
    """

    prox_form: SeparableProblem
    split_form: SeparableProblem
    ground_truth: np.ndarray = None
    f_star: float = None         # a copy of prox_form.f_saddle, which perfbench reads


def _bundle(f, f_split, g, A, B, rhs, ground_truth, saddle=None):
    """Both forms of one instance, ``f`` as one prox oracle and ``f_split`` as its
    ``(smooth, prox)`` pair, over ``g``, ``A x + B y = rhs`` and ``saddle``; each form
    says itself if it is composite.  Both norms are computed here, so generation pays for them."""
    prox_form, split_form = (SeparableProblem(fb, g, A, B, rhs, saddle=saddle) for fb in (f, f_split))
    A.norm()
    B.norm()
    return ProblemBundle(prox_form, split_form, ground_truth, prox_form.f_saddle)


def generate_lad(m, n, seed, case=1, sparsity_fraction=0.1, noise_variance=0.01):
    """Sparse-regression instance with an l1 data-fit term.

    The design has i.i.d. standard normal entries, the planted signal has
    ``round(sparsity_fraction * n)`` seeded nonzeros, and the response is
    ``d = A x^# + e`` with centered Gaussian noise of the given variance.
    ``case`` 1 has no strongly convex term, ``case`` 2 adds ``0.1/2 ||x||^2``.
    """
    if m >= n:
        raise ValueError("this instance family is underdetermined: need m < n")
    if case not in (1, 2):
        raise ValueError(f"case must be 1 or 2, not {case!r}")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    nnz = int(round(sparsity_fraction * n))
    support = rng.choice(n, size=nnz, replace=False)
    x_sharp = np.zeros(n)
    x_sharp[support] = rng.standard_normal(nnz)
    e = np.sqrt(noise_variance) * rng.standard_normal(m) if noise_variance > 0 else np.zeros(m)
    d = A @ x_sharp + e
    mu = 0.1 if case == 2 else 0.0
    return _bundle(ElasticNet(2.0, mu), (SquaredL2(mu), ElasticNet(2.0, 0.0)), ShiftedL1(d),
                   DenseOperator(A), negated_identity(m), np.zeros(m), x_sharp)


def generate_svm(m, n, seed, elastic=False, flip_fraction=0.1):
    """Hinge-loss classification instance with seeded synthetic data.

    Rows of the data matrix, the true separator, and the per-sample biases
    are standard normal; labels come from the true separator with the
    given fraction flipped.  A zero flip fraction leaves the data exactly
    separable.
    """
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((m, n))
    x_true = rng.standard_normal(n)
    bias = rng.standard_normal(m)
    margins = W @ x_true - bias
    labels = np.where(margins >= 0, 1.0, -1.0)
    n_flip = int(round(flip_fraction * m))
    if n_flip > 0:
        flip = rng.choice(m, size=n_flip, replace=False)
        labels[flip] *= -1.0
    lam_l1, mu = (0.5, 0.05) if elastic else (0.2, 0.0)
    return _bundle(ElasticNet(lam_l1, mu), (SquaredL2(mu), ElasticNet(lam_l1, 0.0)),
                   HingeSum(labels, 1.0 / m), DenseOperator(W), negated_identity(m), bias, x_true)


def generate_quadratic(m, n, seed):
    """Strongly convex quadratic blocks (modulus at least 1) with a planted
    saddle point.

    The linear terms and the right-hand side are chosen so a drawn triple
    satisfies the first-order optimality system exactly, which provides an
    exact optimal value.
    """
    rng = np.random.default_rng(seed)
    ny = n

    def spd(dim):
        M = rng.standard_normal((dim, dim))
        return M.T @ M / dim + np.eye(dim)

    P = spd(n)
    Q = spd(ny)
    A = rng.standard_normal((m, n))
    Bm = rng.standard_normal((m, ny))

    x_star = rng.standard_normal(n)
    y_star = rng.standard_normal(ny)
    lam_star = rng.standard_normal(m)
    p = -(P @ x_star + A.T @ lam_star)
    q = -(Q @ y_star + Bm.T @ lam_star)
    rhs = A @ x_star + Bm @ y_star

    f = QuadraticProx(P, p)
    return _bundle(f, (f, SquaredL2(0.0)), QuadraticProx(Q, q), DenseOperator(A), DenseOperator(Bm),
                   rhs, x_star, saddle=SaddlePoint(x_star, y_star, lam_star))


def generate_problem(config):
    config.validate()
    return PROBLEM_KINDS[config.problem](config)


def checkpoint_indices(iters):
    """Logarithmically spaced indices 0, 1, 2, 5, 10, ... plus the last."""
    ks = {0, iters}
    base = 1
    while base <= iters:
        for mult in (1, 2, 5):
            if mult * base <= iters:
                ks.add(mult * base)
        base *= 10
    return sorted(ks)


def _run_method(bundle, tag, iters):
    """Dispatch one method tag; returns (trace, final x)."""
    if tag in BASELINE_TAGS:
        run_baseline = baselines.ladmm_run if tag == "ladmm" else baselines.pdhg_run
        result = run_baseline(bundle.prox_form, iters)
    else:
        scheme = Scheme(tag)
        problem = bundle.prox_form if scheme.family == 1 else bundle.split_form
        # without strong convexity the decay constant is (||A|| + sqrt(g0))/sqrt(g0);
        # matching g0 to the operator norm keeps it moderate (same for the B side)
        gamma0 = None if problem.mu_f > 0 else max(problem.A.norm(), 1.0)
        beta0 = None if problem.mu_g > 0 else max(problem.B.norm(), 1.0)
        result = driver.run(problem, scheme, iters, gamma0=gamma0, beta0=beta0)
    return result.trace, result.state.x


def _relative_series(values, f_star=None):
    """Self-normalized series: each entry divided by the k=0 magnitude."""
    if f_star is not None:
        values = [None if v is None else abs(v - f_star) for v in values]
    base = values[0]
    if base is None or base == 0.0:
        base = 1.0
    return [None if v is None else v / base for v in values]


def run_benchmark(config):
    """Generate the instance, run every requested method, write outputs.

    Returns the summary dict (also written as ``summary.json``).  A method
    failure is recorded in the summary without aborting the others, and a
    method that does not apply to the instance is recorded as skipped.
    """
    bundle = generate_problem(config)
    prox_form = bundle.prox_form

    if prox_form.saddle is not None:
        f_star, f_star_unc, x_ref = prox_form.f_saddle, 0.0, prox_form.saddle.x
    else:
        ref_iters = max(4 * config.iters, 2000)
        est = baselines.approximate_optimum(prox_form, iters=ref_iters)
        f_star, f_star_unc, x_ref = est.value, est.uncertainty, est.x

    os.makedirs(config.out, exist_ok=True)
    ks = checkpoint_indices(config.iters)
    summary = {
        "config": asdict(config),
        "fstar": f_star,
        "fstar_uncertainty": f_star_unc,
        "methods": {},
    }
    p_star = None
    if prox_form.composite:   # P at the reference point: the saddle's x, else the estimate's
        p_star, p0 = (prox_form.objective(x, prox_form.A.apply(x))
                      for x in (x_ref, np.zeros(prox_form.dim_x)))
        summary["composite_star"] = p_star

    for tag in config.methods:
        try:
            trace, x_final = _run_method(bundle, tag, config.iters)
        except baselines.NotApplicableError as exc:
            summary["methods"][tag] = {"skipped": str(exc)}
            continue
        except Exception as exc:  # noqa: BLE001 - recorded per method
            summary["methods"][tag] = {"error": f"{type(exc).__name__}: {exc}"}
            continue

        # wall-clock varies between runs; blank it for reproducible files
        for row in trace.rows:
            row.seconds = None
        path = os.path.join(config.out, f"trace_{tag}.csv")
        try:
            trace.to_csv(path)
        except OSError as exc:
            raise OSError(f"failed writing trace file {path}: {exc}") from exc

        rows = [trace.rows[k] for k in ks]
        obj_rel = _relative_series([r.obj for r in rows], f_star=f_star)
        feas_rel = _relative_series([r.feas for r in rows])
        checkpoints = [{"k": r.k, "obj": r.obj, "feas": r.feas, "obj_rel": o, "feas_rel": fr}
                       for r, o, fr in zip(rows, obj_rel, feas_rel)]
        entry = {"checkpoints": checkpoints, "final_sparsity": trace.rows[-1].sparsity,
                 "trace": os.path.basename(path), "blocks": trace.meta["blocks"]}
        if p_star is not None:
            # composite objective needs the x iterate, which the trace does
            # not keep; report it at the final iterate only
            p_final = prox_form.objective(x_final, prox_form.A.apply(x_final))
            entry["composite_rel_final"] = (p_final - p_star) / (abs(p0 - p_star) or 1.0)
            entry["composite_final"] = p_final
        summary["methods"][tag] = entry

    spath = os.path.join(config.out, "summary.json")
    try:
        with open(spath, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"failed writing summary file {spath}: {exc}") from exc
    return summary


def _config_from_sources(args):
    """The ``RunConfig`` of the JSON object in ``args.config``, whose keys are
    its fields (``-`` read as ``_``), overridden by each flag that is set."""
    values = {}
    if args.config:
        with open(args.config) as fh:
            file_vals = json.load(fh)
        if not isinstance(file_vals, dict):
            raise ValueError(f"config file {args.config!r} must hold a JSON object, "
                             f"not a {type(file_vals).__name__}")
        for key, val in file_vals.items():
            name = key.replace("-", "_")
            if name not in {f.name for f in fields(RunConfig)}:
                raise ValueError(f"unknown config key {key!r}")
            values[name] = val
    flags = {"methods": args.method, "iters": args.iters, "seed": args.seed, "out": args.out}
    values.update((name, val) for name, val in flags.items() if val is not None)
    methods = values.get("methods", RunConfig.methods)
    if not isinstance(methods, (str, list, tuple)):
        raise ValueError(f"methods must be a sequence of tags, not {methods!r}")
    values["methods"] = tuple(map(str.strip, methods.split(","))) if isinstance(methods, str) else tuple(methods)
    return RunConfig(**values)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pdsplit-bench",
        description="Run splitting-method benchmarks and write trace/summary files.")
    parser.add_argument("--config", help="JSON config file (flat object); flags override")
    parser.add_argument("--method", help="comma-separated method tags, e.g. f1-semiA,ladmm")
    parser.add_argument("--iters", type=int, help="iteration budget")
    parser.add_argument("--seed", type=int, help="data generation seed")
    parser.add_argument("--out", help="output directory")
    args = parser.parse_args(argv)

    config = _config_from_sources(args)
    summary = run_benchmark(config)
    entries = summary["methods"].values()
    n_err = sum("error" in v for v in entries)
    n_skip = sum("skipped" in v for v in entries)
    print(f"wrote {config.out}/summary.json ({len(entries) - n_err - n_skip} methods ok, "
          f"{n_skip} skipped, {n_err} failed)")
    return 0 if n_err == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
