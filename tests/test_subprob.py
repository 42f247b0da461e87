"""The augmented-subproblem solver's inner loop: agreement with the closed
form, its cost per iteration, the cap warning, and its effect on the
LAD benchmark runs."""

import numpy as np
import pytest

from pdsplit import bench, subprob
from pdsplit.bench import RunConfig, generate_lad, generate_problem
from pdsplit.driver import run
from pdsplit.linops import DenseOperator, ScaledIdentity
from pdsplit.params import Scheme
from pdsplit.prox import L1Norm
from pdsplit.subprob import solve_augmented_subproblem


def _instance(seed, n=12, m=7):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n), rng.standard_normal(m),
            rng.standard_normal(n), rng.standard_normal((m, n)))


class CountingOperator(DenseOperator):
    def __init__(self, matrix):
        super().__init__(matrix)
        self.products = 0

    def apply(self, v):
        self.products += 1
        return super().apply(v)

    def adjoint(self, w):
        self.products += 1
        return super().adjoint(w)


class CountingL1(L1Norm):
    def __init__(self, lam):
        super().__init__(lam)
        self.calls = 0

    def prox(self, z, tau):
        self.calls += 1
        return super().prox(z, tau)


@pytest.mark.parametrize("c", [0.5, 2.0, -1.5])
def test_inner_loop_matches_scaled_identity_closed_form(c):
    n = 12
    linear, offset, center, _ = _instance(1, n=n, m=n)
    args = dict(linear=linear, offset=offset, sigma=1.3, weight=0.4, center=center)
    iterative = solve_augmented_subproblem(L1Norm(0.7), C=DenseOperator(c * np.eye(n)), **args)
    closed = solve_augmented_subproblem(L1Norm(0.7), C=ScaledIdentity(c, n), **args)
    assert np.max(np.abs(iterative - closed)) <= 1e-8


def test_inner_iteration_costs_one_forward_and_one_adjoint_product():
    linear, offset, center, M = _instance(3)
    C = CountingOperator(M)
    C.norm()
    C.products = 0
    block = CountingL1(0.5)
    solve_augmented_subproblem(block, linear, C, offset, sigma=1.0, weight=0.5,
                               center=center)
    assert 1 < block.calls < subprob.OPTIONS.inner_max_iters
    # one hoisted adjoint, the forward product at the centre, and one of
    # each per iteration except the forward after the accepted one
    assert C.products == 2 * block.calls + 1


def test_inner_loop_cap_hit_warns(monkeypatch):
    linear, offset, center, M = _instance(4)
    monkeypatch.setattr(subprob.OPTIONS, "inner_max_iters", 1)
    with pytest.warns(RuntimeWarning, match=r"cap of 1 iterations at residual .*tolerance 1\.0e-10"):
        solve_augmented_subproblem(L1Norm(0.5), linear, DenseOperator(M), offset,
                                   sigma=1.0, weight=0.5, center=center)


def test_inner_loop_is_the_default_fallback():
    # the l1 x-block has no closed form against a dense A
    res = run(generate_lad(20, 60, 0).prox_form, Scheme.F1_SEMI_B, 5)
    assert len(res.trace.rows) == 6
    assert all(np.isfinite(r.obj) for r in res.trace.rows)


def _lad_run(tag, inner_tol=None, inner_max_iters=None):
    """lad-case1 50x200, seed 0, 200 iterations through the CLI dispatch.

    Returns the trace and the mean number of inner prox calls per
    subproblem solve (the x-block's prox runs only inside the solve).
    """
    bundle = generate_problem(RunConfig(problem="lad-case1", m=50, n=200, seed=0))
    problem = bundle.prox_form if tag.startswith("f1") else bundle.split_form
    block = problem.f_prox
    calls = 0
    prox = block.prox

    def counted(z, tau):
        nonlocal calls
        calls += 1
        return prox(z, tau)

    block.prox = counted
    with pytest.MonkeyPatch.context() as mp:
        if inner_tol is not None:
            mp.setattr(subprob.OPTIONS, "inner_tol", inner_tol)
            mp.setattr(subprob.OPTIONS, "inner_max_iters", inner_max_iters)
        trace, _ = bench._run_method(bundle, tag, 200)
    solves = len(trace.rows) - 1   # one augmented x-solve per step
    return trace, calls / solves


@pytest.fixture(scope="module", params=["f1-semiB", "f2-semiB"])
def lad_runs(request):
    return (*_lad_run(request.param),
            _lad_run(request.param, inner_tol=1e-13, inner_max_iters=5000)[0])


def test_lad_inner_iterations_per_solve(lad_runs):
    _, mean_calls, _ = lad_runs
    assert mean_calls <= 100


def test_lad_trace_matches_tight_inner_reference(lad_runs):
    trace, _, reference = lad_runs
    assert len(trace.rows) == len(reference.rows)
    worst = max(abs(r.obj - ref.obj) / abs(ref.obj)
                for r, ref in zip(trace.rows, reference.rows))
    assert worst <= 1e-5
