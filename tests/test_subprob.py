"""The augmented-subproblem solver: the inner loop's agreement with the
closed form, its cost per iteration and its cap warning; the l1 and
elastic-net Newton solve against the inner loop, and its fallback; the
path each kind of block takes and the calls, declines and cap hits a run counts;
and their effect on the LAD benchmark runs."""

import warnings

import numpy as np
import pytest

from pdsplit import bench, prox, subprob
from pdsplit.bench import RunConfig, generate_lad, generate_problem, generate_quadratic
from pdsplit.driver import run
from pdsplit.linops import DenseOperator, ScaledIdentity
from pdsplit.oracles import SeparableProblem
from pdsplit.params import Scheme
from pdsplit.prox import ElasticNet, HingeSum
from pdsplit.subprob import BlockSolve, solve_augmented_subproblem

from helpers import printed_cap_residuals


def _instance(seed, n=12, m=7):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n), rng.standard_normal(m),
            rng.standard_normal(n), rng.standard_normal((m, n)))


def _rhs(linear, offset, center, M, sigma, weight):
    """The right-hand side ``r`` of the subproblem with a linear term and an
    offset, ``h(u) + <linear, u> + sigma/2 ||M u + offset||^2
    + weight/2 ||u - center||^2``; it and the one ``r`` states differ by a constant."""
    return weight * center - linear - sigma * M.T @ offset


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


class CountingL1(ElasticNet):
    """``ElasticNet(lam, 0)`` that counts its prox calls and whose closed
    form always declines, so every solve against a dense ``C`` runs the
    inner loop."""

    def __init__(self, lam):
        super().__init__(lam, 0.0)
        self.calls = 0

    def prox(self, z, tau):
        self.calls += 1
        return super().prox(z, tau)

    def solve_augmented(self, r, C, sigma, weight, center):
        return None


@pytest.mark.parametrize("c", [0.5, 2.0, -1.5])
def test_inner_loop_matches_scaled_identity_closed_form(c):
    n = 12
    linear, offset, center, _ = _instance(1, n=n, m=n)
    r = _rhs(linear, offset, center, c * np.eye(n), sigma=1.3, weight=0.4)
    args = dict(r=r, sigma=1.3, weight=0.4, center=center)
    closed = solve_augmented_subproblem(BlockSolve(ElasticNet(0.7, 0.0), ScaledIdentity(c, n)), **args)
    for block in (CountingL1(0.7), ElasticNet(0.7, 0.0)):   # the inner loop, then Newton
        iterative = solve_augmented_subproblem(BlockSolve(block, DenseOperator(c * np.eye(n))), **args)
        assert np.max(np.abs(iterative - closed)) <= 1e-8


def test_inner_iteration_costs_one_forward_and_one_adjoint_product():
    linear, offset, center, M = _instance(3)
    C = CountingOperator(M)
    C.norm()
    C.products = 0
    block = CountingL1(0.5)
    r = _rhs(linear, offset, center, M, sigma=1.0, weight=0.5)
    solve_augmented_subproblem(BlockSolve(block, C), r, sigma=1.0, weight=0.5, center=center)
    assert 1 < block.calls < subprob.OPTIONS.inner_max_iters
    # the forward product at the centre, and one of each per iteration
    # except the forward after the accepted one
    assert C.products == 2 * block.calls


def test_inner_loop_cap_hit_warns(monkeypatch):
    linear, offset, center, M = _instance(4)
    monkeypatch.setattr(subprob.OPTIONS, "inner_max_iters", 1)
    solve = BlockSolve(CountingL1(0.5), DenseOperator(M))
    match = r"cap of 1 iterations at residual .*tolerance 1\.0e-10"
    with pytest.warns(RuntimeWarning, match=match) as caught:
        solve_augmented_subproblem(solve, _rhs(linear, offset, center, M, 1.0, 0.5),
                                   sigma=1.0, weight=0.5, center=center)
    [residual] = printed_cap_residuals(caught)
    counts = solve.counts()
    assert counts["cap_hits"] == 1
    assert f"{counts['worst_cap_residual']:.3e}" == f"{residual:.3e}"


def test_inner_loop_is_the_default_fallback():
    # an l1 x-block whose closed form declines every solve against the dense
    # A; a second run on the same problem counts its own declines only
    lad = generate_lad(20, 60, 0).prox_form
    problem = SeparableProblem(CountingL1(lad.f_prox.lam), lad.g, lad.A, lad.B, lad.b)
    for _ in range(2):
        res = run(problem, Scheme.F1_SEMI_B, 5)
        assert len(res.trace.rows) == 6
        assert all(np.isfinite(r.obj) for r in res.trace.rows)
        assert res.trace.meta["blocks"]["f"]["declines"] == res.trace.meta["blocks"]["f"]["calls"] == 5


def _lad_run(tag, inner_tol=None, inner_max_iters=None):
    """lad-case1 50x200, seed 0, 200 iterations through the CLI dispatch.

    Returns the trace, the mean number of x-block prox calls per
    subproblem solve (the x-block's prox runs only inside the solve) and
    the number of solves that ran the inner loop.  Given the inner loop's
    limits, the run turns the x-block's own solve off, so that every solve
    runs the inner loop at those limits.
    """
    bundle = generate_problem(RunConfig(problem="lad-case1", m=50, n=200, seed=0))
    problem = bundle.prox_form if tag.startswith("f1") else bundle.split_form
    block = problem.f_prox
    calls = inner_calls = 0
    block_prox, inner = block.prox, subprob._inner_prox_gradient

    def counted(z, tau):
        nonlocal calls
        calls += 1
        return block_prox(z, tau)

    def counted_inner(*args):
        nonlocal inner_calls
        inner_calls += 1
        return inner(*args)

    block.prox = counted
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subprob, "_inner_prox_gradient", counted_inner)
        if inner_tol is not None:
            mp.setattr(block, "solve_augmented", lambda *args: None)
            mp.setattr(subprob.OPTIONS, "inner_tol", inner_tol)
            mp.setattr(subprob.OPTIONS, "inner_max_iters", inner_max_iters)
        trace, _ = bench._run_method(bundle, tag, 200)
    assert trace.meta["blocks"]["f"]["declines"] == inner_calls   # every inner loop is a decline's
    solves = len(trace.rows) - 1   # one augmented x-solve per step
    return trace, calls / solves, inner_calls


@pytest.fixture(scope="module", params=["f1-semiB", "f2-semiB"])
def lad_runs(request):
    return (*_lad_run(request.param),
            *_lad_run(request.param, inner_tol=1e-13, inner_max_iters=5000)[::2])


def test_lad_inner_iterations_per_solve(lad_runs):
    _, mean_calls, *_ = lad_runs
    assert mean_calls <= 100


def test_lad_newton_solves_skip_the_inner_loop(lad_runs):
    _, _, inner_calls, _, reference_inner_calls = lad_runs
    assert inner_calls == 0
    assert reference_inner_calls == 200   # the reference is the inner loop's


def test_lad_trace_matches_tight_inner_reference(lad_runs):
    trace, _, _, reference, _ = lad_runs
    assert len(trace.rows) == len(reference.rows)
    worst = max(abs(r.obj - ref.obj) / abs(ref.obj)
                for r, ref in zip(trace.rows, reference.rows))
    assert worst <= 1e-5


def _newton_and_reference(block, m, n, sigma, seed=5):
    """The block's own solve, the inner loop's at 1e-13 / 5000 iterations,
    and that answer's a priori error bound: a residual r leaves a subgradient
    error of at most 2 lip r, so the answer is within 2 (lip / weight) r."""
    linear, offset, center, M = _instance(seed, n=n, m=m)
    C, weight = DenseOperator(M), 0.5
    r = _rhs(linear, offset, center, M, sigma, weight)
    newton = block.solve_augmented(r, C, sigma, weight, center)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subprob.OPTIONS, "inner_tol", 1e-13)
        mp.setattr(subprob.OPTIONS, "inner_max_iters", 5000)
        reference = subprob._inner_prox_gradient(BlockSolve(block, C), r, sigma, weight, center)
    lip = sigma * C.norm_bound() ** 2 + weight
    return newton, reference, 2.0 * lip / weight * 1e-13 * (1.0 + np.linalg.norm(reference))


@pytest.mark.parametrize("sigma", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("m, n", [(7, 12), (12, 7)])   # capacitance and normal solve
@pytest.mark.parametrize("block", [ElasticNet(0.7, 0.0), ElasticNet(0.7, 0.3), ElasticNet(0.0, 0.0),
                                   ElasticNet(0.0, 0.3)], ids=["l1", "enet", "l1-lam0", "enet-lam0"])
def test_newton_solve_matches_tight_inner_loop(block, m, n, sigma):
    newton, reference, reference_error = _newton_and_reference(block, m, n, sigma)
    assert newton is not None
    # the reference's own error bound is at most 3e-11 relative up to
    # sigma = 1, and 2e-8 at sigma = 1e3
    assert np.linalg.norm(newton - reference) <= (1e-9 * np.linalg.norm(reference)
                                                  + reference_error)


@pytest.mark.parametrize("block", [ElasticNet(1e4, 0.0), ElasticNet(1e4, 0.3)], ids=["l1", "enet"])
def test_newton_solve_with_an_empty_active_set_is_zero(block):
    newton, reference, _ = _newton_and_reference(block, 7, 12, 1.0)
    assert np.array_equal(newton, np.zeros(12))
    assert np.array_equal(reference, np.zeros(12))


def test_declined_newton_solve_falls_back_to_the_inner_loop(monkeypatch):
    linear, offset, center, M = _instance(6)
    r, C = _rhs(linear, offset, center, M, 1.0, 0.5), DenseOperator(M)
    monkeypatch.setattr(prox, "_NEWTON_STEPS", 1)   # stops before its active set settles
    assert ElasticNet(0.5, 0.0).solve_augmented(r, C, 1.0, 0.5, center) is None
    inner = subprob._inner_prox_gradient(BlockSolve(ElasticNet(0.5, 0.0), C), r, 1.0, 0.5, center)
    solve = BlockSolve(ElasticNet(0.5, 0.0), C)
    assert solve.path == "closed"
    assert np.array_equal(solve_augmented_subproblem(solve, r, 1.0, 0.5, center), inner)
    assert solve.counts()["declines"] == 1


def _quadratic_over_counting_operators():
    """``generate_quadratic(8, 8, 0)`` over two counting operators, which, as
    subclasses of ``DenseOperator``, keep each block in its own basis."""
    base = generate_quadratic(8, 8, 0).prox_form
    return SeparableProblem(base.f_prox, base.g, CountingOperator(base.A.matrix),
                            CountingOperator(base.B.matrix), base.b)


def _hinge_through_a_dense_operator():
    """svm-l1's prox form with ``B = -I`` as a dense matrix, so that the hinge
    block can neither merge nor solve in closed form."""
    svm = generate_problem(RunConfig(problem="svm-l1", m=10, n=30, seed=0)).prox_form
    return SeparableProblem(svm.f_prox, HingeSum(svm.g.labels, svm.g.weight), svm.A,
                            DenseOperator(-np.eye(10)), svm.b)


def _bench_trace(problem, tag, iters, **config):
    return bench._run_method(generate_problem(RunConfig(problem=problem, **config)), tag, iters)[0]


# case: (the run, giving its trace; {role: the entries expected in the role's block})
BLOCK_PATHS = {
    "lad f1-semiB": (lambda: _bench_trace("lad-case1", "f1-semiB", 20, m=20, n=60),
                     {"f": {"basis": "original", "path": "closed", "calls": 20}, "g": {"calls": 0}}),
    "lad f1-semiA": (lambda: _bench_trace("lad-case1", "f1-semiA", 20, m=20, n=60),
                     {"g": {"basis": "original", "path": "merge", "calls": 20}, "f": {"calls": 0}}),
    # an explicit scheme and a baseline solve no subproblem, whatever the paths
    "lad f1-explicit": (lambda: _bench_trace("lad-case1", "f1-explicit", 20, m=20, n=60),
                        {"f": {"path": "closed", "calls": 0}, "g": {"path": "merge", "calls": 0}}),
    "lad ladmm": (lambda: _bench_trace("lad-case1", "ladmm", 20, m=20, n=60),
                  {"f": {"path": "closed", "calls": 0}, "g": {"path": "merge", "calls": 0}}),
    "svm-elastic f1-semiB": (lambda: _bench_trace("svm-elastic", "f1-semiB", 300, m=30, n=80),
                             {"f": {"path": "closed", "declines": 3, "cap_hits": 1}}),
    "quadratic": (lambda: run(generate_quadratic(8, 8, 0).prox_form, Scheme.F1_SEMI_B, 20).trace,
                  {role: {"basis": "eigen", "path": "closed"} for role in "fg"}),
    "quadratic over counting operators": (
        lambda: run(_quadratic_over_counting_operators(), Scheme.F1_SEMI_A, 20).trace,
        {role: {"basis": "original", "path": "closed"} for role in "fg"}),
    "hinge through a dense operator": (
        lambda: run(_hinge_through_a_dense_operator(), Scheme.F1_SEMI_A, 20).trace,
        {"g": {"basis": "original", "path": "inner", "declines": 0}}),
}


@pytest.mark.parametrize("case", list(BLOCK_PATHS))
def test_each_kind_of_block_takes_its_path(case):
    build, expected = BLOCK_PATHS[case]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trace = build()
    blocks = trace.meta["blocks"]
    for role, entries in expected.items():
        assert {key: blocks[role][key] for key in entries} == entries
    # the counts are the cap warnings the run raised, and the worst recorded
    # residual the largest they print (.3e)
    residuals = printed_cap_residuals(caught)
    assert sum(block["cap_hits"] for block in blocks.values()) == len(residuals)
    assert (f"{max(block['worst_cap_residual'] or 0.0 for block in blocks.values()):.3e}"
            == f"{max(residuals, default=0.0):.3e}")

