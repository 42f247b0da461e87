"""The shared step skeleton: operator products per step for all six
schemes and the two baselines.  Each product a step needs is computed
once and reused.  The products ``A x`` and ``B y`` an iterate state keeps
change no bit of the next state; pdhg's kept ``A v``, which it derives
instead of forming, changes it by rounding only."""

from collections import Counter

import numpy as np
import pytest

from pdsplit import baselines, driver
from pdsplit.baselines import ladmm_run, pdhg_run, step_ladmm, step_pdhg
from pdsplit.bench import RunConfig, generate_problem, generate_quadratic
from pdsplit.driver import _STEPS, run
from pdsplit.family1 import IterateState
from pdsplit.linops import DenseOperator, ScaledIdentity
from pdsplit.oracles import SeparableProblem
from pdsplit.params import ParamState, Scheme, advance
from pdsplit.prox import QuadraticProx

from helpers import quadratic_instance


class Counting:
    fwd = adj = 0

    def apply(self, v):
        self.fwd += 1
        return super().apply(v)

    def adjoint(self, w):
        self.adj += 1
        return super().adjoint(w)


class CountingOperator(Counting, DenseOperator):
    pass


class CountingIdentity(Counting, ScaledIdentity):
    pass


def hand_built(state):
    """A copy of ``state``'s five blocks, without the products it keeps."""
    return IterateState(x=state.x, v=state.v, y=state.y, w=state.w, lam=state.lam)


def counted(A, B, step, state):
    """(forward, adjoint) products of ``step(state)``."""
    A.fwd = A.adj = B.fwd = B.adj = 0
    step(state)
    return A.fwd + B.fwd, A.adj + B.adj


# (forward, adjoint) products per step from a hand-built state, and forward
# products from a state out of the run loop, whose trace row has computed
# A x and B y.  An augmented step forms its right-hand side with one
# adjoint, which the quadratic block's closed-form solve reads as it is,
# and its drift from the prediction's product and the kept one:
# B w - B y, A v - A x.
PRODUCTS = {
    Scheme.F1_SEMI_B: (5, 2, 3),
    Scheme.F1_SEMI_A: (5, 2, 3),
    Scheme.F1_EXPLICIT: (4, 2, 4),
    Scheme.F2_SEMI_B: (3, 2, 3),
    Scheme.F2_SEMI_A: (5, 2, 3),
    Scheme.F2_EXPLICIT: (4, 2, 4),
}


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_products_per_step(scheme):
    prox_form, split_form = quadratic_instance(31)
    base = split_form if scheme.family == 2 else prox_form
    f = base.f_prox if base.f_smooth is None else (base.f_smooth, base.f_prox)
    A, B = CountingOperator(base.A.matrix), CountingOperator(base.B.matrix)
    prob = SeparableProblem(f, base.g, A, B, base.b, mu_f=base.mu_f, mu_g=base.mu_g)
    looped = run(prob, scheme, 0, x0=np.ones(prob.dim_x)).state
    ps = ParamState.initial(mu_f=prob.mu_f, mu_g=prob.mu_g)

    def step(state):
        _STEPS[scheme](prob, state, ps, advance(ps, 0.2), 0.2)

    fwd, adj, looped_fwd = PRODUCTS[scheme]
    assert counted(A, B, step, hand_built(looped)) == (fwd, adj)
    assert counted(A, B, step, looped) == (looped_fwd, adj)


def test_ladmm_products_per_step():
    # A x, B y, A x+ and B y+ forward; one adjoint per block.  A state out
    # of the loop already has A x and B y, and the step leaves A x+ and B y+.
    base, _ = quadratic_instance(31)
    A, B = CountingOperator(base.A.matrix), CountingOperator(base.B.matrix)
    prob = SeparableProblem(base.f_prox, base.g, A, B, base.b)
    looped = ladmm_run(prob, 0, x0=np.ones(prob.dim_x)).state

    def step(state):
        step_ladmm(prob, state, 0.1, 0.1)

    assert counted(A, B, step, hand_built(looped)) == (4, 2)
    assert counted(A, B, step, looped) == (2, 2)


@pytest.mark.parametrize("method", [*Scheme, "ladmm"], ids=lambda m: getattr(m, "value", m))
def test_kept_products_change_no_bit(method):
    # a state out of the run loop keeps A x and B y; stepping it and a
    # hand-built copy of its five blocks gives the same next state, bit for bit
    if method == "ladmm":
        prob, _ = quadratic_instance(32)
        looped = ladmm_run(prob, 5).state

        def step(state):
            return step_ladmm(prob, state, 0.1, 0.1)
    else:
        prox_form, split_form = quadratic_instance(32)
        prob = split_form if method.family == 2 else prox_form
        res = run(prob, method, 5)
        looped, ps = res.state, res.params

        def step(state):
            return _STEPS[method](prob, state, ps, advance(ps, 0.2), 0.2)
    assert looped.Ax is not None and looped.By is not None
    fresh = hand_built(looped)
    assert fresh.Ax is None
    new, new_fresh = step(looped), step(fresh)
    for block in ("x", "v", "y", "w", "lam", "Ax", "By"):
        a, b = getattr(new, block), getattr(new_fresh, block)
        assert (a is None and b is None) or np.array_equal(a, b), block


def pdhg_instance(f, A, B):
    """``f(x) + g(A x)`` as a split with ``B = -I``, ``b = 0`` and a quadratic g."""
    m = A.shape[0]
    return SeparableProblem(f, QuadraticProx(np.eye(m)), A, B, np.zeros(m))


# forward products per iteration, rows included: the row's A x and B y
# unless the step left them, and the step's own
ROW_INCLUDED = {
    Scheme.F1_SEMI_B: 5, Scheme.F1_SEMI_A: 5, Scheme.F1_EXPLICIT: 6,
    Scheme.F2_SEMI_B: 5, Scheme.F2_SEMI_A: 5, Scheme.F2_EXPLICIT: 6,
    "ladmm": 2, "pdhg": 2,
}


@pytest.mark.parametrize("method", list(ROW_INCLUDED), ids=lambda m: getattr(m, "value", m))
def test_forward_products_per_iteration_rows_included(method):
    # 50x200 quadratic with a saddle point: each scheme row computes A x and
    # B y, which its gap reuses and the next semiA or semiB step too; ladmm's
    # and pdhg's steps leave A x+ and B y+ for the row and the next step
    bundle = generate_quadratic(50, 200, seed=1)
    base = bundle.split_form if getattr(method, "family", 1) == 2 else bundle.prox_form
    A = CountingOperator(base.A.matrix)
    if method == "pdhg":
        B = CountingIdentity(-1.0, base.dim_lam)
        prob = pdhg_instance(base.f_prox, A, B)
    else:
        B = CountingOperator(base.B.matrix)
        f = base.f_prox if base.f_smooth is None else (base.f_smooth, base.f_prox)
        prob = SeparableProblem(f, base.g, A, B, base.b, saddle=base.saddle)
    A.norm_bound(), B.norm_bound()
    A.fwd = B.fwd = 0
    iters = 20
    if method == "ladmm":
        ladmm_run(prob, iters)
    elif method == "pdhg":
        pdhg_run(prob, iters)
    else:
        run(prob, method, iters)
    # row 0 computes its own A x and B y (the saddle side of a scheme's merit
    # was formed when the problem was built); pdhg's first step forms the
    # cold start's A v
    first = 3 if method == "pdhg" else 2
    assert A.fwd + B.fwd == first + ROW_INCLUDED[method] * iters


def test_saddle_terms_are_formed_when_the_problem_is_built(monkeypatch):
    # building checks the saddle's feasibility on the residual its merit
    # reads, so F(x*, y*) and A x* + B y* - b are formed then, and row 0
    # pays only for its own point
    count = 0
    objective = SeparableProblem.objective

    def counted(self, x, y):
        nonlocal count
        count += 1
        return objective(self, x, y)

    base = generate_quadratic(8, 8, seed=0).prox_form
    A, B = CountingOperator(base.A.matrix), CountingOperator(base.B.matrix)
    monkeypatch.setattr(SeparableProblem, "objective", counted)
    prob = SeparableProblem(base.f_prox, base.g, A, B, base.b, saddle=base.saddle)
    assert (A.fwd + B.fwd, count) == (2, 1)
    A.fwd = B.fwd = count = 0
    run(prob, Scheme.F1_SEMI_A, 0)
    assert (A.fwd + B.fwd, count) == (2, 1)


def test_pdhg_products_per_step():
    # A x+ and B y+ forward, A^T lam+ adjoint; A v is kept from the last
    # step, or formed once for the cold start, whose row made A x and B y
    base, _ = quadratic_instance(31)
    A, B = CountingOperator(base.A.matrix), CountingIdentity(-1.0, base.dim_lam)
    prob = pdhg_instance(base.f_prox, A, B)
    for iters, fwd in ((0, 3), (1, 2)):
        state = pdhg_run(prob, iters, x0=np.ones(prob.dim_x)).state
        assert counted(A, B, lambda s: step_pdhg(prob, s, 0.1, 0.1), state) == (fwd, 1)


def _lad_pdhg():
    prob = generate_problem(RunConfig(problem="lad-case1", m=50, n=200, seed=1)).prox_form
    tau = 1.0 / prob.A.norm_bound()
    return prob, lambda state: step_pdhg(prob, state, tau, tau)


def _relative(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_pdhg_kept_velocity_product_stays_exact():
    # A v+ = 2 A x+ - A x accumulates no drift from A v over 2,000 steps
    prob, step = _lad_pdhg()
    state = IterateState.cold_start(prob)
    for _ in range(2000):
        state = step(state)
        assert _relative(state.Av, prob.A.matrix @ state.v) <= 1e-12


def test_pdhg_kept_products_move_the_next_state_by_rounding_only():
    # a looped state derives A v; its hand-built copy forms it directly
    prob, step = _lad_pdhg()
    looped = pdhg_run(prob, 50).state
    fresh = hand_built(looped)
    assert fresh.Av is None and fresh.Ax is None
    new, new_fresh = step(looped), step(fresh)
    for block in ("x", "v", "y", "w", "lam", "Ax", "By", "Av"):
        assert _relative(getattr(new, block), getattr(new_fresh, block)) <= 1e-12, block


class CountingVector(np.ndarray):
    """A right-hand side ``b`` that counts the ufuncs reading it.  Each is the
    subtraction that forms one constraint residual ``A x + B y - b``, one
    multiplier prediction or update, or one augmented right-hand side."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.counts["b"] += 1
        return getattr(ufunc, method)(*(np.asarray(z) for z in inputs), **kwargs)


ORACLE_CALLS = ("prox", "value", "gradient", "solve_augmented")


def calls_per_phase(monkeypatch, method, iters):
    """Reads of ``b`` and oracle calls of a run of ``method`` on
    ``generate_quadratic(8, 8, 0)``, one Counter per row and per step, in
    run order: row 0, step 0, row 1, ..., row ``iters``."""
    bundle = generate_quadratic(8, 8, 0)
    prob = bundle.split_form if getattr(method, "family", 1) == 2 else bundle.prox_form
    turned = prob.eigenbasis[0]     # the problem the run steps
    counts = Counter()
    turned.b = turned.b.view(CountingVector)
    turned.b.counts = counts
    for role, oracle in (("f", turned.f_prox), ("f1", turned.f_smooth), ("g", turned.g)):
        for name in ORACLE_CALLS:
            if oracle is not None and hasattr(oracle, name):
                def wrapper(*args, _call=getattr(oracle, name), _key=f"{role}.{name}"):
                    counts[_key] += 1
                    return _call(*args)
                monkeypatch.setattr(oracle, name, wrapper)
    phases, seen = [], Counter()

    def cut():
        phases.append(counts - seen)
        seen.update(phases[-1])

    def phased(step):
        def wrapper(*args):
            cut()
            out = step(*args)
            cut()
            return out
        return wrapper

    if method == "ladmm":
        monkeypatch.setattr(baselines, "step_ladmm", phased(baselines.step_ladmm))
        ladmm_run(prob, iters)
    else:
        monkeypatch.setitem(driver._STEPS, method, phased(driver._STEPS[method]))
        run(prob, method, iters)
    cut()
    return phases


# (per step, per row) reads of b and oracle calls.  A scheme row forms the
# residual once, from which the feasibility, the gap and r0 read, and the
# objective calls each value once.  An augmented form subtracts b once, for
# its right-hand side (family 1's reads the row's residual for its
# linearization), and every scheme step subtracts it for the multiplier's
# prediction and update.  ladmm's step
# leaves its residual on the state, for its row and the next step.
def _calls(step, row):
    return Counter(step), Counter(row)


SCHEME_ROW = {"b": 1, "f.value": 1, "g.value": 1}
CALLS = {
    Scheme.F1_SEMI_B: _calls({"b": 3, "f.solve_augmented": 1, "g.prox": 1}, SCHEME_ROW),
    Scheme.F1_SEMI_A: _calls({"b": 3, "f.prox": 1, "g.solve_augmented": 1}, SCHEME_ROW),
    Scheme.F1_EXPLICIT: _calls({"b": 2, "f.prox": 1, "g.prox": 1}, SCHEME_ROW),
    Scheme.F2_SEMI_B: _calls({"b": 3, "f1.gradient": 1, "f.solve_augmented": 1, "g.prox": 1},
                             {**SCHEME_ROW, "f1.value": 1}),
    Scheme.F2_SEMI_A: _calls({"b": 3, "f1.gradient": 1, "f.prox": 1, "g.solve_augmented": 1},
                             {**SCHEME_ROW, "f1.value": 1}),
    Scheme.F2_EXPLICIT: _calls({"b": 2, "f1.gradient": 1, "f.prox": 1, "g.prox": 1},
                               {**SCHEME_ROW, "f1.value": 1}),
    "ladmm": _calls({"b": 2, "f.prox": 1, "g.prox": 1}, {"f.value": 1, "g.value": 1}),
}


@pytest.mark.parametrize("method", list(CALLS), ids=lambda m: getattr(m, "value", m))
def test_calls_per_step_and_row(monkeypatch, method):
    iters = 4
    phases = calls_per_phase(monkeypatch, method, iters)
    rows, steps = phases[::2], phases[1::2]
    assert (len(rows), len(steps)) == (iters + 1, iters)
    step, row = CALLS[method]
    assert steps == [step] * iters
    # ladmm's row 0 forms the cold start's residual, which no step left
    assert rows == [row + Counter(b=int(method == "ladmm"))] + [row] * iters
