"""The shared step skeleton: operator products per step for all six
schemes and the two baselines.  Each product a step needs is computed
once and reused, and the products ``A x`` and ``B y`` an iterate state
keeps change no bit of the next state."""

import numpy as np
import pytest

from pdsplit.baselines import ladmm_run, pdhg_run, step_ladmm, step_pdhg
from pdsplit.bench import generate_quadratic
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
# A x and B y.  The adjoints include the one the quadratic block's
# closed-form augmented solve makes.
PRODUCTS = {
    Scheme.F1_SEMI_B: (6, 3, 4),
    Scheme.F1_SEMI_A: (6, 3, 4),
    Scheme.F1_EXPLICIT: (4, 2, 4),
    Scheme.F2_SEMI_B: (3, 3, 3),
    Scheme.F2_SEMI_A: (6, 3, 4),
    Scheme.F2_EXPLICIT: (4, 2, 4),
}


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_products_per_step(scheme):
    prox_form, split_form = quadratic_instance(31)
    base = split_form if scheme.family == 2 else prox_form
    f = (base.f_smooth, base.f_prox) if base.has_smooth_f() else base.f_prox
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
    looped = ladmm_run(prob, 0, x0=np.ones(prob.dim_x))[1]

    def step(state):
        step_ladmm(prob, state, 1.0, 0.1, 0.1)

    assert counted(A, B, step, hand_built(looped)) == (4, 2)
    assert counted(A, B, step, looped) == (2, 2)


@pytest.mark.parametrize("method", [*Scheme, "ladmm"], ids=lambda m: getattr(m, "value", m))
def test_kept_products_change_no_bit(method):
    # a state out of the run loop keeps A x and B y; stepping it and a
    # hand-built copy of its five blocks gives the same next state, bit for bit
    if method == "ladmm":
        prob, _ = quadratic_instance(32)
        looped = ladmm_run(prob, 5)[1]

        def step(state):
            return step_ladmm(prob, state, 1.0, 0.1, 0.1)
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


@pytest.mark.parametrize("method, per_iteration", [(Scheme.F1_SEMI_A, 6), ("ladmm", 2)],
                         ids=["f1-semiA", "ladmm"])
def test_forward_products_per_iteration_rows_included(method, per_iteration):
    # 50x200 quadratic with a saddle point: each row computes A x and B y,
    # which its gap reuses and the next f1-semiA step too; ladmm's step
    # leaves A x+ and B y+ for the row and the next step
    base = generate_quadratic(50, 200, seed=1).prox_form
    A, B = CountingOperator(base.A.matrix), CountingOperator(base.B.matrix)
    prob = SeparableProblem(base.f_prox, base.g, A, B, base.b, saddle=base.saddle)
    A.norm_bound(), B.norm_bound()
    A.fwd = B.fwd = 0
    iters = 20
    if method == "ladmm":
        ladmm_run(prob, iters)
    else:
        run(prob, method, iters)
    # row 0 computes its own A x and B y; the merit's saddle side costs 2
    first = 2 if method == "ladmm" else 4
    assert A.fwd + B.fwd == first + per_iteration * iters


def test_pdhg_products_per_step():
    # A x_bar forward and A^T lam+ adjoint; B = -I enters only through the prox
    base, _ = quadratic_instance(31)
    A, B = CountingOperator(base.A.matrix), CountingIdentity(-1.0, base.dim_lam)
    prob = SeparableProblem(base.f_prox, QuadraticProx(np.eye(base.dim_lam)), A, B,
                            np.zeros(base.dim_lam))
    state = pdhg_run(prob, 0, x0=np.ones(prob.dim_x))[1]
    A.fwd = A.adj = B.fwd = B.adj = 0
    step_pdhg(prob, state, 0.1, 0.1)
    assert (A.fwd + B.fwd, A.adj + B.adj) == (1, 1)
