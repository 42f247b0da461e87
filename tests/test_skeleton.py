"""The shared step skeleton: operator products per step for all six
schemes and the two baselines.  Each product a step needs is computed
once and reused."""

import numpy as np
import pytest

from pdsplit.baselines import ladmm_run, pdhg_run, step_ladmm, step_pdhg
from pdsplit.driver import _STEPS, run
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


# (forward, adjoint) products per step.  The adjoints include the one the
# quadratic block's closed-form augmented solve makes.
PRODUCTS = {
    Scheme.F1_SEMI_B: (6, 3),
    Scheme.F1_SEMI_A: (6, 3),
    Scheme.F1_EXPLICIT: (4, 2),
    Scheme.F2_SEMI_B: (3, 3),
    Scheme.F2_SEMI_A: (6, 3),
    Scheme.F2_EXPLICIT: (4, 2),
}


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_products_per_step(scheme):
    prox_form, split_form = quadratic_instance(31)
    base = split_form if scheme.family == 2 else prox_form
    f = (base.f_smooth, base.f_prox) if base.has_smooth_f() else base.f_prox
    A, B = CountingOperator(base.A.matrix), CountingOperator(base.B.matrix)
    prob = SeparableProblem(f, base.g, A, B, base.b, mu_f=base.mu_f, mu_g=base.mu_g)
    state = run(prob, scheme, 0, x0=np.ones(prob.dim_x)).state
    ps = ParamState.initial(mu_f=prob.mu_f, mu_g=prob.mu_g)
    A.fwd = A.adj = B.fwd = B.adj = 0
    _STEPS[scheme](prob, state, ps, advance(ps, 0.2), 0.2)
    assert (A.fwd + B.fwd, A.adj + B.adj) == PRODUCTS[scheme]


def test_ladmm_products_per_step():
    # A x, B y, A x+ and B y+ forward; one adjoint per block
    base, _ = quadratic_instance(31)
    A, B = CountingOperator(base.A.matrix), CountingOperator(base.B.matrix)
    prob = SeparableProblem(base.f_prox, base.g, A, B, base.b)
    state = ladmm_run(prob, 0, x0=np.ones(prob.dim_x))[1]
    A.fwd = A.adj = B.fwd = B.adj = 0
    step_ladmm(prob, state, 1.0, 0.1, 0.1)
    assert (A.fwd + B.fwd, A.adj + B.adj) == (4, 2)


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
