"""The shared step skeleton: operator products per step for all six
schemes.  Each product a step needs is computed once and reused."""

import numpy as np
import pytest

from pdsplit.driver import _STEPS, run
from pdsplit.linops import DenseOperator
from pdsplit.oracles import SeparableProblem
from pdsplit.params import ParamState, Scheme, advance
from pdsplit.subprob import SolverOptions

from helpers import quadratic_instance


class CountingOperator(DenseOperator):
    def __init__(self, matrix):
        super().__init__(matrix)
        self.fwd = self.adj = 0

    def apply(self, v):
        self.fwd += 1
        return super().apply(v)

    def adjoint(self, w):
        self.adj += 1
        return super().adjoint(w)


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
    _STEPS[scheme](prob, state, ps, advance(ps, 0.2), 0.2, SolverOptions())
    assert (A.fwd + B.fwd, A.adj + B.adj) == PRODUCTS[scheme]
