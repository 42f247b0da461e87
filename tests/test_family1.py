"""Implicit-family steps: 1-D straight-line transcriptions, fixed points,
update identities, and a contraction spot check.

The transcription oracles below recompute every update with bare scalar
arithmetic (no operators, no prox dispatch), so a match at 1e-12 pins the
vector implementation to the displayed update order.
"""

import numpy as np
import pytest

from pdsplit import IterateState
from pdsplit.driver import run
from pdsplit.family1 import step_f1_explicit, step_f1_semi_a, step_f1_semi_b
from pdsplit.linops import DenseOperator
from pdsplit.oracles import SeparableProblem
from pdsplit.params import ParamState, Scheme, advance
from pdsplit.prox import L1Norm, QuadraticProx
from pdsplit.subprob import SolverOptions

from helpers import MU_REGIMES, quadratic_instance

OPTS = SolverOptions()


def one_dim_problem():
    """Scalar quadratic blocks, scalar coupling, everything hand-checkable."""
    pf, qf = 0.8, 0.3
    pg, qg = 1.1, -0.4
    a, c, b = 1.7, -0.9, 0.5
    prob = SeparableProblem(
        QuadraticProx(np.array([[pf]]), np.array([qf])),
        QuadraticProx(np.array([[pg]]), np.array([qg])),
        DenseOperator(np.array([[a]])), DenseOperator(np.array([[c]])),
        np.array([b]))
    return prob, (pf, qf, pg, qg, a, c, b)


def scalar_state():
    return IterateState(x=np.array([0.4]), v=np.array([-0.2]),
                        y=np.array([0.7]), w=np.array([1.1]),
                        lam=np.array([-0.6]))


def params_pair(alpha=0.35, theta=0.8, gamma=1.2, beta=0.9, mu_f=0.25, mu_g=0.15):
    ps = ParamState(theta=theta, gamma=gamma, beta=beta, mu_f=mu_f, mu_g=mu_g)
    return ps, advance(ps, alpha), alpha


def scalar_weights(ps, alpha):
    eta_f = (1 + alpha) * ps.gamma + ps.mu_f * alpha
    eta_g = (1 + alpha) * ps.beta + ps.mu_g * alpha
    return eta_f, eta_g


def test_semi_b_matches_scalar_transcription():
    prob, (pf, qf, pg, qg, a, c, b) = one_dim_problem()
    st = scalar_state()
    ps, ps_next, al = params_pair()
    x, v, y, w, lam = (st.x[0], st.v[0], st.y[0], st.w[0], st.lam[0])
    th = ps.theta
    eta_f, eta_g = scalar_weights(ps, al)
    x_t = x + (al * ps.gamma / eta_f) * (v - x)
    y_t = y + (al * ps.beta / eta_g) * (w - y)
    lam_hat = lam - (a * x + c * y - b) / th + (al / th) * c * (w - y)
    sigma = 1.0 / ps_next.theta
    W = eta_f / al ** 2
    x_new = (W * x_t - qf - a * lam_hat - sigma * a * (c * y - b)) / (pf + sigma * a * a + W)
    v_new = x_new + (x_new - x) / al
    lam_bar = lam + (al / th) * (a * v_new + c * w - b)
    tau = al ** 2 / eta_g
    y_new = (y_t / tau - qg - c * lam_bar) / (pg + 1.0 / tau)
    w_new = y_new + (y_new - y) / al
    lam_new = lam + (al / th) * (a * v_new + c * w_new - b)

    out = step_f1_semi_b(prob, st, ps, ps_next, al, OPTS)
    for got, want in [(out.x, x_new), (out.v, v_new), (out.y, y_new),
                      (out.w, w_new), (out.lam, lam_new)]:
        assert abs(got[0] - want) <= 1e-12


def test_semi_a_matches_scalar_transcription():
    prob, (pf, qf, pg, qg, a, c, b) = one_dim_problem()
    st = scalar_state()
    ps, ps_next, al = params_pair(alpha=0.27)
    x, v, y, w, lam = (st.x[0], st.v[0], st.y[0], st.w[0], st.lam[0])
    th = ps.theta
    eta_f, eta_g = scalar_weights(ps, al)
    x_t = x + (al * ps.gamma / eta_f) * (v - x)
    y_t = y + (al * ps.beta / eta_g) * (w - y)
    lam_hat = lam - (a * x + c * y - b) / th + (al / th) * a * (v - x)
    sigma = 1.0 / ps_next.theta
    W = eta_g / al ** 2
    y_new = (W * y_t - qg - c * lam_hat - sigma * c * (a * x - b)) / (pg + sigma * c * c + W)
    w_new = y_new + (y_new - y) / al
    lam_bar = lam + (al / th) * (a * v + c * w_new - b)
    s = al ** 2 / eta_f
    x_new = (x_t / s - qf - a * lam_bar) / (pf + 1.0 / s)
    v_new = x_new + (x_new - x) / al
    lam_new = lam + (al / th) * (a * v_new + c * w_new - b)

    out = step_f1_semi_a(prob, st, ps, ps_next, al, OPTS)
    for got, want in [(out.x, x_new), (out.v, v_new), (out.y, y_new),
                      (out.w, w_new), (out.lam, lam_new)]:
        assert abs(got[0] - want) <= 1e-12


def test_explicit_matches_scalar_transcription():
    prob, (pf, qf, pg, qg, a, c, b) = one_dim_problem()
    st = scalar_state()
    ps, ps_next, al = params_pair(alpha=0.19)
    x, v, y, w, lam = (st.x[0], st.v[0], st.y[0], st.w[0], st.lam[0])
    th = ps.theta
    eta_f, eta_g = scalar_weights(ps, al)
    x_t = x + (al * ps.gamma / eta_f) * (v - x)
    y_t = y + (al * ps.beta / eta_g) * (w - y)
    lam_bar = lam + (al / th) * (a * v + c * w - b)
    s = al ** 2 / eta_f
    x_new = (x_t / s - qf - a * lam_bar) / (pf + 1.0 / s)
    tau = al ** 2 / eta_g
    y_new = (y_t / tau - qg - c * lam_bar) / (pg + 1.0 / tau)
    v_new = x_new + (x_new - x) / al
    w_new = y_new + (y_new - y) / al
    lam_new = lam + (al / th) * (a * v_new + c * w_new - b)

    out = step_f1_explicit(prob, st, ps, ps_next, al, OPTS)
    for got, want in [(out.x, x_new), (out.v, v_new), (out.y, y_new),
                      (out.w, w_new), (out.lam, lam_new)]:
        assert abs(got[0] - want) <= 1e-12


@pytest.mark.parametrize("step", [step_f1_semi_b, step_f1_semi_a, step_f1_explicit])
def test_saddle_is_fixed_point(step):
    prob, _ = quadratic_instance(5)
    sd = prob.saddle
    st = IterateState(x=sd.x.copy(), v=sd.x.copy(), y=sd.y.copy(),
                      w=sd.y.copy(), lam=sd.lam.copy())
    ps = ParamState.initial(mu_f=prob.mu_f, mu_g=prob.mu_g)
    out = step(prob, st, ps, advance(ps, 0.2), 0.2, OPTS)
    for got, want in [(out.x, sd.x), (out.v, sd.x), (out.y, sd.y),
                      (out.w, sd.y), (out.lam, sd.lam)]:
        assert np.allclose(got, want, atol=1e-9)


@pytest.mark.parametrize("step", [step_f1_semi_b, step_f1_semi_a, step_f1_explicit])
def test_update_identities(step):
    prob, _ = quadratic_instance(6, mu_f=0.0, mu_g=0.5)
    st = IterateState.cold_start(prob, x0=np.ones(prob.dim_x))
    ps = ParamState.initial(mu_f=prob.mu_f, mu_g=prob.mu_g)
    alpha = 0.13
    out = step(prob, st, ps, advance(ps, alpha), alpha, OPTS)
    # extrapolation identities
    assert np.allclose(out.v, out.x + (out.x - st.x) / alpha, atol=1e-12)
    assert np.allclose(out.w, out.y + (out.y - st.y) / alpha, atol=1e-12)
    # final multiplier update identity
    resid = prob.A.apply(out.v) + prob.B.apply(out.w) - prob.b
    assert np.allclose(out.lam, st.lam + (alpha / ps.theta) * resid, atol=1e-10)


def test_explicit_blocks_are_independent():
    # the x-update of the parallel scheme must not see the g-block oracle
    prob1, _ = quadratic_instance(7)
    prob2 = SeparableProblem(prob1.f_prox, L1Norm(3.0), prob1.A, prob1.B,
                             prob1.b, mu_f=prob1.mu_f, mu_g=0.0)
    st = IterateState.cold_start(prob1, x0=np.ones(prob1.dim_x),
                                 y0=-np.ones(prob1.dim_y))
    ps = ParamState.initial(mu_f=prob1.mu_f, mu_g=prob1.mu_g)
    out1 = step_f1_explicit(prob1, st, ps, advance(ps, 0.21), 0.21, OPTS)
    ps2 = ParamState(theta=ps.theta, gamma=ps.gamma, beta=ps.beta,
                     mu_f=ps.mu_f, mu_g=ps.mu_g)
    out2 = step_f1_explicit(prob2, st, ps2, advance(ps2, 0.21), 0.21, OPTS)
    assert np.array_equal(out1.x, out2.x)


@pytest.mark.parametrize("mu_f,mu_g", MU_REGIMES)
def test_contraction_spot_check(mu_f, mu_g):
    prob, _ = quadratic_instance(11, mu_f=mu_f, mu_g=mu_g)
    for scheme in (Scheme.F1_SEMI_B, Scheme.F1_SEMI_A, Scheme.F1_EXPLICIT):
        res = run(prob, scheme, 100)
        rows = res.trace.rows
        e0 = max(rows[0].lyap, 1.0)
        for r0_, r1 in zip(rows, rows[1:]):
            assert r1.lyap - r0_.lyap <= -r0_.alpha * r1.lyap + 1e-9 * e0


def test_cold_start_defaults():
    prob, _ = quadratic_instance(12)
    st = IterateState.cold_start(prob)
    assert np.all(st.x == 0) and np.all(st.v == 0) and np.all(st.lam == 0)
    st = IterateState.cold_start(prob, x0=np.ones(prob.dim_x))
    assert np.allclose(st.v, st.x)
