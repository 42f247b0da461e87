"""Gradient-corrected family: 1-D transcriptions, fixed points, correction
identities, set feasibility, and a contraction spot check."""

import numpy as np
import pytest

from pdsplit import IterateState
from pdsplit.driver import run
from pdsplit.family2 import step_f2_explicit, step_f2_semi_a, step_f2_semi_b
from pdsplit.linops import DenseOperator
from pdsplit.oracles import QuadraticSmooth, SaddlePoint, SeparableProblem
from pdsplit.params import ParamState, Scheme, advance
from pdsplit.prox import BoxIndicator, QuadraticProx
from pdsplit.subprob import SolverOptions

from helpers import MU_REGIMES, quadratic_instance

OPTS = SolverOptions()


def one_dim_problem():
    """Scalar smooth + prox f-block and a scalar quadratic g-block."""
    pf1, qf1 = 0.6, -0.2   # smooth part
    pf2, qf2 = 0.9, 0.1    # prox part
    pg, qg = 1.3, 0.4
    a, c, b = 1.4, -1.1, -0.3
    prob = SeparableProblem(
        (QuadraticSmooth(np.array([[pf1]]), np.array([qf1])),
         QuadraticProx(np.array([[pf2]]), np.array([qf2]))),
        QuadraticProx(np.array([[pg]]), np.array([qg])),
        DenseOperator(np.array([[a]])), DenseOperator(np.array([[c]])),
        np.array([b]))
    return prob, (pf1, qf1, pf2, qf2, pg, qg, a, c, b)


def scalar_state():
    return IterateState(x=np.array([0.3]), v=np.array([-0.5]),
                        y=np.array([0.8]), w=np.array([0.2]),
                        lam=np.array([0.7]))


def params_pair(alpha, mu_f=0.2, mu_g=0.1):
    ps = ParamState(theta=0.7, gamma=1.1, beta=0.85, mu_f=mu_f, mu_g=mu_g)
    return ps, advance(ps, alpha), alpha


def scalar_aux(ps, alpha, x, v, y, w):
    u = (x + alpha * v) / (1 + alpha)
    eta_ft = ps.gamma + ps.mu_f * alpha
    v_t = (ps.gamma * v + ps.mu_f * alpha * u) / eta_ft
    eta_g = (1 + alpha) * ps.beta + ps.mu_g * alpha
    y_t = y + (alpha * ps.beta / eta_g) * (w - y)
    return u, eta_ft, v_t, eta_g, y_t


def unpack(st):
    return st.x[0], st.v[0], st.y[0], st.w[0], st.lam[0]


def check(out, expect):
    for got, want in zip([out.x, out.v, out.y, out.w, out.lam], expect):
        assert abs(got[0] - want) <= 1e-12


def test_semi_b_matches_scalar_transcription():
    prob, (pf1, qf1, pf2, qf2, pg, qg, a, c, b) = one_dim_problem()
    st = scalar_state()
    ps, ps_next, al = params_pair(0.31)
    x, v, y, w, lam = unpack(st)
    th = ps.theta
    u, eta_ft, v_t, eta_g, y_t = scalar_aux(ps, al, x, v, y, w)

    d = pf1 * u + qf1 + a * lam
    sig = al / th
    W = eta_ft / al
    v_new = (W * v_t - qf2 - d - sig * a * (c * w - b)) / (pf2 + sig * a * a + W)
    x_new = (x + al * v_new) / (1 + al)
    lam_bar = lam + (al / th) * (a * v_new + c * w - b)
    tau = al ** 2 / eta_g
    y_new = (y_t / tau - qg - c * lam_bar) / (pg + 1.0 / tau)
    w_new = y_new + (y_new - y) / al
    lam_new = lam + (al / th) * (a * v_new + c * w_new - b)

    out = step_f2_semi_b(prob, st, ps, ps_next, al, OPTS)
    check(out, [x_new, v_new, y_new, w_new, lam_new])
    assert abs(out.u[0] - u) <= 1e-12


def test_semi_a_matches_scalar_transcription():
    prob, (pf1, qf1, pf2, qf2, pg, qg, a, c, b) = one_dim_problem()
    st = scalar_state()
    ps, ps_next, al = params_pair(0.24)
    x, v, y, w, lam = unpack(st)
    th = ps.theta
    u, eta_ft, v_t, eta_g, y_t = scalar_aux(ps, al, x, v, y, w)

    lam_hat = lam - (a * x + c * y - b) / th + (al / th) * a * (v - x)
    sig = 1.0 / ps_next.theta
    W = eta_g / al ** 2
    y_new = (W * y_t - qg - c * lam_hat - sig * c * (a * x - b)) / (pg + sig * c * c + W)
    w_new = y_new + (y_new - y) / al
    lam_bar = lam + (al / th) * (a * v + c * w_new - b)
    s = al / eta_ft
    grad = pf1 * u + qf1 + a * lam_bar
    v_new = (v_t - s * grad - s * qf2) / (1.0 + s * pf2)
    x_new = (x + al * v_new) / (1 + al)
    lam_new = lam + (al / th) * (a * v_new + c * w_new - b)

    out = step_f2_semi_a(prob, st, ps, ps_next, al, OPTS)
    check(out, [x_new, v_new, y_new, w_new, lam_new])


def test_explicit_matches_scalar_transcription():
    prob, (pf1, qf1, pf2, qf2, pg, qg, a, c, b) = one_dim_problem()
    st = scalar_state()
    ps, ps_next, al = params_pair(0.17)
    x, v, y, w, lam = unpack(st)
    th = ps.theta
    u, eta_ft, v_t, eta_g, y_t = scalar_aux(ps, al, x, v, y, w)

    lam_bar = lam + (al / th) * (a * v + c * w - b)
    s = al / eta_ft
    grad = pf1 * u + qf1 + a * lam_bar
    v_new = (v_t - s * grad - s * qf2) / (1.0 + s * pf2)
    x_new = (x + al * v_new) / (1 + al)
    tau = al ** 2 / eta_g
    y_new = (y_t / tau - qg - c * lam_bar) / (pg + 1.0 / tau)
    w_new = y_new + (y_new - y) / al
    lam_new = lam + (al / th) * (a * v_new + c * w_new - b)

    out = step_f2_explicit(prob, st, ps, ps_next, al, OPTS)
    check(out, [x_new, v_new, y_new, w_new, lam_new])


@pytest.mark.parametrize("step", [step_f2_semi_b, step_f2_semi_a, step_f2_explicit])
def test_saddle_is_fixed_point(step):
    _, prob = quadratic_instance(21)
    sd = prob.saddle
    st = IterateState(x=sd.x.copy(), v=sd.x.copy(), y=sd.y.copy(),
                      w=sd.y.copy(), lam=sd.lam.copy())
    ps = ParamState.initial(mu_f=prob.mu_f, mu_g=prob.mu_g)
    out = step(prob, st, ps, advance(ps, 0.25), 0.25, OPTS)
    for got, want in [(out.x, sd.x), (out.v, sd.x), (out.y, sd.y),
                      (out.w, sd.y), (out.lam, sd.lam)]:
        assert np.allclose(got, want, atol=1e-9)


@pytest.mark.parametrize("step", [step_f2_semi_b, step_f2_semi_a, step_f2_explicit])
def test_correction_identities(step):
    _, prob = quadratic_instance(22, mu_f=0.0, mu_g=1.0)
    st = IterateState.cold_start(prob, x0=np.ones(prob.dim_x))
    ps = ParamState.initial(mu_f=prob.mu_f, mu_g=prob.mu_g)
    alpha = 0.16
    out = step(prob, st, ps, advance(ps, alpha), alpha, OPTS)
    # averaging correction and its midpoint
    assert np.allclose(out.x, (st.x + alpha * out.v) / (1 + alpha), atol=1e-12)
    assert np.allclose(out.u, (st.x + alpha * st.v) / (1 + alpha), atol=1e-12)
    # y-side extrapolation and multiplier identities as in the first family
    assert np.allclose(out.w, out.y + (out.y - st.y) / alpha, atol=1e-12)
    resid = prob.A.apply(out.v) + prob.B.apply(out.w) - prob.b
    assert np.allclose(out.lam, st.lam + (alpha / ps.theta) * resid, atol=1e-10)


def test_iterates_stay_in_constraint_set():
    # f2 is a box indicator: v comes from a projection-type prox, and the
    # averaging correction keeps x inside the box as well
    rng = np.random.default_rng(23)
    n = m = 4
    P = np.eye(n)
    A = rng.standard_normal((m, n))
    Bm = rng.standard_normal((m, m))
    prob = SeparableProblem(
        (QuadraticSmooth(P, rng.standard_normal(n)), BoxIndicator(-np.ones(n), np.ones(n))),
        QuadraticProx(np.eye(m)), DenseOperator(A), DenseOperator(Bm),
        rng.standard_normal(m))
    res = run(prob, Scheme.F2_EXPLICIT, 50, x0=np.zeros(n))
    assert np.all(np.abs(res.state.x) <= 1.0 + 1e-12)
    assert np.all(np.abs(res.state.v) <= 1.0 + 1e-12)


@pytest.mark.parametrize("mu_f,mu_g", MU_REGIMES)
def test_contraction_spot_check(mu_f, mu_g):
    _, prob = quadratic_instance(24, mu_f=mu_f, mu_g=mu_g)
    for scheme in (Scheme.F2_SEMI_B, Scheme.F2_SEMI_A, Scheme.F2_EXPLICIT):
        res = run(prob, scheme, 100)
        rows = res.trace.rows
        e0 = max(rows[0].lyap, 1.0)
        for r0_, r1 in zip(rows, rows[1:]):
            assert r1.lyap - r0_.lyap <= -r0_.alpha * r1.lyap + 1e-9 * e0


def test_family_mismatch_rejected():
    prox_form, split_form = quadratic_instance(25)
    with pytest.raises(ValueError):
        run(prox_form, Scheme.F2_SEMI_A, 5)
    with pytest.raises(ValueError):
        run(split_form, Scheme.F1_SEMI_A, 5)

class _FiniteDifferenceSmooth(QuadraticSmooth):
    """Same values as the wrapped quadratic, gradient by central differences."""

    def gradient(self, z):
        h = 1e-6
        out = np.empty(z.size)
        for i in range(z.size):
            e = np.zeros(z.size)
            e[i] = h
            out[i] = (self.value(z + e) - self.value(z - e)) / (2.0 * h)
        return out


@pytest.mark.parametrize("step", [step_f2_semi_b, step_f2_semi_a, step_f2_explicit])
def test_finite_difference_gradient_changes_step_little(step):
    _, prob = quadratic_instance(26)
    fd_prob = SeparableProblem(
        (_FiniteDifferenceSmooth(prob.f_smooth.P, prob.f_smooth.p), prob.f_prox),
        prob.g, prob.A, prob.B, prob.b,
        mu_f=prob.mu_f, mu_g=prob.mu_g, saddle=prob.saddle)
    st = IterateState.cold_start(prob, x0=np.ones(prob.dim_x))
    ps = ParamState.initial(mu_f=prob.mu_f, mu_g=prob.mu_g)
    out = step(prob, st, ps, advance(ps, 0.2), 0.2, OPTS)
    out_fd = step(fd_prob, st, ps, advance(ps, 0.2), 0.2, OPTS)
    for a, b in [(out.x, out_fd.x), (out.v, out_fd.v), (out.y, out_fd.y),
                 (out.w, out_fd.w), (out.lam, out_fd.lam)]:
        assert np.linalg.norm(a - b) <= 1e-5 * max(1.0, np.linalg.norm(a))
