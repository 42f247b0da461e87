"""Reference methods: transcriptions, fixed points, convergence to a
known optimum, and the optimum estimator."""

import numpy as np
import pytest

from pdsplit.baselines import (approximate_optimum, ladmm_run, pdhg_run,
                               step_ladmm, step_pdhg)
from pdsplit.family1 import IterateState
from pdsplit.linops import DenseOperator, negated_identity
from pdsplit.oracles import SeparableProblem, feasibility_residual
from pdsplit.prox import ElasticNet, QuadraticProx, SquaredL2

from helpers import quadratic_instance


def test_ladmm_matches_scalar_transcription():
    pf, qf, pg, qg = 0.7, 0.2, 1.2, -0.5
    a, c, b = 1.5, -0.8, 0.4
    prob = SeparableProblem(
        QuadraticProx(np.array([[pf]]), np.array([qf])),
        QuadraticProx(np.array([[pg]]), np.array([qg])),
        DenseOperator(np.array([[a]])), DenseOperator(np.array([[c]])),
        np.array([b]))
    x, y, lam = 0.6, -0.3, 0.9
    tx, ty = 0.21, 0.33
    st = IterateState.cold_start(prob, [x], [y], [lam])

    # penalty 1
    res = a * x + c * y - b + lam
    zx = x - tx * a * res
    x_new = (zx - tx * qf) / (1.0 + tx * pf)
    res = a * x_new + c * y - b + lam
    zy = y - ty * c * res
    y_new = (zy - ty * qg) / (1.0 + ty * pg)
    lam_new = lam + (a * x_new + c * y_new - b)

    out = step_ladmm(prob, st, tx, ty)
    assert abs(out.x[0] - x_new) <= 1e-12
    assert abs(out.y[0] - y_new) <= 1e-12
    assert abs(out.lam[0] - lam_new) <= 1e-12
    assert out.v is out.x and out.w is out.y


def test_ladmm_saddle_is_fixed_point():
    prob, _ = quadratic_instance(31)
    sd = prob.saddle
    st = IterateState.cold_start(prob, sd.x.copy(), sd.y.copy(), sd.lam.copy())
    tx = 1.0 / prob.A.norm_bound() ** 2
    ty = 1.0 / prob.B.norm_bound() ** 2
    out = step_ladmm(prob, st, tx, ty)
    assert np.allclose(out.x, sd.x, atol=1e-10)
    assert np.allclose(out.y, sd.y, atol=1e-10)
    assert np.allclose(out.lam, sd.lam, atol=1e-10)


def test_ladmm_converges_to_kkt_solution():
    prob, _ = quadratic_instance(32)
    state = ladmm_run(prob, 5000).state
    assert np.linalg.norm(state.x - prob.saddle.x) <= 1e-6
    assert np.linalg.norm(state.y - prob.saddle.y) <= 1e-6
    assert feasibility_residual(prob, state) <= 1e-6


def test_pdhg_requires_composite_shape():
    prob, _ = quadratic_instance(33)
    with pytest.raises(ValueError):
        pdhg_run(prob, 10)


def composite_problem(seed, n=6, m=4):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    prob = SeparableProblem(
        ElasticNet(0.5, 0.0), QuadraticProx(np.eye(m), rng.standard_normal(m)),
        DenseOperator(A), negated_identity(m), np.zeros(m))
    return prob


def test_pdhg_matches_scalar_transcription():
    pg, qg = 1.1, 0.3
    a = 1.6
    prob = SeparableProblem(
        QuadraticProx(np.array([[0.9]]), np.array([-0.2])),
        QuadraticProx(np.array([[pg]]), np.array([qg])),
        DenseOperator(np.array([[a]])), negated_identity(1), np.zeros(1))
    x, xb, lam = 0.4, 0.5, -0.7
    tau = sigma = 0.45
    # v is the extrapolation x_bar and w = y; the step never reads y
    y = 0.8
    st = IterateState(x=np.array([x]), v=np.array([xb]), y=np.array([y]),
                      w=np.array([y]), lam=np.array([lam]))
    z = lam + sigma * a * xb
    y_new = (z / sigma - (1 / sigma) * qg) / (1.0 + (1 / sigma) * pg)
    lam_new = z - sigma * y_new
    zx = x - tau * a * lam_new
    x_new = (zx - tau * (-0.2)) / (1.0 + tau * 0.9)

    out = step_pdhg(prob, st, tau, sigma)
    assert abs(out.y[0] - y_new) <= 1e-12
    assert abs(out.lam[0] - lam_new) <= 1e-12
    assert abs(out.x[0] - x_new) <= 1e-12
    assert abs(out.v[0] - (2 * x_new - x)) <= 1e-12
    assert out.w is out.y


def test_pdhg_reduces_objective_and_residual():
    prob = composite_problem(34)
    trace = pdhg_run(prob, 3000).trace
    assert trace.rows[-1].feas <= 1e-6
    assert trace.rows[-1].obj <= trace.rows[0].obj


def test_approximate_optimum_matches_kkt_oracle():
    prob, _ = quadratic_instance(36)
    est = approximate_optimum(prob, iters=4000)
    f_star = prob.objective(prob.saddle.x, prob.saddle.y)
    assert abs(est.value - f_star) <= max(est.uncertainty, 1e-6)
    assert est.uncertainty <= 1e-4


def test_approximate_optimum_zero_budget():
    prob, _ = quadratic_instance(37)
    est = approximate_optimum(prob, iters=0)
    assert est.uncertainty == np.inf
    assert est.value == pytest.approx(prob.objective(np.zeros(prob.dim_x),
                                                     np.zeros(prob.dim_y)))


@pytest.mark.parametrize("iters", [200, 201])
def test_approximate_optimum_drift_spans_the_last_half(iters):
    # the drift spans the last iters // 2 iterations, for odd counts too
    prob, _ = quadratic_instance(39, mu_f=0.0, mu_g=0.0)
    res = ladmm_run(prob, iters)
    trace = res.trace
    drift = abs(trace.rows[iters].obj - trace.rows[iters - iters // 2].obj)
    feas = trace.rows[-1].feas * (1.0 + float(np.linalg.norm(res.state.lam)))
    assert approximate_optimum(prob, iters=iters).uncertainty == drift + feas


def test_baselines_reject_split_f_block():
    _, split = quadratic_instance(38)
    with pytest.raises(ValueError):
        ladmm_run(split, 3)


def test_trace_theta_column_is_one():
    prob, _ = quadratic_instance(39)
    res = ladmm_run(prob, 5)
    trace = res.trace
    assert all(r.theta == 1.0 for r in trace.rows)
    assert res.params is None   # nor a parameter state
    # no parameter schedule: no step size, gap or merit, though a saddle is known
    assert prob.saddle is not None
    assert all(r.alpha is None and r.gap is None and r.lyap is None for r in trace.rows)
