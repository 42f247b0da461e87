"""Continuous-time flow: closed-form parameters, stationarity, decay
certification, and integrator order."""

import io
import math
import re

import numpy as np
import pytest

from pdsplit import IterateState, driver
from pdsplit.bench import generate_quadratic
from pdsplit.linops import DenseOperator, negated_identity
from pdsplit.odeflow import (OdeBlowUpError, SmoothSystemState, initial_state,
                             integrate, lyapunov_continuous, rhs, trajectory_to_csv)
from pdsplit.oracles import SaddlePoint, SeparableProblem, feasibility_residual
from pdsplit.params import ParamState, Scheme, advance
from pdsplit.prox import ElasticNet, QuadraticProx, SquaredL2

from helpers import MU_REGIMES, ode_quadratic_instance, quadratic_instance, without_saddle


def test_theta_reaches_exp_minus_one():
    prob, _ = quadratic_instance(61)
    traj = integrate(prob, initial_state(prob), T=1.0, h=1e-3)
    assert abs(traj[-1].theta - math.exp(-1.0)) <= 1e-10


def test_gamma_constant_at_modulus():
    prob, _ = quadratic_instance(62, mu_f=0.7, mu_g=0.3)
    init = initial_state(prob)   # gamma0 defaults to mu_f
    traj = integrate(prob, init, T=2.0, h=1e-3)
    assert all(abs(st.gamma - 0.7) <= 1e-12 for st in traj)
    assert all(abs(st.beta - 0.3) <= 1e-12 for st in traj)


def test_parameter_closed_forms_along_trajectory():
    prob = ode_quadratic_instance(63, 0.5, 0.0)
    init = initial_state(prob, gamma0=2.0, beta0=1.5)
    traj = integrate(prob, init, T=10.0, h=1e-3)
    # the exact solutions of the parameter subsystem from (1, gamma0, beta0):
    # theta = e^-t, gamma = mu_f + (gamma0 - mu_f) e^-t, beta = mu_g + (beta0 - mu_g) e^-t
    worst = 0.0
    for st in traj:
        decay = math.exp(-st.t)
        th, ga, be = decay, 0.5 + (2.0 - 0.5) * decay, 1.5 * decay
        worst = max(worst, abs(st.theta - th), abs(st.gamma - ga), abs(st.beta - be))
    assert worst <= 1e-8


def test_equilibrium_is_stationary():
    prob, _ = quadratic_instance(64)
    sd = prob.saddle
    st = SmoothSystemState(t=0.0, theta=0.8, gamma=1.1, beta=0.9,
                           x=sd.x, y=sd.y, v=sd.x, w=sd.y, lam=sd.lam)
    d = rhs(prob, st)
    # parameter derivatives follow their own law
    assert d[0] == pytest.approx(-0.8)
    assert d[1] == pytest.approx(prob.mu_f - 1.1)
    assert d[2] == pytest.approx(prob.mu_g - 0.9)
    # phase derivatives vanish
    assert np.allclose(d[3:], 0.0, atol=1e-10)


def test_rhs_matches_hand_derivation_one_dim():
    pf, qf, pg, qg = 0.9, 0.2, 1.4, -0.6
    a, c, b = 1.2, -0.7, 0.3
    prob = SeparableProblem(
        QuadraticProx(np.array([[pf]]), np.array([qf])),
        QuadraticProx(np.array([[pg]]), np.array([qg])),
        DenseOperator(np.array([[a]])), DenseOperator(np.array([[c]])),
        np.array([b]), mu_f=0.4, mu_g=0.1)
    st = SmoothSystemState(t=0.0, theta=0.6, gamma=1.3, beta=0.7,
                           x=np.array([0.5]), y=np.array([-0.2]),
                           v=np.array([0.1]), w=np.array([0.8]),
                           lam=np.array([-0.9]))
    d = rhs(prob, st)
    assert d[3] == pytest.approx(0.1 - 0.5)                       # x' = v - x
    assert d[4] == pytest.approx(0.8 - (-0.2))                    # y' = w - y
    dv = (0.4 * (0.5 - 0.1) - (pf * 0.5 + qf + a * (-0.9))) / 1.3
    assert d[5] == pytest.approx(dv)
    dw = (0.1 * (-0.2 - 0.8) - (pg * (-0.2) + qg + c * (-0.9))) / 0.7
    assert d[6] == pytest.approx(dw)
    dlam = (a * 0.1 + c * 0.8 - b) / 0.6
    assert d[7] == pytest.approx(dlam)


def test_rhs_rejects_nonsmooth_blocks():
    prob = SeparableProblem(ElasticNet(1.0, 0.0), QuadraticProx(np.eye(2)),
                            DenseOperator(np.eye(2)), negated_identity(2),
                            np.zeros(2))
    with pytest.raises(ValueError, match="gradient"):
        rhs(prob, initial_state(prob))


def test_rhs_rejects_a_split_f_block_with_a_prox_part():
    # the flow integrates f through the smooth part's gradient; 5||x||_1 would be dropped
    prob = SeparableProblem((SquaredL2(1.0), ElasticNet(5.0, 0.0)), QuadraticProx(np.eye(2)),
                            DenseOperator(np.eye(2)), negated_identity(2), np.zeros(2))
    with pytest.raises(ValueError, match=r"prox part ElasticNet must be SquaredL2\(0\)"):
        rhs(prob, initial_state(prob))
    with pytest.raises(ValueError, match="ElasticNet"):
        integrate(prob, initial_state(prob), T=0.01, h=0.005)


def test_rhs_accepts_squared_l2_at_zero_as_the_zero_prox_part():
    # only a nonzero modulus is a dropped part of f: a float or an integer zero
    # flows as the prox form, whose f is the smooth part alone
    f_blocks = {"prox form": QuadraticProx(np.eye(2)),
                "mu=0.0": (QuadraticProx(np.eye(2)), SquaredL2(0.0)),
                "mu=0": (QuadraticProx(np.eye(2)), SquaredL2(0)),
                "mu=0.5": (QuadraticProx(np.eye(2)), SquaredL2(0.5))}
    probs = {name: SeparableProblem(f, QuadraticProx(np.eye(2)), DenseOperator(np.eye(2)),
                                    negated_identity(2), np.zeros(2))
             for name, f in f_blocks.items()}
    st = initial_state(probs["prox form"], x0=np.array([1.0, -2.0]))
    for name in ("mu=0.0", "mu=0"):
        assert np.array_equal(rhs(probs[name], st), rhs(probs["prox form"], st))
    with pytest.raises(ValueError, match=r"prox part SquaredL2 must be SquaredL2\(0\)"):
        rhs(probs["mu=0.5"], st)


def test_split_f_block_with_a_zero_prox_part_flows_like_the_prox_form():
    prox_form, split_form = quadratic_instance(71)
    assert isinstance(split_form.f_prox, SquaredL2) and split_form.f_prox.mu == 0.0
    ends = [integrate(p, initial_state(p), T=0.05, h=0.01)[-1].pack()
            for p in (prox_form, split_form)]
    assert np.array_equal(ends[0], ends[1])


@pytest.mark.parametrize("mu_f,mu_g", MU_REGIMES)
def test_each_scheme_step_is_a_first_order_step_of_the_flow(mu_f, mu_g):
    # (z+ - z) / alpha, theta, gamma and beta included, tends to rhs(z) at rate alpha
    prox_form, split_form = quadratic_instance(72, mu_f, mu_g, n=6, ny=6, m=4)
    rng = np.random.default_rng(73)
    x, v, y, w = (rng.standard_normal(6) for _ in range(4))
    lam = rng.standard_normal(4)
    ps = ParamState(theta=0.7, gamma=1.3, beta=0.9, mu_f=mu_f, mu_g=mu_g)
    st = SmoothSystemState(t=0.0, theta=0.7, gamma=1.3, beta=0.9, x=x, y=y, v=v, w=w, lam=lam)
    z, flow = st.pack(), rhs(prox_form, st)
    for scheme in Scheme:
        problem = (prox_form, split_form)[scheme.family - 1]
        errors = []
        for alpha in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
            nxt = advance(ps, alpha)
            new = driver._STEPS[scheme](problem, IterateState(x=x, v=v, y=y, w=w, lam=lam),
                                        ps, nxt, alpha)
            z_new = SmoothSystemState(t=alpha, theta=nxt.theta, gamma=nxt.gamma, beta=nxt.beta,
                                      x=new.x, y=new.y, v=new.v, w=new.w, lam=new.lam).pack()
            errors.append(np.linalg.norm((z_new - z) / alpha - flow) / np.linalg.norm(flow))
        ratios = np.divide(errors[:-1], errors[1:])
        assert np.all((ratios >= 1.8) & (ratios <= 2.2)), (scheme.value, ratios)


@pytest.mark.parametrize("mu_f,mu_g", MU_REGIMES)
def test_scaled_lyapunov_nonincreasing(mu_f, mu_g):
    prob = ode_quadratic_instance(65, mu_f, mu_g)
    traj = integrate(prob, initial_state(prob), T=10.0, h=1e-3)
    vals = [math.exp(st.t) * lyapunov_continuous(prob, st, prob.saddle)
            for st in traj]
    tol = 1e-5 * vals[0]
    assert all(b <= a + tol for a, b in zip(vals, vals[1:]))
    assert all(v <= vals[0] * (1 + 1e-5) for v in vals)


def test_continuous_merit_refuses_a_saddle_point_other_than_the_problems():
    # the merit is the problem's; an equal copy of its saddle is another point
    prob, _ = quadratic_instance(64)
    sd, st = prob.saddle, initial_state(prob)
    with pytest.raises(ValueError, match="the problem's own saddle point"):
        lyapunov_continuous(prob, st, SaddlePoint(sd.x, sd.y, sd.lam))
    assert lyapunov_continuous(prob, st, sd) > 0.0


def test_integrator_fourth_order():
    prob, _ = quadratic_instance(66, mu_f=0.5, mu_g=0.0)
    init = initial_state(prob, gamma0=2.0)

    def theta_error(h):
        traj = integrate(prob, init, T=2.0, h=h)
        return max(abs(st.theta - math.exp(-st.t)) for st in traj)

    ratio = theta_error(0.1) / theta_error(0.05)
    assert 8.0 <= ratio <= 32.0


def test_bounded_scaled_residual_and_gap():
    # the flow conserves e^t (Ax+By-b) - (lam - lam0) up to the initial
    # residual, so e^t * feas and e^t * |F - F*| stay below constants
    # computable from the starting data
    prob = ode_quadratic_instance(67, 0.0, 0.0)
    sd = prob.saddle
    f_star = prob.objective(sd.x, sd.y)
    init = initial_state(prob)
    traj = integrate(prob, init, T=10.0, h=1e-3)
    e0 = lyapunov_continuous(prob, traj[0], sd)
    z0 = feasibility_residual(prob, init)
    lam_reach = float(np.linalg.norm(init.lam - sd.lam)) + math.sqrt(2.0 * e0)
    c_feas = z0 + lam_reach
    c_gap = e0 + float(np.linalg.norm(sd.lam)) * c_feas
    for st in traj:
        scale = math.exp(st.t)
        assert scale * feasibility_residual(prob, st) <= c_feas * (1 + 1e-6)
        assert scale * abs(prob.objective(st.x, st.y) - f_star) <= c_gap * (1 + 1e-6)
    # the conservation identity itself, to integrator accuracy
    for st in traj[::1000]:
        lhs = math.exp(st.t) * (prob.A.apply(st.x) + prob.B.apply(st.y) - prob.b)
        rhs_val = (prob.A.apply(init.x) + prob.B.apply(init.y) - prob.b
                   + st.lam - init.lam)
        assert np.allclose(lhs, rhs_val, atol=1e-6)


def test_blow_up_detection():
    # an indefinite g-block makes the flow unstable; the integrator must
    # stop with a time-stamped error instead of returning garbage
    n = 2
    prob = SeparableProblem(
        QuadraticProx(np.eye(n)), QuadraticProx(-50.0 * np.eye(n)),
        DenseOperator(np.eye(n)), negated_identity(n), np.zeros(n))
    init = initial_state(prob, y0=np.ones(n))
    with pytest.raises(OdeBlowUpError) as exc:
        integrate(prob, init, T=10.0, h=1e-2)
    assert 0.0 < exc.value.t <= 10.0


def test_non_finite_start_raises_naming_the_block():
    prob = generate_quadratic(6, 6, seed=1).prox_form
    lam0 = np.zeros(prob.dim_lam)
    lam0[0] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite lam at t = 0$"):
        integrate(prob, initial_state(prob, lam0=lam0), T=0.1, h=0.01)


def test_non_finite_step_raises_naming_the_block_and_time():
    # A^T lam overflows to inf - inf on the first stage; the state's own
    # squared norm overflows at t = 0 without any block being non-finite
    prob = generate_quadratic(6, 6, seed=1).prox_form
    init = initial_state(prob, lam0=np.full(prob.dim_lam, 1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="non-finite x at t = 0.01$"):
            integrate(prob, init, T=0.1, h=0.01)


@pytest.mark.parametrize("theta,gamma", [(0.8, 0.0), (-0.5, 1.1)], ids=["gamma=0", "theta<0"])
def test_nonpositive_parameter_raises(theta, gamma):
    prob, _ = quadratic_instance(73)
    sd = prob.saddle
    st = SmoothSystemState(t=0.0, theta=theta, gamma=gamma, beta=0.9,
                           x=sd.x, y=sd.y, v=sd.x, w=sd.y, lam=sd.lam)
    with pytest.raises(ValueError, match="theta, gamma, beta must stay positive"):
        rhs(prob, st)
    with pytest.raises(ValueError, match="theta, gamma, beta must stay positive"):
        integrate(prob, st, T=0.01, h=0.005)


def _blockwise_rhs(problem, state):
    """The derivative written block by block, one oracle call per block."""
    gf, gg = problem.f_prox.gradient, problem.g.gradient
    A, B = problem.A, problem.B
    dv = (problem.mu_f * (state.x - state.v) - (gf(state.x) + A.adjoint(state.lam))) / state.gamma
    dw = (problem.mu_g * (state.y - state.w) - (gg(state.y) + B.adjoint(state.lam))) / state.beta
    dlam = (A.apply(state.v) + B.apply(state.w) - problem.b) / state.theta
    return np.concatenate(([-state.theta, problem.mu_f - state.gamma, problem.mu_g - state.beta],
                           state.v - state.x, state.w - state.y, dv, dw, dlam))


def _per_stage_flow(problem, initial, T, h):
    """Classical RK4 that unpacks a phase point and calls ``rhs`` at every stage."""
    dims = problem.dim_x, problem.dim_y, problem.dim_lam

    def f(t, z):
        return rhs(problem, SmoothSystemState.unpack(t, z, *dims))

    z, t = initial.pack(), initial.t
    out = [SmoothSystemState.unpack(t, z.copy(), *dims)]
    for _ in range(int(round(T / h))):
        k1 = f(t, z)
        k2 = f(t + 0.5 * h, z + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, z + 0.5 * h * k2)
        k4 = f(t + h, z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        assert np.linalg.norm(z) <= 1e12
        out.append(SmoothSystemState.unpack(t, z.copy(), *dims))
    return out


def _flow_instances():
    for seed in range(3):
        yield f"quadratic-6x6-seed{seed}", generate_quadratic(6, 6, seed).prox_form, None
    for mu_f, mu_g in MU_REGIMES:
        yield f"ode-mu{mu_f:g},{mu_g:g}", ode_quadratic_instance(65, mu_f, mu_g), None
    prob = generate_quadratic(6, 6, 4).prox_form
    sd = prob.saddle
    yield "saddle-start", prob, initial_state(prob, x0=sd.x, y0=sd.y, lam0=sd.lam)


FLOW_INSTANCES = list(_flow_instances())


@pytest.mark.parametrize("name,prob,init", FLOW_INSTANCES, ids=[c[0] for c in FLOW_INSTANCES])
def test_integrate_matches_per_stage_rk4_bit_for_bit(name, prob, init):
    init = initial_state(prob) if init is None else init
    traj = integrate(prob, init, T=0.5, h=1e-3)
    ref = _per_stage_flow(prob, init, T=0.5, h=1e-3)
    assert len(traj) == len(ref) == 501
    assert [st.t for st in traj] == [st.t for st in ref]
    for st, expect in zip(traj, ref):
        assert np.array_equal(st.pack(), expect.pack())
    for st in traj[::50]:
        assert np.array_equal(rhs(prob, st), _blockwise_rhs(prob, st))


@pytest.mark.parametrize("with_reference", [True, False], ids=["saddle+f_star", "none"])
def test_trajectory_csv_bytes_match_per_stage_rk4(with_reference):
    prob = generate_quadratic(6, 10, seed=3).prox_form
    prob = prob if with_reference else without_saddle(prob)
    texts = []
    for flow in (integrate, _per_stage_flow):
        buf = io.StringIO()
        trajectory_to_csv(prob, flow(prob, initial_state(prob), T=0.5, h=1e-3), buf)
        texts.append(buf.getvalue())
    assert texts[0] == texts[1]


def test_integrate_validates_arguments():
    prob, _ = quadratic_instance(68)
    with pytest.raises(ValueError):
        integrate(prob, initial_state(prob), T=1.0, h=0.0)
    with pytest.raises(ValueError):
        integrate(prob, initial_state(prob), T=-1.0, h=0.1)


@pytest.mark.parametrize("T, h, name", [(1.0, math.nan, "h"), (1.0, math.inf, "h"),
                                        (math.nan, 0.1, "T"), (math.inf, 0.1, "T")])
def test_integrate_refuses_non_finite_step_and_horizon(T, h, name):
    # a NaN h used to raise from int(), an infinite T an OverflowError
    prob, _ = quadratic_instance(68)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        integrate(prob, initial_state(prob), T=T, h=h)


@pytest.mark.parametrize("T, h", [(0.15, 0.1), (0.04, 0.1), (1.0005, 1e-3)])
def test_integrate_refuses_a_horizon_that_is_not_a_whole_number_of_steps(T, h):
    # rounding T / h would stop 0.15 / 0.1 at t = 0.1 and 0.04 / 0.1 at the start
    prob, _ = quadratic_instance(68)
    with pytest.raises(ValueError, match=re.escape(f"T must be a whole number of steps h, "
                                                   f"not T = {T!r} and h = {h!r}")):
        integrate(prob, initial_state(prob), T=T, h=h)


# a problem's saddle point brings its F(x*, y*): E and obj_gap are filled or left empty together
@pytest.mark.parametrize("with_saddle", [True, False], ids=["saddle-f_star", "no-saddle-no-f_star"])
def test_trajectory_csv(tmp_path, with_saddle):
    prob, _ = quadratic_instance(69)
    f_star = prob.objective(prob.saddle.x, prob.saddle.y)
    prob = prob if with_saddle else without_saddle(prob)
    traj = integrate(prob, initial_state(prob), T=0.1, h=0.05)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(prob, traj, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,E,feas,obj_gap,theta,gamma,beta"
    assert len(lines) == 1 + len(traj)
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[4]) == 1.0
    for line, st in zip(lines[1:], traj):
        fields = line.split(",")
        assert (fields[1] == "") is (fields[3] == "") is not with_saddle
        # every written number reads back to the same float
        assert all(repr(float(v)) == v for v in fields if v)
        assert [float(fields[i]) for i in (0, 4, 5, 6)] == [st.t, st.theta, st.gamma, st.beta]
    if with_saddle:
        # E column recomputes
        assert float(first[1]) == pytest.approx(
            lyapunov_continuous(prob, traj[0], prob.saddle))
        assert float(first[3]) == abs(prob.objective(traj[0].x, traj[0].y) - f_star)


class CountingOperator(DenseOperator):
    fwd = 0

    def apply(self, v):
        self.fwd += 1
        return super().apply(v)


def test_trajectory_csv_forms_each_samples_products_once():
    # the merit and the feas column share each sample's A x and B y
    base, _ = quadratic_instance(69)
    A, B = CountingOperator(base.A.matrix), CountingOperator(base.B.matrix)
    prob = SeparableProblem(base.f_prox, base.g, A, B, base.b, saddle=base.saddle)
    traj = integrate(prob, initial_state(prob), T=0.1, h=0.05)
    A.fwd = B.fwd = 0   # the saddle's own residual was formed when the problem was built
    trajectory_to_csv(prob, traj, io.StringIO())
    assert A.fwd + B.fwd == 2 * len(traj)


@pytest.mark.parametrize("with_saddle, per_sample", [(True, 1), (False, 0)])
def test_trajectory_csv_forms_each_samples_objective_once(monkeypatch, with_saddle, per_sample):
    # the merit's gap and the obj_gap column share one F(x, y) per sample
    prob, _ = quadratic_instance(69)
    prob = prob if with_saddle else without_saddle(prob)
    traj = integrate(prob, initial_state(prob), T=0.1, h=0.05)
    count = 0
    objective = SeparableProblem.objective

    def counted(self, x, y):
        nonlocal count
        count += 1
        return objective(self, x, y)

    monkeypatch.setattr(SeparableProblem, "objective", counted)
    trajectory_to_csv(prob, traj, io.StringIO())
    assert count == per_sample * len(traj)


def test_phase_point_is_an_iterate_state():
    prob, _ = quadratic_instance(72)
    init = initial_state(prob, y0=np.ones(prob.dim_y))
    assert isinstance(init, IterateState)
    assert np.array_equal(init.w, init.y) and init.w is not init.y
    assert (init.t, init.theta) == (0.0, 1.0)


def test_state_pack_unpack_round_trip():
    prob, _ = quadratic_instance(70)
    init = initial_state(prob, x0=np.arange(prob.dim_x, dtype=float))
    z = init.pack()
    back = SmoothSystemState.unpack(0.0, z, prob.dim_x, prob.dim_y, prob.dim_lam)
    assert np.array_equal(back.x, init.x)
    assert np.array_equal(back.lam, init.lam)
    assert back.theta == init.theta
