"""Scaling-parameter recursion, step-size conditions, and bound formulas."""

import dataclasses
import math

import numpy as np
import pytest

from pdsplit import driver
from pdsplit.bench import generate_quadratic
from pdsplit.odeflow import initial_state
from pdsplit.params import (ParamState, Scheme, StepSizeError, StepSizeRule,
                            advance, appendix_c_bound, solve_step_size,
                            theoretical_theta_bound)


def drive(rule, ps, steps):
    """Advance the recursion, returning the visited states and step sizes."""
    states, alphas = [ps], []
    for _ in range(steps):
        a = solve_step_size(ps, rule)
        alphas.append(a)
        ps = advance(ps, a)
        states.append(ps)
    return states, alphas


def test_initial_defaults_follow_moduli():
    ps = ParamState.initial(mu_f=0.0, mu_g=0.0)
    assert (ps.gamma, ps.beta, ps.theta) == (1.0, 1.0, 1.0)
    ps = ParamState.initial(mu_f=0.3, mu_g=2.0)
    assert (ps.gamma, ps.beta) == (0.3, 2.0)
    ps = ParamState.initial(mu_f=0.3, gamma0=5.0)
    assert ps.gamma == 5.0


def test_initial_rejects_nonpositive():
    with pytest.raises(ValueError):
        ParamState.initial(gamma0=0.0)
    with pytest.raises(ValueError):
        ParamState.initial(beta0=math.nan)


@pytest.mark.parametrize("start", [{"gamma0": math.inf}, {"beta0": math.inf}, {"gamma0": -math.inf}],
                         ids=["gamma0-inf", "beta0-inf", "gamma0-minus-inf"])
def test_initial_rejects_nonfinite(start):
    # gamma0 = inf used to pass, and a run then failed at step 0 with a
    # StepSizeError blaming the condition's bracket (a nan at a finite ||A||)
    message = "gamma0 and beta0 must be positive and finite"
    with pytest.raises(ValueError, match=message):
        ParamState.initial(**start)
    prob = generate_quadratic(6, 10, 0).prox_form
    with pytest.raises(ValueError, match=message):
        driver.run(prob, Scheme.F1_SEMI_A, 5, **start)
    with pytest.raises(ValueError, match=message):
        initial_state(prob, **start)


@pytest.mark.parametrize("moduli, message", [({"mu_f": math.nan}, "mu_f must be nonnegative and finite, not nan"),
                                             ({"mu_f": -1.0}, "mu_f must be nonnegative and finite, not -1.0"),
                                             ({"mu_g": math.inf}, "mu_g must be nonnegative and finite, not inf")],
                         ids=["mu_f-nan", "mu_f-negative", "mu_g-inf"])
def test_initial_rejects_a_modulus_that_is_negative_or_not_finite(moduli, message):
    # a NaN mu_f used to pass, and the first step then blamed the condition's
    # bracket; a negative one failed at the second step on alpha = 0.0
    with pytest.raises(ValueError, match=f"^{message}$"):
        ParamState.initial(**moduli)


def test_recursion_residuals():
    ps = ParamState.initial(mu_f=0.4, mu_g=0.0, gamma0=1.3, beta0=0.8)
    rule = StepSizeRule(Scheme.F1_EXPLICIT, norm_A=2.0, norm_B=1.0)
    states, alphas = drive(rule, ps, 1000)
    for k, a in enumerate(alphas):
        cur, nxt = states[k], states[k + 1]
        assert abs(nxt.theta * (1 + a) - cur.theta) <= 1e-12
        assert abs(nxt.gamma * (1 + a) - (cur.gamma + 0.4 * a)) <= 1e-12
        assert abs(nxt.beta * (1 + a) - cur.beta) <= 1e-12


@pytest.mark.parametrize("scheme,kwargs", [
    (Scheme.F1_SEMI_B, dict(norm_B=1.5)),
    (Scheme.F1_SEMI_A, dict(norm_A=2.0)),
    (Scheme.F1_EXPLICIT, dict(norm_A=2.0, norm_B=1.5)),
    (Scheme.F2_SEMI_B, dict(norm_B=1.5, lipschitz_f=3.0)),
    (Scheme.F2_SEMI_A, dict(norm_A=2.0, lipschitz_f=3.0)),
    (Scheme.F2_EXPLICIT, dict(norm_A=2.0, norm_B=1.5, lipschitz_f=3.0)),
])
def test_theta_product_form_ten_thousand_steps(scheme, kwargs):
    ps = ParamState.initial(mu_f=0.2, mu_g=0.1)
    rule = StepSizeRule(scheme, **kwargs)
    log_prod = 0.0
    for _ in range(10000):
        a = solve_step_size(ps, rule)
        log_prod += math.log1p(a)
        ps = advance(ps, a)
        assert abs(ps.theta - math.exp(-log_prod)) <= 1e-14 * max(1.0, ps.theta) + 1e-300


def test_gamma_beta_monotone_between_modulus_and_start():
    # gamma0 > mu_f: decreasing toward mu_f; beta0 < mu_g: increasing toward mu_g
    ps = ParamState.initial(mu_f=0.5, mu_g=2.0, gamma0=3.0, beta0=1.0)
    rule = StepSizeRule(Scheme.F1_EXPLICIT, norm_A=1.0, norm_B=1.0)
    states, _ = drive(rule, ps, 2000)
    gammas = [s.gamma for s in states]
    betas = [s.beta for s in states]
    assert all(g2 <= g1 + 1e-15 for g1, g2 in zip(gammas, gammas[1:]))
    assert all(b2 >= b1 - 1e-15 for b1, b2 in zip(betas, betas[1:]))
    assert all(0.5 - 1e-12 <= g <= 3.0 + 1e-12 for g in gammas)
    assert all(1.0 - 1e-12 <= b <= 2.0 + 1e-12 for b in betas)


def test_scaling_lower_bound_inequalities():
    # gamma_k >= theta_k * gamma0 and beta_k >= theta_k * beta0 at every step
    for mu_f, mu_g in [(0.0, 0.0), (0.7, 0.0), (0.0, 0.7), (0.7, 0.3)]:
        ps = ParamState.initial(mu_f=mu_f, mu_g=mu_g, gamma0=1.4, beta0=0.6)
        rule = StepSizeRule(Scheme.F1_EXPLICIT, norm_A=1.0, norm_B=2.0)
        states, _ = drive(rule, ps, 1000)
        for s in states:
            assert s.gamma >= s.theta * s.gamma0 - 1e-14
            assert s.beta >= s.theta * s.beta0 - 1e-14
            assert s.gamma >= min(s.gamma0, s.mu_f) - 1e-14
            assert s.beta >= min(s.beta0, s.mu_g) - 1e-14


def test_step_size_closed_forms():
    ps = ParamState(theta=0.25, gamma=2.0, beta=0.5, mu_f=0.0, mu_g=0.0)
    assert solve_step_size(ps, StepSizeRule(Scheme.F1_SEMI_B, norm_B=2.0)) == \
        pytest.approx(math.sqrt(0.25 * 0.5) / 2.0)
    assert solve_step_size(ps, StepSizeRule(Scheme.F1_SEMI_A, norm_A=4.0)) == \
        pytest.approx(math.sqrt(0.25 * 2.0) / 4.0)
    a = solve_step_size(ps, StepSizeRule(Scheme.F1_EXPLICIT, norm_A=1.0, norm_B=3.0))
    # 2 a^2 (beta ||A||^2 + gamma ||B||^2) = gamma beta theta
    assert 2 * a * a * (0.5 * 1.0 + 2.0 * 9.0) == pytest.approx(2.0 * 0.5 * 0.25)
    a = solve_step_size(ps, StepSizeRule(Scheme.F2_SEMI_B, norm_B=3.0, lipschitz_f=5.0))
    assert a * a * (5.0 * 0.5 * 0.25 + 2.0 * 9.0) == pytest.approx(2.0 * 0.5 * 0.25)
    a = solve_step_size(ps, StepSizeRule(Scheme.F2_SEMI_A, norm_A=3.0, lipschitz_f=5.0))
    assert a * a * (5.0 * 0.25 + 9.0) == pytest.approx(2.0 * 0.25)
    a = solve_step_size(ps, StepSizeRule(Scheme.F2_EXPLICIT, norm_A=1.0, norm_B=3.0,
                                         lipschitz_f=5.0))
    assert a * a * (5.0 * 0.5 * 0.25 + 2 * 0.5 * 1.0 + 2 * 2.0 * 9.0) == \
        pytest.approx(2.0 * 0.5 * 0.25)


def test_step_size_degenerate_raises():
    ps = ParamState.initial()
    with pytest.raises(StepSizeError):
        solve_step_size(ps, StepSizeRule(Scheme.F1_SEMI_B, norm_B=0.0))
    with pytest.raises(StepSizeError):
        solve_step_size(ps, StepSizeRule(Scheme.F2_SEMI_A, norm_A=0.0, lipschitz_f=0.0))


def test_advance_matches_the_recursion_and_stays_frozen():
    ps = ParamState.initial(mu_f=0.3, mu_g=1.7, gamma0=2.0, beta0=0.5)
    nxt = advance(advance(ps, 0.4), 0.9)
    want = ps
    for a in (0.4, 0.9):
        want = ParamState(theta=want.theta / (1 + a), gamma=(want.gamma + 0.3 * a) / (1 + a),
                          beta=(want.beta + 1.7 * a) / (1 + a), k=want.k + 1, mu_f=0.3,
                          mu_g=1.7, gamma0=2.0, beta0=0.5)
    assert nxt == want and hash(nxt) == hash(want) and type(nxt) is ParamState
    with pytest.raises(dataclasses.FrozenInstanceError):
        nxt.theta = 1.0
    assert ps.k == 0 and ps.theta == 1.0


def test_advance_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        advance(ParamState.initial(), 0.0)
    with pytest.raises(ValueError):
        advance(ParamState.initial(), math.nan)


@pytest.mark.parametrize("alpha", [math.inf, 0.0, -1.0, math.nan])
def test_advance_rejects_an_alpha_that_is_not_positive_and_finite(alpha):
    # alpha = inf used to return theta = 0.0 and gamma = nan at mu_f > 0
    with pytest.raises(ValueError, match=f"^alpha must be positive and finite, got {alpha!r}$"):
        advance(ParamState.initial(mu_f=0.5), alpha)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_step_size_nan_in_a_used_quantity_raises(scheme):
    # a NaN norm or L_f the condition uses must not turn into a NaN step
    values = dict(norm_A=2.0, norm_B=1.5, lipschitz_f=3.0)
    for c, name in zip(SCHEME_TAGS[scheme][2], ("norm_A", "norm_B", "lipschitz_f")):
        if c:
            rule = StepSizeRule(scheme, **{**values, name: math.nan})
            with pytest.raises(StepSizeError):
                solve_step_size(ParamState.initial(), rule)


def test_semi_b_bound_arithmetic_instances():
    # Q = ||B|| + sqrt(beta0) = 2; first branch at k=2 gives 2/(2+2)
    res = theoretical_theta_bound(Scheme.F1_SEMI_B, 2, norm_B=1.0, beta0=1.0, mu_g=0.0)
    assert res.applicable and res.value == pytest.approx(0.5)
    # strongly convex branch: 4 Q^2 / (2Q + sqrt(mu_g) k)^2 = 16/36
    res = theoretical_theta_bound(Scheme.F1_SEMI_B, 2, norm_B=1.0, beta0=1.0, mu_g=1.0)
    assert res.value == pytest.approx(4.0 / 9.0)
    # k = 0 is always bounded by 1
    res = theoretical_theta_bound(Scheme.F1_SEMI_B, 0, norm_B=1.0, beta0=1.0)
    assert res.value == 1.0


def test_semi_a_bound_mirrors_semi_b():
    res_b = theoretical_theta_bound(Scheme.F1_SEMI_B, 7, norm_B=2.5, beta0=0.9, mu_g=0.4)
    res_a = theoretical_theta_bound(Scheme.F1_SEMI_A, 7, norm_A=2.5, gamma0=0.9, mu_f=0.4)
    assert res_a.value == pytest.approx(res_b.value)


def test_shape_bounds_check_hypotheses():
    # explicit Family-1 bound needs gamma0*beta0 <= 2 beta0||A||^2 + 2 gamma0||B||^2
    res = theoretical_theta_bound(Scheme.F1_EXPLICIT, 5, norm_A=0.1, norm_B=0.1,
                                  gamma0=1.0, beta0=1.0)
    assert not res.applicable and math.isnan(res.value)
    res = theoretical_theta_bound(Scheme.F1_EXPLICIT, 5, norm_A=1.0, norm_B=1.0,
                                  gamma0=1.0, beta0=1.0)
    assert res.applicable and res.value > 0


def test_shape_bound_inapplicable_when_the_bracket_vanishes():
    # ||A|| = ||B|| = 0 leaves f1-explicit no step size, hence no alpha_0 <= 1
    res = theoretical_theta_bound(Scheme.F1_EXPLICIT, 5, norm_A=0.0, norm_B=0.0)
    assert not res.applicable and math.isnan(res.value)
    assert "alpha_0 <= 1" in res.note


@pytest.mark.parametrize("mu_f", [0.0, 0.5])
def test_family2_bound_without_lipschitz_term_is_the_a_side_rate(mu_f):
    # L_f = 0 drops the f-side rate: f2-semiA keeps the A-side rate alone,
    # and f2-explicit the f1-explicit bound
    k, norm_A, gamma0 = 9, 2.5, 0.8
    a_side = min(norm_A / (math.sqrt(gamma0) * k),
                 norm_A ** 2 / (mu_f * k ** 2) if mu_f > 0 else math.inf)
    res = theoretical_theta_bound(Scheme.F2_SEMI_A, k, norm_A=norm_A, mu_f=mu_f, gamma0=gamma0)
    assert res.applicable and res.value == pytest.approx(a_side, rel=1e-15)
    kwargs = dict(norm_A=norm_A, norm_B=1.5, mu_f=mu_f, mu_g=0.3, gamma0=gamma0)
    explicit = theoretical_theta_bound(Scheme.F1_EXPLICIT, k, **kwargs)
    res = theoretical_theta_bound(Scheme.F2_EXPLICIT, k, lipschitz_f=0.0, **kwargs)
    assert res.applicable and explicit.applicable and res.value == explicit.value


def test_theta_sequences_respect_equality_grade_bounds():
    # semi-implicit runs must sit below the published formula with C = 1
    for scheme, kwargs, bound_kwargs in [
        (Scheme.F1_SEMI_B, dict(norm_B=2.0), dict(norm_B=2.0)),
        (Scheme.F1_SEMI_A, dict(norm_A=2.0), dict(norm_A=2.0)),
    ]:
        for mu in (0.0, 1.0):
            mu_f = mu if scheme is Scheme.F1_SEMI_A else 0.0
            mu_g = mu if scheme is Scheme.F1_SEMI_B else 0.0
            ps = ParamState.initial(mu_f=mu_f, mu_g=mu_g, gamma0=1.0, beta0=1.0)
            rule = StepSizeRule(scheme, **kwargs)
            for k in range(2000):
                bound = theoretical_theta_bound(scheme, k, mu_f=mu_f, mu_g=mu_g,
                                                gamma0=1.0, beta0=1.0, **bound_kwargs)
                assert ps.theta <= bound.value * (1 + 1e-12), (scheme, mu, k)
                ps = advance(ps, solve_step_size(ps, rule))


def test_shape_bounds_fit_with_small_constant():
    # non-equality-grade bounds: smallest C over k <= 100 certifies k <= 10^4
    cases = [
        (Scheme.F1_EXPLICIT, dict(norm_A=2.0, norm_B=1.0), dict(mu_f=0.0, mu_g=0.0)),
        (Scheme.F2_SEMI_B, dict(norm_B=1.0, lipschitz_f=4.0), dict(mu_f=0.0, mu_g=0.0)),
        (Scheme.F2_SEMI_A, dict(norm_A=2.0, lipschitz_f=4.0), dict(mu_f=0.0, mu_g=0.0)),
        (Scheme.F2_EXPLICIT, dict(norm_A=2.0, norm_B=1.0, lipschitz_f=4.0),
         dict(mu_f=0.0, mu_g=0.0)),
    ]
    for scheme, rule_kwargs, mus in cases:
        ps = ParamState.initial(gamma0=1.0, beta0=1.0, **mus)
        rule = StepSizeRule(scheme, **rule_kwargs)
        thetas = [ps.theta]
        for _ in range(10000):
            ps = advance(ps, solve_step_size(ps, rule))
            thetas.append(ps.theta)
        bounds = [theoretical_theta_bound(scheme, k, gamma0=1.0, beta0=1.0,
                                          **rule_kwargs, **mus).value
                  for k in range(len(thetas))]
        fitted = max(thetas[k] / bounds[k] for k in range(1, 101))
        # the ratio approaches its asymptote from below, so the constant
        # fitted on the head needs a small allowance for the tail
        for k in range(1, 10001):
            assert thetas[k] <= 1.05 * fitted * bounds[k], (scheme, k)


def test_appendix_c1_hand_values():
    # (1 + sigma tau nu k)^{-1/nu}
    assert appendix_c_bound("C1", 1, sigma=1.0, tau=1.0, nu=1.0) == pytest.approx(0.5)
    assert appendix_c_bound("C1", 3, sigma=1.0, tau=1.0, nu=2.0) == \
        pytest.approx(7.0 ** -0.5)
    assert appendix_c_bound("C1", 0, sigma=1.0, tau=1.0, nu=1.0) == 1.0


def test_appendix_c3_hand_value():
    # with P = 1/4, sigma = tau = k = 1 and Q = R = 0: exp(-1)
    val = appendix_c_bound("C3", 1, sigma=1.0, tau=1.0, P=0.25, Q=0.0, R=0.0)
    assert val == pytest.approx(math.exp(-1.0))
    # Q and R terms are additive
    val = appendix_c_bound("C3", 1, sigma=1.0, tau=1.0, P=0.25, Q=1.0, R=1.0)
    assert val == pytest.approx(math.exp(-1.0) + 36.0 + 6.0)


def test_appendix_c2_branches():
    # nu = 1/2 branch is exponential plus (R / s t k)^2
    val = appendix_c_bound("C2", 2, sigma=1.0, tau=0.5, nu=0.5, Q=1.0, R=1.0)
    assert val == pytest.approx(math.exp(-0.5) + 1.0)
    # nu > 1/2 branch is a power law
    val = appendix_c_bound("C2", 4, sigma=1.0, tau=1.0, nu=1.0, Q=4.0, R=0.0)
    assert val == pytest.approx((2.0 / 4.0) ** 2)


def test_appendix_c_validation():
    with pytest.raises(ValueError):
        appendix_c_bound("C1", 1, tau=1.5)
    with pytest.raises(ValueError):
        appendix_c_bound("C1", 1, sigma=-1.0)
    with pytest.raises(ValueError):
        appendix_c_bound("C3", 1, P=0.0)
    with pytest.raises(ValueError):
        appendix_c_bound("nope", 1)


def test_c1_sequence_property():
    # theta_{k+1} = theta_k / (1 + sigma theta_k^nu) has step ratio
    # alpha/theta^nu = sigma/(1+sigma theta^nu) >= sigma tau with
    # tau = 1/(1+sigma), so the C1 bound applies
    for sigma in (0.1, 1.0):
        tau = 1.0 / (1.0 + sigma)
        for nu in (1.0, 2.0):
            theta = 1.0
            for k in range(10001):
                bound = appendix_c_bound("C1", k, sigma=sigma, tau=tau, nu=nu)
                assert theta <= bound * (1 + 1e-12), (sigma, nu, k)
                theta = theta / (1.0 + sigma * theta ** nu)


SCHEME_TAGS = {
    Scheme.F1_SEMI_B: (1, "x", (0, 1, 0)), Scheme.F1_SEMI_A: (1, "y", (1, 0, 0)),
    Scheme.F1_EXPLICIT: (1, None, (2, 2, 0)), Scheme.F2_SEMI_B: (2, "x", (0, 1, 1)),
    Scheme.F2_SEMI_A: (2, "y", (1, 0, 1)), Scheme.F2_EXPLICIT: (2, None, (2, 2, 1)),
}
CONDITION_TERMS = ("beta ||A||^2", "gamma ||B||^2", "L_f beta theta")


@pytest.mark.parametrize("scheme", list(SCHEME_TAGS), ids=lambda s: s.value)
def test_scheme_family_tags(scheme):
    assert (scheme.family, scheme.implicit, scheme.coefficients) == SCHEME_TAGS[scheme]
    assert Scheme(scheme.value) is scheme
    assert set(driver._STEPS) == set(Scheme)
    # with every norm and L_f zero, the error names the scheme and its terms
    with pytest.raises(StepSizeError) as info:
        solve_step_size(ParamState.initial(), StepSizeRule(scheme))
    message = str(info.value)
    assert scheme.value in message
    for c, term in zip(scheme.coefficients, CONDITION_TERMS):
        assert (term in message) == bool(c), (term, message)


@pytest.mark.parametrize("scheme", [Scheme.F1_EXPLICIT, Scheme.F2_SEMI_B, Scheme.F2_SEMI_A,
                                    Scheme.F2_EXPLICIT], ids=lambda s: s.value)
def test_shape_bound_hypothesis_is_a_unit_first_step(scheme):
    rng = np.random.default_rng(11)
    outcomes = set()
    for _ in range(1000):
        norm_A, norm_B, lip, g0, b0 = (float(v) for v in np.exp(rng.normal(0.0, 1.0, 5)))
        rule = StepSizeRule(scheme, norm_A=norm_A, norm_B=norm_B, lipschitz_f=lip)
        bound = theoretical_theta_bound(scheme, int(rng.integers(1, 1000)), norm_A=norm_A,
                                        norm_B=norm_B, lipschitz_f=lip, gamma0=g0, beta0=b0)
        unit = solve_step_size(ParamState.initial(gamma0=g0, beta0=b0), rule) <= 1
        assert bound.applicable == unit
        outcomes.add(unit)
    assert outcomes == {True, False}
