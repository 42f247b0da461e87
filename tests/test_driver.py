"""Run loop behavior: budgets, early exits, and trace bookkeeping."""

import numpy as np
import pytest

from pdsplit.baselines import ladmm_run, pdhg_run
from pdsplit.bench import generate_lad
from pdsplit.driver import RunBudget, build_rule, run
from pdsplit.params import Scheme

from helpers import quadratic_instance


def test_trace_covers_full_budget():
    prob, _ = quadratic_instance(81)
    res = run(prob, Scheme.F1_SEMI_B, 25)
    assert len(res.trace.rows) == 26
    assert res.trace.rows[-1].alpha is None
    assert all(r.alpha is not None for r in res.trace.rows[:-1])
    assert res.params.k == 25


def test_meta_records_initial_constants():
    prob, _ = quadratic_instance(82)
    res = run(prob, Scheme.F1_SEMI_A, 10)
    meta = res.trace.meta
    assert meta["scheme"] == "f1-semiA"
    assert meta["e0"] == pytest.approx(res.trace.rows[0].lyap)
    assert meta["r0"] > 0
    assert meta["iterations"] == 10


def test_target_feasibility_stops_early():
    prob, _ = quadratic_instance(83)
    budget = RunBudget(max_iters=5000, target_feasibility=1e-3)
    res = run(prob, Scheme.F1_SEMI_B, budget)
    assert res.trace.rows[-1].feas <= 1e-3
    assert res.trace.rows[-1].k < 5000


def test_target_objective_residual_stops_early():
    prob, _ = quadratic_instance(84)
    f_star = prob.objective(prob.saddle.x, prob.saddle.y)
    budget = RunBudget(max_iters=5000, target_obj_residual=1e-2)
    res = run(prob, Scheme.F1_SEMI_B, budget, f_star=f_star)
    assert abs(res.trace.rows[-1].obj - f_star) <= 1e-2
    assert res.trace.rows[-1].k < 5000


def test_build_rule_uses_inflated_norms():
    prob, split = quadratic_instance(85)
    rule = build_rule(prob, Scheme.F1_SEMI_B)
    assert rule.norm_A >= prob.A.norm()
    assert rule.lipschitz_f == 0.0
    rule2 = build_rule(split, Scheme.F2_SEMI_B)
    assert rule2.lipschitz_f == split.f_smooth.lipschitz


def test_theta_column_matches_recursion():
    prob, _ = quadratic_instance(86)
    res = run(prob, Scheme.F1_EXPLICIT, 50)
    rows = res.trace.rows
    prod = 1.0
    for k, row in enumerate(rows):
        assert row.theta == pytest.approx(prod, rel=1e-13)
        if row.alpha is not None:
            prod /= 1.0 + row.alpha


def test_gap_columns_empty_without_saddle():
    prob, _ = quadratic_instance(87)
    prob.saddle = None
    res = run(prob, Scheme.F1_SEMI_B, 5)
    assert all(r.gap is None and r.lyap is None for r in res.trace.rows)
    assert "r0" not in res.trace.meta


START_ENTRY_POINTS = {
    "f1-semiA": lambda prob: run(prob, Scheme.F1_SEMI_A, 20, y0=[0.5]),
    "f1-explicit": lambda prob: run(prob, Scheme.F1_EXPLICIT, 20, y0=[0.5]),
    "ladmm": lambda prob: ladmm_run(prob, 20, y0=[0.5]),
    "pdhg": lambda prob: pdhg_run(prob, 20, lam0=[0.5]),
}


@pytest.mark.parametrize("entry", list(START_ENTRY_POINTS))
def test_start_of_wrong_length_is_rejected(entry):
    # a one-entry start used to broadcast and run from another point
    prob = generate_lad(20, 60, 0).prox_form
    block = "lam0" if entry == "pdhg" else "y0"
    with pytest.raises(ValueError, match=f"{block} has shape"):
        START_ENTRY_POINTS[entry](prob)
