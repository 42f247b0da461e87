"""Merit values, bound certificates, sparsity counts, and trace files."""

import io
import math

import numpy as np
import pytest

from pdsplit import IterateState
from pdsplit.diagnostics import (CSV_COLUMNS, BoundReport, IterationTrace,
                                 LyapunovInputs, TraceRow, certify_bounds,
                                 lagrangian_gap, lyapunov, r0, sparsity)
from pdsplit.driver import run
from pdsplit.oracles import lagrangian_value
from pdsplit.params import ParamState, Scheme

from helpers import quadratic_instance


def test_lyapunov_recomputation():
    prob, _ = quadratic_instance(51)
    rng = np.random.default_rng(1)
    st = IterateState(x=rng.standard_normal(prob.dim_x),
                      v=rng.standard_normal(prob.dim_x),
                      y=rng.standard_normal(prob.dim_y),
                      w=rng.standard_normal(prob.dim_y),
                      lam=rng.standard_normal(prob.dim_lam))
    ps = ParamState(theta=0.6, gamma=1.4, beta=0.8)
    inputs = LyapunovInputs(saddle=prob.saddle)
    sd = prob.saddle
    expect = (lagrangian_value(prob, st.x, st.y, sd.lam)
              - lagrangian_value(prob, sd.x, sd.y, st.lam)
              + 0.7 * np.sum((st.v - sd.x) ** 2)
              + 0.4 * np.sum((st.w - sd.y) ** 2)
              + 0.3 * np.sum((st.lam - sd.lam) ** 2))
    assert lyapunov(prob, st, ps, inputs) == pytest.approx(expect, rel=1e-12)


def test_lyapunov_zero_at_saddle():
    prob, _ = quadratic_instance(52)
    sd = prob.saddle
    st = IterateState(x=sd.x, v=sd.x, y=sd.y, w=sd.y, lam=sd.lam)
    ps = ParamState.initial()
    val = lyapunov(prob, st, ps, LyapunovInputs(saddle=sd))
    assert abs(val) <= 1e-10


def test_gap_nonnegative_at_random_points():
    prob, _ = quadratic_instance(53)
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = lagrangian_gap(prob, rng.standard_normal(prob.dim_x),
                           rng.standard_normal(prob.dim_y),
                           rng.standard_normal(prob.dim_lam), prob.saddle)
        assert g >= -1e-10


def test_r0_formula_recomputation():
    # sqrt(2 E0) plus multiplier distance plus the initial residual
    prob, _ = quadratic_instance(54)
    st = IterateState.cold_start(prob)
    ps = ParamState.initial()
    inputs = LyapunovInputs(saddle=prob.saddle)
    e0 = lyapunov(prob, st, ps, inputs)
    expect = (math.sqrt(2 * max(e0, 0.0))
              + np.linalg.norm(prob.saddle.lam)
              + np.linalg.norm(prob.b))
    assert r0(prob, st, ps, inputs) == pytest.approx(expect, rel=1e-12)


def test_r0_none_without_saddle():
    prob, _ = quadratic_instance(55)
    st = IterateState.cold_start(prob)
    assert r0(prob, st, ParamState.initial(), LyapunovInputs()) is None


def run_trace(seed=56):
    prob, _ = quadratic_instance(seed)
    res = run(prob, Scheme.F1_SEMI_A, 150)
    return prob, res.trace


def test_certify_bounds_clean_run():
    prob, trace = run_trace()
    inputs = LyapunovInputs(saddle=prob.saddle,
                            f_star=prob.objective(prob.saddle.x, prob.saddle.y))
    report = certify_bounds(trace, inputs)
    assert report.applicable
    assert report.clean(slack=1e-8), report.max_violation


def test_certify_bounds_flags_corruption():
    prob, trace = run_trace()
    inputs = LyapunovInputs(saddle=prob.saddle,
                            f_star=prob.objective(prob.saddle.x, prob.saddle.y))
    trace.rows[40].feas *= 1e6
    trace.rows[40].feas += 10.0
    report = certify_bounds(trace, inputs)
    assert not report.clean(slack=1e-8)
    assert 40 in report.flagged_rows.get("feasibility", [])


def test_certify_bounds_inapplicable_without_saddle():
    _, trace = run_trace()
    report = certify_bounds(trace, LyapunovInputs())
    assert not report.applicable


def test_certify_bounds_composite_column():
    prob, trace = run_trace()
    inputs = LyapunovInputs(saddle=prob.saddle,
                            f_star=prob.objective(prob.saddle.x, prob.saddle.y),
                            m_g=math.sqrt(prob.dim_y))
    p_star = inputs.f_star
    composite = [row.obj for row in trace.rows]
    report = certify_bounds(trace, inputs, composite_column=composite, p_star=p_star)
    assert "composite" in report.max_violation


def test_sparsity_counts():
    assert sparsity(np.array([0.0, 1.0, -2.0, 0.0])) == 2
    assert sparsity(np.zeros(5)) == 0
    # relative default threshold ignores entries below 1e-6 of the peak
    assert sparsity(np.array([1.0, 1e-9])) == 1
    assert sparsity(np.array([1.0, 1e-9]), threshold=0.0) == 2
    with pytest.raises(ValueError):
        sparsity(np.ones(3), threshold=-1.0)


def test_csv_round_trip(tmp_path):
    _, trace = run_trace()
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    header = path.read_text().splitlines()[0]
    assert header == "k,theta,alpha,obj,feas,gap,lyap,sparsity,seconds"
    back = IterationTrace.from_csv(str(path))
    assert len(back.rows) == len(trace.rows)
    for a, b in zip(trace.rows, back.rows):
        assert a.k == b.k
        assert a.theta == b.theta          # repr round-trip is exact
        assert a.obj == b.obj
        assert (a.alpha is None) == (b.alpha is None)
        if a.alpha is not None:
            assert a.alpha == b.alpha


def test_csv_missing_fields_serialize_empty():
    trace = IterationTrace()
    trace.append(TraceRow(k=0, theta=1.0))
    text = trace.to_csv_string()
    line = text.splitlines()[1]
    assert line == "0,1.0,,,,,,,"


def test_config_hash_depends_on_meta():
    t1 = IterationTrace(meta={"scheme": "a", "seed": 1})
    t2 = IterationTrace(meta={"seed": 1, "scheme": "a"})
    t3 = IterationTrace(meta={"scheme": "a", "seed": 2})
    assert t1.config_hash() == t2.config_hash()
    assert t1.config_hash() != t3.config_hash()


def test_trace_column_access():
    _, trace = run_trace()
    thetas = trace.column("theta")
    assert thetas[0] == 1.0
    assert all(b < a for a, b in zip(thetas, thetas[1:]))
