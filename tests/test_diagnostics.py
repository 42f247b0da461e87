"""Merit values, bound certificates, sparsity counts, and trace files."""

import csv
import dataclasses
import io
import math

import numpy as np
import pytest

from pdsplit import IterateState
from pdsplit.baselines import ladmm_run
from pdsplit.diagnostics import (CSV_COLUMNS, BoundReport, IterationTrace,
                                 LyapunovInputs, TraceRow, certify_bounds,
                                 lagrangian_gap, lyapunov, r0, sparsity,
                                 write_csv)
from pdsplit.driver import run
from pdsplit.oracles import lagrangian_value
from pdsplit.params import ParamState, Scheme

from helpers import quadratic_instance, without_saddle


def merit(prob, st, ps):
    """The merit of ``st``, its gap computed from the state's own objective."""
    return lyapunov(prob, st, ps, lagrangian_gap(prob, st, prob.objective(st.x, st.y)))


def test_lyapunov_recomputation():
    prob, _ = quadratic_instance(51)
    rng = np.random.default_rng(1)
    st = IterateState(x=rng.standard_normal(prob.dim_x),
                      v=rng.standard_normal(prob.dim_x),
                      y=rng.standard_normal(prob.dim_y),
                      w=rng.standard_normal(prob.dim_y),
                      lam=rng.standard_normal(prob.dim_lam))
    ps = ParamState(theta=0.6, gamma=1.4, beta=0.8)
    sd = prob.saddle
    at_saddle = IterateState.cold_start(prob, sd.x, sd.y)
    expect = (lagrangian_value(prob, st, sd.lam, prob.objective(st.x, st.y))
              - lagrangian_value(prob, at_saddle, st.lam, prob.objective(sd.x, sd.y))
              + 0.7 * np.sum((st.v - sd.x) ** 2)
              + 0.4 * np.sum((st.w - sd.y) ** 2)
              + 0.3 * np.sum((st.lam - sd.lam) ** 2))
    assert merit(prob, st, ps) == pytest.approx(expect, rel=1e-12)


def test_lyapunov_zero_at_saddle():
    prob, _ = quadratic_instance(52)
    sd = prob.saddle
    st = IterateState(x=sd.x, v=sd.x, y=sd.y, w=sd.y, lam=sd.lam)
    ps = ParamState.initial()
    val = merit(prob, st, ps)
    assert abs(val) <= 1e-10


def test_gap_nonnegative_at_random_points():
    prob, _ = quadratic_instance(53)
    rng = np.random.default_rng(2)
    for _ in range(20):
        st = IterateState.cold_start(prob, rng.standard_normal(prob.dim_x),
                                     rng.standard_normal(prob.dim_y),
                                     rng.standard_normal(prob.dim_lam))
        g = lagrangian_gap(prob, st, prob.objective(st.x, st.y))
        assert g >= -1e-10


def test_r0_formula_recomputation():
    # sqrt(2 E0) plus multiplier distance plus the initial residual
    prob, _ = quadratic_instance(54)
    st = IterateState.cold_start(prob)
    ps = ParamState.initial()
    e0 = merit(prob, st, ps)
    expect = (math.sqrt(2 * max(e0, 0.0))
              + np.linalg.norm(prob.saddle.lam)
              + np.linalg.norm(prob.b))
    assert r0(prob, st, e0) == pytest.approx(expect, rel=1e-12)


def test_r0_none_without_saddle():
    prob = without_saddle(quadratic_instance(55)[0])
    st = IterateState.cold_start(prob)
    assert r0(prob, st, None) is None


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
    # E0 and R0 stay with the trace (row 0's lyap, meta["r0"]); the report keeps no copy
    assert [f.name for f in dataclasses.fields(report)] == ["applicable", "max_violation",
                                                           "flagged_rows"]


def test_certify_bounds_flags_corruption():
    prob, trace = run_trace()
    inputs = LyapunovInputs(saddle=prob.saddle,
                            f_star=prob.objective(prob.saddle.x, prob.saddle.y))
    trace.rows[40].feas *= 1e6
    trace.rows[40].feas += 10.0
    report = certify_bounds(trace, inputs)
    assert not report.clean(slack=1e-8)
    assert 40 in report.flagged_rows.get("feasibility", [])


def test_certify_bounds_flags_nan_rows():
    prob, _ = quadratic_instance(56)
    trace = run(prob, Scheme.F1_SEMI_A, 50).trace
    inputs = LyapunovInputs(saddle=prob.saddle,
                            f_star=prob.objective(prob.saddle.x, prob.saddle.y))
    assert certify_bounds(trace, inputs).clean(slack=1e-8)
    trace.rows[10].feas = math.nan
    trace.rows[11].gap = math.nan
    report = certify_bounds(trace, inputs)
    assert not report.clean(slack=1e-8)
    assert report.max_violation["feasibility"] == report.max_violation["gap"] == math.inf
    assert report.flagged_rows["feasibility"] == [10]
    assert report.flagged_rows["gap"] == [11]


def test_certify_bounds_inapplicable_without_saddle():
    _, trace = run_trace()
    report = certify_bounds(trace, LyapunovInputs())
    assert not report.applicable


def test_certify_bounds_inapplicable_without_row0_merit_or_r0():
    prob, trace = run_trace()
    inputs = LyapunovInputs(saddle=prob.saddle)
    # the baselines record no merit, so row 0 has no lyap
    ladmm_trace = ladmm_run(prob, 20).trace
    assert ladmm_trace.rows[0].lyap is None
    assert certify_bounds(ladmm_trace, inputs) == BoundReport(applicable=False)
    del trace.meta["r0"]
    assert certify_bounds(trace, inputs) == BoundReport(applicable=False)


def test_certify_bounds_composite_column():
    prob, trace = run_trace()
    inputs = LyapunovInputs(saddle=prob.saddle,
                            f_star=prob.objective(prob.saddle.x, prob.saddle.y),
                            m_g=math.sqrt(prob.dim_y))
    p_star = inputs.f_star
    composite = [row.obj for row in trace.rows]
    report = certify_bounds(trace, inputs, composite_column=composite, p_star=p_star)
    assert "composite" in report.max_violation


def test_certify_bounds_rejects_a_composite_column_of_another_length():
    prob, trace = run_trace()
    inputs = LyapunovInputs(saddle=prob.saddle, m_g=1.0)
    with pytest.raises(ValueError, match=rf"^composite_column has 1 entries; "
                                         rf"the trace has {len(trace.rows)} rows$"):
        certify_bounds(trace, inputs, composite_column=[trace.rows[0].obj], p_star=0.0)


@pytest.mark.parametrize("p_star_given, m_g, missing", [(False, 1.0, "p_star"),
                                                         (True, None, "inputs.m_g")])
def test_certify_bounds_rejects_a_composite_column_it_cannot_check(p_star_given, m_g, missing):
    # a column 1.0 below P* violates the composite bound; without P* or M_g it
    # used to be skipped, and the report read clean
    prob, trace = run_trace()
    f_star = prob.objective(prob.saddle.x, prob.saddle.y)
    inputs = LyapunovInputs(saddle=prob.saddle, f_star=f_star, m_g=1.0)
    below = [f_star - 1.0] * len(trace.rows)
    assert not certify_bounds(trace, inputs, composite_column=below, p_star=f_star).clean(slack=1e-8)
    inputs = dataclasses.replace(inputs, m_g=m_g)
    with pytest.raises(ValueError, match=rf"^a composite_column needs {missing}$"):
        certify_bounds(trace, inputs, composite_column=below, p_star=f_star if p_star_given else None)


def test_sparsity_counts():
    assert sparsity(np.array([0.0, 1.0, -2.0, 0.0])) == 2
    assert sparsity(np.zeros(5)) == 0
    # the relative threshold ignores entries below 1e-6 of the peak
    assert sparsity(np.array([1.0, 1e-9])) == 1
    # over the last axis, each point of a stack against its own peak
    points = np.array([[0.0, 1.0, -2.0, 0.0], [0.0] * 4, [1.0, 1e-9, 0.0, 0.0]])
    assert sparsity(points).tolist() == [sparsity(x) for x in points] == [2, 0, 1]
    assert sparsity(np.zeros((2, 0))).tolist() == [0, 0]


def test_csv_round_trip(tmp_path):
    _, trace = run_trace()
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    header = path.read_text().splitlines()[0]
    assert header == "k,theta,alpha,obj,feas,gap,lyap,sparsity,seconds"
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == len(trace.rows)
    for row, rec in zip(trace.rows, back):
        assert int(rec["k"]) == row.k and int(rec["sparsity"]) == row.sparsity
        for c in ("theta", "alpha", "obj", "feas", "gap", "lyap", "seconds"):
            # repr round-trip is exact; a missing value is an empty field
            assert (float(rec[c]) if rec[c] else None) == getattr(row, c), c


def test_csv_missing_fields_serialize_empty():
    trace = IterationTrace()
    trace.rows.append(TraceRow(k=0, theta=1.0))
    # the format follows the column, not the value's type: an int theta is a float field
    trace.rows.append(TraceRow(k=1, theta=1, sparsity=3))
    text = trace.to_csv_string()
    assert text.splitlines()[1:] == ["0,1.0,,,,,,,", "1,1.0,,,,,,3,"]


def test_csv_bytes_are_csv_writers():
    # the writer formats each column its own way and joins the fields itself;
    # the bytes must stay those csv.writer gave for the same formatted fields
    columns = ("k", "theta", "obj", "sparsity")
    rows = [(0, 1.0, None, 3), (np.int64(7), np.float64(0.1), -0.0, np.int32(0)),
            (12, np.float32(0.5), math.inf, None), (3, -math.inf, math.nan, 10**20),
            (None, 2, np.float64(-1e-300), 5)]
    expect = io.StringIO(newline="")
    writer = csv.writer(expect)
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if v is None else v if c in ("k", "sparsity") else repr(float(v))
                         for c, v in zip(columns, row)])
    got = io.StringIO(newline="")
    write_csv(got, columns, rows)
    assert got.getvalue() == expect.getvalue()
    assert got.getvalue().splitlines()[2] == "7,0.1,-0.0,0"


def test_trace_column_access():
    _, trace = run_trace()
    thetas = trace.column("theta")
    assert thetas[0] == 1.0
    assert all(b < a for a, b in zip(thetas, thetas[1:]))

