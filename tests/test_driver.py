"""Run loop behavior: iteration counts, early exits by callback, trace
bookkeeping, and loud failures, for the schemes and the baselines alike."""

import numpy as np
import pytest

from pdsplit import diagnostics, driver
from pdsplit.baselines import NotApplicableError, ladmm_run, pdhg_run
from pdsplit.bench import METHOD_TAGS, _run_method, generate_lad, generate_quadratic
from pdsplit.diagnostics import lagrangian_gap, lyapunov, r0, sparsity
from pdsplit.driver import build_rule, iterate, run
from pdsplit.family1 import IterateState
from pdsplit.linops import DenseOperator, negated_identity
from pdsplit.oracles import SeparableProblem, feasibility_residual
from pdsplit.params import ParamState, Scheme
from pdsplit.prox import QuadraticProx, SquaredL2

from helpers import quadratic_instance, without_saddle


def test_trace_covers_full_budget():
    prob, _ = quadratic_instance(81)
    res = run(prob, Scheme.F1_SEMI_B, 25)
    assert len(res.trace.rows) == 26
    assert res.trace.rows[-1].alpha is None
    assert all(r.alpha is not None for r in res.trace.rows[:-1])
    assert res.params.k == 25


SCHEME_HEADER = ["scheme", "dim_x", "dim_y", "dim_lam", "mu_f", "mu_g", "gamma0", "beta0",
                 "max_iters"]
HEADERS = {   # a run of 10 steps and its header's keys, in order
    "f1-semiA": (lambda: run(quadratic_instance(82)[0], Scheme.F1_SEMI_A, 10),
                 [*SCHEME_HEADER, "r0", "blocks"]),
    "f1-semiA-lad-case1": (lambda: run(generate_lad(20, 60, 0).prox_form, Scheme.F1_SEMI_A, 10),
                           [*SCHEME_HEADER, "blocks"]),   # no saddle, so no R0
    "ladmm": (lambda: ladmm_run(generate_lad(20, 60, 0).prox_form, 10),
              ["scheme", "max_iters", "blocks"]),
    "pdhg": (lambda: pdhg_run(generate_lad(20, 60, 0).prox_form, 10),
             ["scheme", "tau", "sigma", "max_iters", "blocks"]),
}


@pytest.mark.parametrize("case", list(HEADERS))
def test_meta_records_initial_constants(case):
    # the header keeps each value once: E0 is row 0's lyap and the last index row -1's k
    start, keys = HEADERS[case]
    res = start()
    meta = res.trace.meta
    assert list(meta) == keys
    assert meta["scheme"] == case.split("-lad")[0]
    assert res.trace.rows[-1].k == meta["max_iters"] == 10
    if "r0" in keys:
        assert meta["r0"] > 0 and res.trace.rows[0].lyap is not None


@pytest.mark.parametrize("iters, rows", [(0, 1), (10, 11), (150, 151)])
def test_merit_costs_one_gap_per_row(monkeypatch, iters, rows):
    # every row's gap is evaluated once, in one call per block of rows; E0 and
    # R0 come from row 0's merit instead of evaluating it again, and the saddle
    # side of the gap is evaluated once per problem
    count = 0
    value = diagnostics.lagrangian_value

    def counted(*args):
        nonlocal count
        count += 1
        return value(*args)

    monkeypatch.setattr(diagnostics, "lagrangian_value", counted)
    res = run(generate_quadratic(8, 8, seed=0).prox_form, Scheme.F1_SEMI_A, iters)
    assert len(res.trace.rows) == rows
    assert count == -(-rows // driver.BLOCK_ROWS)


def test_objective_once_per_row(monkeypatch):
    # the row's F(x, y) serves the obj column and the gap; the saddle side
    # of the gap was evaluated when the problem was built, and when its
    # eigenbasis problem was, on the first run
    count = 0
    objective = SeparableProblem.objective

    def counted(self, x, y):
        nonlocal count
        count += 1
        return objective(self, x, y)

    prob = generate_quadratic(8, 8, seed=0).prox_form
    monkeypatch.setattr(SeparableProblem, "objective", counted)
    res = run(prob, Scheme.F1_SEMI_A, 10)
    assert len(res.trace.rows) == 11
    assert count == 11 + 1
    run(prob, Scheme.F1_SEMI_A, 10)
    assert count == 11 + 1 + 11


def feasible_within(prob, tol):
    return lambda k, st: feasibility_residual(prob, st) <= tol


def test_target_feasibility_stops_early():
    prob, _ = quadratic_instance(83)
    res = run(prob, Scheme.F1_SEMI_B, 5000, iterate_callback=feasible_within(prob, 1e-3))
    assert res.trace.rows[-1].feas <= 1e-3
    assert res.trace.rows[-1].k < 5000


def test_target_objective_residual_stops_early():
    prob, _ = quadratic_instance(84)
    f_star = prob.objective(prob.saddle.x, prob.saddle.y)
    res = run(prob, Scheme.F1_SEMI_B, 5000,
              iterate_callback=lambda k, st: abs(prob.objective(st.x, st.y) - f_star) <= 1e-2)
    assert abs(res.trace.rows[-1].obj - f_star) <= 1e-2
    assert res.trace.rows[-1].k < 5000


ENTRY_POINTS = {
    "f1-semiB": lambda prob, n, cb: run(prob, Scheme.F1_SEMI_B, n, iterate_callback=cb),
    "ladmm": lambda prob, n, cb: ladmm_run(prob, n, iterate_callback=cb),
    "pdhg": lambda prob, n, cb: pdhg_run(prob, n, iterate_callback=cb),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_true_callback_return_ends_the_run_at_that_row(entry):
    prob = generate_lad(20, 60, 0).prox_form
    seen = []

    def stop_at_seven(k, state):
        seen.append((k, state))
        return k == 7

    res = ENTRY_POINTS[entry](prob, 50, stop_at_seven)
    trace, state = res.trace, res.state
    assert [k for k, _ in seen] == [r.k for r in trace.rows] == list(range(8))
    assert state is seen[-1][1]
    assert trace.rows[-1].k == 7 and trace.meta["max_iters"] == 50
    # a count reached first still ends the run, after the callback saw its last row
    seen.clear()
    trace = ENTRY_POINTS[entry](prob, 5, stop_at_seven).trace
    assert [k for k, _ in seen] == [r.k for r in trace.rows] == list(range(6))


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_negative_iteration_count_raises(entry):
    # it used to end in an IndexError from an empty trace
    prob = generate_lad(20, 60, 0).prox_form
    with pytest.raises(ValueError, match="max_iters must be at least 0, not -1"):
        ENTRY_POINTS[entry](prob, -1, None)


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_non_integer_iteration_count_raises(entry):
    # a float used to end in range's TypeError, and True ran one step
    prob = generate_lad(20, 60, 0).prox_form
    for count in (5.0, True, "5"):
        with pytest.raises(TypeError, match="max_iters must be an integer"):
            ENTRY_POINTS[entry](prob, count, None)
    trace = ENTRY_POINTS[entry](prob, np.int64(3), None).trace
    assert len(trace.rows) == 4


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
    prob = without_saddle(quadratic_instance(87)[0])
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


def test_baseline_target_feasibility_stops_early():
    prob, _ = quadratic_instance(83)
    trace = ladmm_run(prob, 5000, iterate_callback=feasible_within(prob, 1e-3)).trace
    assert trace.rows[-1].feas <= 1e-3
    assert trace.rows[-1].k < 5000


def test_record_every_below_one_raises():
    prob, _ = quadratic_instance(85)
    with pytest.raises(ValueError, match="record_every must be at least 1, not 0"):
        ladmm_run(prob, 5, record_every=0)


@pytest.mark.parametrize("record_every", [2.5, True, float("nan")], ids=["2.5", "True", "nan"])
def test_record_every_that_is_not_an_integer_raises(record_every):
    # unchecked, 2.5 would record rows 0 and 5 only, True would act as 1 and nan would drop row 0
    prob, _ = quadratic_instance(85)
    with pytest.raises(TypeError, match="record_every must be an integer, not"):
        ladmm_run(prob, 5, record_every=record_every)
    trace = ladmm_run(prob, 5, record_every=np.int64(2)).trace   # a numpy integer is one
    assert [row.k for row in trace.rows] == [0, 2, 4, 5]


def test_record_every_with_a_schedule_raises():
    # a scheme writes each step's alpha into the last row, which thinning would leave stale
    prob, _ = quadratic_instance(86)
    ps = ParamState.initial(mu_f=prob.mu_f, mu_g=prob.mu_g)
    with pytest.raises(ValueError, match="without a parameter schedule"):
        iterate(prob, IterateState.cold_start(prob), 4, {"scheme": "f1-semiB"},
                lambda state, *params: state, ps=ps,
                rule=build_rule(prob, Scheme.F1_SEMI_B), record_every=2)


NAN_ENTRY_POINTS = {
    "f1-semiA": lambda prob: run(prob, Scheme.F1_SEMI_A, 10),
    "ladmm": lambda prob: ladmm_run(prob, 10),
    "ladmm, record_every=4": lambda prob: ladmm_run(prob, 10, record_every=4),
}


def _nan_from_call(oracle, nth):
    """Make ``oracle``'s prox return NaN from its ``nth`` call on."""
    prox, calls = oracle.prox, 0

    def nan_from_nth_call(z, tau):
        nonlocal calls
        calls += 1
        out = prox(z, tau)
        return np.full_like(out, np.nan) if calls >= nth else out

    oracle.prox = nan_from_nth_call


@pytest.mark.parametrize("method", list(NAN_ENTRY_POINTS))
def test_non_finite_iterate_raises(method):
    # the x-block prox runs once per step; its third call makes x_3.  The run
    # calls the oracles of the problem it steps: an l1 problem's own, and a
    # quadratic problem's eigenbasis problem's
    plain, rotated = generate_lad(20, 60, 0).prox_form, quadratic_instance(88)[0]
    assert plain.eigenbasis[0] is plain and rotated.eigenbasis[0] is not rotated
    for prob in (plain, rotated):
        _nan_from_call(prob.eigenbasis[0].f_prox, 3)
        with pytest.raises(FloatingPointError,
                           match=f"^{method.split(',')[0]}: non-finite x at iteration 3$"):
            NAN_ENTRY_POINTS[method](prob)


class _PlainDense(DenseOperator):
    """A subclassed operator: its blocks never rotate."""


# f2-explicit on a split f-block whose SquaredL2 is not zero: the rotation
# leaves it be, which holds because its modulus is one scalar
RIDING = "f2-explicit, SquaredL2(0.5)"


def _rotating_and_plain(method):
    prox_form, split_form = quadratic_instance(89)
    if method == "pdhg":
        m = prox_form.dim_lam
        pair = [SeparableProblem(prox_form.f_prox, QuadraticProx(np.eye(m)), op(prox_form.A.matrix),
                                 negated_identity(m), np.zeros(m)) for op in (DenseOperator, _PlainDense)]
    else:
        base = split_form if method == RIDING or getattr(method, "family", 1) == 2 else prox_form
        f = base.f_prox if base.f_smooth is None else (base.f_smooth, base.f_prox)
        if method == RIDING:   # p takes up the rider's gradient 0.5 x*, so the saddle stays one
            f = (QuadraticProx(f[0].P, f[0].p - 0.5 * base.saddle.x), SquaredL2(0.5))
        pair = [SeparableProblem(f, base.g, op(base.A.matrix), op(base.B.matrix), base.b,
                                 saddle=base.saddle) for op in (DenseOperator, _PlainDense)]
    assert pair[0].eigenbasis[0] is not pair[0] and pair[1].eigenbasis[0] is pair[1]
    return pair


@pytest.mark.parametrize("method", [*Scheme, "ladmm", "pdhg", RIDING], ids=lambda m: getattr(m, "value", m))
def test_a_run_in_the_eigenbasis_matches_the_run_in_the_original_one(method):
    # theta, alpha and sparsity bit for bit, the rest to rounding; the
    # callback and the caller see original-basis states, the returned one
    # with A x, B y, their residual (and pdhg's A v) from the original operators
    runs = []
    for rotating, prob in zip((True, False), _rotating_and_plain(method)):
        seen = []

        def callback(k, state):
            seen.append(state)

        if method in ("ladmm", "pdhg"):
            res = ENTRY_POINTS[method](prob, 40, callback)
        else:
            res = run(prob, Scheme.F2_EXPLICIT if method == RIDING else method, 40,
                      iterate_callback=callback)
        trace, state = res.trace, res.state
        assert state is seen[-1]
        for s in seen[:-1]:   # each callback state keeps its row's products and residual
            for got, want in ((s.Ax, prob.A.apply(s.x)), (s.By, prob.B.apply(s.y)),
                              (s.res, prob.A.apply(s.x) + prob.B.apply(s.y) - prob.b)):
                assert np.linalg.norm(got - want) <= 1e-12 * (1.0 + np.linalg.norm(want))
        assert np.array_equal(state.Ax, prob.A.apply(state.x))
        assert np.array_equal(state.By, prob.B.apply(state.y))
        assert np.array_equal(state.residual(prob), state.Ax + state.By - prob.b)
        assert (state.Av is None) == (method != "pdhg")
        if method == "pdhg":   # the plain step derives it as 2 A x+ - A x
            Av = prob.A.apply(state.v)
            assert np.array_equal(state.Av, Av) if rotating else np.allclose(state.Av, Av, atol=1e-12)
        runs.append((trace, seen))
    (turned, turned_seen), (plain, plain_seen) = runs
    for col in ("theta", "alpha", "sparsity"):
        assert turned.column(col) == plain.column(col), col
    for col in ("obj", "feas", "gap", "lyap"):
        got, want = (np.array([np.nan if v is None else v for v in t.column(col)]) for t in (turned, plain))
        scale = np.nanmax(np.abs(want)) if not np.isnan(want).all() else 1.0
        assert np.allclose(got, want, rtol=0.0, atol=1e-12 * scale, equal_nan=True), col
    for a, b in zip(turned_seen, plain_seen, strict=True):
        for block in ("x", "v", "y", "w", "lam"):
            want = getattr(b, block)
            assert np.linalg.norm(getattr(a, block) - want) <= 1e-12 * (1.0 + np.linalg.norm(want)), block


def _trace_csvs(bundle):
    """Each applicable method's trace CSV on ``bundle``, without its timings."""
    csvs = {}
    for tag in METHOD_TAGS:
        try:
            trace, _ = _run_method(bundle, tag, 30)
        except NotApplicableError:
            continue
        for row in trace.rows:
            row.seconds = None
        csvs[tag] = trace.to_csv_string()
    return csvs


def test_no_run_reads_a_rotated_operators_norm():
    # step sizes come from the original operators and a rotated block is
    # solved in closed form, so a NaN norm on each C V changes no trace byte
    clean = _trace_csvs(generate_quadratic(20, 60, 3))
    bundle = generate_quadratic(20, 60, 3)
    for form in (bundle.prox_form, bundle.split_form):
        turned, Vx, Vy = form.eigenbasis
        assert Vx is not None and Vy is not None
        turned.A._norm = turned.B._norm = float("nan")
    assert list(clean) == [tag for tag in METHOD_TAGS if tag != "pdhg"]   # pdhg needs B = -I
    assert _trace_csvs(bundle) == clean


def _plain(form):
    """``form`` on subclassed operators, so its blocks keep their basis."""
    return SeparableProblem(form.f_prox, form.g, _PlainDense(form.A.matrix),
                            _PlainDense(form.B.matrix), form.b, saddle=form.saddle)


BLOCK_PATH = {
    "8x8": lambda: generate_quadratic(8, 8, 0).prox_form,
    "8x8-plain": lambda: _plain(generate_quadratic(8, 8, 0).prox_form),
    "20x60": lambda: generate_quadratic(20, 60, 3).prox_form,
}


@pytest.mark.parametrize("instance", list(BLOCK_PATH))
def test_rows_filled_in_blocks_match_the_per_point_diagnostics(monkeypatch, instance):
    # 150 rows fill in three blocks, the last one partial.  Each row's gap and
    # merit are the bits of the per-point functions at the state the loop
    # stepped, in its basis; its sparsity is the count of the callback's x
    prob = BLOCK_PATH[instance]()
    turned, Vx, _ = prob.eigenbasis
    assert (Vx is None) == (instance == "8x8-plain")
    scheme = Scheme.F1_SEMI_A
    step, stepped = driver._STEPS[scheme], []

    def recording(problem, state, ps, ps_next, alpha):
        out = step(problem, state, ps, ps_next, alpha)
        stepped[-1:] = [(state, ps), (out, ps_next)]   # the last entry was this input
        return out

    monkeypatch.setitem(driver._STEPS, scheme, recording)
    counted = []   # each block's x, as the run hands it to sparsity
    monkeypatch.setattr(driver, "sparsity", lambda x: counted.append(x) or sparsity(x))
    seen = []
    res = run(prob, scheme, 149, iterate_callback=lambda k, state: seen.append(state))
    rows = res.trace.rows
    block = driver.BLOCK_ROWS
    assert len(rows) == len(stepped) == len(seen) == 150 > 2 * block
    assert [len(x) for x in counted] == [block, block, 150 - 2 * block]
    xs = np.array([state.x for state in seen])   # turned back one row at a time
    assert np.allclose(np.concatenate(counted), xs, rtol=0.0, atol=1e-12 * np.abs(xs).max())
    for row, (state, ps), shown in zip(rows, stepped, seen):
        gap = lagrangian_gap(turned, state, turned.objective(state.x, state.y))
        merit = lyapunov(turned, state, ps, gap)
        assert (type(row.gap), type(row.lyap), type(row.sparsity)) == (float, float, int)
        assert (row.gap.hex(), row.lyap.hex()) == (float(gap).hex(), float(merit).hex()), row.k
        assert row.sparsity == sparsity(shown.x), row.k
    assert res.trace.meta["r0"] == r0(turned, stepped[0][0], rows[0].lyap)


@pytest.mark.parametrize("entry", ["f1-semiB", "ladmm"])
def test_a_callback_stopping_mid_block_leaves_every_row_filled(entry):
    prob = generate_quadratic(20, 60, 3).prox_form
    full = ENTRY_POINTS[entry](prob, 149, None).trace
    stopped = ENTRY_POINTS[entry](prob, 149, lambda k, state: k == 100).trace
    columns = ("gap", "lyap", "sparsity") if entry == "f1-semiB" else ("sparsity",)
    assert len(stopped.rows) == 101 and driver.BLOCK_ROWS < 101 < 2 * driver.BLOCK_ROWS
    for col in columns:
        assert None not in stopped.column(col)
        assert stopped.column(col) == full.column(col)[:101], col


def test_non_finite_iterate_in_a_later_block_raises_at_its_iteration():
    # the rows' diagnostics wait for their block; the finiteness check does not
    prob = quadratic_instance(88)[0]
    _nan_from_call(prob.eigenbasis[0].f_prox, 100)
    seen = []
    with pytest.raises(FloatingPointError, match="^f1-semiA: non-finite x at iteration 100$"):
        run(prob, Scheme.F1_SEMI_A, 149, iterate_callback=lambda k, state: seen.append(k))
    assert seen == list(range(100))
