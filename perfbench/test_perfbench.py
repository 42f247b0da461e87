"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from pdsplit import bench, driver, linops  # noqa: E402

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, RoundResult, Workload, run_round  # noqa: E402


def test_f1_explicit_products_per_iteration():
    # 4 forward + 2 adjoint products in the step map, 2 forward in the
    # driver's feasibility row; no saddle point, so no gap or merit products
    bundle = bench.generate_problem(bench.RunConfig(problem="lad-case1", m=10, n=30, seed=3))
    assert bundle.prox_form.saddle is None
    iters = 25
    with Tracer() as tr:
        tr.install()
        tr.phase = "lib"
        trace, _ = bench._run_method(bundle, "f1-explicit", iters)
    steps = tr.count[("lib", "family1.step")]
    rows = len(trace.rows)
    assert (steps, rows) == (iters, iters + 1)
    assert tr.products[("lib", "step", "fwd")] == 4 * steps
    assert tr.products[("lib", "step", "adj")] == 2 * steps
    assert tr.products[("lib", "diag", "fwd")] == 2 * rows
    assert tr.products[("lib", "diag", "adj")] == 0

    rounds = [RoundResult(solve_s={"f1-explicit": 1.0}, iters={"f1-explicit": iters}, rows=rows)]
    layers = run.per_layer_metrics(tr, rounds, untraced_ips=float(iters), solver_cap=500)
    assert layers["linops.fwd_per_iter"] == 6.0
    assert layers["linops.adj_per_iter"] == 2.0
    assert layers["diagnostics.fwd_per_row"] == 2.0


def test_uninstall_restores_every_entry_point():
    before = (linops.DenseOperator.__dict__["apply"], linops.estimate_operator_norm,
              driver.lagrangian_gap, dict(driver._STEPS), bench.generate_problem)
    tr = Tracer()
    tr.install()
    assert driver.lagrangian_gap is not before[2]
    tr.uninstall()
    after = (linops.DenseOperator.__dict__["apply"], linops.estimate_operator_norm,
             driver.lagrangian_gap, dict(driver._STEPS), bench.generate_problem)
    assert after == before


def test_failed_checks_are_counted_not_raised(tmp_path):
    base = dict(name="tiny", problem="lad-case1", m=10, n=30, methods=("f1-explicit",),
                iters=30, round_s=1.0, feas_target=1.0)
    reachable = run_round(Workload(obj_target=1.0, **base), 0, str(tmp_path), {})
    assert (reachable.failed, reachable.failures) == (0, [])
    # bench method, reference optimum, library method, one flow per library solve
    assert reachable.attempted == 4

    unreachable = run_round(Workload(obj_target=1e-300, **base), 0, str(tmp_path), {})
    assert unreachable.attempted == 4
    assert any("missed the time-to-accuracy target" in f for f in unreachable.failures)
    assert any("uncertainty" in f for f in unreachable.failures)
    # a missed target reads as infinitely slow, so it cannot make tta_s better
    assert unreachable.hit_s == {"f1-explicit": math.inf}
    assert run.end_to_end_metrics([unreachable])["tta_s"] == math.inf


def test_changed_trace_counts_as_a_failed_operation(tmp_path):
    wl = Workload(name="tiny", problem="lad-case1", m=10, n=30, methods=("f1-explicit",),
                  iters=30, round_s=1.0, obj_target=1.0, feas_target=1.0)
    digests = {"f1-explicit": "0" * 64}
    res = run_round(wl, 0, str(tmp_path), digests)
    assert res.failed == 1
    assert "differs between rounds" in res.failures[0]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for path in spec["paths"]:
        assert os.path.isdir(os.path.join(ROOT, path))
