"""Benchmark generators, the runner, and the command line."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pdsplit import baselines, bench, linops
from pdsplit.bench import (METHOD_TAGS, SCHEME_TAGS, RunConfig, _run_method,
                           checkpoint_indices, generate_lad, generate_problem,
                           generate_quadratic, generate_svm, main,
                           run_benchmark)
from pdsplit.diagnostics import LyapunovInputs, certify_bounds, sparsity
from pdsplit.linops import DenseOperator, ScaledIdentity, negated_identity
from pdsplit.oracles import SaddlePoint, SeparableProblem
from pdsplit.prox import ElasticNet, HingeSum, QuadraticProx, ShiftedL1, SquaredL2
from pdsplit.subprob import InnerLoopCapWarning

from helpers import printed_cap_residuals, spd_matrix


def test_lad_shapes_and_sparsity():
    bundle = generate_lad(40, 100, seed=3, sparsity_fraction=0.1)
    prob = bundle.prox_form
    assert prob.A.shape == (40, 100)
    assert isinstance(prob.B, ScaledIdentity) and prob.B.scale == -1.0
    assert np.all(prob.b == 0.0)
    assert int(np.count_nonzero(bundle.ground_truth)) == 10
    assert isinstance(prob.f_prox, ElasticNet) and prob.f_prox.mu == 0.0 and prob.f_prox.lam == 2.0
    assert isinstance(prob.g, ShiftedL1)


def test_lad_case2_adds_ridge():
    bundle = generate_lad(30, 80, seed=4, case=2)
    prob = bundle.prox_form
    assert isinstance(prob.f_prox, ElasticNet)
    assert prob.f_prox.lam == 2.0
    assert prob.mu_f == pytest.approx(0.1)
    split = bundle.split_form
    assert split.f_smooth is not None
    assert split.f_smooth.strong_convexity == pytest.approx(0.1)


def test_lad_zero_noise_exact_response():
    bundle = generate_lad(20, 60, seed=5, noise_variance=0.0)
    prob = bundle.prox_form
    d = prob.g.shift
    assert np.allclose(d, prob.A.to_dense() @ bundle.ground_truth, atol=1e-14)


def test_lad_seeded_determinism():
    b1 = generate_lad(20, 60, seed=6)
    b2 = generate_lad(20, 60, seed=6)
    assert np.array_equal(b1.prox_form.A.to_dense(), b2.prox_form.A.to_dense())
    assert np.array_equal(b1.prox_form.g.shift, b2.prox_form.g.shift)


def test_lad_rejects_overdetermined():
    with pytest.raises(ValueError):
        generate_lad(60, 20, seed=0)


def test_svm_shapes_and_labels():
    bundle = generate_svm(25, 70, seed=7)
    prob = bundle.prox_form
    assert prob.A.shape == (25, 70)
    assert isinstance(prob.g, HingeSum)
    assert prob.g.weight == pytest.approx(1.0 / 25)
    assert np.all(np.abs(prob.g.labels) == 1.0)
    assert isinstance(prob.f_prox, ElasticNet) and prob.f_prox.mu == 0.0
    assert prob.f_prox.lam == pytest.approx(0.2)


def test_svm_zero_flip_is_separable():
    bundle = generate_svm(30, 50, seed=8, flip_fraction=0.0)
    prob = bundle.prox_form
    margins = prob.A.to_dense() @ bundle.ground_truth - prob.b
    assert np.all(prob.g.labels * margins >= 0.0)


def test_svm_elastic_variant():
    bundle = generate_svm(20, 40, seed=9, elastic=True)
    f = bundle.prox_form.f_prox
    assert isinstance(f, ElasticNet)
    assert (f.lam, f.mu) == (0.5, 0.05)


def test_quadratic_planted_optimum():
    bundle = generate_quadratic(6, 6, seed=10)
    prob = bundle.prox_form
    sd = prob.saddle
    # the planted triple satisfies the optimality system
    assert np.allclose(prob.f_prox.P @ sd.x + prob.f_prox.p
                       + prob.A.to_dense().T @ sd.lam, 0.0, atol=1e-12)
    assert bundle.f_star == pytest.approx(prob.objective(sd.x, sd.y))


def test_generators_share_oracles_and_operators(monkeypatch):
    calls = []
    estimate = linops.estimate_operator_norm
    monkeypatch.setattr(linops, "estimate_operator_norm",
                        lambda op: calls.append(op) or estimate(op))
    quad = generate_quadratic(6, 6, seed=10)
    prox, split = quad.prox_form, quad.split_form
    assert split.f_smooth is prox.f_prox and isinstance(prox.f_prox, QuadraticProx)
    assert split.A is prox.A and split.B is prox.B and split.g is prox.g
    # the norms are estimated during generation, once per shared operator
    assert calls == [prox.A, prox.B]
    for generate in (generate_lad, generate_svm):
        bundle = generate(10, 30, seed=0)
        prox, split = bundle.prox_form, bundle.split_form
        assert isinstance(split.f_smooth, SquaredL2)
        assert split.A is prox.A and split.B is prox.B and split.g is prox.g
        # the -I coupling gets its closed-form norm at generation too
        assert calls[-2:] == [prox.A, prox.B]
    assert len(calls) == 6


def test_checkpoint_indices():
    assert checkpoint_indices(0) == [0]
    assert checkpoint_indices(7) == [0, 1, 2, 5, 7]
    ks = checkpoint_indices(2000)
    assert ks[:4] == [0, 1, 2, 5]
    assert 1000 in ks and 2000 in ks and len(ks) < 20


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(problem="unknown").validate()
    with pytest.raises(ValueError):
        RunConfig(methods=("nope",)).validate()
    assert "f1-semiA" in METHOD_TAGS and "ladmm" in METHOD_TAGS
    # the ends of each range are accepted
    for edge in ({"noise_variance": 0.0}, {"flip_fraction": 0.0}, {"flip_fraction": 1.0},
                 {"m": 1, "n": 1}, {"iters": 0}, {"seed": 0}):
        RunConfig(**edge).validate()


@pytest.mark.parametrize("field, value", [
    ("noise_variance", -0.01), ("flip_fraction", -0.1), ("flip_fraction", 1.5),
    ("m", 0), ("n", 0), ("iters", -1), ("seed", -1),
])
def test_config_validation_names_out_of_range_field(field, value):
    cfg = RunConfig(**{"problem": "svm-l1", "m": 5, "n": 8, field: value})
    with pytest.raises(ValueError, match=rf"^{field} must lie in .*got {value!r}$"):
        cfg.validate()


@pytest.mark.parametrize("field, value", [
    ("m", 2.5), ("seed", 1.5), ("m", True), ("iters", 2.5),
])
def test_config_validation_names_non_integer_field(field, value):
    cfg = RunConfig(**{"problem": "svm-l1", "m": 5, "n": 8, field: value})
    with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {value!r}$"):
        cfg.validate()


@pytest.mark.parametrize("value", ["0.1", True, None])
@pytest.mark.parametrize("field", ["sparsity_fraction", "noise_variance", "flip_fraction"])
def test_config_validation_names_non_real_field(field, value):
    cfg = RunConfig(**{"problem": "svm-l1", "m": 5, "n": 8, field: value})
    with pytest.raises(ValueError, match=rf"^{field} must be a real number, got {re.escape(repr(value))}$"):
        cfg.validate()


def test_config_validation_names_a_bare_string_of_methods():
    # iterating the string used to fail on its first letter, "unknown method 'l'"
    with pytest.raises(ValueError, match=r"^methods must be a sequence of tags, not the string 'ladmm'$"):
        RunConfig(methods="ladmm").validate()


def test_config_validation_refuses_empty_methods(tmp_path):
    # an empty list used to compute the reference optimum, write a summary
    # of no methods and exit 0
    with pytest.raises(ValueError, match=r"^methods must name at least one method$"):
        RunConfig(methods=()).validate()
    cfg_file = tmp_path / "none.json"
    cfg_file.write_text(json.dumps({"methods": []}))
    with pytest.raises(ValueError, match=r"^methods must name at least one method$"):
        main(["--config", str(cfg_file), "--out", str(tmp_path / "x")])
    assert not (tmp_path / "x").exists()


def test_config_validation_names_a_repeated_method(tmp_path):
    # a repeated tag used to run twice, the second run overwriting the
    # first's trace file and summary entry
    cfg = RunConfig(methods=("ladmm", "f1-semiA", "ladmm"), iters=3, out=str(tmp_path / "out"))
    with pytest.raises(ValueError, match=r"^method 'ladmm' is repeated"):
        run_benchmark(cfg)
    assert not (tmp_path / "out").exists()


def test_numpy_scalars_in_config_run_and_write_the_summary(tmp_path):
    # an np.int64 count used to fail every method, then the summary's json.dump
    cfg = RunConfig(problem="lad-case1", m=8, n=16, iters=np.int64(5), seed=np.int64(0),
                    noise_variance=np.float64(0.01), methods=METHOD_TAGS, out=str(tmp_path))
    summary = run_benchmark(cfg)
    assert all("checkpoints" in entry for entry in summary["methods"].values())
    assert type(cfg.iters) is int and type(cfg.noise_variance) is float
    written = json.loads((tmp_path / "summary.json").read_text())
    assert written["config"]["iters"] == 5 and written["config"]["seed"] == 0


def test_budget_zero_summary(tmp_path):
    cfg = RunConfig(problem="quadratic-synthetic", m=5, n=5, iters=0,
                    methods=("f1-semiA",), out=str(tmp_path / "o"))
    summary = run_benchmark(cfg)
    cps = summary["methods"]["f1-semiA"]["checkpoints"]
    assert len(cps) == 1 and cps[0]["k"] == 0
    assert cps[0]["obj_rel"] == 1.0
    assert summary["fstar_uncertainty"] == 0.0


def test_two_methods_two_traces(tmp_path):
    out = tmp_path / "two"
    cfg = RunConfig(problem="quadratic-synthetic", m=5, n=5, iters=20,
                    methods=("f1-semiA", "ladmm"), out=str(out))
    summary = run_benchmark(cfg)
    assert (out / "trace_f1-semiA.csv").exists()
    assert (out / "trace_ladmm.csv").exists()
    assert (out / "summary.json").exists()
    assert set(summary["methods"]) == {"f1-semiA", "ladmm"}


def test_composite_instance_with_a_known_saddle_reads_its_composite_objective_there(tmp_path,
                                                                                     monkeypatch):
    # criterion 2's composite instance (B = -I, b = 0, a shifted l1 g-block)
    # with its planted saddle: run_benchmark used to read the estimate of an
    # optimum that it never formed, and raise UnboundLocalError
    n = 8
    rng = np.random.default_rng(7)
    P = spd_matrix(rng, n, 1.0)
    A = rng.standard_normal((n, n))
    x_star = rng.standard_normal(n)
    lam_star = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y_star = A @ x_star
    p = -(P @ x_star + A.T @ lam_star)
    f = QuadraticProx(P, p)
    bundle = bench._bundle(f, (f, SquaredL2(0.0)), ShiftedL1(y_star - lam_star, 1.0),
                           DenseOperator(A), negated_identity(n), np.zeros(n), x_star,
                           saddle=SaddlePoint(x_star, y_star, lam_star))
    monkeypatch.setattr(bench, "generate_problem", lambda config: bundle)
    summary = run_benchmark(RunConfig(problem="lad-case1", m=n, n=n, iters=50,
                                      methods=("f1-semiA", "pdhg"), out=str(tmp_path)))
    prox_form = bundle.prox_form
    assert prox_form.composite
    # P* is P at the saddle's x, which is F at the saddle
    assert summary["composite_star"] == prox_form.f_saddle == summary["fstar"]
    for tag in ("f1-semiA", "pdhg"):
        entry = summary["methods"][tag]
        assert entry["composite_final"] >= summary["composite_star"] - 1e-9, tag
        assert 0.0 <= entry["composite_rel_final"] < 1.0, tag


def test_quadratic_fstar_uncertainty_tiny(tmp_path):
    cfg = RunConfig(problem="quadratic-synthetic", m=6, n=6, iters=10,
                    methods=("f1-semiB",), out=str(tmp_path / "q"))
    summary = run_benchmark(cfg)
    assert summary["fstar_uncertainty"] <= 1e-6


def test_method_failure_recorded_without_aborting(tmp_path, monkeypatch):
    # the quadratic instance has an exact optimum, so no reference run
    # needs the multiplier step that fails here
    def fail(*args):
        raise RuntimeError("step failed")

    monkeypatch.setattr(baselines, "step_ladmm", fail)
    cfg = RunConfig(problem="quadratic-synthetic", m=5, n=5, iters=10,
                    methods=("ladmm", "f1-semiA"), out=str(tmp_path / "f"))
    summary = run_benchmark(cfg)
    assert summary["methods"]["ladmm"] == {"error": "RuntimeError: step failed"}
    assert "error" not in summary["methods"]["f1-semiA"]
    for block in summary["methods"]["f1-semiA"]["blocks"].values():
        assert block["cap_hits"] == 0
        assert block["worst_cap_residual"] is None
    assert (tmp_path / "f" / "trace_f1-semiA.csv").exists()


def test_summary_records_inner_loop_cap_hits(tmp_path):
    # svm-elastic's B-sided steps exhaust the inner loop a few times; each
    # hit is counted in its method's blocks and its warning still arrives
    hits, worst = 0, []
    with pytest.warns(InnerLoopCapWarning) as caught:
        for seed in (0, 1):
            out = tmp_path / f"s{seed}"
            run_benchmark(RunConfig(problem="svm-elastic", m=30, n=80, seed=seed, iters=300,
                                    methods=("f1-semiB", "f2-semiB"), out=str(out)))
            for entry in json.loads((out / "summary.json").read_text())["methods"].values():
                for block in entry["blocks"].values():
                    hits += block["cap_hits"]
                    if block["cap_hits"]:
                        worst.append(block["worst_cap_residual"])
    assert hits == len(caught) == 5
    # the recorded worst residual is the one the warnings print (.3e)
    assert f"{max(worst):.3e}" == f"{max(printed_cap_residuals(caught)):.3e}"
    assert 1e-10 < max(worst) < 1e-8


def test_method_entry_holds_what_the_trace_recorded_and_no_copy(tmp_path, monkeypatch):
    # no field derived from the entry's blocks or repeated from the summary;
    # final_sparsity is the last row's, which counts the run's last x, also
    # where the run steps in the quadratic blocks' eigenbasis
    finals = {}

    def recording(bundle, tag, iters):
        trace, x_final = _run_method(bundle, tag, iters)
        finals[tag] = x_final
        return trace, x_final

    monkeypatch.setattr(bench, "_run_method", recording)
    # every problem kind: each form says whether it is composite (B = -I,
    # b = 0), and pdhg runs exactly on the composite kinds
    for problem, composite in (("quadratic-synthetic", False), ("lad-case1", True),
                               ("lad-case2", True), ("svm-l1", False), ("svm-elastic", False)):
        cfg = RunConfig(problem=problem, m=20, n=60, seed=3, iters=40, methods=METHOD_TAGS,
                        out=str(tmp_path / problem))
        bundle = generate_problem(cfg)
        if problem == "quadratic-synthetic":
            assert bundle.prox_form.eigenbasis[0] is not bundle.prox_form
        summary = run_benchmark(cfg)
        assert set(summary) == {"config", "fstar", "fstar_uncertainty", "methods"} | (
            {"composite_star"} if composite else set())
        ran = {tag: entry for tag, entry in summary["methods"].items() if "skipped" not in entry}
        assert set(ran) == set(METHOD_TAGS) - ({"pdhg"} if not composite else set())
        assert bundle.prox_form.composite == bundle.split_form.composite == ("pdhg" in ran)
        extra = {"composite_final", "composite_rel_final"} if composite else set()
        for tag, entry in ran.items():
            assert set(entry) == {"checkpoints", "final_sparsity", "trace", "blocks"} | extra, tag
            assert entry["final_sparsity"] == sparsity(finals[tag]), tag


def test_cli_records_inapplicable_method_as_skipped(tmp_path, capsys):
    # pdhg needs B = -I and b = 0; the svm instance has a nonzero b
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"problem": "svm-l1", "m": 10, "n": 30, "iters": 5}))
    out = tmp_path / "svm"
    code = main(["--config", str(cfg_file), "--method", "pdhg", "--out", str(out)])
    assert code == 0
    assert "0 methods ok, 1 skipped, 0 failed" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["methods"]["pdhg"]) == {"skipped"}
    assert not (out / "trace_pdhg.csv").exists()


def test_relative_columns_start_at_one(tmp_path):
    cfg = RunConfig(problem="lad-case1", m=20, n=60, iters=50,
                    methods=("f1-semiA",), out=str(tmp_path / "r"))
    summary = run_benchmark(cfg)
    cps = summary["methods"]["f1-semiA"]["checkpoints"]
    assert cps[0]["k"] == 0 and cps[0]["obj_rel"] == 1.0


def test_end_to_end_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = RunConfig(problem="lad-case1", m=15, n=40, iters=30,
                        methods=("f1-semiA",), out=str(out))
        run_benchmark(cfg)
        outs.append((out / "trace_f1-semiA.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_end_to_end(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "problem": "lad-case1", "m": 15, "n": 40, "iters": 25,
        "methods": "f1-semiA,ladmm"}))
    out = tmp_path / "cli"
    code = main(["--config", str(cfg_file), "--seed", "3", "--out", str(out)])
    assert code == 0
    assert "2 methods ok" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == 3          # flag override
    assert summary["config"]["iters"] == 25        # file value kept


def test_cli_config_methods_as_list(tmp_path):
    cfg_file = tmp_path / "list.json"
    cfg_file.write_text(json.dumps({"problem": "lad-case1", "m": 10, "n": 30, "iters": 5,
                                    "methods": ["ladmm", "f1-semiB"]}))
    out = tmp_path / "list"
    assert main(["--config", str(cfg_file), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["methods"] == ["ladmm", "f1-semiB"]
    assert set(summary["methods"]) == {"ladmm", "f1-semiB"}


def test_run_benchmark_rejects_invalid_config_before_writing(tmp_path):
    out = tmp_path / "never"
    with pytest.raises(ValueError, match="unknown method 'nope'"):
        run_benchmark(RunConfig(m=5, n=8, methods=("nope",), out=str(out)))
    assert not out.exists()


def test_cli_flag_overrides_methods(tmp_path):
    out = tmp_path / "m"
    code = main(["--method", "ladmm", "--iters", "5",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert list(summary["methods"]) == ["ladmm"]


def test_cli_rejects_unknown_config_key(tmp_path):
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(json.dumps({"mystery": 1}))
    with pytest.raises(ValueError, match="mystery"):
        main(["--config", str(cfg_file), "--out", str(tmp_path / "x")])


def test_cli_refuses_a_config_key_that_is_not_a_field(tmp_path):
    # validate is a method of RunConfig, not a field; it used to die with a TypeError
    cfg_file = tmp_path / "validate.json"
    cfg_file.write_text(json.dumps({"validate": 1}))
    with pytest.raises(ValueError, match="unknown config key 'validate'"):
        main(["--config", str(cfg_file), "--out", str(tmp_path / "x")])
    assert not (tmp_path / "x").exists()


def test_cli_refuses_a_config_file_that_is_not_a_json_object(tmp_path):
    # a list used to die with an AttributeError
    cfg_file = tmp_path / "list.json"
    cfg_file.write_text(json.dumps([{"iters": 5}]))
    with pytest.raises(ValueError, match=re.escape(f"config file {str(cfg_file)!r} must hold a JSON "
                                                   "object, not a list")):
        main(["--config", str(cfg_file), "--out", str(tmp_path / "x")])
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("methods", [None, 5])
def test_cli_refuses_methods_that_are_not_a_sequence(tmp_path, methods):
    # both used to die with a TypeError from tuple(methods)
    cfg_file = tmp_path / "methods.json"
    cfg_file.write_text(json.dumps({"methods": methods}))
    with pytest.raises(ValueError, match=f"methods must be a sequence of tags, not {methods!r}"):
        main(["--config", str(cfg_file), "--out", str(tmp_path / "x")])
    assert not (tmp_path / "x").exists()


def test_generate_problem_dispatch():
    for kind in ("lad-case1", "lad-case2", "svm-l1", "svm-elastic"):
        cfg = RunConfig(problem=kind, m=10, n=30, iters=1)
        bundle = generate_problem(cfg)
        assert bundle.prox_form.A.shape == (10, 30)


@pytest.mark.parametrize("kind, mu", [("lad-case1", 0.0), ("lad-case2", 0.1),
                                      ("svm-l1", 0.0), ("svm-elastic", 0.05)])
def test_squared_norm_smooth_traces_match_dense_form(kind, mu):
    bundle = generate_problem(RunConfig(problem=kind, m=20, n=60, seed=0))
    split = bundle.split_form
    dense = QuadraticProx(mu * np.eye(split.dim_x))
    assert split.f_smooth.lipschitz == dense.lipschitz
    assert split.f_smooth.strong_convexity == dense.strong_convexity
    if kind.startswith("lad"):
        assert dense.lipschitz == dense.strong_convexity == mu
    dense_form = SeparableProblem((dense, split.f_prox), split.g, split.A, split.B, split.b)
    for tag in ("f2-semiA", "f2-explicit"):
        csv = []
        for form in (split, dense_form):
            bundle.split_form = form
            trace, _ = _run_method(bundle, tag, 100)
            for row in trace.rows:
                row.seconds = None
            csv.append(trace.to_csv_string())
        assert csv[0] == csv[1], tag


def test_lad_generator_allocates_no_dense_square():
    # one n-by-n float array at n = 1000 is 8 MB
    tracemalloc.start()
    try:
        generate_lad(100, 1000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("seed", range(6))
def test_quadratic_schemes_certify_on_a_seed_panel(seed):
    # the check perfbench applies to every quad-saddle operation, at a smaller size
    bundle = generate_quadratic(20, 60, seed)
    inputs = LyapunovInputs(bundle.prox_form.saddle, bundle.f_star)
    for tag in SCHEME_TAGS:
        trace, _ = _run_method(bundle, tag, 300)
        assert certify_bounds(trace, inputs).clean(slack=1e-8), (tag, seed)


ROOT = Path(__file__).resolve().parent.parent
THREADS_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[2])
import sweep
from pdsplit.bench import METHOD_TAGS, RunConfig, run_benchmark
run_benchmark(RunConfig(problem="lad-case1", m=30, n=80, seed=0, methods=METHOD_TAGS,
                        iters=300, out=sys.argv[1]))
print(json.dumps(sweep.environment()))
"""


def test_trace_bytes_match_across_blas_thread_counts(tmp_path):
    # byte-identity is promised for one numpy, BLAS and thread count; at this
    # size the products stay on one thread, so the bytes match across counts too
    traces = {}
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        child = subprocess.run([sys.executable, "-c", THREADS_CHILD, str(out), str(ROOT / "tools")],
                               env=env, capture_output=True, text=True, check=True)
        assert json.loads(child.stdout.splitlines()[-1])["blas_threads"] in (threads, None)
        traces[threads] = {p.name: p.read_bytes() for p in sorted(out.glob("trace_*.csv"))}
    assert len(traces[1]) == len(METHOD_TAGS)
    assert traces[1] == traces[2]
