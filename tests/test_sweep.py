"""The sweep script's comparison of two output directories of trace CSVs."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

SWEEP = Path(__file__).resolve().parent.parent / "tools" / "sweep.py"
HEADER = "k,theta,alpha,obj,feas,gap,lyap,sparsity,seconds\n"


def _sweep():
    spec = importlib.util.spec_from_file_location("sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root, name, rows):
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(HEADER + "".join(row + "\n" for row in rows))


def test_compare_reports_identity_and_largest_differences(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    same = ["0,1.0,,10.0,2.0,,,5,", "1,0.5,0.5,8.0,1.0,,,4,"]
    for root in (parent, change):
        _write(root, "lad-case1-seed0/trace_ladmm.csv", same)
    _write(parent, "lad-case1-seed0/trace_f1-semiA.csv",
           ["0,1.0,,10.0,2.0,4.0,8.0,5,", "1,0.5,0.25,8.0,1.0,2.0,4.0,4,"])
    _write(change, "lad-case1-seed0/trace_f1-semiA.csv",
           ["0,1.0,,10.0,2.0,4.0,8.0,5,", "1,0.5000005,0.25,8.01,1.002,2.0,4.0,6,"])
    _write(parent, "svm-l1-seed1/trace_f1-semiB.csv", same)
    _write(change, "svm-l1-seed1/trace_f1-semiB.csv", same[:1])

    sweep = _sweep()
    result = sweep.compare(parent, change)
    sweep.report(result)

    assert (result["identical"], result["total"]) == (1, 2 + 1)
    differing = ["lad-case1-seed0/trace_f1-semiA.csv", "svm-l1-seed1/trace_f1-semiB.csv"]
    assert result["differing"] == differing
    out = capsys.readouterr().out
    assert "".join(f"differs: {name}\n" for name in differing) in out
    cols = result["columns"]
    assert cols["theta"][0] == pytest.approx(1e-6)          # relative to 0.5
    assert cols["theta"][1] == "lad-case1-seed0/trace_f1-semiA.csv k=1"
    assert cols["obj"][0] == pytest.approx(0.01 / 10.0)     # relative to row 0
    assert cols["feas"][0] == pytest.approx(0.002 / 2.0)
    assert cols["sparsity"][0] == 2.0
    assert cols["alpha"][0] == cols["gap"][0] == cols["lyap"][0] == 0.0
    assert result["mismatched"] == ["svm-l1-seed1/trace_f1-semiB.csv: rows differ in k (2 vs 1 rows)"]


def test_compare_flags_missing_csv_and_empty_field(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write(parent, "quadratic-synthetic-seed0/trace_pdhg.csv", ["0,1.0,,1.0,1.0,,,0,"])
    _write(parent, "quadratic-synthetic-seed0/trace_f2-semiA.csv", ["0,1.0,,1.0,1.0,0.5,,0,"])
    _write(change, "quadratic-synthetic-seed0/trace_f2-semiA.csv", ["0,1.0,,1.0,1.0,,,0,"])

    result = _sweep().compare(parent, change)

    assert result["columns"]["gap"][0] == float("inf")
    assert result["differing"] == ["quadratic-synthetic-seed0/trace_f2-semiA.csv"]
    assert result["mismatched"] == [f"quadratic-synthetic-seed0/trace_pdhg.csv: missing in {change}"]


def _write_summary(root, name, fstar, uncertainty=0.0, methods=None):
    path = root / name / "summary.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    summary = {"config": {"out": str(path.parent), "seed": 0}, "fstar": fstar,
               "fstar_uncertainty": uncertainty, "methods": methods or {}}
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def test_compare_counts_summaries_identical_apart_from_out(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        _write_summary(root, "lad-case1-seed0", 1.5)
    _write_summary(parent, "svm-l1-seed0", 2.0)
    _write_summary(change, "svm-l1-seed0", 2.0000000000000004)
    _write_summary(parent, "svm-l1-seed1", 3.0)

    sweep = _sweep()
    result = sweep.compare(parent, change)
    sweep.report(result)

    out = capsys.readouterr().out
    assert "summary.json without config.out, byte-identical: 1 of 3\ndiffers: svm-l1-seed0/summary.json\n" in out
    assert (result["summaries_identical"], result["summaries_total"]) == (1, 3)
    assert result["summaries_differing"] == ["svm-l1-seed0/summary.json"]
    assert result["mismatched"] == [f"svm-l1-seed1/summary.json: missing in {change}"]
    assert (result["identical"], result["total"], result["differing"]) == (0, 0, [])


def test_compare_reports_largest_fstar_differences(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write_summary(parent, "lad-case1-seed0", 2.0, 1e-6)
    _write_summary(change, "lad-case1-seed0", 2.000002, 1e-6)
    _write_summary(parent, "svm-l1-seed1", -4.0, 2e-6)
    _write_summary(change, "svm-l1-seed1", -4.000002, 3e-6)
    _write_summary(parent, "quadratic-synthetic-seed0", 1.0)
    _write_summary(change, "quadratic-synthetic-seed0", 1.0)

    sweep = _sweep()
    result = sweep.compare(parent, change)
    sweep.report(result)

    fields = result["summary_fields"]
    assert fields["fstar"][0] == pytest.approx(1e-6)        # relative to 2.0
    assert fields["fstar"][1] == "lad-case1-seed0/summary.json"
    assert fields["fstar_uncertainty"][0] == pytest.approx(0.5)
    assert fields["fstar_uncertainty"][1] == "svm-l1-seed1/summary.json"
    out = capsys.readouterr().out
    assert "fstar               1.00e-06  own value     lad-case1-seed0/summary.json\n" in out
    assert "fstar_uncertainty   5.00e-01  own value     svm-l1-seed1/summary.json\n" in out
    assert result["summaries_identical"] == 1 and result["mismatched"] == []


def _blocks(f_hits, f_declines, g_hits=0):
    return {"f": {"path": "closed", "declines": f_declines, "cap_hits": f_hits},
            "g": {"path": "merge", "declines": 0, "cap_hits": g_hits}}


def test_compare_reports_composite_final_and_cap_hits(tmp_path, capsys):
    # neither figure is in a trace CSV, so the CSVs alone would not show them move;
    # the totals are over the methods' blocks, a failed method's entry having none
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write_summary(parent, "lad-case1-seed0", 1.0, methods={
        "f1-semiA": {"composite_final": 4.0, "blocks": _blocks(2, 0)},
        "f1-semiB": {"composite_final": 8.0, "blocks": _blocks(0, 1, g_hits=1)},
        "pdhg": {"composite_final": 5.0, "blocks": _blocks(0, 0)}})
    _write_summary(change, "lad-case1-seed0", 1.0, methods={
        "f1-semiA": {"composite_final": 4.0000004, "blocks": _blocks(0, 0)},
        "f1-semiB": {"composite_final": 8.0000016, "blocks": _blocks(1, 2)},
        "pdhg": {"error": "RuntimeError: step failed"}})
    _write_summary(parent, "quadratic-synthetic-seed0", 1.0, methods={
        "f2-semiB": {"blocks": _blocks(3, 3)}})
    _write_summary(change, "quadratic-synthetic-seed0", 1.0, methods={
        "f2-semiB": {"blocks": _blocks(3, 5)}})

    sweep = _sweep()
    result = sweep.compare(parent, change)
    sweep.report(result)

    diff, where = result["summary_fields"]["composite_final"]
    assert diff == pytest.approx(2e-7)                       # 1.6e-6 relative to 8.0
    assert where == "lad-case1-seed0/summary.json f1-semiB"
    assert result["cap_hits"] == (6, 4)
    out = capsys.readouterr().out
    assert "composite_final     2.00e-07  own value     lad-case1-seed0/summary.json f1-semiB\n" in out
    assert "cap_hits, parent then change: 6 4\n" in out
    assert result["declines"] == (4, 7)
    assert "declines, parent then change: 4 7\n" in out
    assert result["summaries_identical"] == 0 and result["mismatched"] == []


def test_compare_names_each_summary_that_differs_in_its_blocks_alone(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root, declines in ((parent, 1), (change, 2)):
        _write_summary(root, "svm-elastic-seed0", 1.0, methods={"f1-semiB": {"blocks": _blocks(0, 0)}})
        _write_summary(root, "svm-elastic-seed1", 1.0, methods={"f1-semiB": {"blocks": _blocks(0, declines)}})

    sweep = _sweep()
    result = sweep.compare(parent, change)
    sweep.report(result)

    assert (result["summaries_identical"], result["summaries_total"]) == (1, 2)
    assert result["summaries_differing"] == ["svm-elastic-seed1/summary.json"]
    assert "byte-identical: 1 of 2\ndiffers: svm-elastic-seed1/summary.json\n" in capsys.readouterr().out


def test_compare_counts_flow_trajectories(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        (root / "flow").mkdir(parents=True)
        (root / "flow" / "quadratic-seed0.csv").write_text("t,E\n0.0,1.5\n")
    (parent / "flow" / "quadratic-seed1.csv").write_text("t,E\n0.0,2.5\n")
    (change / "flow" / "quadratic-seed1.csv").write_text("t,E\n0.0,2.5000000000000004\n")

    sweep = _sweep()
    result = sweep.compare(parent, change)
    sweep.report(result)

    assert (result["flows_identical"], result["flows_total"]) == (1, 2)
    assert result["flows_differing"] == ["flow/quadratic-seed1.csv"]
    out = capsys.readouterr().out
    assert "flow trajectories byte-identical: 1 of 2\ndiffers: flow/quadratic-seed1.csv\n" in out
    assert (result["identical"], result["total"], result["mismatched"]) == (0, 0, [])


def test_write_flows_writes_one_full_trajectory_per_seed(tmp_path):
    paths = _sweep().write_flows(tmp_path)

    assert [p.relative_to(tmp_path).as_posix() for p in paths] == [
        "flow/quadratic-seed0.csv", "flow/quadratic-seed1.csv"]
    for path in paths:
        lines = path.read_text().splitlines()
        assert lines[0] == "t,E,feas,obj_gap,theta,gamma,beta"
        assert len(lines) == 1 + 501                     # t = 0, 1e-3, ..., 0.5
        assert all(row.split(",")[1] and row.split(",")[3] for row in lines[1:])


def test_compare_names_an_environment_mismatch_before_any_byte_difference(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write(parent, "lad-case1-seed0/trace_ladmm.csv", ["0,1.0,,10.0,2.0,,,5,"])
    _write(change, "lad-case1-seed0/trace_ladmm.csv", ["0,1.0,,10.000000000000002,2.0,,,5,"])
    sweep = _sweep()
    stamp = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31", "blas_threads": 1}
    (parent / "environment.json").write_text(json.dumps(stamp))

    result = sweep.compare(parent, change)
    assert result["environments"] == [stamp, None]
    assert result["environment_mismatch"] == [f"environment.json: missing in {change}"]

    (change / "environment.json").write_text(json.dumps(dict(stamp, blas_threads=2)))
    result = sweep.compare(parent, change)
    sweep.report(result)

    assert result["environment_mismatch"] == ["blas_threads: parent 1, change 2"]
    out = capsys.readouterr().out
    assert out.startswith(f"environment, parent: {json.dumps(stamp)}\n"
                          f"environment, change: {json.dumps(dict(stamp, blas_threads=2))}\n"
                          "ENVIRONMENT MISMATCH blas_threads: parent 1, change 2\n"
                          "byte-identical: 0 of 1 CSVs\n")
    (change / "environment.json").write_text(json.dumps(stamp))
    assert sweep.compare(parent, change)["environment_mismatch"] == []


def test_environment_reads_numpy_blas_and_its_thread_count():
    stamp = _sweep().environment()
    assert list(stamp) == ["numpy", "blas", "blas_threads"]
    assert stamp["numpy"] == np.__version__
    assert stamp["blas_threads"] is None or stamp["blas_threads"] >= 1
