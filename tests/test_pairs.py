"""tools/pairs.py on two stub trees whose perfbench/run.py prints fixed lines."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"

# seed 7 prints Infinity, seed 8 a line after its result, seed 9 exits 3;
# the env line carries the directory the run started in
STUB = '''
import argparse, json, os
ap = argparse.ArgumentParser()
ap.add_argument("--workload"); ap.add_argument("--seconds"); ap.add_argument("--seed", type=int)
a = ap.parse_args()
print("env " + json.dumps({"nproc": 2, "python": "3.x", "numpy": "2.x", "blas": "b", "seed": a.seed,
                              "cwd": os.getcwd()}))
print("setup_s   1 s")
if a.seed == 9:
    raise SystemExit(3)
value = "Infinity" if a.seed == 7 else repr(SETUP + a.seed / 1000)
print('{"attempted": 4, "correct": true, "failed": 0, "metrics": {"setup_s": {"unit": "s", '
      '"value": %s}, "iter_per_s": {"unit": "1/s", "value": %r}}}' % (value, RATE))
if a.seed == 8:
    print("stray output")
'''


def _pairs():
    spec = importlib.util.spec_from_file_location("pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark(root, run_seconds=2):
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": run_seconds, "end_to_end": [
        {"name": "setup_s", "better": "lower"}, {"name": "iter_per_s", "better": "higher"}]}))


def _tree(root, setup, rate):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(f"SETUP, RATE = {setup!r}, {rate!r}\n" + STUB)
    _benchmark(root)
    return root


@pytest.fixture
def trees(tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    return (_tree(tmp_path / "parent", 0.010, 100.0), _tree(tmp_path / "change", 0.005, 90.0),
            out)


def _main(trees, workload, seeds):
    parent, change, _ = trees
    _pairs().main([str(parent), str(change), "--workload", workload, "--seeds", seeds,
                   "--names", "aaa", "bbb"])


def test_records_alternating_pairs_and_appends_across_workloads(trees, capsys):
    _main(trees, "quad-saddle", "1-3")
    printed = capsys.readouterr().out
    assert "setup_s" in printed and "3/3" in printed and "0/3" in printed
    _main(trees, "lad-large", "4-5")
    out = trees[2]
    parent = json.loads((out / "BENCH_aaa.json").read_text())
    change = json.loads((out / "BENCH_bbb.json").read_text())
    assert (parent["commit"], parent["paired_with"]) == ("aaa", "bbb")
    assert (change["commit"], change["paired_with"]) == ("bbb", "aaa")
    assert list(parent) == ["command", "commit", "paired_with", "runs", "source"]
    assert "--seconds 2" in parent["command"]   # the change tree's run_seconds
    assert [(r["workload"], r["seed"], r["pair"], r["ran_first"]) for r in parent["runs"]] == [
        ("quad-saddle", 1, 0, True), ("quad-saddle", 2, 1, False), ("quad-saddle", 3, 2, True),
        ("lad-large", 4, 0, True), ("lad-large", 5, 1, False)]
    assert [r["ran_first"] for r in change["runs"]] == [False, True, False, False, True]
    run = change["runs"][0]
    assert run["env"]["seed"] == 1 and run["result"]["metrics"]["setup_s"]["value"] == 0.006


def test_each_side_runs_from_both_slots_in_both_orders_never_from_its_own_path(trees):
    # the second call resumes at pair 3, mid-way through a block of four
    _main(trees, "quad-saddle", "10-12")
    _main(trees, "quad-saddle", "13-17")
    parent, change, out = trees
    runs = {side: json.loads((out / f"BENCH_{name}.json").read_text())["runs"]
            for side, name in (("parent", "aaa"), ("change", "bbb"))}
    cwds = {Path(run["env"]["cwd"]) for side in runs for run in runs[side]}
    assert {cwd.name for cwd in cwds} == {"slot_a", "slot_b"}
    assert len({len(str(cwd)) for cwd in cwds}) == 1
    assert not any(cwd.parent.exists() for cwd in cwds)   # removed after each call
    assert parent not in cwds and change not in cwds
    for side, setup in (("parent", 0.010), ("change", 0.005)):
        for run in runs[side]:
            assert Path(run["env"]["cwd"]).name == run["slot"]
            # the slot held this side's tree: its stub prints its own set-up time
            assert run["result"]["metrics"]["setup_s"]["value"] == setup + run["seed"] / 1000
        for start in (0, 4):
            block = runs[side][start:start + 4]
            assert sorted((r["slot"], r["ran_first"]) for r in block) == [
                ("slot_a", False), ("slot_a", True), ("slot_b", False), ("slot_b", True)]
    # in every pair the two sides hold different slots of the same directory
    for p, c in zip(runs["parent"], runs["change"]):
        assert p["slot"] != c["slot"]
        assert Path(p["env"]["cwd"]).parent == Path(c["env"]["cwd"]).parent


def test_summary_covers_every_recorded_pair_of_the_workload(trees, capsys):
    # a workload run in two calls, with another workload between them: the
    # second call's summary reads all 5 of its pairs, not only its own 3
    _main(trees, "quad-saddle", "1-2")
    _main(trees, "lad-large", "3-3")
    capsys.readouterr()
    _main(trees, "quad-saddle", "4-6")
    lines = capsys.readouterr().out.splitlines()
    assert "quad-saddle: 5 pairs, 3 of them in this call, bbb against aaa" in lines
    head = next(i for i, line in enumerate(lines) if line.startswith("metric"))
    rows = {line.split()[0]: line.split() for line in lines[head + 1:-1]}
    # parent set-up times 0.010 + seed / 1000 over seeds 1, 2, 4, 5 and 6
    assert rows["setup_s"][1] == "0.014" and rows["setup_s"][-2:] == ["5/5", "0.643"]
    assert rows["iter_per_s"][-2:] == ["0/5", "0.900"]


@pytest.mark.parametrize("seeds, pair, seed, cause", [
    ("5-7", 2, 7, "not strict JSON"),
    ("8-8", 0, 8, "1 line(s) printed after the result"),
    ("9-9", 0, 9, "exit status 3"),
])
def test_rejects_a_bad_run_naming_side_pair_seed_and_workload(trees, seeds, pair, seed, cause):
    with pytest.raises(SystemExit) as exc:
        _main(trees, "lad-inner", seeds)
    message = str(exc.value)
    side = "parent" if pair % 2 == 0 else "change"
    assert f"{side} run of pair {pair}, seed {seed}, workload lad-inner" in message
    assert cause in message
    kept = json.loads((trees[2] / "BENCH_aaa.json").read_text())["runs"] if pair else []
    assert [r["seed"] for r in kept] == list(range(5, 5 + pair))


def test_refuses_a_recorded_seed_or_another_seconds_before_running(trees):
    _main(trees, "quad-saddle", "1-2")
    before = (trees[2] / "BENCH_aaa.json").read_text()
    with pytest.raises(SystemExit, match=r"seeds \[2\] of workload quad-saddle are already recorded"):
        _main(trees, "quad-saddle", "2-3")
    _benchmark(trees[1], run_seconds=3)
    with pytest.raises(SystemExit, match="not --seconds 3"):
        _main(trees, "lad-large", "4-4")
    assert (trees[2] / "BENCH_aaa.json").read_text() == before
    _benchmark(trees[1])
    _main(trees, "lad-large", "2-2")
    runs = json.loads((trees[2] / "BENCH_bbb.json").read_text())["runs"]
    assert [(r["workload"], r["seed"], r["pair"]) for r in runs] == [
        ("quad-saddle", 1, 0), ("quad-saddle", 2, 1), ("lad-large", 2, 0)]


@pytest.mark.parametrize("seeds", ["5-4", "5", "a-b", "1-2-3"])
def test_refuses_a_reversed_or_malformed_seed_range_before_running(trees, seeds):
    # a reversed range used to run no pair and then fail in the summary
    with pytest.raises(SystemExit, match=f"--seeds must be a range A-B .*not '{seeds}'"):
        _main(trees, "quad-saddle", seeds)
    assert not (trees[2] / "BENCH_aaa.json").exists()


def test_summary_reads_each_median_ratio_against_its_bound():
    values = {"inside": (1.0, 1.1), "outside": (1.0, 1.2), "faster": (100.0, 150.0),
              "slower": (100.0, 70.0), "unbounded": (1.0, 3.0), "zero": (0.0, 0.0)}
    spec = {"inside": {"better": "lower", "bound": 0.25}, "outside": {"better": "lower", "bound": 0.1},
            "faster": {"better": "higher", "bound": 0.25}, "slower": {"better": "higher", "bound": 0.25},
            "zero": {"better": "lower", "bound": 0.25}}
    runs = [tuple({"failed": 0, "metrics": {name: {"value": pair[i] * (1 + k / 100)}
                                            for name, pair in values.items()}} for i in (0, 1))
            for k in range(3)]
    rows = {line.split()[0]: line for line in _pairs().summary(runs, spec)[1:-1]}
    assert rows["inside"].endswith("0/3  1.100 within bound 0.25")
    assert rows["outside"].endswith("0/3  1.200 OUTSIDE bound 0.1")
    assert rows["faster"].endswith("3/3  1.500 within bound 0.25")
    assert rows["slower"].endswith("0/3  0.700 OUTSIDE bound 0.25")
    assert rows["unbounded"].endswith("0/3  3.000")
    assert rows["zero"].endswith("0/3  1.000 within bound 0.25")   # flow_s of a workload without flows


def test_summary_reads_each_per_pair_ratio_by_the_pair_rule():
    # every pair's ratio is the same, so the per-pair range is 0 and a ratio
    # better than 1 in every pair resolves a gain, however small
    spread = (0.9, 1.0, 1.1)
    ratios = {"clears": 0.85, "short": 0.95, "worse": 1.05, "higher": 1.2, "higher_short": 1.05}
    spec = {"higher": {"better": "higher"}, "higher_short": {"better": "higher"}}
    runs = [tuple({"failed": 0, "metrics": {name: {"value": 100.0 * s * (ratio if i else 1.0)}
                                            for name, ratio in ratios.items()}} for i in (0, 1))
            for s in spread]
    lines = _pairs().summary(runs, spec)
    assert "parent IQR" not in lines[0] and " old " not in lines[0]
    # the per-pair ratio's median and range, the pair rule's reading, wins and the ratio
    rows = {line.split()[0]: line.split()[7:] for line in lines[1:-1]}
    assert rows["clears"] == ["0.850", "0.000", "gain", "3/3", "0.850"]
    assert rows["short"] == ["0.950", "0.000", "gain", "3/3", "0.950"]
    assert rows["worse"] == ["1.050", "0.000", "no-gain", "0/3", "1.050"]
    assert rows["higher"] == ["1.200", "0.000", "gain", "3/3", "1.200"]
    assert rows["higher_short"] == ["1.050", "0.000", "gain", "3/3", "1.050"]


def _rule_rows(parents, changes, band):
    """The pair rule's readings of ``iter_per_s`` (higher is better) and of
    ``bench_s`` (lower), paired parent and change values, against the A/A
    per-pair range ``band``."""
    runs = [tuple({"failed": 0, "metrics": {"iter_per_s": {"value": v}, "bench_s": {"value": 1.0 / v}}}
                  for v in pair) for pair in zip(parents, changes)]
    spec = {"iter_per_s": {"better": "higher"}, "bench_s": {"better": "lower"}}
    lines = _pairs().summary(runs, spec, band and {name: band for name in spec})
    return {line.split()[0]: line.split()[-3] for line in lines[1:-1]}


# ten seeds whose cost per iteration spans 2,900-3,900 iter/s, as lad-inner's
# do, and per-run timing noise of at most 1.5 %
COSTS = [2900.0, 3850.0, 3100.0, 3600.0, 3300.0, 3000.0, 3700.0, 3200.0, 3500.0, 3400.0]
NOISE = [0.0, 0.01, -0.01, 0.005, -0.005, 0.015, -0.015, 0.002, -0.002, 0.008]


def test_the_pair_rule_resolves_a_constant_gain_over_seeds_of_different_cost():
    # the change is x1.05 on every seed, under the same noise in another
    # order: the parent's range over the seeds (about 16 %) would hide it, the
    # per-pair ratio does not
    parents = [c * (1 + e) for c, e in zip(COSTS, NOISE)]
    changes = [1.05 * c * (1 + e) for c, e in zip(COSTS, reversed(NOISE))]
    rows = _rule_rows(parents, changes, band=0.04)
    assert rows == {"iter_per_s": "gain", "bench_s": "gain"}


def test_neither_rule_resolves_a_gain_between_sides_equal_in_distribution():
    # both sides draw the same noise over the same seeds, in another order
    parents = [c * (1 + e) for c, e in zip(COSTS, NOISE)]
    changes = [c * (1 + e) for c, e in zip(COSTS, reversed(NOISE))]
    rows = _rule_rows(parents, changes, band=0.04)
    assert rows == {"iter_per_s": "no-gain", "bench_s": "no-gain"}
    # nor when the pairs' own per-pair range stands in for a control's
    assert _rule_rows(parents, changes, band=None) == rows


def test_the_pair_rule_reads_no_band_narrower_than_the_pairs_own():
    # per-pair ratios 0.99-1.20: median 1.050, IQR 0.120, the change better in
    # 9 of 10; a control's band of 0.04 used to resolve this noisy session as a gain
    ratios = [0.99, 1.01, 1.02, 1.02, 1.04, 1.06, 1.11, 1.15, 1.18, 1.20]
    changes = [c * r for c, r in zip(COSTS, ratios)]
    assert _rule_rows(COSTS, changes, band=0.04) == {"iter_per_s": "no-gain", "bench_s": "no-gain"}
    # a control's band wider than the pairs' own still holds: x1.05 in every
    # pair, whose own range is 0, does not clear a band of 0.06
    steady = [1.05 * c for c in COSTS]
    assert _rule_rows(COSTS, steady, band=0.04) == {"iter_per_s": "gain", "bench_s": "gain"}
    assert _rule_rows(COSTS, steady, band=0.06) == {"iter_per_s": "no-gain", "bench_s": "no-gain"}


def _aa_record(path, workload, values):
    """A recorded A/A side whose pairs 0, 1, ... of ``workload`` give ``setup_s`` ``values``,
    then a pair of another workload, which no reading of ``workload`` may take."""
    runs = [{"workload": name, "pair": pair, "result": {"metrics": {"setup_s": {"value": v}}}}
            for name, pair, v in [*((workload, *item) for item in enumerate(values)),
                                  ("elsewhere", 0, 99.0)]]
    path.write_text(json.dumps({"runs": runs}))


def _aa_values(control):
    """The name of an A/A control and the ``setup_s`` values of its paired runs."""
    name, runs = control
    return name, [tuple(run["result"]["metrics"]["setup_s"]["value"] for run in pair)
                  for pair in runs]


def test_summary_reads_the_recorded_aa_band_of_the_workload(trees, capsys):
    out = trees[2]
    _aa_record(out / "BENCH_aa-0-quad-saddle-a.json", "quad-saddle", [1.0])   # earlier by name
    _aa_record(out / "BENCH_aa-0-quad-saddle-b.json", "quad-saddle", [9.0])
    _aa_record(out / "BENCH_aa-1-quad-saddle-a.json", "quad-saddle", [1.0, 2.0, 3.0])
    _aa_record(out / "BENCH_aa-1-quad-saddle-b.json", "quad-saddle", [1.1, 2.5, 3.0])
    _aa_record(out / "BENCH_aa-2-lad-inner-a.json", "lad-inner", [1.0])   # another workload
    _aa_record(out / "BENCH_aa-2-lad-inner-b.json", "lad-inner", [7.0])
    _main(trees, "quad-saddle", "1-3")
    lines = capsys.readouterr().out.splitlines()
    head = lines.index("A/A: per-pair ratio ranges of BENCH_aa-1-quad-saddle-a.json and its -b")
    assert lines[head + 1].split()[11:15] == ["pair", "IQR", "A/A", "IQR"]
    rows = {line.split()[0]: line.split()[9] for line in lines[head + 2:-1]}
    # per-pair ratios 1.1, 1.25 and 1.0: quartiles 1.05 and 1.175; a metric
    # the control did not record reads "-"
    assert rows["setup_s"] == "0.125" and rows["iter_per_s"] == "-"


def test_summary_has_no_aa_column_without_a_recorded_control(trees, capsys):
    _aa_record(trees[2] / "BENCH_aa-zzz-lad-inner-a.json", "lad-inner", [1.0])
    _aa_record(trees[2] / "BENCH_aa-zzz-lad-inner-b.json", "lad-inner", [7.0])
    _main(trees, "quad-saddle", "1-3")
    printed = capsys.readouterr().out
    assert "A/A" not in printed


def test_aa_band_reads_the_newest_control_not_the_last_by_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def git(*args, when="2000-01-01T00:00:00Z"):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.invalid", *args],
                       check=True, capture_output=True,
                       env=dict(os.environ, GIT_AUTHOR_DATE=when, GIT_COMMITTER_DATE=when))

    def control(name, step):
        # per-pair ratios 1, 1 + step and 1 + 2 step: a per-pair range of step
        _aa_record(tmp_path / f"BENCH_aa-{name}-lad-inner-a.json", "lad-inner", [1.0] * 3)
        _aa_record(tmp_path / f"BENCH_aa-{name}-lad-inner-b.json", "lad-inner",
                   [1.0, 1.0 + step, 1.0 + 2 * step])

    git("init", "-q", ".")
    for name, when, step in (("zzz", "2001-01-01T00:00:00Z", 0.3),
                             ("aaa", "2002-01-01T00:00:00Z", 0.2)):   # newer, first by name
        control(name, step)
        git("add", ".")
        git("commit", "-q", "-m", name, when=when)
    assert _aa_values(_pairs().aa_band("lad-inner")) == ("BENCH_aa-aaa-lad-inner-a.json",
                                                         [(1.0, 1.0), (1.0, 1.2), (1.0, 1.4)])
    # an uncommitted control is newer than any committed one
    control("mmm", 0.5)
    assert _aa_values(_pairs().aa_band("lad-inner")) == ("BENCH_aa-mmm-lad-inner-a.json",
                                                         [(1.0, 1.0), (1.0, 1.5), (1.0, 2.0)])


def test_an_aa_call_reads_the_control_before_its_own(trees, capsys):
    # the call's own files would be the newest control; the one before it is read
    out = trees[2]
    _aa_record(out / "BENCH_aa-old-quad-saddle-a.json", "quad-saddle", [1.0, 1.0, 1.0])
    _aa_record(out / "BENCH_aa-old-quad-saddle-b.json", "quad-saddle", [1.0, 2.0, 3.0])
    parent, change, _ = trees
    _pairs().main([str(parent), str(change), "--workload", "quad-saddle", "--seeds", "1-3",
                   "--names", "aa-zzz-quad-saddle-a", "aa-zzz-quad-saddle-b"])
    lines = capsys.readouterr().out.splitlines()
    assert "A/A: per-pair ratio ranges of BENCH_aa-old-quad-saddle-a.json and its -b" in lines
    written = [Path("BENCH_aa-zzz-quad-saddle-a.json"), Path("BENCH_aa-zzz-quad-saddle-b.json")]
    assert _aa_values(_pairs().aa_band("quad-saddle", written)) == (
        "BENCH_aa-old-quad-saddle-a.json", [(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)])
    # named by no call, the new control is the newest
    assert _pairs().aa_band("quad-saddle")[0] == "BENCH_aa-zzz-quad-saddle-a.json"
