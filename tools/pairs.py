"""Run perfbench in alternating pairs on two source trees and record both sides.

    python3 tools/pairs.py PARENT CHANGE --workload quad-saddle --seeds 600-611 \
        --names 7452456 1a2b3c4

PARENT and CHANGE are two checkouts of pdsplit (for example two git
archives).  Pair i runs ``python3 perfbench/run.py --workload W --seconds S
--seed N`` in both trees on the same seed N, the parent first in even pairs
and the change first in odd ones; S is ``run_seconds`` from CHANGE's
``BENCHMARK.json``, the run length the benchmark itself uses.  Where a tree
sits can move its timings, so neither runs from its own path: each is
copied (without ``.git`` and ``__pycache__``) into one of two sibling slot
directories of a fresh temporary directory, ``slot_a`` and ``slot_b``,
whose paths have equal length.  The trees swap slots every second pair, so
over every four pairs each side runs once in each slot with each run order.
Each run's ``env`` line, its result (the last line of its output) and its
slot are kept.  A run is rejected, naming the side, pair, seed and
workload, when it exits non-zero, has no ``env`` line or no result, prints
anything after its result, or has a result that is not strict JSON
(``NaN`` or ``Infinity``, which perfbench writes for a failed operation's
time).

Each side's runs go to ``BENCH_<name>.json`` in the current directory,
with the names given by ``--names`` because an archive carries no commit.
A later call for another workload appends to the same two files, and its
pairs are numbered after the workload's runs already there.  A call whose
run length differs from the files' command, whose seeds include one
already recorded for the workload, whose ``--seeds`` is not a range
``A-B`` with ``A <= B``, whose two ``--names`` are equal (both sides
would write one file), or one of whose ``--names`` is empty or not a
plain file name (``a/b`` would have the file written into a directory
``BENCH_a``), is refused before anything runs.  The files are rewritten
after every pair, so a rejected run leaves the pairs before it recorded;
resume with the seeds after them.

At the end, per metric, over every pair of the workload that both files
record (this call's and earlier calls'), the script prints each side's
median and quartiles, the median and the interquartile range (q3 - q1) of
the per-pair ratio, the change's value over the parent's within each pair,
the pair rule's reading, in how many pairs the change was better, and the
ratio of the medians.  The pair rule: a gain is resolved (``gain``, else
``no-gain``) when the per-pair median is better than 1 by more than the
larger of two per-pair interquartile ranges, the pairs' own and the
newest A/A control's, and the change is better in at least 9 of 10 pairs
(a fraction 0.9 of them).  Without a recorded control the pairs' own
range alone is the band.  A metric whose change median is worse than the
parent's by more than its ``bound`` (a fraction of the parent's median)
is marked ``OUTSIDE``.  The direction and the bound are read from
CHANGE's ``BENCHMARK.json``.

When the current directory holds a recorded A/A control of the workload,
``BENCH_aa-<name>-<workload>-a.json`` and its ``-b.json``, the newest one
is read: the one whose ``-a`` file git last committed, an uncommitted one
newer still, and the last by name among equals or outside a git checkout,
skipping the two files the call itself writes.  Its per-pair ratio range
(``-b`` over ``-a`` in each of its pairs) is printed beside the pairs' own:
the spread that identical trees showed.  It can widen the rule's band but
never narrow it below the pairs' own, so a control recorded on another
host or in a quieter phase cannot make a noisy session read as a gain.

Given the same tree twice, with two different ``--names``, the script is
an A/A control: both copies run from the slots as above, and the summary
reads the spread that placement and run order alone give each metric.
"""

import argparse
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SOURCE = ("each side ran from a copy of its tree in a slot directory, so env.git_commit "
          "is null and env.source_sha256 names the sources")
SLOTS = ("slot_a", "slot_b")


class RejectedRun(Exception):
    pass


def _strict_constant(name):
    raise ValueError(f"{name} is not JSON")


def parse_run(stdout):
    """The ``env`` stamp and the result of one perfbench run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    if env is None:
        raise RejectedRun("no env line")
    starts = [i for i, line in enumerate(lines) if line.startswith("{")]
    if not starts:
        raise RejectedRun("no result line")
    if starts[-1] != len(lines) - 1:
        raise RejectedRun(f"{len(lines) - 1 - starts[-1]} line(s) printed after the result")
    try:
        result = json.loads(lines[-1], parse_constant=_strict_constant)
    except ValueError as exc:
        raise RejectedRun(f"result is not strict JSON: {exc}") from None
    return env, result


def run_one(tree, workload, seconds, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        raise RejectedRun(f"exit status {proc.returncode} {tail[0]}".rstrip())
    return parse_run(proc.stdout)


def slot_of(side, pair):
    """The slot ``side`` runs from in ``pair``: the parent holds ``slot_a``
    in pairs 0 and 1 of every four and ``slot_b`` in pairs 2 and 3."""
    held = (pair // 2) % 2
    return SLOTS[held if side == "parent" else 1 - held]


def swap_slots(base):
    """Exchange the trees in the two slots under ``base``."""
    (base / SLOTS[0]).rename(base / "swap")
    (base / SLOTS[1]).rename(base / SLOTS[0])
    (base / "swap").rename(base / SLOTS[1])


def load_record(path, name, other, seconds):
    command = f"python3 perfbench/run.py --workload WORKLOAD --seconds {seconds} --seed SEED"
    if not path.exists():
        return {"command": command, "commit": name, "paired_with": other, "source": SOURCE,
                "runs": []}
    record = json.loads(path.read_text())
    if (record["commit"], record["paired_with"]) != (name, other):
        raise SystemExit(f"{path} records {record['commit']} paired with "
                         f"{record['paired_with']}, not {name} with {other}")
    if record["command"] != command:
        raise SystemExit(f"{path} records runs of `{record['command']}`, not --seconds {seconds}")
    return record


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def _ratio(change, parent):
    return change / parent if parent else (1.0 if change == 0 else math.inf)


def _commit_time(path):
    """When ``path`` was last committed, in seconds since the epoch: inf when
    it is not committed, 0 outside a git checkout."""
    try:
        log = subprocess.run(["git", "log", "-1", "--format=%ct", "--", path.name],
                             cwd=path.parent, capture_output=True, text=True)
    except OSError:   # no git
        return 0.0
    if log.returncode:   # not a git checkout
        return 0.0
    return float(log.stdout) if log.stdout.strip() else math.inf


def _results(runs):
    """The (parent result, change result) pairs of recorded (parent run, change run) pairs."""
    return [(p["result"], c["result"]) for p, c in runs]


def pair_spread(runs, name):
    """The median and the interquartile range (q3 - q1) of the per-pair ratio
    of metric ``name``, change over parent, over ``runs``, a list of
    (parent result, change result) pairs."""
    median, q1, q3 = quartiles([_ratio(c["metrics"][name]["value"], p["metrics"][name]["value"])
                                for p, c in runs])
    return median, q3 - q1


def aa_band(workload, written=()):
    """The name of the newest recorded A/A control of ``workload`` in the
    current directory (its ``-a`` file) and its paired runs, a list of
    (``-a`` run, ``-b`` run) records; None when there is none.  The newest is
    the last committed, an uncommitted one newer still; name order breaks
    ties.  A control with a file in ``written``, the files the call records,
    is skipped, so an A/A call reads the control before its own."""
    controls = Path().glob(f"BENCH_aa-*-{workload}-a.json")
    for a in sorted(controls, key=lambda path: (_commit_time(path), path.name), reverse=True):
        b = a.with_name(a.name[:-len("a.json")] + "b.json")
        if not b.exists() or {a, b} & set(written):
            continue
        sides = [{run["pair"]: run for run in json.loads(path.read_text())["runs"]
                  if run["workload"] == workload} for path in (a, b)]
        runs = [(sides[0][pair], sides[1][pair]) for pair in sorted(sides[0]) if pair in sides[1]]
        if runs:
            return a.name, runs
    return None


def summary(runs, spec, band=None):
    """Lines of per-metric medians and quartiles, the per-pair ratio's median
    and range, the pair rule's reading, the change's wins and its median
    ratio to the parent's over ``runs``, a list of (parent result, change
    result) pairs; the module docstring states the rule.  ``spec`` maps a
    metric's name to its ``BENCHMARK.json`` entry, whose ``bound`` (when
    given) marks a worse ratio of the medians ``OUTSIDE``.  ``band``, when
    given, maps a metric to its A/A per-pair ratio range, printed after the
    pairs' own; the rule reads the larger of the two."""
    lines = [f"{'metric':14s} {'parent median [q1, q3]':>36s} {'change median [q1, q3]':>36s} "
             f"{'pair median':>12s} pair IQR{' A/A IQR' if band else ''} pair rule  "
             f"wins  change/parent"]
    for name in runs[0][0]["metrics"]:
        sides = [[r[i]["metrics"][name]["value"] for r in runs] for i in (0, 1)]
        entry = spec.get(name, {})
        sign = -1.0 if entry.get("better", "lower") == "higher" else 1.0
        wins = sum(sign * c < sign * p for p, c in zip(*sides))
        stats = [quartiles(vals) for vals in sides]
        cells = ["{:.4g} [{:.4g}, {:.4g}]".format(*q) for q in stats]
        ratio = _ratio(stats[1][0], stats[0][0])
        pair_median, pair_iqr = pair_spread(runs, name)
        aa = "" if not band else f" {band[name]:7.3f}" if name in band else f" {'-':>7s}"
        threshold = max(pair_iqr, (band or {}).get(name, 0.0))
        resolved = sign * (1.0 - pair_median) > threshold and wins >= 0.9 * len(runs)
        verdict = ""
        if "bound" in entry:
            outside = sign * (ratio - 1.0) > entry["bound"]
            verdict = f" {'OUTSIDE' if outside else 'within'} bound {entry['bound']:g}"
        lines.append(f"{name:14s} {cells[0]:>36s} {cells[1]:>36s} {pair_median:12.3f} "
                     f"{pair_iqr:8.3f}{aa} {'gain' if resolved else 'no-gain':9s}  "
                     f"{wins}/{len(runs)}  {ratio:.3f}{verdict}")
    failed = [sum(r[i]["failed"] for r in runs) for i in (0, 1)]
    lines.append(f"failed operations: parent {failed[0]}, change {failed[1]}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="inclusive range A-B")
    ap.add_argument("--names", nargs=2, required=True, metavar=("PARENT_NAME", "CHANGE_NAME"))
    args = ap.parse_args(argv)
    for name in args.names:
        if not name or Path(name).name != name:
            raise SystemExit(f"--names must be nonempty plain file names, not {name!r}")
    if args.names[0] == args.names[1]:
        raise SystemExit(f"--names must differ: both sides would write BENCH_{args.names[0]}.json")
    seeds = re.fullmatch(r"(\d+)-(\d+)", args.seeds)
    first, last = (int(s) for s in seeds.groups()) if seeds else (1, 0)
    if first > last:
        raise SystemExit(f"--seeds must be a range A-B of seeds with A <= B, not {args.seeds!r}")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds, spec = bench["run_seconds"], {m["name"]: m for m in bench["end_to_end"]}
    trees = {"parent": args.parent, "change": args.change}
    names = dict(zip(trees, args.names))
    paths = {side: Path(f"BENCH_{names[side]}.json") for side in trees}
    records = {side: load_record(paths[side], names[side], names[other], seconds)
               for side, other in (("parent", "change"), ("change", "parent"))}
    done = sorted({run["seed"] for record in records.values() for run in record["runs"]
                   if run["workload"] == args.workload and first <= run["seed"] <= last})
    if done:
        raise SystemExit(f"seeds {done} of workload {args.workload} are already recorded")
    start = sum(run["workload"] == args.workload for run in records["parent"]["runs"])
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        base = Path(tmp)
        for side in trees:
            shutil.copytree(trees[side], base / slot_of(side, start),
                            ignore=shutil.ignore_patterns(".git", "__pycache__"))
        for pair, seed in enumerate(range(first, last + 1), start=start):
            if pair != start and pair % 2 == 0:
                swap_slots(base)
            held = {side: slot_of(side, pair) for side in trees}
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            got = {}
            for side in order:
                try:
                    got[side] = run_one(base / held[side], args.workload, seconds, seed)
                except RejectedRun as exc:
                    raise SystemExit(f"rejected: {side} run of pair {pair}, seed {seed}, "
                                     f"workload {args.workload}: {exc}") from None
            for side in trees:
                env, result = got[side]
                records[side]["runs"].append({"env": env, "pair": pair,
                                              "ran_first": side == order[0], "result": result,
                                              "seed": seed, "slot": held[side],
                                              "workload": args.workload})
                paths[side].write_text(json.dumps(records[side], indent=1, sort_keys=True) + "\n")
            print(f"pair {pair} seed {seed}: {order[0]} first, ok", flush=True)
    recorded = [{run["pair"]: run for run in records[side]["runs"]
                 if run["workload"] == args.workload} for side in trees]
    runs = [(recorded[0][pair], recorded[1][pair]) for pair in sorted(recorded[0])
            if pair in recorded[1]]
    control = aa_band(args.workload, paths.values())
    print(f"{args.workload}: {len(runs)} pairs, {last - first + 1} of them in this call, "
          f"{names['change']} against {names['parent']}")
    band = None
    if control:
        name, aa_runs = control
        print(f"A/A: per-pair ratio ranges of {name} and its -b")
        aa = _results(aa_runs)
        band = {metric: pair_spread(aa, metric)[1] for metric in aa[0][0]["metrics"]}
    print("\n".join(summary(_results(runs), spec, band)))


if __name__ == "__main__":
    main()
