"""Run the fixed benchmark sweep and compare its trace CSVs with another run's.

The sweep runs ``pdsplit.bench.run_benchmark`` on every problem kind
(lad-case1, lad-case2, svm-l1, svm-elastic, quadratic-synthetic) for seeds
0 and 1 at m = 30, n = 80, 300 iterations and all eight methods.  That gives
74 trace CSVs (``pdhg`` applies only to the two LAD instances).  Each run
goes to ``OUT/<problem>-seed<s>/``.  The sweep also integrates the
continuous flow on ``generate_quadratic(6, 10, seed)`` for seeds 0 and 1
(T = 0.5, h = 1e-3) and writes each trajectory, with its merit and
objective gap, to ``OUT/flow/quadratic-seed<s>.csv``.  ``OUT/sha256sums.txt``
lists the digest of every CSV in ``sha256sum`` format, and ``OUT/environment.json``
the numpy version, the BLAS and its thread count that made them, read as
``perfbench/run.py`` reads them.  The same numpy, BLAS and thread count give
the same bytes; another thread count may move the last bits of a product.

    PYTHONPATH=src python3 tools/sweep.py OUT
    PYTHONPATH=src python3 tools/sweep.py OUT --against PARENT_OUT

The pdsplit that runs is the one on ``PYTHONPATH``, so a parent commit's
output comes from the same script with that commit's ``src`` on the path.
With ``--against``, the script first prints both sides' ``environment.json``
and names each field in which they differ (or a side that records none),
since then a byte difference need not be the code's; it then prints how
many trace CSVs and how many flow
trajectories are byte-identical to ``PARENT_OUT``'s, names each one that
is not, and gives, per trace column, the
largest difference: relative for
``theta``, ``alpha``, ``gap`` and ``lyap``; relative to the parent's row-0
value for ``obj`` and ``feas``; absolute for ``sparsity``.  It also prints
how many ``summary.json`` files are byte-identical once ``config.out``, the
one field that names the output directory, is removed, names each one
that is not, and gives the largest
relative difference of their reference optimum ``fstar``, its
``fstar_uncertainty`` and the methods' ``composite_final``, the composite
objective at the last iterate, which no CSV holds.  On the LAD and SVM
instances that reference is a ladmm run with steps ``1/||A||^2``, so it
moves with the operator norm.  It also prints each side's total, over the
methods' ``blocks``, of their ``cap_hits``, the inner-loop solves that stopped
at their cap, and of their ``declines``, the closed-form solves handed to the
inner loop.
It exits 1 when a CSV or a summary is missing on one side or two CSVs differ
in their rows' ``k``.
"""

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

PROBLEMS = ("lad-case1", "lad-case2", "svm-l1", "svm-elastic", "quadratic-synthetic")
SEEDS = (0, 1)
FLOW = {"m": 6, "n": 10, "T": 0.5, "h": 1e-3}
RELATIVE = ("theta", "alpha", "gap", "lyap")
ROW0_RELATIVE = ("obj", "feas")
EXACT = ("sparsity",)
SUMMARY_FIELDS = ("fstar", "fstar_uncertainty")
ENVIRONMENT = ("numpy", "blas", "blas_threads")


def run_sweep(out):
    """Run the sweep into ``out`` and write ``sha256sums.txt``; return the CSV paths."""
    import pdsplit
    from pdsplit.bench import METHOD_TAGS, RunConfig, run_benchmark

    print(f"pdsplit from {Path(pdsplit.__file__).parent}")
    out = Path(out)
    for problem in PROBLEMS:
        for seed in SEEDS:
            run_benchmark(RunConfig(problem=problem, m=30, n=80, seed=seed, methods=METHOD_TAGS,
                                    iters=300, out=str(out / f"{problem}-seed{seed}")))
    paths = sorted(out.glob("*/trace_*.csv"))
    flows = write_flows(out)
    with open(out / "sha256sums.txt", "w") as fh:
        for path in paths + flows:
            fh.write(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}\n")
    (out / "environment.json").write_text(json.dumps(environment(), indent=2) + "\n")
    print(f"{len(paths)} trace CSVs and {len(flows)} flow trajectories in {out}")
    return paths + flows


def environment():
    """``{numpy, blas, blas_threads}`` from ``perfbench/run.py``'s environment stamp."""
    import importlib.util

    import pdsplit

    spec = importlib.util.spec_from_file_location(
        "perfbench_run", Path(__file__).resolve().parent.parent / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    stamp = run.environment(pdsplit, None)
    return {key: stamp[key] for key in ENVIRONMENT}


def write_flows(out):
    """Integrate the flow on ``generate_quadratic`` for each seed and write its
    trajectory CSV, with its merit and objective gap, under ``out/flow``; return the paths."""
    from pdsplit.bench import generate_quadratic
    from pdsplit.odeflow import initial_state, integrate, trajectory_to_csv

    flow_dir = Path(out) / "flow"
    flow_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for seed in SEEDS:
        bundle = generate_quadratic(FLOW["m"], FLOW["n"], seed)
        problem = bundle.prox_form
        trajectory = integrate(problem, initial_state(problem), T=FLOW["T"], h=FLOW["h"])
        paths.append(flow_dir / f"quadratic-seed{seed}.csv")
        trajectory_to_csv(problem, trajectory, str(paths[-1]))
    return paths


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _difference(parent, change, scale):
    """``|change - parent| / scale``; 0 when both fields are empty, inf when only one is."""
    if parent == "" or change == "":
        return 0.0 if parent == change else float("inf")
    p, c = float(parent), float(change)
    if p == c:
        return 0.0
    return abs(c - p) / scale if scale else abs(c - p)


def _summary(path):
    """``summary.json`` without ``config.out``, and its bytes as ``run_benchmark`` writes it."""
    summary = json.loads(path.read_text())
    summary["config"].pop("out", None)
    return summary, json.dumps(summary, indent=2, sort_keys=True) + "\n"


def _environments(parent_dir, change_dir):
    """Each side's ``environment.json`` (None where it has none), and a line
    for each field in which the two differ or for each side without one."""
    paths = [d / "environment.json" for d in (parent_dir, change_dir)]
    stamps = [json.loads(p.read_text()) if p.exists() else None for p in paths]
    if None in stamps:
        return stamps, [f"environment.json: missing in {p.parent}" for p in paths if not p.exists()]
    parent, change = stamps
    return stamps, [f"{key}: parent {parent.get(key)}, change {change.get(key)}"
                    for key in ENVIRONMENT if parent.get(key) != change.get(key)]


def _pairs(parent_dir, change_dir, pattern, mismatched):
    """The number of paths matching ``pattern`` under either directory, and
    ``(name, parent path, change path)`` for those under both; a path
    missing on one side goes to ``mismatched``."""
    names = sorted({p.relative_to(d) for d in (parent_dir, change_dir) for p in d.glob(pattern)})
    pairs = []
    for name in names:
        p_path, c_path = parent_dir / name, change_dir / name
        if p_path.exists() and c_path.exists():
            pairs.append((name, p_path, c_path))
        else:
            mismatched.append(f"{name}: missing in {parent_dir if c_path.exists() else change_dir}")
    return len(names), pairs


def compare(parent_dir, change_dir):
    """Compare the trace CSVs and summaries of two sweep outputs.

    Returns a dict: ``environments``, the parent's and the change's
    ``environment.json`` (None for a side without one), ``environment_mismatch``,
    a line for each of its fields whose two values differ, or for each side
    without the file; ``identical`` and ``total`` CSV counts, ``differing``,
    the names of the CSVs on both sides that are not byte-identical, ``columns``
    mapping each compared column to ``(largest difference, where)``,
    ``summaries_identical`` and ``summaries_total`` counts of the
    ``summary.json`` files, compared without ``config.out``,
    ``summaries_differing``, the names of those on both sides that are not
    byte-identical, ``summary_fields`` mapping ``fstar``, ``fstar_uncertainty``
    and the methods' ``composite_final`` to their ``(largest relative
    difference, where)`` over those summaries, ``cap_hits`` and ``declines``,
    the parent's and the change's totals of them over the methods' ``blocks``,
    ``flows_identical`` and ``flows_total`` counts of the flow trajectories
    and ``flows_differing``, the names of those that are not byte-identical,
    and ``mismatched``, the files missing on one side and the CSVs differing in ``k``.
    """
    parent_dir, change_dir = Path(parent_dir), Path(change_dir)
    columns = {c: (0.0, "") for c in RELATIVE + ROW0_RELATIVE + EXACT}
    summary_fields = {f: (0.0, "") for f in SUMMARY_FIELDS + ("composite_final",)}
    cap_hits, declines = [0, 0], [0, 0]
    mismatched = []
    summaries_total, summaries = _pairs(parent_dir, change_dir, "*/summary.json", mismatched)
    summaries_differing = []
    for name, p_path, c_path in summaries:
        (p_summary, p_bytes), (c_summary, c_bytes) = _summary(p_path), _summary(c_path)
        if p_bytes != c_bytes:
            summaries_differing.append(str(name))
        for field in SUMMARY_FIELDS:
            p, c = p_summary[field], c_summary[field]
            diff = _difference(p, c, abs(p))
            if diff > summary_fields[field][0]:
                summary_fields[field] = (diff, str(name))
        methods = p_summary["methods"], c_summary["methods"]
        for side, entries in enumerate(methods):
            blocks = [b for e in entries.values() for b in e.get("blocks", {}).values()]
            cap_hits[side] += sum(b["cap_hits"] for b in blocks)
            declines[side] += sum(b["declines"] for b in blocks)
        for tag in sorted(methods[0].keys() & methods[1].keys()):
            p, c = (entries[tag].get("composite_final") for entries in methods)
            if p is not None and c is not None:
                diff = _difference(p, c, abs(p))
                if diff > summary_fields["composite_final"][0]:
                    summary_fields["composite_final"] = (diff, f"{name} {tag}")
    total, traces = _pairs(parent_dir, change_dir, "*/trace_*.csv", mismatched)
    identical, differing = 0, []
    for name, p_path, c_path in traces:
        if p_path.read_bytes() == c_path.read_bytes():
            identical += 1
            continue
        differing.append(str(name))
        p_rows, c_rows = _read(p_path), _read(c_path)
        if [r["k"] for r in p_rows] != [r["k"] for r in c_rows]:
            mismatched.append(f"{name}: rows differ in k ({len(p_rows)} vs {len(c_rows)} rows)")
            continue
        for col in columns:
            row0 = abs(float(p_rows[0][col])) if col in ROW0_RELATIVE and p_rows[0][col] else 0.0
            for p, c in zip(p_rows, c_rows):
                scale = abs(float(p[col])) if col in RELATIVE and p[col] else row0
                diff = _difference(p[col], c[col], scale)
                if diff > columns[col][0]:
                    columns[col] = (diff, f"{name} k={p['k']}")
    flows_total, flows = _pairs(parent_dir, change_dir, "flow/*.csv", mismatched)
    flows_differing = [str(name) for name, p_path, c_path in flows
                       if p_path.read_bytes() != c_path.read_bytes()]
    environments, environment_mismatch = _environments(parent_dir, change_dir)
    return {"environments": environments, "environment_mismatch": environment_mismatch,
            "identical": identical, "total": total, "differing": differing, "columns": columns,
            "summaries_identical": len(summaries) - len(summaries_differing),
            "summaries_total": summaries_total, "summaries_differing": summaries_differing,
            "summary_fields": summary_fields, "cap_hits": tuple(cap_hits),
            "declines": tuple(declines),
            "flows_identical": len(flows) - len(flows_differing),
            "flows_total": flows_total, "flows_differing": flows_differing,
            "mismatched": mismatched}


def report(result):
    """Print ``compare``'s result as a table, the environments and their mismatch first."""
    for side, stamp in zip(("parent", "change"), result["environments"]):
        print(f"environment, {side}: {'none recorded' if stamp is None else json.dumps(stamp)}")
    for line in result["environment_mismatch"]:
        print(f"ENVIRONMENT MISMATCH {line}")
    print(f"byte-identical: {result['identical']} of {result['total']} CSVs")
    for name in result["differing"]:
        print(f"differs: {name}")
    print(f"{'column':<10}{'largest difference':<20}{'relative to':<14}where")
    for col, (diff, where) in result["columns"].items():
        scale = "own value" if col in RELATIVE else "row 0" if col in ROW0_RELATIVE else "(absolute)"
        print(f"{col:<10}{diff:<20.2e}{scale:<14}{where}")
    print(f"summary.json without config.out, byte-identical: "
          f"{result['summaries_identical']} of {result['summaries_total']}")
    for name in result["summaries_differing"]:
        print(f"differs: {name}")
    for field, (diff, where) in result["summary_fields"].items():
        print(f"{field:<20}{diff:<10.2e}{'own value':<14}{where}")
    print("cap_hits, parent then change: {} {}".format(*result["cap_hits"]))
    print("declines, parent then change: {} {}".format(*result["declines"]))
    print(f"flow trajectories byte-identical: {result['flows_identical']} of {result['flows_total']}")
    for name in result["flows_differing"]:
        print(f"differs: {name}")
    for line in result["mismatched"]:
        print(f"MISMATCH {line}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="directory for this run's CSVs")
    parser.add_argument("--against", help="a parent run's output directory to compare with")
    args = parser.parse_args(argv)
    run_sweep(args.out)
    if args.against:
        result = compare(args.against, args.out)
        report(result)
        return 1 if result["mismatched"] else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
