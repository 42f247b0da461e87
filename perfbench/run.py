"""pdsplit benchmark: time to accuracy and throughput, with a traced split.

Run from the root of a pdsplit checkout:

    python3 perfbench/run.py --workload lad-inner --seed 0 --seconds 36 --trace 0

The library is imported from ``src/`` of the checkout (no install needed).
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps the library's public functions and prints the
per-layer metrics instead.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Run
artefacts (environment stamp, per-round figures, spans) go to
``.perfbench_out/`` in the checkout.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WARMUP_S = 2.0

END_TO_END = {
    "setup_s": "s", "bench_s": "s", "iter_per_s": "1/s", "tta_s": "s",
    "flow_s": "s", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "linops.fwd_per_iter": "count", "linops.adj_per_iter": "count",
    "linops.busy_frac": "ratio", "linops.bytes_per_iter": "B",
    "linops.norm_s": "s", "linops.norm_products": "count",
    "subprob.calls": "count", "subprob.busy_frac": "ratio",
    "subprob.inner_iters_mean": "count", "subprob.inner_iters_max": "count",
    "subprob.cap_hit_ratio": "ratio", "subprob.products_per_call": "count",
    "prox.calls_per_iter": "count", "prox.us_per_call": "us",
    "prox.busy_frac": "ratio", "prox.solve_augmented_us": "us",
    "oracles.grad_us_per_call": "us", "oracles.grad_busy_frac": "ratio",
    "params.us_per_iter": "us", "family1.step_self_us": "us",
    "family2.step_self_us": "us", "driver.self_frac": "ratio",
    "diagnostics.us_per_row": "us", "diagnostics.busy_frac": "ratio",
    "diagnostics.fwd_per_row": "count", "diagnostics.csv_write_s": "s",
    "diagnostics.csv_bytes": "B", "bench.self_s": "s",
    "baselines.reference_s": "s", "baselines.reference_iters": "count",
    "baselines.step_us": "us", "bench.generate_s": "s",
    "odeflow.rhs_calls": "count", "odeflow.rhs_us_per_call": "us",
    "odeflow.integrate_self_frac": "ratio", "odeflow.merit_s": "s",
    "trace.overhead_frac": "ratio",
}


def import_library():
    """Import pdsplit from this checkout's ``src/``; exit 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "pdsplit", "__init__.py")):
        print(f"perfbench: no pdsplit sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import pdsplit
    if os.path.dirname(os.path.dirname(os.path.abspath(pdsplit.__file__))) != SRC:
        print(f"perfbench: imported pdsplit from {pdsplit.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return pdsplit


def _safe(num, den):
    return num / den if den else 0.0


def per_operation(rounds, attr):
    """Per operation, the median of its time over the rounds.

    The machine's speed is bimodal: the two vCPUs share a core, so load on
    one slows the other by up to 1.8x, in stretches of seconds.  Timing
    every operation in every round and taking its median keeps a stretch
    of the other speed out of the figure.
    """
    samples = {}
    for r in rounds:
        for key, t in getattr(r, attr).items():
            samples.setdefault(key, []).append(t)
    return {key: statistics.median(ts) for key, ts in samples.items()}


def _iter_per_s(round_result):
    return _safe(sum(round_result.iters.values()), sum(round_result.solve_s.values()))


def end_to_end_metrics(rounds):
    solve = per_operation(rounds, "solve_s")
    iters = {k: v for r in rounds for k, v in r.iters.items()}
    flows = per_operation(rounds, "flow_s")
    return {
        "setup_s": statistics.fmean(per_operation(rounds, "setup_s").values()),
        "bench_s": statistics.median(r.bench_s for r in rounds),
        "iter_per_s": _safe(sum(iters[k] for k in solve), sum(solve.values())),
        "tta_s": sum(per_operation(rounds, "hit_s").values()),
        "flow_s": statistics.fmean(flows.values()) if flows else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(tr, rounds, untraced_ips, solver_cap):
    """Per-layer figures from the tracer's aggregates over the traced rounds."""
    def n(phase, name):
        return tr.count[(phase, name)]

    def dur(phase, *names):
        return sum(tr.total[(phase, x)] for x in names)

    def own(phase, *names):
        return sum(tr.self_time[(phase, x)] for x in names)

    def prod(phase, cat, kind=None):
        kinds = ("fwd", "adj") if kind is None else (kind,)
        return sum(tr.products[(phase, cat, k)] for k in kinds)

    lib_s = sum(t for r in rounds for t in r.solve_s.values())
    rows = sum(r.rows for r in rounds)
    passes = bench_passes = len(rounds)
    scheme_steps = n("lib", "family1.step") + n("lib", "family2.step")
    steps = scheme_steps + n("lib", "baselines.step")
    generates = n("setup", "bench.generate")
    flows = n("flow", "odeflow.integrate")
    products = ("linops.A.apply", "linops.A.adjoint", "linops.B.apply", "linops.B.adjoint")
    prox_names = ("prox.f", "prox.g")
    inner = tr.inner_iters["lib"]
    subprob_calls = n("lib", "subprob.solve")
    baseline_phase = "lib" if n("lib", "baselines.step") else "bench"

    return {
        "linops.fwd_per_iter": _safe(prod("lib", "step", "fwd"), steps)
        + _safe(prod("lib", "diag", "fwd"), rows),
        "linops.adj_per_iter": _safe(prod("lib", "step", "adj"), steps)
        + _safe(prod("lib", "diag", "adj"), rows),
        "linops.busy_frac": _safe(dur("lib", *products), lib_s),
        "linops.bytes_per_iter": _safe(tr.bytes[("lib", "step")], steps)
        + _safe(tr.bytes[("lib", "diag")], rows),
        "linops.norm_s": _safe(dur("setup", "linops.norm"), generates),
        "linops.norm_products": _safe(prod("setup", "norm"), generates),
        "subprob.calls": _safe(subprob_calls, passes),
        "subprob.busy_frac": _safe(dur("lib", "subprob.solve"), lib_s),
        "subprob.inner_iters_mean": statistics.fmean(inner) if inner else 0.0,
        "subprob.inner_iters_max": max(inner, default=0),
        "subprob.cap_hit_ratio": _safe(sum(1 for k in inner if k >= solver_cap), len(inner)),
        "subprob.products_per_call": _safe(prod("lib", "subprob"), subprob_calls),
        "prox.calls_per_iter": _safe(sum(n("lib", x) for x in prox_names), steps),
        "prox.us_per_call": 1e6 * _safe(dur("lib", *prox_names), sum(n("lib", x) for x in prox_names)),
        "prox.busy_frac": _safe(own("lib", *prox_names), lib_s),
        "prox.solve_augmented_us": 1e6 * _safe(dur("lib", "prox.solve_augmented"),
                                               n("lib", "prox.solve_augmented")),
        "oracles.grad_us_per_call": 1e6 * _safe(dur("lib", "oracles.grad"), n("lib", "oracles.grad")),
        "oracles.grad_busy_frac": _safe(dur("lib", "oracles.grad"), lib_s),
        "params.us_per_iter": 1e6 * _safe(dur("lib", "params.step_size", "params.advance"), scheme_steps),
        "family1.step_self_us": 1e6 * _safe(own("lib", "family1.step"), n("lib", "family1.step")),
        "family2.step_self_us": 1e6 * _safe(own("lib", "family2.step"), n("lib", "family2.step")),
        "driver.self_frac": _safe(own("lib", "driver.run"), dur("lib", "driver.run")),
        "diagnostics.us_per_row": 1e6 * _safe(tr.outer[("lib", "diag")], rows),
        "diagnostics.busy_frac": _safe(tr.outer[("lib", "diag")], lib_s),
        "diagnostics.fwd_per_row": _safe(prod("lib", "diag", "fwd"), rows),
        "diagnostics.csv_write_s": _safe(dur("bench", "diagnostics.csv_write"), bench_passes),
        "diagnostics.csv_bytes": _safe(sum(r.csv_bytes for r in rounds), bench_passes),
        "bench.self_s": _safe(own("bench", "bench.run_benchmark"), bench_passes),
        "baselines.reference_s": _safe(dur("bench", "baselines.reference"), bench_passes),
        "baselines.reference_iters": _safe(tr.nested[("bench", "reference", "baselines.step")],
                                           bench_passes),
        "baselines.step_us": 1e6 * _safe(dur(baseline_phase, "baselines.step"),
                                         n(baseline_phase, "baselines.step")),
        "bench.generate_s": _safe(dur("setup", "bench.generate"), generates),
        "odeflow.rhs_calls": _safe(n("flow", "odeflow.rhs"), flows),
        "odeflow.rhs_us_per_call": 1e6 * _safe(dur("flow", "odeflow.rhs"), n("flow", "odeflow.rhs")),
        "odeflow.integrate_self_frac": _safe(own("flow", "odeflow.integrate"),
                                             dur("flow", "odeflow.integrate")),
        "odeflow.merit_s": _safe(dur("flow", "odeflow.merit"), flows),
        "trace.overhead_frac": _safe(untraced_ips, _iter_per_s(rounds[0])) - 1.0,
    }


def environment(pdsplit, seed):
    """Stamp that makes results comparable: code, seed, libraries, hardware."""
    import ctypes
    import glob
    import hashlib
    import platform

    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "pdsplit", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pdsplit": pdsplit.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": caches,
    }


def _git_commit():
    """HEAD of the checkout's git directory, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pdsplit = import_library()
    sys.path.insert(0, HERE)
    from tracer import Tracer
    from workloads import WORKLOADS, run_round
    from pdsplit import bench
    from pdsplit.subprob import SolverOptions

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    env = environment(pdsplit, args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    out_dir = os.path.join(ROOT, ".perfbench_out", f"{wl.name}-s{args.seed}-t{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    config = bench.RunConfig(problem=wl.problem, m=wl.m, n=wl.n, seed=args.seed)

    # warm-up: lazy imports and BLAS start-up; on a 2-vCPU virtual machine,
    # LAPACK calls ran up to 20x slower during a process's first second of BLAS work
    warm = bench.generate_problem(bench.RunConfig(problem=wl.problem, m=8, n=16, seed=0))
    bench._run_method(warm, wl.methods[0], 3)
    deadline = time.perf_counter() + WARMUP_S
    while time.perf_counter() < deadline:
        bench.generate_problem(config)
    gc.collect()

    tracer = Tracer() if args.trace else None
    digests = {}
    try:
        if tracer is None:
            rounds = [run_round(wl, args.seed, out_dir, digests)
                      for _ in range(wl.rounds(args.seconds))]
        else:
            # per-layer figures are counts and shares, so one traced round
            # gives them; trace.overhead_frac compares it with an untraced one
            rounds = [run_round(wl, args.seed, out_dir, digests)]
            tracer.install()
            rounds.append(run_round(wl, args.seed, out_dir, digests, tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(os.path.join(out_dir, "bench"), ignore_errors=True)

    if tracer is None:
        values, units = end_to_end_metrics(rounds), END_TO_END
    else:
        values = per_layer_metrics(tracer, rounds[1:], _iter_per_s(rounds[0]),
                                   SolverOptions().inner_max_iters)
        units = PER_LAYER
        tracer.write_spans(os.path.join(out_dir, "spans.csv"))
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    failures = [f for r in rounds for f in r.failures]

    for failure in failures:
        print("FAILED " + failure)
    for name, value in values.items():
        print(f"{name:32s} {value:16.6g} {units[name]}")
    print(f"{'failed_frac':32s} {_safe(failed, attempted):16.6g} ratio "
          f"({failed} of {attempted} operations, {len(rounds)} rounds)")

    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump({"workload": wl.name, "env": env, "failures": failures, "metrics": metrics,
                   "rounds": [{k: v for k, v in vars(r).items() if k != "failures"}
                              for r in rounds]},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
