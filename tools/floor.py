"""Print the per-iteration floor: each method's best microseconds per iteration.

    PYTHONPATH=src python3 tools/floor.py

Each size ``MxN`` is the instance ``pdsplit.bench.generate_quadratic(M, N,
1)``: 8x8, the acceptance suite's contraction fixture (nearly all per-call
overhead), and 50x200, the ``quad-saddle`` benchmark workload.  The methods
are the workload's: the six schemes and ``ladmm``.  Each runs through
``pdsplit.bench._run_method``, the library's own dispatch, for 550
iterations with a trace row at every index, 3 times.  The time of a run
over its iterations gives its microseconds per iteration, and the best run
is printed.  The first run also builds the instance's kept eigenbasis, which
the best of several leaves out.  The last line of each size sums its methods.
Before the first size, one untimed 3-iteration run on another 8x8 instance
takes the lazy imports and the BLAS start-up, as ``perfbench/run.py``'s
warm-up does.
"""

import time

METHODS = ("f1-semiB", "f1-semiA", "f1-explicit", "f2-semiB", "f2-semiA", "f2-explicit", "ladmm")


def floor(m, n, seed=1, iters=550, repeats=3):
    """``{method: best microseconds per iteration}`` on ``generate_quadratic(m, n, seed)``."""
    from pdsplit.bench import _run_method, generate_quadratic

    bundle = generate_quadratic(m, n, seed)
    best = {}
    for method in METHODS:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            _run_method(bundle, method, iters)
            times.append(time.perf_counter() - start)
        best[method] = 1e6 * min(times) / iters
    return best


def rows(size, best):
    """The printed lines of one size: each method's figure, then their sum."""
    return [f"{size:<8} {method:<12} {us:>9.1f}"
            for method, us in [*best.items(), ("sum", sum(best.values()))]]


def main():
    from pdsplit.bench import _run_method, generate_quadratic

    _run_method(generate_quadratic(8, 8, 0), METHODS[0], 3)   # warm-up, untimed
    print(f"{'size':<8} {'method':<12} {'us/iter':>9}")
    for m, n in ((8, 8), (50, 200)):
        print("\n".join(rows(f"{m}x{n}", floor(m, n))))


if __name__ == "__main__":
    main()
