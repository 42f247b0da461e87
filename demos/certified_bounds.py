"""Certify the decay bounds on a quadratic instance with a known solution.

Builds a strongly convex quadratic problem whose saddle point is planted
exactly, runs every scheme, and checks the three certified bounds row by
row: feasibility below theta_k * R0, Lagrangian gap below theta_k * E0,
and objective error below theta_k * (E0 + ||lam*|| R0).

Run:

    python3 demos/certified_bounds.py
"""

from pdsplit.bench import generate_quadratic
from pdsplit.diagnostics import LyapunovInputs, certify_bounds
from pdsplit.driver import run
from pdsplit.params import Scheme


def main():
    bundle = generate_quadratic(8, 8, seed=0)
    inputs = LyapunovInputs(saddle=bundle.prox_form.saddle, f_star=bundle.prox_form.f_saddle)

    print(f"{'scheme':<12} {'theta_500':>10} {'feas_500':>10} {'bounds':>8}")
    for scheme in Scheme:
        problem = bundle.split_form if scheme.family == 2 else bundle.prox_form
        result = run(problem, scheme, 500)
        report = certify_bounds(result.trace, inputs)
        last = result.trace.rows[-1]
        status = "clean" if report.clean(slack=1e-8) else "VIOLATED"
        print(f"{scheme.value:<12} {last.theta:>10.2e} {last.feas:>10.2e} {status:>8}")


if __name__ == "__main__":
    main()
