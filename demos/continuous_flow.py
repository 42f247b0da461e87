"""Integrate the continuous-time flow and verify its certified decay.

The discrete schemes are discretizations of a rescaled primal-dual flow
whose merit function E(t) satisfies e^t E(t) <= E(0).  This script
integrates the flow on a smooth quadratic instance, prints the scaled
merit at a few times, and writes the full trajectory to CSV.

Run:

    python3 demos/continuous_flow.py
"""

import math
import os

from pdsplit.bench import generate_quadratic
from pdsplit.odeflow import (initial_state, integrate, lyapunov_continuous,
                             trajectory_to_csv)


def main():
    bundle = generate_quadratic(6, 6, seed=1)
    problem = bundle.prox_form

    trajectory = integrate(problem, initial_state(problem), T=8.0, h=1e-3)
    e0 = lyapunov_continuous(problem, trajectory[0], problem.saddle)

    print(f"{'t':>5} {'E(t)':>12} {'e^t E(t) / E(0)':>16}")
    for state in trajectory[::1000]:
        e = lyapunov_continuous(problem, state, problem.saddle)
        print(f"{state.t:>5.1f} {e:>12.3e} {math.exp(state.t) * e / e0:>16.6f}")

    os.makedirs("demo-out", exist_ok=True)
    path = "demo-out/flow_trajectory.csv"
    trajectory_to_csv(problem, trajectory, path)
    print(f"\ntrajectory written to {path}")


if __name__ == "__main__":
    main()
