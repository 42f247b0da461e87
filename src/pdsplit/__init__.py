"""Accelerated primal-dual splitting methods for separable linearly
constrained convex problems, with certified-rate diagnostics, reference
baselines, a continuous-time flow integrator, and benchmark tooling.
"""

from .linops import (DenseOperator, DiagonalOperator, LinearOperator,
                     OperatorNormError, ScaledIdentity, estimate_operator_norm,
                     negated_identity)
from .oracles import (ProxOracle, QuadraticSmooth, SaddlePoint,
                      SeparableProblem, SmoothOracle, feasibility_residual,
                      lagrangian_value)
from .prox import (BoxIndicator, ElasticNet, HingeSum, L1Norm, QuadraticProx,
                   ShiftedL1, SquaredL2, ZeroFun)
from .params import (BoundResult, ParamState, Scheme, StepSizeError,
                     StepSizeRule, advance, appendix_c_bound, solve_step_size,
                     theoretical_theta_bound)
from .subprob import AugmentedSubproblemError, SolverOptions
from .family1 import IterateState
from .diagnostics import (BoundReport, IterationTrace, LyapunovInputs,
                          TraceRow, certify_bounds, lagrangian_gap, lyapunov,
                          r0, sparsity)
from .driver import RunBudget, RunResult, run
from .baselines import approximate_optimum, ladmm_run, pdhg_run
from .odeflow import (OdeBlowUpError, SmoothSystemState, integrate,
                      lyapunov_continuous, rhs)
from .bench import RunConfig, generate_lad, generate_svm, run_benchmark

__version__ = "0.1.0"
