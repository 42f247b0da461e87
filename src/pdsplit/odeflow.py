"""Continuous-time primal-dual flow with rescaling parameters.

The coupled system integrated here is

    theta' = -theta     gamma' = mu_f - gamma     beta' = mu_g - beta
    x' = v - x          gamma v' = mu_f (x - v) - (grad f(x) + A^T lam)
    y' = w - y          beta  w' = mu_g (y - w) - (grad g(y) + B^T lam)
    theta lam' = A v + B w - b

for problems whose both blocks expose gradients (smooth mode only).  The
rescaling parameters have closed forms, e.g. ``theta(t) = e^{-t}``, which
the integrator tests lean on.  Along exact trajectories the product
``e^t E(t)`` of time and the merit function is nonincreasing.

``integrate`` works on the packed phase point ``(theta, gamma, beta, x, y,
v, w, lam)``: the derivative is built once per run, with the gradient
oracles and block slices resolved, and a ``SmoothSystemState`` is built
only for each returned sample.
"""

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import lagrangian_gap, lyapunov, write_csv
from .family1 import IterateState
from .oracles import feasibility_residual
from .params import ParamState
from .prox import SquaredL2

__all__ = [
    "SmoothSystemState",
    "OdeBlowUpError",
    "rhs",
    "integrate",
    "lyapunov_continuous",
    "trajectory_to_csv",
]

TRAJECTORY_COLUMNS = ("t", "E", "feas", "obj_gap", "theta", "gamma", "beta")

BLOWUP_NORM = 1e12


class OdeBlowUpError(RuntimeError):
    """Trajectory norm exceeded the blow-up threshold; carries the time."""

    def __init__(self, t):
        super().__init__(f"trajectory norm exceeded {BLOWUP_NORM:.0e} at t = {t:.6g}")
        self.t = t


@dataclass
class SmoothSystemState(IterateState):
    """Full phase point: the schemes' five blocks plus time and the
    rescaling triple."""

    t: float
    theta: float
    gamma: float
    beta: float

    def pack(self):
        return np.concatenate(([self.theta, self.gamma, self.beta],
                               self.x, self.y, self.v, self.w, self.lam))

    @staticmethod
    def unpack(t, z, nx, ny, m):
        i, j, k, n = _cuts(nx, ny)
        return SmoothSystemState(x=z[3:i], y=z[i:j], v=z[j:k], w=z[k:n], lam=z[n:n + m],
                                 t=t, theta=z[0], gamma=z[1], beta=z[2])


def _cuts(nx, ny):
    """Where ``y``, ``v``, ``w`` and ``lam`` start in a packed phase point."""
    return 3 + nx, 3 + nx + ny, 3 + 2 * nx + ny, 3 + 2 * (nx + ny)


def _gradients(problem):
    zero_prox = isinstance(problem.f_prox, SquaredL2) and problem.f_prox.mu == 0.0
    if problem.f_smooth is not None and not zero_prox:
        raise ValueError("the continuous flow takes f through its gradient alone; the f-block's "
                         f"prox part {type(problem.f_prox).__name__} must be SquaredL2(0)")
    f = problem.f_smooth or problem.f_prox
    gf, gg = (getattr(oracle, "gradient", None) for oracle in (f, problem.g))
    if gf is None or gg is None:
        raise ValueError("the continuous flow needs gradient oracles on both blocks")
    return gf, gg


def _derivative(problem):
    """The time derivative as a function of the packed phase point, with the
    oracles, operators and block slices resolved once per run.

    The velocity rows ``(mu (v - x) + G) / -gamma`` round exactly as
    ``(mu (x - v) - G) / gamma``: negation commutes with rounding.
    """
    grad_f, grad_g = _gradients(problem)
    A, B, b, mu_f, mu_g = problem.A, problem.B, problem.b, problem.mu_f, problem.mu_g
    i, j, k, n = _cuts(problem.dim_x, problem.dim_y)

    def derivative(z):
        theta, gamma, beta = z[:3].tolist()
        if theta <= 0 or gamma <= 0 or beta <= 0:
            raise ValueError("theta, gamma, beta must stay positive")
        x, y, v, w, lam = z[3:i], z[i:j], z[j:k], z[k:n], z[n:]
        dx, dy = v - x, w - y
        return np.concatenate(([-theta, mu_f - gamma, mu_g - beta], dx, dy,
                               (mu_f * dx + (grad_f(x) + A.adjoint(lam))) / -gamma,
                               (mu_g * dy + (grad_g(y) + B.adjoint(lam))) / -beta,
                               (A.apply(v) + B.apply(w) - b) / theta))

    return derivative


def rhs(problem, state):
    """Time derivative of the packed state at ``state``.  A split f-block
    whose prox part is not ``SquaredL2(0)`` raises ``ValueError``: the flow
    would drop that part of f."""
    return _derivative(problem)(state.pack())


def initial_state(problem, x0=None, y0=None, lam0=None, gamma0=None, beta0=None):
    """Phase point at t=0: the schemes' cold start and initial parameters."""
    st = IterateState.cold_start(problem, x0, y0, lam0)
    ps = ParamState.initial(mu_f=problem.mu_f, mu_g=problem.mu_g, gamma0=gamma0, beta0=beta0)
    return SmoothSystemState(**vars(st), t=0.0, theta=ps.theta, gamma=ps.gamma, beta=ps.beta)


def integrate(problem, initial, T, h=1e-3):
    """Classical 4th-order fixed-step integration, sampled every step.

    Returns the list of :class:`SmoothSystemState` at ``t = 0, h, 2h, ...``
    up to the horizon ``T``, which must be a whole number of steps ``h`` to
    a relative 1e-9.  Raises :class:`OdeBlowUpError` if the state norm
    passes ``1e12``, and ``FloatingPointError`` naming the block and the
    time if the start or a step is not finite.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be positive and finite, not {h!r}")
    if not (math.isfinite(T) and T >= 0):
        raise ValueError(f"T must be nonnegative and finite, not {T!r}")
    n_steps = round(T / h)
    if abs(n_steps * h - T) > 1e-9 * T:
        raise ValueError(f"T must be a whole number of steps h, not T = {T!r} and h = {h!r}")
    dims = problem.dim_x, problem.dim_y, problem.dim_lam
    derivative = _derivative(problem)

    z = initial.pack()
    t = initial.t
    _norm(t, z, dims)   # a non-finite start raises
    out = [SmoothSystemState.unpack(t, z, *dims)]
    for _ in range(n_steps):
        # z is rebound, never written in place, so each sample's views stay valid
        k1 = derivative(z)
        k2 = derivative(z + (0.5 * h) * k1)
        k3 = derivative(z + (0.5 * h) * k2)
        k4 = derivative(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        if _norm(t, z, dims) > BLOWUP_NORM:
            raise OdeBlowUpError(t)
        out.append(SmoothSystemState.unpack(t, z, *dims))
    return out


def _norm(t, z, dims):
    """``||z||``, as ``np.linalg.norm`` computes it; a non-finite ``z`` raises
    ``FloatingPointError`` naming its first non-finite block and ``t``."""
    sq = z @ z
    if not math.isfinite(sq):
        state = SmoothSystemState.unpack(t, z, *dims)
        for block in ("theta", "gamma", "beta", "x", "y", "v", "w", "lam"):
            if not np.isfinite(getattr(state, block)).all():
                raise FloatingPointError(f"non-finite {block} at t = {t:.6g}")
    return math.sqrt(sq)


def lyapunov_continuous(problem, state, saddle):
    """Continuous merit ``E(t)``: the discrete merit at the phase point,
    whose own ``theta``, ``gamma`` and ``beta`` weigh the distances.  The
    merit is the problem's: a problem without a saddle point, or a
    ``saddle`` that is not ``problem.saddle``, raises ``ValueError``."""
    if problem.saddle is None:
        raise ValueError("the continuous merit needs the problem's saddle point; it has none")
    if saddle is not problem.saddle:
        raise ValueError("the continuous merit reads the problem's own saddle point")
    return lyapunov(problem, state, state,
                    lagrangian_gap(problem, state, problem.objective(state.x, state.y)))


def trajectory_to_csv(problem, trajectory, path_or_buf):
    """Write ``t,E,feas,obj_gap,theta,gamma,beta`` rows with the trace's ``write_csv``.

    ``E`` and ``obj_gap`` (against ``problem.f_saddle``) are left empty when
    the problem has no saddle point.  Each sample's objective is formed once,
    and only when the problem has one.
    """
    def row(st):
        if problem.saddle is None:
            return st.t, None, feasibility_residual(problem, st), None, st.theta, st.gamma, st.beta
        obj = problem.objective(st.x, st.y)
        return (st.t, lyapunov(problem, st, st, lagrangian_gap(problem, st, obj)),
                feasibility_residual(problem, st), abs(obj - problem.f_saddle),
                st.theta, st.gamma, st.beta)

    write_csv(path_or_buf, TRAJECTORY_COLUMNS, map(row, trajectory))
