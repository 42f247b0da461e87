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
"""

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import LyapunovInputs, lyapunov
from .oracles import feasibility_residual
from .params import ParamState

__all__ = [
    "SmoothSystemState",
    "OdeBlowUpError",
    "rhs",
    "integrate",
    "lyapunov_continuous",
    "closed_form_parameters",
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
class SmoothSystemState:
    """Full phase point: time, rescaling triple, primal/velocity/multiplier."""

    t: float
    theta: float
    gamma: float
    beta: float
    x: np.ndarray
    y: np.ndarray
    v: np.ndarray
    w: np.ndarray
    lam: np.ndarray

    def pack(self):
        return np.concatenate(([self.theta, self.gamma, self.beta],
                               self.x, self.y, self.v, self.w, self.lam))

    @staticmethod
    def unpack(t, z, nx, ny, m):
        i = 3
        x = z[i:i + nx]; i += nx
        y = z[i:i + ny]; i += ny
        v = z[i:i + nx]; i += nx
        w = z[i:i + ny]; i += ny
        lam = z[i:i + m]
        return SmoothSystemState(t=t, theta=z[0], gamma=z[1], beta=z[2],
                                 x=x, y=y, v=v, w=w, lam=lam)


def _gradients(problem):
    f = problem.f_smooth if problem.has_smooth_f() else problem.f_prox
    gf = getattr(f, "gradient", None)
    gg = getattr(problem.g, "gradient", None)
    if gf is None or gg is None:
        raise ValueError("the continuous flow needs gradient oracles on both blocks")
    return gf, gg


def rhs(problem, state):
    """Time derivative of the packed state at ``state``."""
    if state.theta <= 0 or state.gamma <= 0 or state.beta <= 0:
        raise ValueError("theta, gamma, beta must stay positive")
    grad_f, grad_g = _gradients(problem)
    A, B, b = problem.A, problem.B, problem.b
    mu_f, mu_g = problem.mu_f, problem.mu_g

    dx = state.v - state.x
    dy = state.w - state.y
    dv = (mu_f * (state.x - state.v)
          - (grad_f(state.x) + A.adjoint(state.lam))) / state.gamma
    dw = (mu_g * (state.y - state.w)
          - (grad_g(state.y) + B.adjoint(state.lam))) / state.beta
    dlam = (A.apply(state.v) + B.apply(state.w) - b) / state.theta

    return np.concatenate(([-state.theta, mu_f - state.gamma, mu_g - state.beta],
                           dx, dy, dv, dw, dlam))


def initial_state(problem, x0=None, y0=None, lam0=None, gamma0=None, beta0=None):
    """Phase point at t=0 with v=x, w=y and the schemes' initial parameters."""
    x0, y0, lam0 = problem.initial_point(x0, y0, lam0)
    ps = ParamState.initial(mu_f=problem.mu_f, mu_g=problem.mu_g, gamma0=gamma0, beta0=beta0)
    return SmoothSystemState(t=0.0, theta=ps.theta, gamma=ps.gamma, beta=ps.beta,
                             x=x0, y=y0, v=x0.copy(), w=y0.copy(), lam=lam0)


def integrate(problem, initial, T, h=1e-3):
    """Classical 4th-order fixed-step integration, sampled every step.

    Returns the list of :class:`SmoothSystemState` at ``t = 0, h, 2h, ...``
    up to the horizon.  Raises :class:`OdeBlowUpError` if the state norm
    passes ``1e12``.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if T < 0:
        raise ValueError("T must be nonnegative")
    nx, ny, m = problem.dim_x, problem.dim_y, problem.dim_lam

    def f(t, z):
        return rhs(problem, SmoothSystemState.unpack(t, z, nx, ny, m))

    n_steps = int(round(T / h))
    z = initial.pack()
    t = initial.t
    out = [SmoothSystemState.unpack(t, z.copy(), nx, ny, m)]
    for _ in range(n_steps):
        k1 = f(t, z)
        k2 = f(t + 0.5 * h, z + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, z + 0.5 * h * k2)
        k4 = f(t + h, z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        if np.linalg.norm(z) > BLOWUP_NORM:
            raise OdeBlowUpError(t)
        out.append(SmoothSystemState.unpack(t, z.copy(), nx, ny, m))
    return out


def lyapunov_continuous(problem, state, saddle):
    """Continuous merit ``E(t)``: the discrete merit at the phase point,
    whose own ``theta``, ``gamma`` and ``beta`` weigh the distances."""
    return lyapunov(problem, state, state, LyapunovInputs(saddle=saddle))


def closed_form_parameters(t, mu_f, mu_g, gamma0, beta0):
    """Exact solutions of the parameter subsystem from (1, gamma0, beta0)."""
    decay = math.exp(-t)
    theta = decay
    gamma = mu_f + (gamma0 - mu_f) * decay
    beta = mu_g + (beta0 - mu_g) * decay
    return theta, gamma, beta


def trajectory_to_csv(problem, trajectory, path_or_buf, saddle=None, f_star=None):
    """Write ``t,E,feas,obj_gap,theta,gamma,beta`` rows for a trajectory.

    ``E`` needs a saddle point and ``obj_gap`` a reference value; either
    column is left empty when its reference is missing.
    """
    import csv

    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        for st in trajectory:
            e_val = lyapunov_continuous(problem, st, saddle) if saddle is not None else ""
            if f_star is not None:
                obj_gap = abs(problem.objective(st.x, st.y) - f_star)
            else:
                obj_gap = ""
            writer.writerow([repr(float(st.t)), _fmt(e_val), _fmt(feasibility_residual(problem, st.x, st.y)),
                             _fmt(obj_gap), repr(float(st.theta)),
                             repr(float(st.gamma)), repr(float(st.beta))])

    if hasattr(path_or_buf, "write"):
        write(path_or_buf)
    else:
        with open(path_or_buf, "w", newline="") as fh:
            write(fh)


def _fmt(v):
    return "" if v == "" else repr(float(v))
