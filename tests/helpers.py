"""Shared builders for the test suite: seeded quadratic instances with
planted saddle points, in both oracle layouts; and the residuals that
inner-loop cap warnings print."""

import re

import numpy as np

from pdsplit.linops import DenseOperator
from pdsplit.oracles import SaddlePoint, SeparableProblem
from pdsplit.prox import QuadraticProx, SquaredL2
from pdsplit.subprob import InnerLoopCapWarning


def spd_matrix(rng, dim, mu):
    """Random PSD matrix with smallest eigenvalue shifted to ``mu``."""
    M = rng.standard_normal((dim, dim))
    H = M.T @ M / dim
    eigs = np.linalg.eigvalsh(H)
    return H + (mu - eigs[0]) * np.eye(dim)


def quadratic_instance(seed, mu_f=1.0, mu_g=1.0, n=8, ny=8, m=8):
    """Quadratic blocks with an exactly planted saddle point.

    The strong-convexity moduli of the blocks equal ``mu_f`` / ``mu_g``
    exactly (smallest eigenvalue shifted), so a zero modulus produces a
    genuinely non-strongly-convex block.  Returns ``(prox_form,
    split_form)`` sharing the same data and saddle; the split form's smooth
    part is the prox form's f oracle.
    """
    rng = np.random.default_rng(seed)
    P = spd_matrix(rng, n, mu_f)
    Q = spd_matrix(rng, ny, mu_g)
    A = rng.standard_normal((m, n))
    Bm = rng.standard_normal((m, ny))

    x_star = rng.standard_normal(n)
    y_star = rng.standard_normal(ny)
    lam_star = rng.standard_normal(m)
    p = -(P @ x_star + A.T @ lam_star)
    q = -(Q @ y_star + Bm.T @ lam_star)
    rhs = A @ x_star + Bm @ y_star
    saddle = SaddlePoint(x_star, y_star, lam_star)

    prox_form = SeparableProblem(
        QuadraticProx(P, p), QuadraticProx(Q, q),
        DenseOperator(A), DenseOperator(Bm), rhs,
        mu_f=mu_f, mu_g=mu_g, saddle=saddle)
    split_form = SeparableProblem(
        (prox_form.f_prox, SquaredL2(0.0)), QuadraticProx(Q, q),
        DenseOperator(A), DenseOperator(Bm), rhs,
        mu_f=mu_f, mu_g=mu_g, saddle=saddle)
    return prox_form, split_form


def without_saddle(prob):
    """``prob``'s data and moduli as a problem with no saddle point."""
    f = prob.f_prox if prob.f_smooth is None else (prob.f_smooth, prob.f_prox)
    return SeparableProblem(f, prob.g, prob.A, prob.B, prob.b, mu_f=prob.mu_f, mu_g=prob.mu_g)


MU_REGIMES = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))


def ode_quadratic_instance(seed, mu_f, mu_g, n=4, spread=0.02, coupling=0.02):
    """Mildly scaled quadratic instance for long-horizon flow integration.

    The scaling parameters decay like ``e^{-t}``, which makes the flow
    stiffer as time grows; keeping the curvature above the modulus and the
    coupling norms small keeps a fixed-step explicit integrator stable
    over ``t <= 10`` at ``h = 1e-3``.
    """
    rng = np.random.default_rng(seed)

    def block(dim, mu):
        M = rng.standard_normal((dim, dim))
        H = M.T @ M / dim
        eigs = np.linalg.eigvalsh(H)
        return H * (spread / eigs[-1]) + mu * np.eye(dim)

    P = block(n, mu_f)
    Q = block(n, mu_g)
    A = coupling * rng.standard_normal((n, n))
    Bm = coupling * rng.standard_normal((n, n))
    x_star = rng.standard_normal(n)
    y_star = rng.standard_normal(n)
    lam_star = rng.standard_normal(n)
    p = -(P @ x_star + A.T @ lam_star)
    q = -(Q @ y_star + Bm.T @ lam_star)
    rhs = A @ x_star + Bm @ y_star
    return SeparableProblem(
        QuadraticProx(P, p), QuadraticProx(Q, q),
        DenseOperator(A), DenseOperator(Bm), rhs,
        mu_f=mu_f, mu_g=mu_g, saddle=SaddlePoint(x_star, y_star, lam_star))


def printed_cap_residuals(caught):
    """The residual that each ``InnerLoopCapWarning`` among the recorded
    warnings ``caught`` prints in its message (``.3e``), read back as a float."""
    return [float(re.search(r"at residual (\S+) ", str(w.message)).group(1))
            for w in caught if w.category is InnerLoopCapWarning]
