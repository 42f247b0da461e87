"""Builtin proximal oracles: l1, elastic net, hinge sums, boxes, quadratics.

Every prox here is closed form.  The module-level functions carry the bare
formulas; the classes wrap them behind the :class:`~pdsplit.oracles.ProxOracle`
interface consumed by the solvers.
"""

import numpy as np

from .oracles import ProxOracle

__all__ = [
    "prox_l1",
    "prox_shifted_l1",
    "prox_elastic_net",
    "prox_hinge_sum",
    "ZeroFun",
    "L1Norm",
    "ShiftedL1",
    "SquaredL2",
    "ElasticNet",
    "HingeSum",
    "BoxIndicator",
    "QuadraticProx",
]


def prox_l1(z, t):
    """Soft thresholding: componentwise ``sign(z) * max(|z| - t, 0)``."""
    if t <= 0:
        raise ValueError("threshold must be positive")
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def prox_shifted_l1(z, shift, t):
    """Prox of ``||. - shift||_1`` scaled by ``t``: shift + soft-threshold."""
    z = np.asarray(z, dtype=float)
    shift = np.asarray(shift, dtype=float)
    if z.shape != shift.shape:
        raise ValueError("shift and point must have matching shapes")
    return shift + prox_l1(z - shift, t)


def prox_elastic_net(z, lam, mu, tau):
    """Prox of ``tau * (lam ||.||_1 + mu/2 ||.||^2)``.

    Soft-threshold by ``tau*lam`` then shrink by ``1/(1 + tau*mu)``.
    """
    if lam < 0 or mu < 0 or tau <= 0:
        raise ValueError("lam, mu must be nonnegative and tau positive")
    u = np.sign(z) * np.maximum(np.abs(z) - tau * lam, 0.0)
    return u / (1.0 + tau * mu)


def prox_hinge_sum(z, labels, weight, tau):
    """Prox of ``tau * weight * sum_j max(0, 1 - c_j z_j)`` with ``c_j = +-1``.

    Per coordinate (with ``t = tau * weight`` and ``s = c_j z_j``): the point
    is unchanged when ``s >= 1``, shifted by ``t c_j`` when ``s < 1 - t``,
    and clamped onto the kink ``c_j z_j = 1`` in between.
    """
    z = np.asarray(z, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if not np.all(np.abs(labels) == 1.0):
        raise ValueError("labels must be +-1")
    t = tau * weight
    s = labels * z
    u = np.where(s >= 1.0, s, np.where(s < 1.0 - t, s + t, 1.0))
    return labels * u


class ZeroFun(ProxOracle):
    """The zero function; prox is the identity."""

    def value(self, z):
        return 0.0

    def prox(self, z, tau):
        return np.asarray(z, dtype=float)

    def gradient(self, z):
        return np.zeros_like(np.asarray(z, dtype=float))

    def solve_augmented(self, linear, C, offset, sigma, weight, center):
        Cd = C.to_dense()
        H = sigma * (Cd.T @ Cd) + weight * np.eye(Cd.shape[1])
        rhs = weight * center - linear - sigma * C.adjoint(offset)
        return np.linalg.solve(H, rhs)


class L1Norm(ProxOracle):
    """``lam * ||x||_1``."""

    def __init__(self, lam):
        if lam < 0:
            raise ValueError("lam must be nonnegative")
        self.lam = float(lam)

    def value(self, z):
        return self.lam * float(np.sum(np.abs(z)))

    def prox(self, z, tau):
        if self.lam == 0.0:
            return np.asarray(z, dtype=float)
        return prox_l1(z, tau * self.lam)


class ShiftedL1(ProxOracle):
    """``lam * ||y - shift||_1``."""

    def __init__(self, shift, lam=1.0):
        self.shift = np.asarray(shift, dtype=float)
        self.lam = float(lam)

    def value(self, z):
        return self.lam * float(np.sum(np.abs(z - self.shift)))

    def prox(self, z, tau):
        if self.lam == 0.0:
            return np.asarray(z, dtype=float)
        return prox_shifted_l1(z, self.shift, tau * self.lam)


class SquaredL2(ProxOracle):
    """``mu/2 * ||x||^2``."""

    def __init__(self, mu):
        if mu < 0:
            raise ValueError("mu must be nonnegative")
        self.mu = float(mu)
        self.strong_convexity = float(mu)

    def value(self, z):
        return 0.5 * self.mu * float(z @ z)

    def prox(self, z, tau):
        return np.asarray(z, dtype=float) / (1.0 + tau * self.mu)


class ElasticNet(ProxOracle):
    """``lam * ||x||_1 + mu/2 * ||x||^2``."""

    def __init__(self, lam, mu):
        if lam < 0 or mu < 0:
            raise ValueError("lam and mu must be nonnegative")
        self.lam = float(lam)
        self.mu = float(mu)
        self.strong_convexity = float(mu)

    def value(self, z):
        return self.lam * float(np.sum(np.abs(z))) + 0.5 * self.mu * float(z @ z)

    def prox(self, z, tau):
        return prox_elastic_net(z, self.lam, self.mu, tau)


class HingeSum(ProxOracle):
    """``weight * sum_j max(0, 1 - c_j y_j)`` with labels ``c_j = +-1``.

    The affine shift by the bias vector is handled in problem assembly (it
    lives in the constraint right-hand side), so this oracle sees plain
    coordinates.
    """

    def __init__(self, labels, weight):
        labels = np.asarray(labels, dtype=float)
        if not np.all(np.abs(labels) == 1.0):
            raise ValueError("labels must be +-1")
        self.labels = labels
        self.weight = float(weight)

    def value(self, z):
        return self.weight * float(np.sum(np.maximum(0.0, 1.0 - self.labels * z)))

    def prox(self, z, tau):
        return prox_hinge_sum(z, self.labels, self.weight, tau)


class BoxIndicator(ProxOracle):
    """Indicator of the box ``[lo, hi]``; prox is the projection."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)

    def value(self, z):
        if np.all(z >= self.lo - 1e-12) and np.all(z <= self.hi + 1e-12):
            return 0.0
        return np.inf

    def prox(self, z, tau):
        return np.clip(z, self.lo, self.hi)


class QuadraticProx(ProxOracle):
    """``(1/2) x^T P x + p^T x`` with PSD ``P``, prox by a dense solve.

    Also solves augmented subproblems in closed form, which is what lets the
    Gauss-Seidel schemes run with a general coupling operator on this block.
    """

    def __init__(self, P, p=None):
        P = np.asarray(P, dtype=float)
        self.P = 0.5 * (P + P.T)
        self.p = np.zeros(P.shape[0]) if p is None else np.asarray(p, dtype=float)
        eigs = np.linalg.eigvalsh(self.P)
        self.strong_convexity = float(max(eigs[0], 0.0))
        self.lipschitz = float(eigs[-1])

    def value(self, z):
        return 0.5 * float(z @ (self.P @ z)) + float(self.p @ z)

    def prox(self, z, tau):
        n = self.P.shape[0]
        return np.linalg.solve(np.eye(n) + tau * self.P, z - tau * self.p)

    def gradient(self, z):
        return self.P @ z + self.p

    def solve_augmented(self, linear, C, offset, sigma, weight, center):
        Cd = C.to_dense()
        H = self.P + sigma * (Cd.T @ Cd) + weight * np.eye(Cd.shape[1])
        rhs = weight * center - self.p - linear - sigma * C.adjoint(offset)
        return np.linalg.solve(H, rhs)
