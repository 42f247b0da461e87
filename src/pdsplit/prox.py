"""Builtin proximal oracles: l1, elastic net, hinge sums, boxes, quadratics.

Every prox here is closed form, written in the ``prox`` method of its class,
and refuses a step ``tau`` that is not positive.  ``QuadraticProx`` and
``SquaredL2`` are smooth oracles too, so either can be the smooth part of a
split f-block.  Both have a ``solve_augmented`` (a block's ``closed`` path),
in closed form from one kept eigendecomposition: of ``P``, through
``QuadraticProx``'s diagonal form in that basis, or of the smaller Gram
matrix of ``C``; so does ``ElasticNet``, by active-set Newton, which
declines when its answer fails the inner loop's stopping test.  The
diagonal form sums its Woodbury capacitance matrix from moments of ``C``
kept per operator, a Neumann series of at most ``_TERMS`` terms whose
dropped tail is below 2^-53 of the matrix, or directly past that cap;
a ``C`` with no fewer rows than columns takes the dense system.
"""

from functools import cached_property

import numpy as np

from .linops import DenseOperator
from .oracles import ProxOracle, SmoothOracle, _nonnegative
from .subprob import prox_gradient_step

__all__ = [
    "ShiftedL1",
    "SquaredL2",
    "ElasticNet",
    "HingeSum",
    "BoxIndicator",
    "QuadraticProx",
]

_NEWTON_STEPS = 25   # active-set Newton steps before the answer is tested
_TERMS = 9           # Neumann-series terms, and moments kept, of a diagonal quadratic's solve


def _check_step(tau):
    """Raise ``ValueError`` unless the prox step ``tau`` is positive (a NaN is not)."""
    if not tau > 0.0:
        raise ValueError(f"the prox step tau must be positive, not {tau!r}")


def _soft_threshold(z, tau, lam):
    """Prox of ``tau * lam * ||.||_1``: ``sign(z) * max(|z| - tau lam, 0)``."""
    if lam == 0.0:
        return np.asarray(z, dtype=float)
    return np.sign(z) * np.maximum(np.abs(z) - tau * lam, 0.0)


class ShiftedL1(ProxOracle):
    """``lam * ||y - shift||_1``."""

    def __init__(self, shift, lam=1.0):
        self.lam = _nonnegative("lam", lam)
        self.shift = np.asarray(shift, dtype=float)
        if not np.isfinite(self.shift).all():
            raise ValueError("shift must be finite")

    def value(self, z):
        return self.lam * float(np.sum(np.abs(z - self.shift)))

    def prox(self, z, tau):
        _check_step(tau)
        z = np.asarray(z, dtype=float)
        if z.shape != self.shift.shape:
            raise ValueError("shift and point must have matching shapes")
        return self.shift + _soft_threshold(z - self.shift, tau, self.lam)


class SquaredL2(ProxOracle, SmoothOracle):
    """``mu/2 * ||x||^2``: the quadratic of ``P = mu I`` without the n-by-n
    matrix, with the values and gradients of ``QuadraticProx(mu * I)``; at
    ``mu = 0`` value and prox skip the arithmetic (same on finite points)."""

    def __init__(self, mu):
        self.mu = self.lipschitz = self.strong_convexity = _nonnegative("mu", mu)

    def value(self, z):
        return 0.5 * z @ (self.mu * z) if self.mu else 0.0

    def gradient(self, z):
        return self.mu * z

    def prox(self, z, tau):
        _check_step(tau)
        z = np.asarray(z, dtype=float)
        return z / (1.0 + tau * self.mu) if self.mu else z

    _gram = None    # (C, dense C, lam, Q) of the last operator C

    def solve_augmented(self, r, C, sigma, weight, center):
        """Solve ``(d I + sigma C^T C) u = r``, ``d = weight + mu``, from
        ``Q diag(lam) Q^T``, the kept eigendecomposition of ``C C^T`` when C
        has fewer rows than columns (by Woodbury), else of ``C^T C``."""
        if self._gram is None or self._gram[0] is not C:
            M = C.to_dense()
            self._gram = (C, M, *np.linalg.eigh(M @ M.T if M.shape[0] < M.shape[1] else M.T @ M))
        _, M, lam, Q = self._gram
        d = weight + self.mu
        if M.shape[0] < M.shape[1]:
            return (r - sigma * (M.T @ (Q @ ((Q.T @ (M @ r)) / (d + sigma * lam))))) / d
        return Q @ ((Q.T @ r) / (d + sigma * lam))


class ElasticNet(ProxOracle):
    """``lam * ||x||_1 + mu/2 * ||x||^2``."""

    def __init__(self, lam, mu):
        self.lam = _nonnegative("lam", lam)
        self.mu = self.strong_convexity = _nonnegative("mu", mu)

    def value(self, z):
        l1 = self.lam * float(np.sum(np.abs(z)))
        return l1 + 0.5 * self.mu * float(z @ z) if self.mu else l1   # 0 * inf is nan

    def prox(self, z, tau):
        """Soft-threshold by ``tau * lam``, then shrink by ``1 / (1 + tau * mu)``
        (skipped at ``mu = 0``: same bits on finite points)."""
        _check_step(tau)
        x = _soft_threshold(z, tau, self.lam)
        return x / (1.0 + tau * self.mu) if self.mu else x

    def solve_augmented(self, r, C, sigma, weight, center):
        return _l1_newton(self, r, C, sigma, weight, center)


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
        self.weight = _nonnegative("weight", weight)

    def _margins(self, z):
        """``c_j z_j``, refusing a point not shaped like the labels."""
        z = np.asarray(z, dtype=float)
        if z.shape != self.labels.shape:
            raise ValueError(f"the point's shape {z.shape} differs from the labels' {self.labels.shape}")
        return self.labels * z

    def value(self, z):
        return self.weight * float(np.sum(np.maximum(0.0, 1.0 - self._margins(z))))

    def prox(self, z, tau):
        """Per coordinate, with ``t = tau * weight`` and ``s = c_j z_j``: the
        point is unchanged when ``s >= 1``, shifted by ``t c_j`` when
        ``s < 1 - t``, and clamped onto the kink ``c_j z_j = 1`` in between."""
        _check_step(tau)
        t = tau * self.weight
        s = self._margins(z)
        return self.labels * np.where(s >= 1.0, s, np.where(s < 1.0 - t, s + t, 1.0))


class BoxIndicator(ProxOracle):
    """Indicator of the box ``[lo, hi]``; prox is the projection.  A bound
    may be infinite (``lo = -inf, hi = 0`` is the nonpositive orthant), not NaN."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if np.isnan(self.lo).any() or np.isnan(self.hi).any():
            raise ValueError("the box's bounds must not be NaN")
        if np.any(self.lo > self.hi):
            raise ValueError("the box is empty: lo must not exceed hi")

    def value(self, z):
        if np.all(z >= self.lo - 1e-12) and np.all(z <= self.hi + 1e-12):
            return 0.0
        return np.inf

    def prox(self, z, tau):
        _check_step(tau)
        return np.clip(z, self.lo, self.hi)


class QuadraticProx(ProxOracle, SmoothOracle):
    """``(1/2) x^T P x + p^T x`` with PSD ``P``, prox in the eigenbasis of ``P``.

    ``eigh(P) = (e, V)`` is computed on first use and kept as ``(h, V)``, ``h``
    the diagonal form of ``(e, V^T p)``, which gives the moduli; so is ``C V``
    for the last (immutable) operator ``C``.  The prox and the closed-form
    augmented solve rotate into that basis, call ``h`` and rotate back.
    """

    def __init__(self, P, p=None):
        P = np.asarray(P, dtype=float)
        p = np.zeros(P.shape[:1]) if p is None else np.asarray(p, dtype=float)
        if P.ndim != 2 or p.ndim != 1 or P.shape != (p.size, p.size):
            raise ValueError(f"P must be square and p a vector of its side, not {P.shape} and {p.shape}")
        if not (np.isfinite(P).all() and np.isfinite(p).all()):
            raise ValueError("P and p must be finite")
        self.P, self.p = 0.5 * (P + P.T), p
        self._coupled = None    # (C, (h, C V, V)) for the last operator C

    @cached_property
    def _eigh(self):
        e, V = np.linalg.eigh(self.P)
        return _DiagonalQuadratic(e, V.T @ self.p), V

    strong_convexity = property(lambda self: self._eigh[0].strong_convexity)
    lipschitz = property(lambda self: self._eigh[0].lipschitz)

    def value(self, z):
        return 0.5 * float(z @ (self.P @ z)) + float(self.p @ z)

    def prox(self, z, tau):
        h, V = self._eigh
        return V @ h.prox(V.T @ z, tau)

    def gradient(self, z):
        return self.P @ z + self.p

    def solve_augmented(self, r, C, sigma, weight, center):
        h, CV, V = self.in_eigenbasis(C)
        return V @ h.solve_augmented(V.T @ r, CV, sigma, weight, V.T @ center)

    def in_eigenbasis(self, C):
        """``(h, C V, V)``: this quadratic in ``P``'s eigenbasis, kept for the last ``C``."""
        if self._coupled is None or self._coupled[0] is not C:
            h, V = self._eigh
            self._coupled = (C, (h, DenseOperator(C.to_dense() @ V), V))
        return self._coupled[1]


class _DiagonalQuadratic(ProxOracle, SmoothOracle):
    """``(1/2) x^T diag(e) x + p^T x``, a ``QuadraticProx`` in its eigenbasis,
    at O(n) a call.  Its moduli, the smallest ``e`` clamped at 0 and the
    largest, bypass ``SmoothOracle``'s check: an indefinite ``P`` is accepted.

    Its augmented solve through ``G`` (m < n) sums the Woodbury capacitance
    matrix ``I / sigma + G D^-1 G^T``, ``D = diag(e) + weight I``, from the moments
    ``M_t = G (diag(e) - c I)^t G^T``, ``t < _TERMS``, with ``c`` the midpoint
    of ``e`` and ``s`` its half-spread, kept for the last operator ``C``
    (``G = C.to_dense()``; ``_TERMS m^2`` floats, 180 KB at m = 50).  With
    ``a = weight + c`` and ``rho = s / a < 1``, the Neumann series
    ``D^-1 = sum_t (-1)^t (diag(e) - c I)^t / a^(t+1)`` cut after ``T``
    terms leaves a diagonal tail of at most ``rho^T (1 + rho) / (1 - rho)``
    times ``D^-1`` entrywise, so the dropped part of ``G D^-1 G^T`` is at
    most that factor times it in the PSD order; ``T`` is the fewest terms
    that make the factor at most 2^-53.  Past the cap, or at ``rho >= 1``, it
    forms ``Gs Gs^T``, ``Gs = G D^(-1/2)``; m >= n takes ``_solve_augmented_normal``."""

    _moments = None   # (C, the M_t stacked, each flattened) for the last operator C

    def __init__(self, e, p):
        self.e, self.p = e, p
        self.strong_convexity, self.lipschitz = float(max(e.min(), 0.0)), float(e.max())
        self._mid, self._half = 0.5 * (e.max() + e.min()), 0.5 * (e.max() - e.min())

    def value(self, z):
        return 0.5 * float(z @ (self.e * z)) + float(self.p @ z)

    def prox(self, z, tau):
        _check_step(tau)
        return (z - tau * self.p) / (1.0 + tau * self.e)

    def gradient(self, z):
        return self.e * z + self.p

    def solve_augmented(self, r, C, sigma, weight, center):
        G, d, rhs, a = C.to_dense(), self.e + weight, r - self.p, weight + self._mid
        m, n = G.shape
        if m >= n:
            return _solve_augmented_normal(d, G, sigma, rhs)
        terms = _series_terms(self._half / a) if self._half < a else None
        if terms is None:
            Gs = G / np.sqrt(d)
            K = Gs @ Gs.T
        else:
            if self._moments is None or self._moments[0] is not C:
                f = self.e - self._mid
                self._moments = (C, np.stack([(G * f ** t) @ G.T for t in range(_TERMS)]).reshape(_TERMS, -1))
            K = (-(-1.0 / a) ** np.arange(1, terms + 1) @ self._moments[1][:terms]).reshape(m, m)
        K.flat[::m + 1] += 1.0 / sigma
        return (rhs - G.T @ np.linalg.solve(K, G @ (rhs / d))) / d


def _series_terms(rho):
    """The fewest terms ``T <= _TERMS`` with ``rho^T (1 + rho) / (1 - rho) <= 2^-53``, else None."""
    factor = (1.0 + rho) / (1.0 - rho)
    for t in range(1, _TERMS + 1):
        factor *= rho
        if factor <= 2.0 ** -53:
            return t
    return None


def _l1_newton(block, r, C, sigma, weight, center):
    """Active-set (semismooth) Newton (Li, Sun & Toh, SIAM J. Optim. 2018)
    on the augmented subproblem of ``block``, ``lam ||u||_1 + mu/2 ||u||^2``.

    With ``d = weight + mu`` and the smooth part ``q`` (the subproblem
    without the l1 term, ``grad q(0) = -r``), the minimiser is the fixed point
    of ``u = soft(z, lam / d)``, ``z = u - grad q(u) / d = (r - sigma C^T C u) / d``.
    From ``center``, each step takes the signed active set
    ``s = sign(z) [|z| > lam / d]`` of the current ``u`` and solves
    ``(d I + sigma C_S^T C_S) u_S = r_S - lam s_S``, with ``u = 0`` off
    ``S``; once ``s`` repeats, ``u`` is that fixed point.  After that, or
    after ``_NEWTON_STEPS`` steps, ``u`` must pass the inner loop's stopping
    test at the inner loop's step; otherwise this returns None and the
    solver falls back to the inner loop.
    """
    M, d, lam = C.to_dense(), weight + block.mu, block.lam
    u, signs = np.array(center, dtype=float), None
    for _ in range(_NEWTON_STEPS):
        MtMu = M.T @ (M @ u)
        z = (r - sigma * MtMu) / d
        active = np.where(np.abs(z) > lam / d, np.sign(z), 0.0)
        if signs is not None and (active == signs).all():
            break
        signs, S = active, np.flatnonzero(active)
        u = np.zeros_like(u)
        u[S] = _solve_augmented_normal(d, M[:, S], sigma, r[S] - lam * signs[S])
    else:   # the last step moved u past its product
        MtMu = M.T @ (M @ u)
    _, _, accepted = prox_gradient_step(block, u, MtMu, C, sigma, weight, r)
    return u if accepted else None


def _solve_augmented_normal(d, G, sigma, rhs):
    """Solve ``(diag(d) + sigma G^T G) u = rhs``, ``d > 0`` Newton's scalar or,
    when ``G`` has no fewer rows than columns, the diagonal form's vector.
    With fewer rows m than columns, the m-by-m Woodbury capacitance system
    is ``G G^T + (d / sigma) I``, formed by one symmetric product."""
    if G.shape[0] < G.shape[1]:
        K = G @ G.T
        K.flat[::K.shape[0] + 1] += d / sigma
        return (rhs - G.T @ np.linalg.solve(K, G @ rhs)) / d
    H = sigma * (G.T @ G)
    H.flat[::H.shape[0] + 1] += d
    return np.linalg.solve(H, rhs)
