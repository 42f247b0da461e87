"""Parameter recursion, step-size conditions, and theoretical decay bounds.

The scaling triple ``(theta, gamma, beta)`` follows the implicit recursion

    theta+ = theta / (1 + a)
    gamma+ = (gamma + mu_f a) / (1 + a)
    beta+  = (beta  + mu_g a) / (1 + a)

and every scheme fixes its step size ``a`` so that its contraction condition
holds with equality at the current parameters.
"""

import enum
import math
from dataclasses import dataclass

__all__ = [
    "Scheme",
    "ParamState",
    "StepSizeRule",
    "StepSizeError",
    "solve_step_size",
    "advance",
    "BoundResult",
    "theoretical_theta_bound",
    "appendix_c_bound",
]


class Scheme(enum.Enum):
    """The six schemes: ``family`` picks the f-block discretisation (1 or 2),
    ``implicit`` the block of the augmented step (``"x"``, ``"y"`` or None)."""

    F1_SEMI_B = "f1-semiB"     # augmented x-step, B-norm condition
    F1_SEMI_A = "f1-semiA"     # augmented y-step, A-norm condition
    F1_EXPLICIT = "f1-explicit"
    F2_SEMI_B = "f2-semiB"
    F2_SEMI_A = "f2-semiA"
    F2_EXPLICIT = "f2-explicit"

    @property
    def family(self):
        return 1 if self.value.startswith("f1") else 2

    @property
    def implicit(self):
        return {"semiB": "x", "semiA": "y"}.get(self.value[3:])


class StepSizeError(ValueError):
    pass


@dataclass(frozen=True)
class ParamState:
    """The scaling triple at iteration ``k`` plus its defining constants."""

    theta: float = 1.0
    gamma: float = 1.0
    beta: float = 1.0
    k: int = 0
    mu_f: float = 0.0
    mu_g: float = 0.0
    gamma0: float = 1.0
    beta0: float = 1.0

    @staticmethod
    def initial(mu_f=0.0, mu_g=0.0, gamma0=None, beta0=None):
        """Initial parameters: ``gamma0 = mu_f`` when ``mu_f > 0`` (same for
        ``beta0``), else 1; user-overridable."""
        g0 = gamma0 if gamma0 is not None else (mu_f if mu_f > 0 else 1.0)
        b0 = beta0 if beta0 is not None else (mu_g if mu_g > 0 else 1.0)
        if g0 <= 0 or b0 <= 0:
            raise ValueError("gamma0 and beta0 must be positive")
        return ParamState(theta=1.0, gamma=g0, beta=b0, k=0,
                          mu_f=float(mu_f), mu_g=float(mu_g),
                          gamma0=float(g0), beta0=float(b0))


@dataclass(frozen=True)
class StepSizeRule:
    """Norms and constants entering a scheme's step-size condition."""

    scheme: Scheme
    norm_A: float = 0.0
    norm_B: float = 0.0
    lipschitz_f: float = 0.0


def solve_step_size(ps, rule):
    """Closed-form positive ``alpha_k`` satisfying the scheme's condition
    with equality at the index-``k`` parameters."""
    th, ga, be = ps.theta, ps.gamma, ps.beta
    nA, nB, Lf = rule.norm_A, rule.norm_B, rule.lipschitz_f
    s = rule.scheme

    if s is Scheme.F1_SEMI_B:
        if nB <= 0:
            raise StepSizeError("||B|| = 0: use the A-sided or explicit scheme instead")
        return math.sqrt(th * be) / nB
    if s is Scheme.F1_SEMI_A:
        if nA <= 0:
            raise StepSizeError("||A|| = 0: use the B-sided or explicit scheme instead")
        return math.sqrt(th * ga) / nA
    if s is Scheme.F1_EXPLICIT:
        denom = 2.0 * (be * nA ** 2 + ga * nB ** 2)
        if denom <= 0:
            raise StepSizeError("||A|| = ||B|| = 0: the explicit condition degenerates")
        return math.sqrt(ga * be * th / denom)
    if s is Scheme.F2_SEMI_B:
        denom = Lf * be * th + ga * nB ** 2
        if denom <= 0:
            raise StepSizeError("L_f and ||B|| both vanish: condition degenerates")
        return math.sqrt(ga * be * th / denom)
    if s is Scheme.F2_SEMI_A:
        denom = Lf * th + nA ** 2
        if denom <= 0:
            raise StepSizeError("L_f and ||A|| both vanish: condition degenerates")
        return math.sqrt(ga * th / denom)
    if s is Scheme.F2_EXPLICIT:
        denom = Lf * be * th + 2.0 * be * nA ** 2 + 2.0 * ga * nB ** 2
        if denom <= 0:
            raise StepSizeError("all condition coefficients vanish")
        return math.sqrt(ga * be * th / denom)
    raise ValueError(f"unknown scheme {s}")


def advance(ps, alpha):
    """One implicit step of the parameter recursion."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    d = 1.0 + alpha
    return ParamState(
        theta=ps.theta / d,
        gamma=(ps.gamma + ps.mu_f * alpha) / d,
        beta=(ps.beta + ps.mu_g * alpha) / d,
        k=ps.k + 1,
        mu_f=ps.mu_f, mu_g=ps.mu_g, gamma0=ps.gamma0, beta0=ps.beta0,
    )


@dataclass(frozen=True)
class BoundResult:
    """A published-bound evaluation; ``applicable`` is False when the
    bound's hypotheses fail, in which case ``value`` is meaningless."""

    value: float
    applicable: bool
    note: str = ""


def theoretical_theta_bound(scheme, k, norm_A=0.0, norm_B=0.0,
                            mu_f=0.0, mu_g=0.0, lipschitz_f=0.0,
                            gamma0=1.0, beta0=1.0):
    """Evaluate the scheme's published decay bound on ``theta_k``.

    For the semi-implicit Family-1 schemes the bound is an explicit formula
    (certified with constant 1); for the others it is a shape bound whose
    generic constant is left at 1, to be fitted by the caller's comparison.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return BoundResult(1.0, True)
    kk = float(k)

    if scheme is Scheme.F1_SEMI_B:
        Q = norm_B + math.sqrt(beta0)
        first = Q / (Q + math.sqrt(beta0) * kk)
        second = 4.0 * Q ** 2 / (2.0 * Q + math.sqrt(mu_g) * kk) ** 2
        return BoundResult(min(first, second), True)

    if scheme is Scheme.F1_SEMI_A:
        Q = norm_A + math.sqrt(gamma0)
        first = Q / (Q + math.sqrt(gamma0) * kk)
        second = 4.0 * Q ** 2 / (2.0 * Q + math.sqrt(mu_f) * kk) ** 2
        return BoundResult(min(first, second), True)

    def a_side_f1():
        lin = norm_A / (math.sqrt(gamma0) * kk)
        quad = norm_A ** 2 / (mu_f * kk ** 2) if mu_f > 0 else math.inf
        return min(lin, quad)

    def b_side():
        lin = norm_B / (math.sqrt(beta0) * kk)
        quad = norm_B ** 2 / (mu_g * kk ** 2) if mu_g > 0 else math.inf
        return min(lin, quad)

    def f_side_f2():
        smooth = lipschitz_f / (gamma0 * kk ** 2)
        if mu_f > 0 and lipschitz_f > 0:
            expo = math.exp(-(kk / 4.0) * math.sqrt(mu_f / lipschitz_f))
        else:
            expo = math.inf if lipschitz_f > 0 else 0.0
        return min(smooth, expo)

    def a_side_f2():
        # min over the two hypothesis regimes of the Family-2 A-sided rate
        conv = norm_A / (math.sqrt(gamma0) * kk) + lipschitz_f / (gamma0 * kk ** 2)
        if mu_f > 0:
            sc = norm_A ** 2 / (mu_f * kk ** 2)
            sc += math.exp(-(kk / 4.0) * math.sqrt(mu_f / lipschitz_f)) if lipschitz_f > 0 else 0.0
        else:
            sc = math.inf
        return min(conv, sc)

    if scheme is Scheme.F1_EXPLICIT:
        if gamma0 * beta0 > 2.0 * beta0 * norm_A ** 2 + 2.0 * gamma0 * norm_B ** 2:
            return BoundResult(math.nan, False, "requires gamma0*beta0 <= 2*beta0*||A||^2 + 2*gamma0*||B||^2")
        return BoundResult(a_side_f1() + b_side(), True)

    if scheme is Scheme.F2_SEMI_B:
        if gamma0 * beta0 > lipschitz_f * beta0 + gamma0 * norm_B ** 2:
            return BoundResult(math.nan, False, "requires gamma0*beta0 <= L_f*beta0 + gamma0*||B||^2")
        return BoundResult(b_side() + f_side_f2(), True)

    if scheme is Scheme.F2_SEMI_A:
        if gamma0 > lipschitz_f + norm_A ** 2:
            return BoundResult(math.nan, False, "requires gamma0 <= L_f + ||A||^2")
        return BoundResult(a_side_f2(), True)

    if scheme is Scheme.F2_EXPLICIT:
        if gamma0 * beta0 > lipschitz_f * beta0 + 2.0 * beta0 * norm_A ** 2 + 2.0 * gamma0 * norm_B ** 2:
            return BoundResult(math.nan, False,
                               "requires gamma0*beta0 <= L_f*beta0 + 2*beta0*||A||^2 + 2*gamma0*||B||^2")
        return BoundResult(b_side() + a_side_f2(), True)

    raise ValueError(f"unknown scheme {scheme}")


def appendix_c_bound(case, k, sigma=1.0, tau=1.0, nu=1.0, P=0.0, Q=0.0, R=0.0):
    """Decay bounds for the supporting difference-equation recursions.

    case "C1": ``(1 + sigma*tau*nu*k)^(-1/nu)``.
    case "C2": power/exponential branches depending on ``nu`` (generic
    constant taken as 1).
    case "C3": ``exp(-sigma*tau*k / (2 sqrt(P))) + 36 Q/(sigma*tau*k)^2
    + 6 R/(sigma*tau*k)``.
    """
    if not (0.0 < tau <= 1.0):
        raise ValueError("tau must lie in (0, 1]")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")

    if case == "C1":
        if nu <= 0:
            raise ValueError("nu must be positive")
        return (1.0 + sigma * tau * nu * k) ** (-1.0 / nu)

    if k == 0:
        return 1.0
    st = sigma * tau * k

    if case == "C2":
        if nu < 0.5:
            raise ValueError("C2 requires nu >= 1/2")
        if Q <= 0:
            raise ValueError("C2 requires Q > 0")
        if nu == 0.5:
            return math.exp(-st / (2.0 * math.sqrt(Q))) + (R / st) ** 2
        return (math.sqrt(Q) / st) ** (2.0 / (2.0 * nu - 1.0)) + (R / st) ** (1.0 / nu)

    if case == "C3":
        if P <= 0:
            raise ValueError("C3 requires P > 0")
        return math.exp(-st / (2.0 * math.sqrt(P))) + 36.0 * Q / st ** 2 + 6.0 * R / st

    raise ValueError(f"unknown case {case!r}")
