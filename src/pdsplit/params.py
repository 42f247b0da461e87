"""Parameter recursion, the step-size condition, and theoretical decay bounds.

The scaling triple ``(theta, gamma, beta)`` follows the implicit recursion

    theta+ = theta / (1 + a)
    gamma+ = (gamma + mu_f a) / (1 + a)
    beta+  = (beta  + mu_g a) / (1 + a)

and every scheme fixes its step size ``a`` so that one contraction condition

    a^2 (c_A beta ||A||^2 + c_B gamma ||B||^2 + c_L L_f beta theta) = gamma beta theta

holds at the current parameters; the scheme supplies only its coefficients
``(c_A, c_B, c_L)``.
"""

import enum
import math
from dataclasses import dataclass

from .oracles import _nonnegative

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
    ``implicit`` the block of the augmented step (``"x"``, ``"y"`` or None),
    and ``coefficients`` is ``(c_A, c_B, c_L)`` of the step-size condition:
    an implicit block's own operator leaves the condition, an explicit
    scheme pays twice for both, and Family 2 adds the smooth part's ``L_f``."""

    F1_SEMI_B = "f1-semiB"     # augmented x-step, B-norm condition
    F1_SEMI_A = "f1-semiA"     # augmented y-step, A-norm condition
    F1_EXPLICIT = "f1-explicit"
    F2_SEMI_B = "f2-semiB"
    F2_SEMI_A = "f2-semiA"
    F2_EXPLICIT = "f2-explicit"

    def __init__(self, tag):
        self.family = 1 if tag.startswith("f1") else 2
        self.implicit = {"semiB": "x", "semiA": "y"}.get(tag[3:])
        c_A, c_B = {"x": (0.0, 1.0), "y": (1.0, 0.0), None: (2.0, 2.0)}[self.implicit]
        self.coefficients = (c_A, c_B, self.family - 1.0)


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
        ``beta0``), else 1; user-overridable.  The moduli must be nonnegative
        and finite, the starts positive and finite."""
        mu_f, mu_g = _nonnegative("mu_f", mu_f), _nonnegative("mu_g", mu_g)
        g0 = gamma0 if gamma0 is not None else (mu_f if mu_f > 0 else 1.0)
        b0 = beta0 if beta0 is not None else (mu_g if mu_g > 0 else 1.0)
        if not (0 < g0 < math.inf and 0 < b0 < math.inf):
            raise ValueError(f"gamma0 and beta0 must be positive and finite, got {g0!r} and {b0!r}")
        return ParamState(theta=1.0, gamma=g0, beta=b0, k=0,
                          mu_f=mu_f, mu_g=mu_g,
                          gamma0=float(g0), beta0=float(b0))


@dataclass(frozen=True)
class StepSizeRule:
    """Norms and constants entering a scheme's step-size condition."""

    scheme: Scheme
    norm_A: float = 0.0
    norm_B: float = 0.0
    lipschitz_f: float = 0.0


def _terms(coefficients):
    """The bracket's nonzero terms, as text."""
    return " + ".join(t if c == 1 else f"{c:g} {t}" for c, t in
                      zip(coefficients, ("beta ||A||^2", "gamma ||B||^2", "L_f beta theta")) if c)


def solve_step_size(ps, rule):
    """Closed-form positive ``alpha_k`` meeting the step-size condition with
    equality at the index-``k`` parameters, with ``rule.scheme``'s
    coefficients; ``StepSizeError`` when the condition's bracket is not
    positive (every term it uses vanishes, or one is NaN)."""
    th, ga, be = ps.theta, ps.gamma, ps.beta
    c_A, c_B, c_L = rule.scheme.coefficients
    denom = c_L * rule.lipschitz_f * be * th + c_A * be * rule.norm_A ** 2 + c_B * ga * rule.norm_B ** 2
    if not denom > 0:
        raise StepSizeError(
            f"{rule.scheme.value}: no positive step size, the condition's bracket "
            f"{_terms(rule.scheme.coefficients)} is {denom!r} at ||A|| = {rule.norm_A!r}, "
            f"||B|| = {rule.norm_B!r}, L_f = {rule.lipschitz_f!r}")
    return math.sqrt(ga * be * th / denom)


def advance(ps, alpha):
    """One implicit step of the parameter recursion, at a positive and finite ``alpha``."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    d = 1.0 + alpha
    return ParamState(theta=ps.theta / d, gamma=(ps.gamma + ps.mu_f * alpha) / d,
                      beta=(ps.beta + ps.mu_g * alpha) / d, k=ps.k + 1, mu_f=ps.mu_f,
                      mu_g=ps.mu_g, gamma0=ps.gamma0, beta0=ps.beta0)


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
    (certified with constant 1).  For the others it is a shape bound whose
    generic constant is left at 1, to be fitted by the caller's comparison;
    it needs ``alpha_0 <= 1``, i.e. ``gamma0 beta0`` at most the step-size
    condition's bracket at ``theta = 1``, and sums the rate terms of the
    blocks whose coefficients are nonzero.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return BoundResult(1.0, True)
    kk = float(k)
    c_A, c_B, c_L = scheme.coefficients

    if scheme.family == 1 and scheme.implicit:
        # the semiB formula in (||B||, beta0, mu_g); semiA mirrors it in (||A||, gamma0, mu_f)
        norm, start, mu = (norm_B, beta0, mu_g) if c_B else (norm_A, gamma0, mu_f)
        Q = norm + math.sqrt(start)
        first = Q / (Q + math.sqrt(start) * kk)
        second = 4.0 * Q ** 2 / (2.0 * Q + math.sqrt(mu) * kk) ** 2
        return BoundResult(min(first, second), True)

    try:
        alpha0 = solve_step_size(ParamState(1.0, gamma0, beta0), StepSizeRule(scheme, norm_A, norm_B, lipschitz_f))
    except StepSizeError:
        alpha0 = math.inf
    if not alpha0 <= 1:
        return BoundResult(math.nan, False, f"requires alpha_0 <= 1: gamma0 beta0 <= {_terms(scheme.coefficients)} "
                                            "at theta = 1, gamma = gamma0, beta = beta0")

    # each rate term is 0.0 where the scheme's condition leaves its operator or L_f out;
    # the A-side's convex and strongly convex regimes each add the f-side's rate
    value_B = min(norm_B / (math.sqrt(beta0) * kk),
                  norm_B ** 2 / (mu_g * kk ** 2) if mu_g > 0 else math.inf) if c_B else 0.0
    lin_A = norm_A / (math.sqrt(gamma0) * kk) if c_A else 0.0
    quad_A = (norm_A ** 2 / (mu_f * kk ** 2) if c_A else 0.0) if mu_f > 0 else math.inf
    lip = c_L * lipschitz_f
    smooth = lip / (gamma0 * kk ** 2)
    expo = (math.exp(-(kk / 4.0) * math.sqrt(mu_f / lip)) if mu_f > 0 else math.inf) if lip > 0 else 0.0
    return BoundResult(value_B + min(lin_A + smooth, quad_A + expo), True)


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
