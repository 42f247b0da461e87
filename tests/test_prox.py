"""Proximal oracle suite.

Each closed-form prox is checked coordinatewise against a golden-section
scalar minimizer (an oracle with no algebra shared with the
implementation), plus the standard operator identities: firm
nonexpansiveness and the Moreau decomposition.
"""

from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from pdsplit import prox
from pdsplit.linops import DenseOperator
from pdsplit.oracles import SeparableProblem
from pdsplit.prox import (BoxIndicator, ElasticNet, HingeSum, QuadraticProx,
                          ShiftedL1, SquaredL2, _DiagonalQuadratic, _solve_augmented_normal)


def golden_prox_1d(h, z, tau, bracket=20.0):
    """Scalar prox via golden-section search on h(u) + (u-z)^2 / (2 tau).

    Value-only search stalls near 1e-8 at smooth minima (quadratic
    flatness), so the result is polished with one parabolic fit; all the
    scalar functions under test are piecewise quadratic, which makes the
    vertex exact whenever the three sample points share a piece.  At kink
    minima the fit is rejected by the value comparison and the raw search
    point (accurate there) is kept.
    """
    obj = lambda u: h(u) + (u - z) ** 2 / (2.0 * tau)
    res = minimize_scalar(obj, bracket=(z - bracket, z + bracket), method="golden",
                          options={"xtol": 1e-12})
    u0 = res.x
    step = 1e-4
    f_m, f_0, f_p = obj(u0 - step), obj(u0), obj(u0 + step)
    denom = f_m - 2.0 * f_0 + f_p
    slope_jump = denom / step   # right slope minus left slope across u0
    if 0.0 < slope_jump < 0.05:
        vertex = u0 + 0.5 * step * (f_m - f_p) / denom
        if abs(vertex - u0) <= step:
            return vertex
    return u0


def separable_cases(rng):
    """(oracle, scalar function) pairs for coordinatewise comparison."""
    shift = rng.standard_normal(1)[0]
    labels = np.array([1.0 if rng.random() < 0.5 else -1.0])
    weight = 0.1 + rng.random()
    lam = 0.1 + rng.random()
    mu = 0.1 + rng.random()
    return [
        (ElasticNet(lam, 0.0), lambda u: lam * abs(u), None),
        (ShiftedL1(np.array([shift]), lam), lambda u: lam * abs(u - shift), None),
        (ElasticNet(lam, mu), lambda u: lam * abs(u) + 0.5 * mu * u * u, None),
        (SquaredL2(mu), lambda u: 0.5 * mu * u * u, None),
        (HingeSum(labels, weight),
         lambda u: weight * max(0.0, 1.0 - labels[0] * u), None),
        (QuadraticProx(np.array([[mu]]), np.array([shift])),
         lambda u: 0.5 * mu * u * u + shift * u, None),
        (SquaredL2(0.0), lambda u: 0.0, None),
    ]


def test_prox_matches_golden_section_oracle():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        z = rng.standard_normal(1) * 3.0
        tau = 0.05 + 2.0 * rng.random()
        for oracle, scalar_h, _ in separable_cases(rng):
            got = oracle.prox(z, tau)[0]
            want = golden_prox_1d(scalar_h, z[0], tau)
            assert abs(got - want) <= 1e-8, f"{type(oracle).__name__}: {got} vs {want}"
        checked += 1


def test_box_projection_against_oracle():
    rng = np.random.default_rng(43)
    lo, hi = np.array([-0.5]), np.array([1.5])
    box = BoxIndicator(lo, hi)
    for _ in range(100):
        z = rng.standard_normal(1) * 3.0
        got = box.prox(z, 1.0)[0]
        assert abs(got - np.clip(z[0], lo[0], hi[0])) <= 1e-12


def test_firm_nonexpansiveness():
    rng = np.random.default_rng(44)
    oracles = [ElasticNet(0.7, 0.0), ElasticNet(0.3, 0.5), SquaredL2(1.2),
               HingeSum(np.array([1.0, -1.0, 1.0]), 0.4),
               BoxIndicator(-np.ones(3), np.ones(3)),
               ShiftedL1(rng.standard_normal(3))]
    for oracle in oracles:
        for _ in range(200):
            z1 = rng.standard_normal(3) * 2.0
            z2 = rng.standard_normal(3) * 2.0
            tau = 0.1 + rng.random()
            p1, p2 = oracle.prox(z1, tau), oracle.prox(z2, tau)
            lhs = np.sum((p1 - p2) ** 2)
            rhs = (p1 - p2) @ (z1 - z2)
            assert lhs <= rhs + 1e-12


def test_moreau_identity():
    # z = prox_{tau h}(z) + tau prox_{h*/tau}(z/tau) for each builtin
    rng = np.random.default_rng(45)
    for _ in range(50):
        z = rng.standard_normal(4) * 2.0
        tau = 0.2 + rng.random()
        lam = 0.8
        p = ElasticNet(lam, 0.0).prox(z, tau)
        # conjugate of lam||.||_1 is the indicator of the lam-box
        dual = np.clip(z / tau, -lam, lam)
        assert np.allclose(p + tau * dual, z, atol=1e-12)


def test_soft_threshold_values():
    z = np.array([3.0, -0.5, 0.0, -2.0])
    assert np.allclose(ElasticNet(1.0, 0.0).prox(z, 1.0), [2.0, 0.0, 0.0, -1.0])


def test_shifted_l1_fixed_point_at_shift():
    shift = np.array([1.0, -2.0])
    assert np.allclose(ShiftedL1(shift).prox(shift.copy(), 0.7), shift)


def test_elastic_net_order_threshold_then_shrink():
    z = np.array([2.0])
    out = ElasticNet(lam=1.0, mu=1.0).prox(z, tau=1.0)
    # threshold 2 -> 1, then shrink by 1/(1+1) -> 0.5
    assert out[0] == pytest.approx(0.5)


def test_hinge_prox_three_regions():
    labels = np.array([1.0, 1.0, 1.0])
    z = np.array([2.0, -1.0, 0.9])
    out = HingeSum(labels, weight=1.0).prox(z, tau=0.5)
    # s >= 1: unchanged; s < 1 - t: shift by t; in between: clamp to 1
    assert np.allclose(out, [2.0, -0.5, 1.0])


def test_prox_calls_check_step_and_shape():
    # every prox refuses a step that is not positive with one message; the
    # unweighted l1 used to return its point, the quadratics to divide by
    # zero, the hinge to move its point and the box to ignore the step
    z = np.array([1.5, -0.2])
    oracles = (ElasticNet(1.0, 0.0), ElasticNet(1.0, 0.5), ElasticNet(0.0, 1.0),
               ShiftedL1(np.zeros(2)), ShiftedL1(np.zeros(2), lam=0.0), SquaredL2(1.0),
               SquaredL2(0.0), HingeSum(np.array([1.0, -1.0]), 1.0),
               BoxIndicator(-np.ones(2), np.ones(2)), QuadraticProx(np.eye(2)),
               QuadraticProx(np.eye(2)).in_eigenbasis(DenseOperator(np.eye(2)))[0])
    for oracle in oracles:
        for tau in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="^the prox step tau must be positive, not "):
                oracle.prox(z, tau)
    with pytest.raises(ValueError):
        ShiftedL1(np.zeros(3)).prox(z, 1.0)
    # no l1 weight: the elastic net is a pure shrink
    assert np.allclose(ElasticNet(0.0, 1.0).prox(z, 1.0), z / 2.0)


def test_hinge_rejects_bad_labels():
    with pytest.raises(ValueError):
        HingeSum(np.array([1.0, 0.5]), 1.0)


def test_hinge_rejects_negative_weight():
    # a negative weight makes the hinge concave; its "prox" is not one
    with pytest.raises(ValueError, match="weight"):
        HingeSum(np.array([1.0, -1.0]), -0.5)
    assert HingeSum(np.array([1.0, -1.0]), 0.0).value(np.zeros(2)) == 0.0


def test_box_rejects_empty_box():
    with pytest.raises(ValueError, match="empty"):
        BoxIndicator(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
    # a degenerate box is a point, and not empty
    assert np.array_equal(BoxIndicator(1.0, 1.0).prox(np.array([3.0]), 1.0), [1.0])
    # an infinite bound is legal: lo = -inf, hi = 0 is the nonpositive orthant
    assert np.array_equal(BoxIndicator(-np.inf, 0.0).prox(np.array([-2.0, 3.0]), 1.0), [-2.0, 0.0])


@pytest.mark.parametrize("labels, point", [(1, 3), (3, 1), (2, 3)], ids=["1-of-3", "3-of-1", "2-of-3"])
@pytest.mark.parametrize("call", ["prox", "value"])
def test_hinge_refuses_a_point_not_shaped_like_its_labels(labels, point, call):
    # one label used to be read against every coordinate of the point
    hinge = HingeSum(np.ones(labels), 1.0)
    args = (np.zeros(point), 1.0) if call == "prox" else (np.zeros(point),)
    with pytest.raises(ValueError, match=rf"^the point's shape \({point},\) differs from the labels' "
                                         rf"\({labels},\)$"):
        getattr(hinge, call)(*args)


@pytest.mark.parametrize("build, message", [
    (lambda: ShiftedL1(np.array([0.0, np.nan])), "shift must be finite"),
    (lambda: ShiftedL1(np.array([np.inf, 0.0])), "shift must be finite"),
    (lambda: BoxIndicator(np.array([np.nan, 0.0]), np.ones(2)), "the box's bounds must not be NaN"),
    (lambda: BoxIndicator(np.zeros(2), np.nan), "the box's bounds must not be NaN"),
], ids=["shift-nan", "shift-inf", "box-lo-nan", "box-hi-nan"])
def test_shift_and_box_bounds_refuse_undefined_data(build, message):
    # a NaN shift used to run until an iterate went non-finite; a NaN bound
    # passed the empty-box check and clipped nothing
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_shifted_l1_rejects_negative_lam():
    with pytest.raises(ValueError, match="lam must be nonnegative"):
        ShiftedL1(np.zeros(2), -1.0)


@pytest.mark.parametrize("build, name", [
    (lambda v: SquaredL2(v), "mu"),
    (lambda v: ElasticNet(1.0, v), "mu"),
    (lambda v: ElasticNet(v, 1.0), "lam"),
    (lambda v: ShiftedL1(np.zeros(2), lam=v), "lam"),
    (lambda v: HingeSum(np.array([1.0, -1.0]), v), "weight"),
], ids=["squared-l2", "enet-mu", "enet-lam", "shifted-l1", "hinge"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
def test_oracle_parameters_must_be_finite_and_nonnegative(build, name, value):
    # each check used to be ``< 0``, which a NaN passes
    with pytest.raises(ValueError, match=f"{name} must be nonnegative and finite"):
        build(value)


def test_quadratic_prox_optimality():
    rng = np.random.default_rng(46)
    M = rng.standard_normal((5, 5))
    P = M.T @ M / 5 + 0.5 * np.eye(5)
    p = rng.standard_normal(5)
    q = QuadraticProx(P, p)
    z = rng.standard_normal(5)
    tau = 0.7
    u = q.prox(z, tau)
    # stationarity: P u + p + (u - z)/tau = 0
    assert np.allclose(P @ u + p + (u - z) / tau, 0.0, atol=1e-10)
    # beats random competitors
    obj = lambda v: q.value(v) + np.sum((v - z) ** 2) / (2 * tau)
    for _ in range(100):
        v = u + rng.standard_normal(5) * 0.3
        assert obj(u) <= obj(v) + 1e-12


def test_prox_values_extended_real():
    box = BoxIndicator(np.zeros(2), np.ones(2))
    assert box.value(np.array([0.5, 0.5])) == 0.0
    assert box.value(np.array([1.5, 0.5])) == np.inf
    assert ElasticNet(2.0, 0.0).value(np.array([1.0, -2.0])) == pytest.approx(6.0)
    # ||z||^2 overflows, and must not turn lam ||z||_1 into nan
    assert ElasticNet(1.0, 0.0).value(np.array([1e200, -1e200])) == 2e200


def test_strong_convexity_declarations():
    assert ElasticNet(1.0, 0.3).strong_convexity == pytest.approx(0.3)
    assert SquaredL2(0.9).strong_convexity == pytest.approx(0.9)
    assert ElasticNet(1.0, 0.0).strong_convexity == 0.0


def _psd(rng, n, rank=None):
    M = rng.standard_normal((rank or n, n))
    return M.T @ M / n


def _rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("n, rank", [(1, None), (8, None), (8, 7), (200, None), (200, 199)])
def test_eigenbasis_prox_matches_dense_solve(n, rank):
    # rank < n: a PSD P with a zero eigenvalue
    rng = np.random.default_rng(n + (rank or 0))
    P, p = _psd(rng, n, rank), rng.standard_normal(n)
    q = QuadraticProx(P, p)
    for tau in (1e-3, 0.7, 50.0):
        z = rng.standard_normal(n)
        want = np.linalg.solve(np.eye(n) + tau * q.P, z - tau * p)
        assert _rel_err(q.prox(z, tau), want) <= 1e-12


@pytest.mark.parametrize("m", [5, 30])
def test_diagonal_form_matches_its_dense_quadratic(m):
    # the diagonal form of QuadraticProx(np.diag(e), p), whose eigenbasis V is
    # a permutation: each of its results, mapped back by V, is the dense
    # one's.  Unsorted eigenvalues with a zero among them; m < n takes the
    # capacitance system of the augmented solve, m >= n the direct one
    n = 12
    rng = np.random.default_rng(m)
    e, p = rng.permutation(np.r_[0.0, rng.random(n - 1) * 5.0]), rng.standard_normal(n)
    dense, case = QuadraticProx(np.diag(e), p), _augmented_case(rng, m, n)
    diag, CV, V = dense.in_eigenbasis(case["C"])
    assert type(diag) is _DiagonalQuadratic and diag.e.shape == (n,)
    assert np.allclose(diag.e, np.sort(e), rtol=1e-12, atol=1e-12)
    assert (diag.strong_convexity, diag.lipschitz) == (dense.strong_convexity, dense.lipschitz)
    z = rng.standard_normal(n)
    assert abs(diag.value(V.T @ z) - dense.value(z)) <= 1e-12 * abs(dense.value(z))
    assert _rel_err(V @ diag.gradient(V.T @ z), dense.gradient(z)) <= 1e-12
    for tau in (1e-3, 0.7, 50.0):
        assert _rel_err(V @ diag.prox(V.T @ z, tau), dense.prox(z, tau)) <= 1e-12
    for sigma in (1e-3, 1.0, 1e3):
        args = _augmented_args(case, sigma)
        got = diag.solve_augmented(V.T @ args["r"], CV, sigma, args["weight"], V.T @ args["center"])
        assert _rel_err(V @ got, dense.solve_augmented(**args)) <= 1e-12


def _augmented_reference(P, p, r, C, sigma, weight, center):
    M = C.matrix
    return np.linalg.solve(P + sigma * M.T @ M + weight * np.eye(M.shape[1]), r - p)


def _augmented_case(rng, m, n):
    return dict(linear=rng.standard_normal(n), C=DenseOperator(rng.standard_normal((m, n))),
                offset=rng.standard_normal(m), weight=0.1 + rng.random(),
                center=rng.standard_normal(n))


def _augmented_args(case, sigma):
    """``solve_augmented``'s arguments for the case's subproblem
    ``h(u) + <linear, u> + sigma/2 ||C u + offset||^2 + weight/2 ||u - center||^2``,
    whose right-hand side is ``r = weight center - linear - sigma C^T offset``."""
    C, weight, center = case["C"], case["weight"], case["center"]
    r = weight * center - case["linear"] - sigma * C.matrix.T @ case["offset"]
    return dict(r=r, C=C, sigma=sigma, weight=weight, center=center)


@pytest.mark.parametrize("m", [5, 12, 30])
@pytest.mark.parametrize("sigma", [1e-3, 1.0, 1e3])
def test_solve_augmented_matches_normal_equations(m, sigma, monkeypatch):
    # m < n takes the capacitance system, m >= n the eigenbasis system; the
    # weights are the case's own 0.1 + U(0, 1), then 1e2 and 1e4
    n = 12
    rng = np.random.default_rng(m)
    P, p = _psd(rng, n, n - 1), rng.standard_normal(n)
    for oracle, P_ref, p_ref in ((QuadraticProx(P, p), P, p),
                                 (SquaredL2(0.0), np.zeros((n, n)), np.zeros(n)),
                                 (SquaredL2(0.7), 0.7 * np.eye(n), np.zeros(n))):
        case = _augmented_case(rng, m, n)
        for weight in (case["weight"], 1e2, 1e4):
            args = _augmented_args(dict(case, weight=weight), sigma)
            got = oracle.solve_augmented(**args)
            want = _augmented_reference(P_ref, p_ref, **args)
            assert _rel_err(got, want) <= 1e-10, (type(oracle).__name__, weight)
    # the kernel itself, for Newton's scalar d, and at m >= n for a diagonal
    # d (the quadratic's, whose m < n solve is its own, checked below)
    G, rhs = rng.standard_normal((m, n)), rng.standard_normal(n)
    for d in (0.1 + rng.random(n), 0.1 + rng.random()):
        if np.ndim(d) and m < n:
            continue
        want = _exact_normal_solve(d, G, sigma, rhs)
        assert _rel_err(_solve_augmented_normal(d, G, sigma, rhs), want) <= 1e-12, np.ndim(d)
    # the diagonal form's solve: at m < n a weight whose series needs at most
    # 9 terms takes the kept moments (1e2, 1e4 and the cap's edge), and a
    # small one and one just past the cap form the capacitance matrix
    # directly; every one at m >= n takes the kernel above
    e, q = rng.random(n), rng.standard_normal(n)
    diag, mid, half = _DiagonalQuadratic(e, q), 0.5 * (e.max() + e.min()), 0.5 * (e.max() - e.min())
    edge = _series_edge(9)
    inside, past = half / (edge * (1.0 - 1e-6)) - mid, half / (edge * (1.0 + 1e-6)) - mid
    assert 30.0 > inside > past > 1.0
    routes = []   # per call: the kernel, the kept moments or the direct capacitance matrix
    monkeypatch.setattr(prox, "_solve_augmented_normal",
                        lambda *args: routes.append("kernel") or _solve_augmented_normal(*args))
    weights = (0.1 + rng.random(), 1e2, 1e4, inside, past)
    for weight in weights:
        want = _exact_normal_solve(e + weight, G, sigma, rhs - q)
        C, kept, calls = DenseOperator(G), diag._moments, len(routes)
        got = diag.solve_augmented(rhs, C, sigma, weight, np.zeros(n))
        assert _rel_err(got, want) <= 1e-12, weight
        if len(routes) == calls:   # a fresh operator: the series keeps its moments, the direct matrix none
            routes.append("direct" if diag._moments is kept else
                          "moments" if diag._moments[0] is C else "other")
    assert routes == (["direct", "moments", "moments", "moments", "direct"] if m < n
                      else ["kernel"] * len(weights))


def _series_edge(terms):
    """The ratio ``rho`` at which ``rho^terms (1 + rho) / (1 - rho) = 2^-53``:
    a Neumann series of ratio rho needs more than ``terms`` terms just above it."""
    rho = 0.0
    for _ in range(10):   # a fixed point whose map has slope about -2 rho / terms
        rho = (2.0 ** -53 * (1.0 - rho) / (1.0 + rho)) ** (1.0 / terms)
    return rho


def _exact_normal_solve(d, G, sigma, rhs):
    """``(diag(d) + sigma G^T G)^{-1} rhs`` in exact rational arithmetic, rounded
    once.  A float solve of this system is off by up to its condition number
    times eps: ``np.linalg.solve`` is 1.3e-12 from it at m = 5, sigma = 1e3."""
    n, exact = G.shape[1], np.vectorize(Fraction, otypes=[object])
    H = np.diag(exact(np.broadcast_to(d, n))) + Fraction(sigma) * (exact(G).T @ exact(G))
    rows = np.column_stack([H, exact(rhs)])
    for c in range(n):   # Gauss-Jordan; H is positive definite, so no pivot is 0
        rows[c] /= rows[c, c]
        for r in range(n):
            if r != c:
                rows[r] -= rows[r, c] * rows[c]
    return rows[:, n].astype(float)


def test_solve_augmented_never_reuses_another_operators_factor():
    rng = np.random.default_rng(7)
    n = 10
    P, p = _psd(rng, n), rng.standard_normal(n)
    q = QuadraticProx(P, p)
    cases = [_augmented_case(rng, 4, n), _augmented_case(rng, 4, n), _augmented_case(rng, 15, n)]
    # the second round's weight takes the kept moments of each 4-row operator
    for i in range(18):
        args = _augmented_args(dict(cases[i % 3], weight=1e4) if i >= 9 else cases[i % 3], 2.0)
        got = q.solve_augmented(**args)
        want = _augmented_reference(P, p, **args)
        assert _rel_err(got, want) <= 1e-10


def test_large_weight_takes_the_kept_moments_not_the_direct_solve(monkeypatch):
    # a diagonal quadratic's m < n solve at a weight far above its spread
    # sums the kept moments' series, kept for its C V: neither the dense
    # kernel nor the direct capacitance matrix runs
    def direct(*args):
        raise AssertionError("the direct augmented solve ran")

    rng = np.random.default_rng(12)
    n = 40
    P, p = _psd(rng, n), rng.standard_normal(n)
    q = QuadraticProx(P, p)
    monkeypatch.setattr(prox, "_solve_augmented_normal", direct)
    for sigma, weight in ((1e-3, 5e3), (1.0, 1e3), (1e3, 1e5)):
        args = _augmented_args(dict(_augmented_case(rng, 10, n), weight=weight), sigma)
        assert _rel_err(q.solve_augmented(**args), _augmented_reference(P, p, **args)) <= 1e-10
        h, CV, _ = q.in_eigenbasis(args["C"])
        assert h._moments is not None and h._moments[0] is CV


@pytest.mark.parametrize("P, p", [
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), None),
    (np.eye(2), np.array([0.0, np.inf])),
    (np.eye(3), np.ones(4)),
    (np.ones((3, 4)), None),
    (np.ones(3), None),
    (np.eye(3), np.ones((3, 1))),
])
def test_quadratic_prox_checks_its_data_when_built(P, p):
    with pytest.raises(ValueError, match="must be"):
        QuadraticProx(P, p)


@pytest.fixture
def count_decompositions(monkeypatch):
    """Calls of ``np.linalg.eigh`` and ``np.linalg.eigvalsh`` while the test runs."""
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_quadratic_prox_decomposes_once_and_reads_its_moduli_from_it(count_decompositions):
    rng = np.random.default_rng(11)
    n = 12
    P, p = _psd(rng, n, n - 2) - 0.05 * np.eye(n), rng.standard_normal(n)
    e = np.linalg.eigh(0.5 * (P + P.T))[0]
    count_decompositions.update(eigh=0)
    q, r = QuadraticProx(P, p), QuadraticProx(_psd(rng, 5), rng.standard_normal(5))
    SeparableProblem(q, r, DenseOperator(rng.standard_normal((5, n))),
                     DenseOperator(rng.standard_normal((5, 5))), np.zeros(5))
    assert count_decompositions == {"eigh": 0, "eigvalsh": 0}
    assert q.strong_convexity == 0.0 and e[0] < 0.0
    assert q.lipschitz == e[-1]
    q.prox(rng.standard_normal(n), 0.3)
    case = _augmented_case(rng, 4, n)
    q.solve_augmented(**_augmented_args(case, 2.0))
    q.gradient(rng.standard_normal(n))
    q.value(rng.standard_normal(n))
    assert count_decompositions == {"eigh": 1, "eigvalsh": 0}   # a dense solve needs no norm
    # the eigenbasis reuses the solve's kept C V and computes no norm
    first, second = q.in_eigenbasis(case["C"]), q.in_eigenbasis(case["C"])
    assert first[1] is second[1] and first[1]._norm is None
    assert count_decompositions == {"eigh": 1, "eigvalsh": 0}
    # C V computes its own norm when asked, ||C|| up to rounding (NORM_SAFETY allows 1e-6)
    assert first[1].norm() == pytest.approx(case["C"].norm(), rel=1e-12, abs=0)


def test_zero_fun_factors_each_operator_once_per_switch(count_decompositions):
    rng = np.random.default_rng(8)
    n = 10
    zero = SquaredL2(0.0)
    cases = [_augmented_case(rng, 4, n), _augmented_case(rng, 4, n), _augmented_case(rng, 15, n)]
    order = [0, 0, 1, 2, 2, 0, 1, 1, 2]
    for i, j in enumerate(order):
        args = _augmented_args(cases[j], 2.0 + i)
        got = zero.solve_augmented(**args)
        want = _augmented_reference(np.zeros((n, n)), np.zeros(n), **args)
        assert _rel_err(got, want) <= 1e-10
    switches = 1 + sum(a != b for a, b in zip(order, order[1:]))
    assert count_decompositions == {"eigh": switches, "eigvalsh": 0}


def test_zero_function_equals_its_arithmetic_bit_for_bit():
    # SquaredL2(0) skips 0.5 z.(0 z) and z / (1 + tau 0); on finite points,
    # integer ones and signed zeros included, the results are those expressions'
    rng = np.random.default_rng(9)
    zero = SquaredL2(0.0)
    points = [rng.standard_normal(7) * 1e3, np.array([-0.0, 0.0, -1.0]), np.arange(4), np.zeros(0)]
    for z in points:
        for tau in (1e-3, 0.7, 5.0):
            got, want = zero.prox(z, tau), np.asarray(z, dtype=float) / (1.0 + tau * 0.0)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        got, want = zero.value(z), 0.5 * z @ (0.0 * z)
        assert np.array([got]).tobytes() == np.array([want], dtype=float).tobytes()
