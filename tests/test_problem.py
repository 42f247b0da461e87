"""Problem assembly: Lagrangian values, residuals, dimension checks."""

import re

import numpy as np
import pytest

from pdsplit.bench import generate_lad, generate_quadratic, generate_svm
from pdsplit.family1 import IterateState
from pdsplit.linops import DenseOperator, DiagonalOperator, ScaledIdentity, negated_identity
from pdsplit.oracles import (SaddlePoint, SeparableProblem, SmoothOracle,
                             feasibility_residual, lagrangian_value)
from pdsplit.prox import BoxIndicator, ElasticNet, QuadraticProx, SquaredL2, _DiagonalQuadratic

from helpers import quadratic_instance, without_saddle


def small_problem():
    A = DenseOperator(np.array([[1.0, 0.0], [0.0, 2.0]]))
    B = negated_identity(2)
    return SeparableProblem(ElasticNet(1.0, 0.0), SquaredL2(0.0), A, B, np.zeros(2))


def test_dimensions():
    prob = small_problem()
    assert (prob.dim_x, prob.dim_y, prob.dim_lam) == (2, 2, 2)


def test_feasibility_three_four_five():
    A = DenseOperator(np.eye(2))
    B = negated_identity(2)
    prob = SeparableProblem(SquaredL2(0.0), SquaredL2(0.0), A, B, np.zeros(2))
    x = np.array([3.0, 0.0])
    y = np.array([0.0, -4.0])
    assert feasibility_residual(prob, IterateState.cold_start(prob, x, y)) == pytest.approx(5.0)


def test_lagrangian_arithmetic_instance():
    # f = ||x||_1, g = 0, A = I, B = -I, b = 0
    prob = small_problem()
    x = np.array([1.0, -1.0])
    y = np.array([0.0, 0.0])
    lam = np.array([0.5, 0.5])
    # f(x) = 2, g = 0, <lam, Ax - y> = 0.5*1 + 0.5*(-2) = -0.5
    st = IterateState.cold_start(prob, x, y, lam)
    assert lagrangian_value(prob, st, lam, prob.objective(x, y)) == pytest.approx(2.0 - 0.5)


def test_lagrangian_affine_in_multiplier():
    prob, _ = quadratic_instance(0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(prob.dim_x)
    y = rng.standard_normal(prob.dim_y)
    l1 = rng.standard_normal(prob.dim_lam)
    l2 = rng.standard_normal(prob.dim_lam)
    st, obj = IterateState.cold_start(prob, x, y), prob.objective(x, y)
    for t in (0.25, 0.5, 0.9):
        mix = lagrangian_value(prob, st, (1 - t) * l1 + t * l2, obj)
        interp = (1 - t) * lagrangian_value(prob, st, l1, obj) + t * lagrangian_value(prob, st, l2, obj)
        assert mix == pytest.approx(interp, rel=1e-12)


def test_lagrangian_infinite_outside_set():
    A = DenseOperator(np.eye(1))
    B = negated_identity(1)
    prob = SeparableProblem(BoxIndicator(np.zeros(1), np.ones(1)), SquaredL2(0.0),
                            A, B, np.zeros(1))
    x, y = np.array([2.0]), np.zeros(1)
    st = IterateState.cold_start(prob, x, y)
    assert lagrangian_value(prob, st, np.zeros(1), prob.objective(x, y)) == np.inf


def test_split_f_block_sums_values():
    P = np.array([[2.0]])
    prob = SeparableProblem((QuadraticProx(P), ElasticNet(3.0, 0.0)), SquaredL2(0.0),
                            DenseOperator(np.eye(1)), negated_identity(1), np.zeros(1))
    assert isinstance(prob.f_smooth, QuadraticProx)
    assert prob.objective(np.array([2.0]), np.zeros(1)) == pytest.approx(0.5 * 2 * 4 + 6.0)


def test_squared_l2_serves_as_smooth_part():
    prob = SeparableProblem((SquaredL2(0.5), ElasticNet(1.0, 0.0)), SquaredL2(0.0),
                            DenseOperator(np.eye(3)), negated_identity(3), np.zeros(3))
    z = np.array([1.0, -2.0, 4.0])
    assert np.array_equal(prob.f_smooth.gradient(z), 0.5 * z)
    assert prob.f_smooth.lipschitz == prob.f_smooth.strong_convexity == 0.5
    assert prob.mu_f == 0.5
    assert prob.objective(z, np.zeros(3)) == pytest.approx(0.25 * 21.0 + 7.0)


def test_quadratic_prox_serves_as_smooth_part():
    P = np.array([[3.0, 1.0], [1.0, 3.0]])     # eigenvalues 2 and 4
    p = np.array([0.5, -1.0])
    prob = SeparableProblem((QuadraticProx(P, p), SquaredL2(0.0)), SquaredL2(0.0),
                            DenseOperator(np.eye(2)), negated_identity(2), np.zeros(2))
    z = np.array([1.0, 2.0])
    assert np.allclose(prob.f_smooth.gradient(z), P @ z + p, atol=1e-15)
    assert prob.f_smooth.lipschitz == pytest.approx(4.0, rel=1e-14)
    assert prob.f_smooth.strong_convexity == pytest.approx(2.0, rel=1e-14)
    assert prob.mu_f == prob.f_smooth.strong_convexity


def test_non_smooth_oracle_rejected_as_smooth_part():
    with pytest.raises(TypeError):
        SeparableProblem((ElasticNet(1.0, 0.0), SquaredL2(0.0)), SquaredL2(0.0), DenseOperator(np.eye(1)),
                         negated_identity(1), np.zeros(1))


def test_moduli_default_from_oracles():
    prob = SeparableProblem(SquaredL2(0.7), SquaredL2(0.0),
                            DenseOperator(np.eye(1)), negated_identity(1), np.zeros(1))
    assert prob.mu_f == pytest.approx(0.7)
    assert prob.mu_g == 0.0


@pytest.mark.parametrize("name, value", [("mu_f", -1.0), ("mu_f", np.nan), ("mu_g", np.inf),
                                         ("mu_g", -np.inf)])
def test_moduli_must_be_finite_and_nonnegative(name, value):
    # a negative mu_f used to fail at the first step with a math domain
    # error, a NaN as a non-finite iterate and an infinite mu_g as a NaN bracket
    with pytest.raises(ValueError, match=f"{name} must be nonnegative and finite"):
        SeparableProblem(SquaredL2(0.0), SquaredL2(0.0), DenseOperator(np.eye(1)), negated_identity(1),
                         np.zeros(1), **{name: value})


def test_dimension_mismatch_rejected():
    A = DenseOperator(np.eye(2))
    B = negated_identity(3)
    with pytest.raises(ValueError):
        SeparableProblem(SquaredL2(0.0), SquaredL2(0.0), A, B, np.zeros(2))


@pytest.mark.parametrize("shape", [(3, 1), (1, 3), (4,), ()])
def test_right_hand_side_must_be_a_vector_of_length_m(shape):
    # a (3, 1) b would broadcast the residual A x + B y - b to a 3-by-3 matrix
    with pytest.raises(ValueError, match=re.escape(f"b has shape {shape}")):
        SeparableProblem(SquaredL2(0.0), SquaredL2(0.0), DenseOperator(np.eye(3)), negated_identity(3),
                         np.zeros(shape))


def test_infeasible_saddle_rejected():
    A = DenseOperator(np.eye(2))
    B = negated_identity(2)
    bad = SaddlePoint(np.ones(2), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError, match="infeasible"):
        SeparableProblem(SquaredL2(0.0), SquaredL2(0.0), A, B, np.zeros(2), saddle=bad)


def test_saddle_point_blocks_must_be_vectors():
    # a true saddle given as columns broadcast to an (m, m) residual and was called infeasible
    prob, _ = quadratic_instance(91)
    sd = prob.saddle
    columns = SaddlePoint(sd.x[:, None], sd.y[:, None], sd.lam[:, None])
    with pytest.raises(ValueError, match=re.escape(f"not ({sd.x.shape + (1,)}, ")):
        SeparableProblem(prob.f_prox, prob.g, prob.A, prob.B, prob.b, saddle=columns)
    SeparableProblem(prob.f_prox, prob.g, prob.A, prob.B, prob.b, saddle=sd)


def test_the_saddle_point_is_fixed_when_the_problem_is_built():
    # every diagnostic and the kept eigenbasis problem read the saddle given at build
    prob, _ = quadratic_instance(92)
    sd = prob.saddle
    with pytest.raises(AttributeError):
        prob.saddle = None
    assert prob.saddle is sd and prob.f_saddle == prob.objective(sd.x, sd.y)
    assert np.array_equal(prob.saddle_residual, prob.A.apply(sd.x) + prob.B.apply(sd.y) - prob.b)
    bare = without_saddle(prob)
    assert bare.saddle is bare.f_saddle is bare.saddle_residual is None


def test_smooth_oracle_validates_constants():
    with pytest.raises(ValueError):
        SmoothOracle(lipschitz=1.0, strong_convexity=2.0)


@pytest.mark.parametrize("args, name", [
    ((float("nan"),), "lipschitz"), ((float("inf"),), "lipschitz"), ((-1.0,), "lipschitz"),
    ((1.0, float("nan")), "strong_convexity"), ((1.0, -0.5), "strong_convexity"),
])
def test_smooth_oracle_names_a_constant_that_is_not_finite_and_nonnegative(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be nonnegative and finite"):
        SmoothOracle(*args)


def test_smooth_gradient_matches_central_differences():
    rng = np.random.default_rng(31)
    n = 6
    M = rng.standard_normal((n, n))
    f = QuadraticProx(M.T @ M / n, rng.standard_normal(n))
    h = 1e-6
    for _ in range(5):
        z = rng.standard_normal(n)
        grad = f.gradient(z)
        fd = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd[i] = (f.value(z + e) - f.value(z - e)) / (2.0 * h)
        assert np.linalg.norm(fd - grad) <= 1e-5 * max(1.0, np.linalg.norm(grad))


class _SubclassedQuadratic(QuadraticProx):
    pass


class _SubclassedDense(DenseOperator):
    pass


def _non_rotating(kind):
    """A problem none of whose blocks rotates into an eigenbasis."""
    prox_form, _ = quadratic_instance(6)
    f, g, b = prox_form.f_prox, prox_form.g, prox_form.b
    A, B = prox_form.A.matrix, prox_form.B.matrix
    return {
        "l1": lambda: generate_lad(20, 60, 0).prox_form,
        "l1 split": lambda: generate_lad(20, 60, 0).split_form,
        "hinge": lambda: generate_svm(20, 60, 0).prox_form,
        "scaled identity": lambda: SeparableProblem(f, g, ScaledIdentity(2.0, 8), negated_identity(8), b),
        "diagonal operator": lambda: SeparableProblem(f, g, DiagonalOperator(np.arange(1.0, 9.0)),
                                                      DiagonalOperator(np.ones(8)), b),
        "two quadratics": lambda: SeparableProblem((f, QuadraticProx(np.eye(8))), g, DenseOperator(A),
                                                   negated_identity(8), b),
        "subclassed oracle": lambda: SeparableProblem(_SubclassedQuadratic(f.P, f.p),
                                                      _SubclassedQuadratic(g.P, g.p),
                                                      DenseOperator(A), DenseOperator(B), b),
        "subclassed operator": lambda: SeparableProblem(f, g, _SubclassedDense(A), _SubclassedDense(B), b),
        "diagonal quadratic": lambda: SeparableProblem(f.in_eigenbasis(DenseOperator(A))[0],
                                                       g.in_eigenbasis(DenseOperator(B))[0],
                                                       DenseOperator(A), DenseOperator(B), b),
    }[kind]()


@pytest.mark.parametrize("kind", ["l1", "l1 split", "hinge", "scaled identity", "diagonal operator",
                                  "two quadratics", "subclassed oracle", "subclassed operator",
                                  "diagonal quadratic"])
def test_a_problem_without_a_rotating_block_is_its_own_eigenbasis_problem(kind):
    prob = _non_rotating(kind)
    assert prob.eigenbasis == (prob, None, None)


def test_eigenbasis_problem_diagonalizes_each_quadratic_block():
    prox_form, split_form = quadratic_instance(7)
    for prob in (prox_form, split_form):
        turned, Vx, Vy = prob.eigenbasis
        assert prob.eigenbasis[0] is turned   # built once
        for V, h, C, rot_h, rot_C in ((Vx, prox_form.f_prox, prob.A, turned.f_smooth or turned.f_prox,
                                       turned.A), (Vy, prob.g, prob.B, turned.g, turned.B)):
            e, _ = np.linalg.eigh(h.P)
            assert type(rot_h) is _DiagonalQuadratic
            assert np.allclose(rot_h.e, e, rtol=1e-12, atol=1e-12)
            assert np.allclose(rot_h.p, V.T @ h.p, rtol=1e-12, atol=1e-12)
            assert np.allclose(rot_C.matrix, C.matrix @ V, rtol=1e-12, atol=1e-12)
            assert rot_C._norm is None   # turning the block computes no norm
            assert rot_C.norm() == pytest.approx(C.norm(), rel=1e-12, abs=0)   # ||C V|| = ||C||
        assert (turned.mu_f, turned.mu_g) == (prob.mu_f, prob.mu_g)
        assert turned.b is prob.b and turned.saddle.lam is prob.saddle.lam
        x, y = prob.saddle.x, prob.saddle.y
        assert np.allclose(turned.saddle.x, Vx.T @ x) and np.allclose(turned.saddle.y, Vy.T @ y)
        assert turned.objective(Vx.T @ x, Vy.T @ y) == pytest.approx(prob.objective(x, y), rel=1e-12)
    assert split_form.eigenbasis[0].f_prox is split_form.f_prox   # a rotation leaves SquaredL2 be
    # a generated instance's two forms share A and f, so they share its kept A V
    bundle = generate_quadratic(6, 10, seed=0)
    turned = [form.eigenbasis[0] for form in (bundle.prox_form, bundle.split_form)]
    assert turned[0].A.matrix is turned[1].A.matrix
