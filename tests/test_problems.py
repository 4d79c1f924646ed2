import dataclasses

import numpy as np
import pytest

from helpers import (
    derivative_contraction,
    directional_derivative_fd,
    einsum_polynomial_evaluator,
    finite_difference_jacobian,
    relative_difference,
)
from lmcorrect.problems import (
    affine_problem,
    default_affine_problem,
    polynomial_problem,
    valley_eval,
    valley_jacobian,
    valley_problem,
)


def test_valley_eval_cases():
    assert np.allclose(valley_eval(1.0, 0.0, 0.0), [0.0, 0.0])
    assert np.allclose(valley_eval(1e6, 0.0, 0.0), [0.0, 0.0])
    # direct arithmetic: (pi + e^2, e - pi^2)
    expected = [np.pi + np.e**2, np.e - np.pi**2]
    assert np.allclose(valley_eval(1.0, np.pi, np.e), expected, rtol=1e-15)
    assert np.allclose(expected, [10.53065, -7.15133], atol=5e-6)
    assert np.allclose(valley_eval(1e6, 1.0, 1.0), [2.0, 0.0])


def test_valley_jacobian_cases():
    assert np.allclose(valley_jacobian(1.0, 0.0, 0.0), np.eye(2))
    J = valley_jacobian(1e6, np.pi, np.e)
    assert np.allclose(J, [[1.0, 2 * np.e], [-2e6 * np.pi, 1e6]], rtol=1e-15)


def test_valley_rejects_bad_K():
    for K in (0.0, -3.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            valley_problem(K)


def test_valley_closures_reject_wrong_length_points():
    # Both closures name the shape of a point that is not a 2-vector, rather
    # than read its first two entries or index past its end.
    problem = valley_problem(1e6)
    for closure in (problem.evaluator, problem.jacobian):
        for point, shape in ((np.ones(1), r"\(1,\)"), (np.arange(3.0), r"\(3,\)"),
                             (np.ones((2, 1)), r"\(2, 1\)"), (np.float64(1.0), r"\(\)")):
            with pytest.raises(ValueError, match="got shape " + shape):
                closure(point)
        # A list is a point; the values are the array's, to the bit.
        assert closure([np.pi, np.e]).tobytes() == \
            closure(np.array([np.pi, np.e])).tobytes()
    assert problem.evaluator(np.array([np.pi, np.e])).tobytes() == \
        valley_eval(1e6, np.float64(np.pi), np.float64(np.e)).tobytes()
    assert problem.jacobian(np.array([np.pi, np.e])).tobytes() == \
        valley_jacobian(1e6, np.float64(np.pi), np.float64(np.e)).tobytes()


@pytest.mark.parametrize("K", [1.0, 1e3, 1e6])
def test_valley_jacobian_matches_finite_differences(K):
    problem = valley_problem(K)
    rng = np.random.default_rng(17)
    for _ in range(100):
        x = rng.uniform(-3.0, 3.0, size=2)
        J = problem.jacobian(x)
        J_fd = finite_difference_jacobian(problem, x)
        assert relative_difference(J, J_fd) <= 1e-5


def test_valley_condition_number_grows_linearly_in_K():
    x = np.array([np.pi, np.e])
    conds = {}
    for K in (1e2, 1e4, 1e6):
        J = valley_jacobian(K, *x)
        s = np.linalg.svd(J, compute_uv=False)
        conds[K] = s[0] / s[-1]
    for K_low, K_high in [(1e2, 1e4), (1e4, 1e6)]:
        ratio = conds[K_high] / conds[K_low]
        assert 50.0 <= ratio <= 200.0  # within factor 2 of the 100x K step


def test_affine_problem_shapes():
    problem = default_affine_problem()
    x = np.array([0.3, -0.2])
    assert problem.evaluator(x).shape == (2,)
    assert problem.jacobian(x).shape == (2, 2)
    A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    rect = affine_problem(A, np.zeros(2))
    assert (rect.input_dim, rect.output_dim) == (3, 2)
    assert np.allclose(rect.jacobian(np.zeros(3)), A)


@pytest.mark.parametrize("A_shape,b_shape", [
    ((2, 3), (3,)), ((3,), (3,)), ((2, 2), (2, 1)), ((2, 2), ()),
    ((1, 2, 2), (2,)),
], ids=["wide-A-long-b", "1d-A", "column-b", "scalar-b", "3d-A"])
def test_affine_problem_rejects_mismatched_shapes(A_shape, b_shape):
    # A 2x3 A with a 3-long b failed only at the first evaluator call, with
    # numpy's broadcast error; a 1-D A failed to unpack its shape.
    with pytest.raises(ValueError) as info:
        affine_problem(np.ones(A_shape), np.ones(b_shape))
    assert f"A of shape {A_shape}" in str(info.value)
    assert f"b of shape {b_shape}" in str(info.value)


def test_polynomial_problem_is_deterministic():
    a = polynomial_problem(3, 2, seed=42)
    b = polynomial_problem(3, 2, seed=42)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.C, b.C)
    c = polynomial_problem(3, 2, seed=43)
    assert not np.array_equal(a.A, c.A)


def test_polynomial_problem_has_root_at_origin():
    for degree in (1, 2, 3, 4):
        poly = polynomial_problem(degree, 3, seed=degree)
        assert np.allclose(poly.evaluator(np.zeros(3)), 0.0)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_polynomial_horner_evaluator_matches_einsum_reference(degree, dim):
    # Coefficients and points lie in [-1, 1] and there is no constant term,
    # so |f_i| <= p + p^2 + p^3 + p^4 = 120 at p = 3, and the two evaluation
    # orders differ by rounding only: a few ulps of that bound.
    atol = 1e-13
    poly = polynomial_problem(degree, dim, seed=10 * degree + dim)
    rng = np.random.default_rng(degree * dim)
    for x in rng.uniform(-1.0, 1.0, size=(200, dim)):
        horner = poly.evaluator(x)
        assert horner.shape == (dim,)
        np.testing.assert_allclose(
            horner, einsum_polynomial_evaluator(poly, x), rtol=0, atol=atol)


def test_polynomial_horner_evaluator_treats_missing_tensors_as_zero():
    poly = polynomial_problem(4, 3, seed=8)
    rng = np.random.default_rng(8)
    for missing in ({"B": None}, {"C": None}, {"B": None, "C": None}):
        sparse = dataclasses.replace(poly, **missing)
        for x in rng.uniform(-1.0, 1.0, size=(20, 3)):
            np.testing.assert_allclose(
                sparse.evaluator(x), einsum_polynomial_evaluator(sparse, x),
                rtol=0, atol=1e-13)


def test_polynomial_degree_controls_tensors():
    poly = polynomial_problem(2, 2, seed=1)
    assert poly.B is not None and poly.C is None and poly.D is None
    with pytest.raises(ValueError):
        polynomial_problem(5, 2, seed=1)
    with pytest.raises(ValueError):
        polynomial_problem(0, 2, seed=1)


def test_polynomial_tensors_are_symmetric():
    poly = polynomial_problem(4, 3, seed=7)
    assert np.allclose(poly.B, np.swapaxes(poly.B, 1, 2))
    assert np.allclose(poly.C, np.transpose(poly.C, (0, 3, 1, 2)))
    assert np.allclose(poly.D, np.transpose(poly.D, (0, 4, 3, 1, 2)))


@pytest.mark.parametrize("degree,seed", [(2, 42), (3, 5), (4, 7)])
def test_polynomial_jacobian_matches_finite_differences(degree, seed):
    poly = polynomial_problem(degree, 3, seed=seed)
    problem = poly.as_problem()
    rng = np.random.default_rng(seed)
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, size=3)
        assert relative_difference(
            poly.jacobian(x), finite_difference_jacobian(problem, x)
        ) <= 1e-5


@pytest.mark.parametrize("order", [2, 3, 4])
def test_polynomial_contractions_match_finite_differences(order):
    # Validates the analytic-tensor oracle itself against plain central
    # differences along a ray, so later stencil tests rest on checked ground.
    poly = polynomial_problem(4, 3, seed=11)
    rng = np.random.default_rng(2)
    x = rng.uniform(-0.5, 0.5, size=3)
    u = rng.uniform(-1.0, 1.0, size=3)
    analytic = derivative_contraction(poly, x, order, *([u] * order))
    fd = directional_derivative_fd(poly.evaluator, x, u, order, h=1e-2)
    assert relative_difference(analytic, fd) <= 1e-4


def test_polynomial_contraction_is_symmetric_in_arguments():
    poly = polynomial_problem(4, 2, seed=3)
    rng = np.random.default_rng(4)
    x, u, v, w = (rng.uniform(-1, 1, size=2) for _ in range(4))
    assert np.allclose(
        derivative_contraction(poly, x, 3, u, v, w),
        derivative_contraction(poly, x, 3, w, u, v),
    )
    with pytest.raises(ValueError):
        derivative_contraction(poly, x, 3, u, v)


def test_polynomial_mixed_contraction_via_polarization():
    # f^(2)[u,v] must equal (f^(2)[u+v,u+v] - f^(2)[u,u] - f^(2)[v,v]) / 2.
    poly = polynomial_problem(3, 2, seed=9)
    rng = np.random.default_rng(9)
    x, u, v = (rng.uniform(-1, 1, size=2) for _ in range(3))
    direct = derivative_contraction(poly, x, 2, u, v)
    polarized = 0.5 * (
        derivative_contraction(poly, x, 2, u + v, u + v)
        - derivative_contraction(poly, x, 2, u, u)
        - derivative_contraction(poly, x, 2, v, v)
    )
    assert np.allclose(direct, polarized)
