import numpy as np
import pytest

from lmcorrect.linalg import SingularMatrixError, SvdFactors
from lmcorrect.problems import valley_jacobian


def reconstruct(f):
    return (f.U * f.s) @ f.Vt


def test_svd_identity():
    f = SvdFactors(np.eye(2))
    assert np.allclose(f.s, [1.0, 1.0])
    assert np.allclose(reconstruct(f), np.eye(2))


def test_svd_shear_matrix():
    # Independent oracle: singular values are the square roots of the
    # eigenvalues of J^T J; for [[1,2],[0,1]] the characteristic polynomial
    # is s^2 - 6 s + 1, so sigma = sqrt(3 +- 2 sqrt(2)) = sqrt(2) +- 1.
    J = np.array([[1.0, 2.0], [0.0, 1.0]])
    f = SvdFactors(J)
    assert np.allclose(f.s, [np.sqrt(2.0) + 1.0, np.sqrt(2.0) - 1.0], rtol=1e-12)
    assert np.linalg.norm(reconstruct(f) - J) <= 1e-12 * (1 + np.linalg.norm(J))


def test_svd_orders_singular_values():
    rng = np.random.default_rng(3)
    for _ in range(20):
        J = rng.normal(size=(4, 3))
        s = SvdFactors(J).s
        assert np.all(np.diff(s) <= 0)
        assert np.all(s >= 0)


def test_svd_ill_conditioned_valley_jacobian():
    J = valley_jacobian(1e6, np.pi, np.e)
    f = SvdFactors(J)
    assert f.s[0] / f.s[-1] > 1e5
    err = np.linalg.norm(reconstruct(f) - J) / np.linalg.norm(J)
    assert err <= 1e-12


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        SvdFactors(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        SvdFactors(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_damped_identity_cases():
    v = np.array([1.0, 1.0])
    assert np.allclose(SvdFactors(np.eye(2)).damped_apply(0.0, v), v)
    out = SvdFactors(np.eye(2)).damped_apply(1.0, np.array([2.0, 0.0]))
    assert np.allclose(out, [1.0, 0.0])


def test_damped_matches_direct_solve():
    rng = np.random.default_rng(42)
    J = rng.normal(size=(5, 3))
    v = rng.normal(size=5)
    lam = 0.37
    expected = np.linalg.solve(J.T @ J + lam * np.eye(3), J.T @ v)
    got = SvdFactors(J).damped_apply(lam, v)
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


def test_damped_rejects_negative_damping():
    with pytest.raises(ValueError):
        SvdFactors(np.eye(2)).damped_apply(-1.0, np.ones(2))


@pytest.mark.parametrize("v", [
    np.array([1.0, np.nan]),
    np.array([np.inf, 0.0]),
    np.ones((2, 1)),
    np.ones((1, 2)),
    np.array([]),
    np.ones(3),
])
def test_damped_rejects_nonfinite_or_misshaped_vector(v):
    with pytest.raises(ValueError):
        SvdFactors(np.eye(2)).damped_apply(0.5, v)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (5, 3)])
def test_damped_is_bitwise_the_svd_formula(shape):
    # The stored transposes and squares are the arrays the formula would
    # compute on each call, so the result matches it exactly, for numpy and
    # Python-float damping alike.
    rng = np.random.default_rng(sum(shape))
    for _ in range(50):
        J = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape[1])
        v = rng.normal(size=shape[0])
        f = SvdFactors(J)
        for lam in 10.0 ** rng.uniform(-8, 8, size=4):
            expected = f.Vt.T @ (f.s / (f.s * f.s + lam) * (f.U.T @ v))
            assert np.array_equal(f.damped_apply(lam, v), expected)
            assert np.array_equal(f.damped_apply(float(lam), v), expected)


def test_damped_norm_decreases_with_damping():
    rng = np.random.default_rng(7)
    for _ in range(10):
        J = rng.normal(size=(4, 4))
        v = rng.normal(size=4)
        factors = SvdFactors(J)
        lams = [0.0, 1e-6, 1e-3, 1.0, 1e3, 1e6]
        norms = [np.linalg.norm(factors.damped_apply(lam, v)) for lam in lams]
        assert all(b <= a + 1e-15 for a, b in zip(norms, norms[1:]))


def test_damped_large_damping_tends_to_gradient():
    rng = np.random.default_rng(11)
    J = rng.normal(size=(4, 3))
    v = rng.normal(size=4)
    lam = 1e12 * np.linalg.norm(J, 2) ** 2
    scaled = lam * SvdFactors(J).damped_apply(lam, v)
    grad = J.T @ v
    cosine = scaled @ grad / (np.linalg.norm(scaled) * np.linalg.norm(grad))
    assert cosine > 1.0 - 1e-6


def test_damped_zero_equals_newton_on_square():
    rng = np.random.default_rng(19)
    for _ in range(10):
        J = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
        v = rng.normal(size=3)
        gn = SvdFactors(J).damped_apply(0.0, v)
        nw = SvdFactors(J).newton_apply(v)
        assert np.linalg.norm(gn - nw) <= 1e-8 * np.linalg.norm(nw)


def test_damped_zero_rank_deficient_minimum_norm():
    J = np.array([[1.0, 0.0], [0.0, 0.0]])
    v = np.array([2.0, 5.0])
    with pytest.warns(RuntimeWarning):
        out = SvdFactors(J).damped_apply(0.0, v)
    assert np.allclose(out, np.linalg.pinv(J) @ v)


def test_newton_cases():
    assert np.allclose(
        SvdFactors(np.eye(3)).newton_apply(np.array([1.0, 2.0, 3.0])), [1, 2, 3]
    )
    J = np.array([[1.0, 2.0], [0.0, 1.0]])
    out = SvdFactors(J).newton_apply(np.array([1.0, 1.0]))
    assert np.allclose(out, [-1.0, 1.0])
    assert np.allclose(J @ out, [1.0, 1.0], rtol=1e-10)


def test_newton_singular_raises():
    with pytest.raises(SingularMatrixError):
        SvdFactors(np.array([[1.0, 1.0], [1.0, 1.0]])).newton_apply(np.ones(2))


def test_newton_rejects_rectangular():
    with pytest.raises(ValueError):
        SvdFactors(np.ones((3, 2))).newton_apply(np.ones(3))


def test_newton_rejects_nonfinite_vector():
    factors = SvdFactors(np.eye(2))
    with pytest.raises(ValueError):
        factors.newton_apply(np.array([1.0, np.nan]))


def test_batch_matches_scalar_applications():
    rng = np.random.default_rng(5)
    J = rng.normal(size=(6, 4))
    v = rng.normal(size=6)
    factors = SvdFactors(J)
    lams = 10.0 ** np.arange(-6, 7, dtype=float)
    batch = factors.damped_apply_batch(lams, v)
    for row, lam in zip(batch, lams):
        assert np.allclose(row, factors.damped_apply(lam, v), rtol=1e-13, atol=0)
    with pytest.raises(ValueError):
        factors.damped_apply_batch([1.0, 0.0], v)


def test_applier_closure_matches_function():
    # The optimizer binds one factorization per Jacobian into a closure per
    # damping value; reusing it must match a fresh factorization.
    rng = np.random.default_rng(23)
    J = rng.normal(size=(4, 2))
    v = rng.normal(size=4)
    factors = SvdFactors(J)
    apply = lambda w: factors.damped_apply(0.5, w)
    factors.damped_apply(2.0, v)
    assert np.array_equal(apply(v), SvdFactors(J).damped_apply(0.5, v))
