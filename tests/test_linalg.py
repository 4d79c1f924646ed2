import functools
import math

import numpy as np
import pytest

from lmcorrect.linalg import SvdFactors
from lmcorrect.optimizer import LambdaSchedule
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
    for lam in (-1.0, np.nan):
        with pytest.raises(ValueError):
            SvdFactors(np.eye(2)).damped_apply(lam, np.ones(2))


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


def squaring_scale(f, lams):
    """The damped scale by its textbook formula, ``s / (s^2 + lam)``."""
    return f.s / (f.s * f.s + lams)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (5, 3)])
def test_damped_is_bitwise_the_svd_formula(shape):
    # The stored transposes and reciprocals are the arrays the formula
    # 1 / (s + lam / s) would compute on each call, so the result matches it
    # exactly, for numpy and Python-float damping alike, and matches the
    # squaring formula s / (s^2 + lam) to rounding.
    rng = np.random.default_rng(sum(shape))
    for _ in range(50):
        J = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape[1])
        v = rng.normal(size=shape[0])
        f = SvdFactors(J)
        assert np.array_equal(f.inv_s, 1.0 / f.s)
        for lam in 10.0 ** rng.uniform(-8, 8, size=4):
            scale = np.reciprocal(f.s + lam * (1.0 / f.s))
            expected = f.Vt.T @ (scale * (f.U.T @ v))
            assert np.array_equal(f.damped_apply(lam, v), expected)
            assert np.array_equal(f.damped_apply(float(lam), v), expected)
            assert np.allclose(scale, squaring_scale(f, lam), rtol=1e-13, atol=0)
            assert np.allclose(expected,
                               f.Vt.T @ (squaring_scale(f, lam) * (f.U.T @ v)),
                               rtol=1e-13, atol=1e-13 * np.linalg.norm(expected))


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (5, 3)])
def test_batch_is_bitwise_the_svd_formula(shape):
    # Every row, a zero damping's included, is the formula's row exactly.
    rng = np.random.default_rng(100 + sum(shape))
    for _ in range(50):
        J = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape[1])
        v = rng.normal(size=shape[0])
        f = SvdFactors(J)
        lams = np.concatenate([[0.0], 10.0 ** rng.uniform(-8, 8, size=20)])
        scale = np.reciprocal(f.s + lams[:, None] * (1.0 / f.s))
        scale[0] = 1.0 / f.s
        assert np.allclose(scale[1:], squaring_scale(f, lams[1:, None]),
                           rtol=1e-13, atol=0)
        expected = (scale * (f.U.T @ v)) @ f.Vt
        assert np.array_equal(f.damped_apply_batch(lams, v), expected)


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
        nw = np.linalg.solve(J, v)
        assert np.linalg.norm(gn - nw) <= 1e-8 * np.linalg.norm(nw)


def test_damped_zero_rank_deficient_minimum_norm():
    J = np.array([[1.0, 0.0], [0.0, 0.0]])
    v = np.array([2.0, 5.0])
    with pytest.warns(RuntimeWarning):
        out = SvdFactors(J).damped_apply(0.0, v)
    assert np.allclose(out, np.linalg.pinv(J) @ v)


def test_newton_cases():
    # Zero damping on a square nonsingular J is Newton's step J^{-1} v.
    assert np.allclose(
        SvdFactors(np.eye(3)).damped_apply(0.0, np.array([1.0, 2.0, 3.0])),
        [1, 2, 3],
    )
    J = np.array([[1.0, 2.0], [0.0, 1.0]])
    out = SvdFactors(J).damped_apply(0.0, np.array([1.0, 1.0]))
    assert np.allclose(out, [-1.0, 1.0])
    assert np.allclose(J @ out, [1.0, 1.0], rtol=1e-10)


def test_batch_matches_scalar_applications():
    rng = np.random.default_rng(5)
    J = rng.normal(size=(6, 4))
    v = rng.normal(size=6)
    factors = SvdFactors(J)
    lams = np.concatenate([[0.0], 10.0 ** np.arange(-6, 7, dtype=float), [0.0]])
    batch = factors.damped_apply_batch(lams, v)
    for row, lam in zip(batch, lams):
        assert np.allclose(row, factors.damped_apply(lam, v), rtol=1e-13, atol=0)
    assert np.array_equal(factors.damped_apply_batch([0.0], v), batch[:1])
    # Zero rows take damped_apply's rank cut, and its warning, which points
    # at the caller of either apply.
    rank_one = SvdFactors(np.outer([1.0, 2.0, 0.0], [3.0, 1.0]))
    w = np.array([1.0, -1.0, 2.0])
    with pytest.warns(RuntimeWarning, match="rank-deficient") as batch_warning:
        rows = rank_one.damped_apply_batch([0.0, 1.0, 0.0], w)
    with pytest.warns(RuntimeWarning, match="rank-deficient") as apply_warning:
        expected = rank_one.damped_apply(0.0, w)
    assert [r.filename for r in [*batch_warning, *apply_warning]] == [__file__] * 2
    for row in rows[::2]:
        assert np.allclose(row, expected, rtol=1e-13, atol=0)
    assert np.allclose(rows[1], rank_one.damped_apply(1.0, w), rtol=1e-13, atol=0)
    # Bad dampings, or a v damped_apply would reject, raise ValueError.
    for bad_lams, bad_v in [([1.0, -1e-3], v), ([np.nan], v), ([1.0, np.nan], v),
                            (1.0, v), ([], v), ([[1.0, 2.0]], v),
                            (lams, np.r_[np.nan, v[1:]]), (lams, np.r_[np.inf, v[1:]]),
                            (lams, v[:, None]), (lams, v[1:])]:
        with pytest.raises(ValueError):
            factors.damped_apply_batch(bad_lams, bad_v)
    # A finite v whose norm overflows is accepted; its rows overflow unwarned.
    huge = factors.damped_apply_batch([1e-6, 1.0], np.full(6, 1e308))
    assert huge.shape == (2, 4) and not np.isfinite(huge).all()


def test_overflowing_applications_are_inf_without_a_warning():
    # |v| is finite, but the gain 1 / s_min = 1e10 (or about 5e9 at
    # damping 1e-20) carries it past float64.  Under the suite's
    # warnings-as-errors filter any numpy warning here would raise.
    factors = SvdFactors(np.diag([1.0, 1e-10]))
    v = np.array([0.0, 1e303])
    for lam in (0.0, 1e-20):
        assert np.isinf(factors.damped_apply(lam, v)[1])
        assert np.isinf(factors.damped_apply_batch([lam, 1.0], v)[0, 1])
    # Far below the overflow a huge vector keeps the damped formula's bits.
    v = np.array([1e300, -1e300])
    scale = np.reciprocal(factors.s + 1e4 * factors.inv_s)
    got = factors.damped_apply(1e4, v)
    assert np.array_equal(got, factors.V @ (scale * (factors.Ut @ v)))
    assert np.allclose(got, factors.V @ (squaring_scale(factors, 1e4) * (factors.Ut @ v)),
                       rtol=1e-13, atol=0)


def test_overflowing_squares_keep_their_direction():
    # s = 1e200 squares to inf, so s / (s^2 + lam) would be 0 and drop the
    # first direction; 1 / (s + lam / s) squares nothing and keeps it, with
    # no warning under the suite's error filter.
    rotation = np.array([[0.6, -0.8], [0.8, 0.6]])
    factors = SvdFactors(rotation @ np.diag([1e200, 2.0]))
    assert math.isinf(float(factors.s[0]) * float(factors.s[0]))
    v = rotation @ np.array([3e200, 4.0])
    lams = np.array([1e-4, 1.0, 1e4, 1e300])
    batch = factors.damped_apply_batch(lams, v)
    for lam, row in zip(lams, batch):
        scale = np.reciprocal(factors.s + lam * factors.inv_s)
        assert np.allclose(scale, [1.0 / (1e200 + lam / 1e200), 2.0 / (4.0 + lam)],
                           rtol=1e-13, atol=0)
        expected = factors.V.dot(scale * factors.Ut.dot(v))
        got = factors.damped_apply(lam, v)
        assert np.array_equal(got, expected)
        assert np.allclose(row, got, rtol=1e-13, atol=0)
        assert abs(got[0]) == pytest.approx(3.0, rel=1e-12)
    # Zero damping needs no square: it is 1 / s, as before, and cuts s = 2
    # as below RANK_RCOND * 1e200.
    with pytest.warns(RuntimeWarning, match="rank-deficient"):
        assert abs(factors.damped_apply(0.0, v)[0]) == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("lam", [1e10, 1e300])
def test_damping_past_lam_over_s_keeps_the_squaring_values(lam):
    # lam / s overflows at s = 1e-300, where s^2 is negligible beside lam:
    # that direction's scale is s / lam (1e-310 is subnormal; 1e-600 rounds
    # to 0), bit for bit what s / (s^2 + lam) gives, with no warning.
    factors = SvdFactors(np.diag([1.0, 1e-300]))
    v = np.ones(2)
    expected = [1.0 / (1.0 + lam), 1e-300 / lam]
    assert np.array_equal(factors.damped_apply(lam, v), expected)
    assert np.array_equal(factors.damped_apply_batch([1.0, lam], v)[1], expected)
    assert np.array_equal(squaring_scale(factors, lam), expected)


@pytest.mark.parametrize("K", [1e16, 1e100, 1e307])
def test_graded_valley_jacobian_keeps_its_small_singular_value(K):
    # At (1.72, 2.97) the valley Jacobian [[1, 2y], [-2Kx, K]] has
    # |det J| = K |1 + 4xy|, so s_min = (K / s_max) |1 + 4xy|, about 6,
    # far below eps * s_max: the stock SVD returns 5.76 at K = 1e16 and 0
    # beyond.  Divide first: K * 21.4 overflows at K = 1e307.
    x, y = 1.72, 2.97
    J = valley_jacobian(K, x, y)
    f = SvdFactors(J)
    assert f.s[-1] == pytest.approx((K / f.s[0]) * abs(1.0 + 4.0 * x * y), rel=1e-12)
    assert np.abs(reconstruct(f) - J).max() <= 1e-14 * f.s[0]
    assert np.allclose(f.U.T @ f.U, np.eye(2), rtol=0, atol=1e-15)


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
    # After a sweep, damped_apply reads the kept row of a grid damping (numpy
    # or Python float) and computes any other, zero included: the bits are a
    # fresh factorization's either way.
    for centre in (0.5, 2.0):  # the second sweep's rows replace the first's
        grid = LambdaSchedule(centre).grid()
        factors.damped_apply_batch(grid, rng.normal(size=4))
        for lam in [*grid, *grid.tolist(), np.float64(grid[3]), np.array(grid[3]),
                    0.0, 0.3]:
            fresh = SvdFactors(J).damped_apply(lam, v)
            assert factors.damped_apply(lam, v).tobytes() == fresh.tobytes()
            # The optimizer's applier: a partial of the bound method.
            applier = functools.partial(factors.damped_apply, lam)
            assert applier(v).tobytes() == fresh.tobytes()
    # lam * inv_s overflows at s = 1e-300: a kept s / lam row, the same bits.
    tiny = SvdFactors(np.diag([1.0, 1e-300]))
    tiny.damped_apply_batch([1.0, 1e10, 1e300], np.ones(2))
    for lam in (1e10, 1e300):
        assert np.array_equal(tiny.damped_apply(lam, np.ones(2)),
                              SvdFactors(np.diag([1.0, 1e-300])).damped_apply(
                                  lam, np.ones(2)))


def test_each_sweep_row_is_computed_once(monkeypatch):
    # damped_apply at a damping of the last sweep computes no scale row; a
    # second sweep replaces the kept rows, and zero is computed every time.
    computed = []
    scale_rows = SvdFactors._scale_rows

    def counting(self, lams, lam_list):
        computed.extend(lam_list)
        return scale_rows(self, lams, lam_list)

    monkeypatch.setattr(SvdFactors, "_scale_rows", counting)
    J = np.array([[2.0, 1.0], [0.5, 3.0], [1.0, -1.0]])
    v = np.array([1.0, -2.0, 0.5])
    factors = SvdFactors(J)
    first, second = [0.0, 1e-3, 1.0], [0.0, 1e3, 1e6]
    factors.damped_apply_batch(first, v)
    for lam in first[1:]:
        factors.damped_apply(lam, v)
    assert computed == first
    factors.damped_apply_batch(second, v)
    for lam in first[1:] + second:
        factors.damped_apply(lam, v)
    assert computed == first + second + first[1:] + [0.0]
    # A rejected sweep keeps the last good one's dampings with their rows.
    with pytest.raises(ValueError):
        factors.damped_apply_batch([1e6, 1e3, -1.0], v)
    for lam in (1e3, 1e6):
        assert np.array_equal(factors.damped_apply(lam, v),
                              SvdFactors(J).damped_apply(lam, v))
