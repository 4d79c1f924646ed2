import math
import re
import warnings

import numpy as np
import pytest

from helpers import count_errstates, damped
from lmcorrect.linalg import (
    _BOUND,
    SvdFactors,
    as_finite,
    as_int,
    as_positive,
    as_shape,
)
from lmcorrect.optimizer import LambdaSchedule, OptimizerConfig
from lmcorrect.problems import valley_jacobian, valley_problem


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
    # One reduction, the largest magnitude, screens J: float64's maximum of
    # either sign passes it and factors (the second J takes the graded path),
    # and a nan or an infinity of either sign still raises.
    big = np.finfo(float).max
    for J in ([[big, 0.0], [0.0, -big]], [[-big, 0.0], [0.0, 1.0]]):
        assert SvdFactors(np.array(J)).s.tolist() == [big, abs(J[1][1])]
    for J in ([[1.0, np.nan], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]],
              [[1.0, 0.0], [0.0, -np.inf]], [[big, np.nan], [-np.inf, -big]]):
        with pytest.raises(ValueError, match="^jacobian must be finite$"):
            SvdFactors(np.array(J))


def test_factors_keep_the_jacobian_they_were_given():
    # J is kept as the float64 array given, before any power-of-two scaling:
    # a float64 array is kept as is, anything else as its float64 copy, and a
    # J near float64's maximum, factored times 2**-shift, keeps its entries.
    J = np.array([[1.0, 2.0], [0.0, 1.0], [3.0, 4.0]])
    assert SvdFactors(J).J is J
    listed = SvdFactors([[1, 2], [0, 1]]).J
    assert listed.dtype == np.float64 and listed.tolist() == [[1.0, 2.0], [0.0, 1.0]]
    big = np.finfo(float).max
    huge = np.array([[big, 0.0], [0.0, 1.0]])
    factors = SvdFactors(huge)
    assert factors.J is huge and factors.s.tolist() == [big, 1.0]


def test_damped_identity_cases():
    v = np.array([1.0, 1.0])
    assert np.allclose(damped(SvdFactors(np.eye(2)), 0.0)(v), v)
    out = damped(SvdFactors(np.eye(2)), 1.0)(np.array([2.0, 0.0]))
    assert np.allclose(out, [1.0, 0.0])


def test_damped_matches_direct_solve():
    rng = np.random.default_rng(42)
    J = rng.normal(size=(5, 3))
    v = rng.normal(size=5)
    lam = 0.37
    expected = np.linalg.solve(J.T @ J + lam * np.eye(3), J.T @ v)
    got = damped(SvdFactors(J), lam)(v)
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


def test_damped_rejects_negative_damping():
    for lam in (-1.0, np.nan):
        with pytest.raises(ValueError):
            damped(SvdFactors(np.eye(2)), lam)(np.ones(2))


@pytest.mark.parametrize("v", [
    np.array([1.0, np.nan]),
    np.array([np.inf, 0.0]),
    np.ones((2, 1)),
    np.ones((1, 2)),
    np.array([]),
    np.ones(3),
])
def test_damped_rejects_nonfinite_or_misshaped_vector(v):
    # The message names v: a misshaped v used to fail inside numpy's product.
    # The block apply takes v as its one row.
    if v.shape == (2,):
        block = batch = "^v must be finite$"
    else:
        block = rf"^v has shape {re.escape(str((1,) + v.shape))}, expected \(1, 2\)$"
        batch = rf"^v has shape {re.escape(str(v.shape))}, expected \(2,\)$"
    factors = SvdFactors(np.eye(2))
    with pytest.raises(ValueError, match=block):
        factors.damped_apply(np.array([0.5]), v[None])
    with pytest.raises(ValueError, match=batch):
        factors.damped_apply_batch([0.5, 1.0], v)


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
            assert np.array_equal(damped(f, lam)(v), expected)
            assert np.array_equal(damped(f, float(lam))(v), expected)
            assert np.allclose(scale, squaring_scale(f, lam), rtol=1e-13, atol=0)
            assert np.allclose(expected,
                               f.Vt.T @ (squaring_scale(f, lam) * (f.U.T @ v)),
                               rtol=1e-13, atol=1e-13 * np.linalg.norm(expected))


def formula_rows(f, lams, v):
    """Rows ``1 / (s + lam / s)`` applied to ``v``, as the batch computes them.

    A zero damping's scale is ``1 / s`` (these J have full rank), and where
    ``lam / s`` overflows it is ``s / lam``.
    """
    lams = np.asarray(lams, dtype=float)[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lam_s = lams * (1.0 / f.s)
        scale = np.where(lam_s == np.inf, f.s / lams, np.reciprocal(f.s + lam_s))
        scale = np.where(lams == 0.0, 1.0 / f.s, scale)
        return (scale * (f.U.T @ v)) @ f.Vt


def screen_sweeps(f, v):
    """``(bound, lams, v)`` on each side of damped_apply_batch's screen bounds.

    The rows' screen passes only when every damping is positive and
    ``max(lams) / s_min`` is below ``_BOUND`` (its bound on ``s_max``
    needs a J of its own); the products' only when ``|v| (1 / s_min + 1)``
    is below it too.
    """
    gain = float(f.inv_s[-1])
    lams = 10.0 ** np.linspace(-8, 8, 20)
    sweeps = [("zero", np.r_[damping, lams], v) for damping in (0.0, 5e-324)]
    top = _BOUND / gain
    v_top = _BOUND / (gain + 1.0) / math.hypot(*v)
    for ratio in (1.0 - 1e-15, 1.0, 1.0 + 1e-15):
        sweeps.append(("lam / s_min", np.r_[lams, top * ratio], v))
        sweeps.append(("|v| / s_min", lams, v * (v_top * ratio)))
    return sweeps


def check_screen_sweeps(f, sweeps, entered, sides):
    """Each sweep's rows are the formula's bits; note the side it screened to."""
    for bound, lams, v in sweeps:
        expected = formula_rows(f, lams, v)
        before = len(entered)
        assert np.array_equal(f.damped_apply_batch(lams, v), expected)
        sides.setdefault(bound, set()).add(len(entered) > before)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (5, 3)])
def test_batch_is_bitwise_the_svd_formula(shape, monkeypatch):
    # Every row, a zero damping's included, is the formula's row exactly,
    # whichever side of each bound of the errstate screen the sweep lies on.
    entered, sides = count_errstates(monkeypatch), {}
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
        check_screen_sweeps(f, screen_sweeps(f, v), entered, sides)
    assert sides == dict.fromkeys(["zero", "lam / s_min", "|v| / s_min"], {False, True})


def test_damped_norm_decreases_with_damping():
    rng = np.random.default_rng(7)
    for _ in range(10):
        J = rng.normal(size=(4, 4))
        v = rng.normal(size=4)
        factors = SvdFactors(J)
        lams = [0.0, 1e-6, 1e-3, 1.0, 1e3, 1e6]
        norms = [np.linalg.norm(damped(factors, lam)(v)) for lam in lams]
        assert all(b <= a + 1e-15 for a, b in zip(norms, norms[1:]))


def test_damped_large_damping_tends_to_gradient():
    rng = np.random.default_rng(11)
    J = rng.normal(size=(4, 3))
    v = rng.normal(size=4)
    lam = 1e12 * np.linalg.norm(J, 2) ** 2
    scaled = lam * damped(SvdFactors(J), lam)(v)
    grad = J.T @ v
    cosine = scaled @ grad / (np.linalg.norm(scaled) * np.linalg.norm(grad))
    assert cosine > 1.0 - 1e-6


def test_damped_zero_equals_newton_on_square():
    rng = np.random.default_rng(19)
    for _ in range(10):
        J = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
        v = rng.normal(size=3)
        gn = damped(SvdFactors(J), 0.0)(v)
        nw = np.linalg.solve(J, v)
        assert np.linalg.norm(gn - nw) <= 1e-8 * np.linalg.norm(nw)


def test_damped_zero_rank_deficient_minimum_norm():
    J = np.array([[1.0, 0.0], [0.0, 0.0]])
    v = np.array([2.0, 5.0])
    with pytest.warns(RuntimeWarning):
        out = damped(SvdFactors(J), 0.0)(v)
    assert np.allclose(out, np.linalg.pinv(J) @ v)


def test_newton_cases():
    # Zero damping on a square nonsingular J is Newton's step J^{-1} v.
    assert np.allclose(
        damped(SvdFactors(np.eye(3)), 0.0)(np.array([1.0, 2.0, 3.0])),
        [1, 2, 3],
    )
    J = np.array([[1.0, 2.0], [0.0, 1.0]])
    out = damped(SvdFactors(J), 0.0)(np.array([1.0, 1.0]))
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
        assert np.allclose(row, damped(factors, lam)(v), rtol=1e-13, atol=0)
    assert np.array_equal(factors.damped_apply_batch([0.0], v), batch[:1])
    # Zero rows take the block apply's rank cut, and its warning, which
    # points at the caller of either apply.
    rank_one = SvdFactors(np.outer([1.0, 2.0, 0.0], [3.0, 1.0]))
    w = np.array([1.0, -1.0, 2.0])
    with pytest.warns(RuntimeWarning, match="rank-deficient") as batch_warning:
        rows = rank_one.damped_apply_batch([0.0, 1.0, 0.0], w)
    with pytest.warns(RuntimeWarning, match="rank-deficient") as apply_warning:
        expected = rank_one.damped_apply(np.zeros(1), w[None])[0]
    assert [r.filename for r in [*batch_warning, *apply_warning]] == [__file__] * 2
    for row in rows[::2]:
        assert np.allclose(row, expected, rtol=1e-13, atol=0)
    assert np.allclose(rows[1], damped(rank_one, 1.0)(w), rtol=1e-13, atol=0)
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


def test_overflowing_applications_are_inf_without_a_warning(monkeypatch):
    # |v| is finite, but the gain 1 / s_min = 1e10 (or about 5e9 at
    # damping 1e-20) carries it past float64.  Under the suite's
    # warnings-as-errors filter any numpy warning here would raise.
    entered, sides = count_errstates(monkeypatch), {}
    factors = SvdFactors(np.diag([1.0, 1e-10]))
    check_screen_sweeps(factors, screen_sweeps(factors, np.array([3.0, 4.0])),
                        entered, sides)
    # s_max on each side of the screen's bound: s + lam / s stays finite.
    for ratio in (1.0 - 1e-15, 1.0, 1.0 + 1e-15):
        wide = SvdFactors(np.diag([_BOUND * ratio, 1e-10]))
        check_screen_sweeps(wide, [("s_max", [1e-4, 1.0, 1e4], np.array([3.0, 4.0]))],
                            entered, sides)
    assert sides == dict.fromkeys(["zero", "lam / s_min", "|v| / s_min", "s_max"],
                                  {False, True})
    v = np.array([0.0, 1e303])
    for lam in (0.0, 1e-20):
        assert np.isinf(damped(factors, lam)(v)[1])
        assert np.isinf(factors.damped_apply_batch([lam, 1.0], v)[0, 1])
    # Far below the overflow a huge vector keeps the damped formula's bits.
    v = np.array([1e300, -1e300])
    scale = np.reciprocal(factors.s + 1e4 * factors.inv_s)
    got = damped(factors, 1e4)(v)
    assert np.array_equal(got, factors.Vt.T @ (scale * (factors.Ut @ v)))
    assert np.allclose(got, factors.Vt.T @ (squaring_scale(factors, 1e4)
                                            * (factors.Ut @ v)), rtol=1e-13, atol=0)


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
        expected = factors.Vt.T.dot(scale * factors.Ut.dot(v))
        got = damped(factors, lam)(v)
        assert np.array_equal(got, expected)
        assert np.allclose(row, got, rtol=1e-13, atol=0)
        assert abs(got[0]) == pytest.approx(3.0, rel=1e-12)
    # Zero damping needs no square: it is 1 / s, as before, and cuts s = 2
    # as below RANK_RCOND * 1e200.
    with pytest.warns(RuntimeWarning, match="rank-deficient"):
        assert abs(damped(factors, 0.0)(v)[0]) == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("lam", [1e10, 1e300])
def test_damping_past_lam_over_s_keeps_the_squaring_values(lam):
    # lam / s overflows at s = 1e-300, where s^2 is negligible beside lam:
    # that direction's scale is s / lam (1e-310 is subnormal; 1e-600 rounds
    # to 0), bit for bit what s / (s^2 + lam) gives, with no warning.
    factors = SvdFactors(np.diag([1.0, 1e-300]))
    v = np.ones(2)
    expected = [1.0 / (1.0 + lam), 1e-300 / lam]
    assert np.array_equal(damped(factors, lam)(v), expected)
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
    # One factorization serves every block applied to it: reusing it must
    # match a fresh factorization, bit for bit.
    rng = np.random.default_rng(23)
    J = rng.normal(size=(4, 2))
    v = rng.normal(size=4)
    factors = SvdFactors(J)
    apply = damped(factors, 0.5)
    damped(factors, 2.0)(v)
    assert np.array_equal(apply(v), damped(SvdFactors(J), 0.5)(v))
    # After a sweep, the block apply reuses the sweep's rows at its dampings
    # (a numpy array of the grid) and computes any others, zero included:
    # each row has the bits of a fresh factorization's one-row apply either
    # way.
    for centre in (0.5, 2.0):  # the second sweep's rows replace the first's
        grid = LambdaSchedule(centre).grid()
        factors.damped_apply_batch(grid, rng.normal(size=4))
        vs = rng.normal(size=(len(grid), 4))
        for lams in (grid, grid[3:4], np.array(grid.tolist()), [0.0, 0.3],
                     np.float32(grid[:2])):
            rows = factors.damped_apply(lams, vs[:len(lams)])
            fresh = SvdFactors(J)
            for lam, row, w in zip(np.asarray(lams, dtype=float).tolist(), rows, vs):
                assert row.tobytes() == damped(fresh, lam)(w).tobytes()
    # lam * inv_s overflows at s = 1e-300: a reused s / lam row, the same bits.
    tiny = SvdFactors(np.diag([1.0, 1e-300]))
    sweep = np.array([1.0, 1e10, 1e300])
    tiny.damped_apply_batch(sweep, np.ones(2))
    rows = tiny.damped_apply(sweep, np.ones((3, 2)))
    for lam, row in zip(sweep.tolist(), rows):
        assert np.array_equal(row, damped(SvdFactors(np.diag([1.0, 1e-300])), lam)(
            np.ones(2)))


def test_each_sweep_row_is_computed_once(monkeypatch):
    # The block apply at the last sweep's dampings computes no scale row,
    # and a second sweep replaces the kept rows.  Other dampings, a part of
    # the sweep among them, are computed.  On a rank-deficient J the sweep
    # cuts a singular value at zero damping and warns once; the block apply
    # at its dampings reuses the cut row, and warns no more.
    computed = []
    scale_rows = SvdFactors._scale_rows

    def counting(self, lams):
        lam_list, rows = scale_rows(self, lams)
        computed.extend(lam_list)
        return lam_list, rows

    monkeypatch.setattr(SvdFactors, "_scale_rows", counting)
    J = np.array([[2.0, 1.0], [0.5, 3.0], [1.0, -1.0]])
    v = np.array([1.0, -2.0, 0.5])
    vs = np.array([v, -v, 2.0 * v])
    factors = SvdFactors(J)
    first, second = np.array([0.0, 1e-3, 1.0]), np.array([0.0, 1e3, 1e6])
    factors.damped_apply_batch(first, v)
    factors.damped_apply(first, vs)
    assert computed == first.tolist()
    factors.damped_apply_batch(second, v)
    factors.damped_apply(second, vs)
    factors.damped_apply(first, vs)
    assert computed == first.tolist() + second.tolist() + first.tolist()
    del computed[:]
    factors.damped_apply(second[:2], vs[:2])
    assert computed == second[:2].tolist()
    del computed[:]
    deficient = SvdFactors(np.outer([2.0, 0.5, 1.0], [1.0, -1.0]))
    sweep = np.array([0.0, 1.0])
    with pytest.warns(RuntimeWarning, match="rank-deficient"):
        deficient.damped_apply_batch(sweep, v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        deficient.damped_apply(sweep, vs[:2])
    with pytest.warns(RuntimeWarning, match="rank-deficient"):
        deficient.damped_apply(sweep[:1], vs[:1])
    assert computed == [0.0, 1.0, 0.0]
    # A rejected sweep keeps the last good one's dampings with their rows.
    with pytest.raises(ValueError):
        factors.damped_apply_batch([1e6, 1e3, -1.0], v)
    del computed[:]
    assert np.array_equal(factors.damped_apply(second, vs),
                          SvdFactors(J).damped_apply(second, vs))
    assert computed == second.tolist()  # the fresh factors' rows only


def test_a_damping_outside_the_sweep_gets_its_row_through_the_row_screen(
        monkeypatch):
    # Dampings that are not the last sweep's have their rows computed by
    # the sweep's own rule: no errstate when the screen passes, the same
    # bits as a fresh factorization's either way.  Zero fails the screen,
    # as do s_min = 0 and a damping whose lam / s_min reaches _BOUND.
    entered = count_errstates(monkeypatch)
    J = np.array([[2.0, 1.0], [0.5, 3.0], [1.0, -1.0]])
    v = np.array([[1.0, -2.0, 0.5]])
    factors = SvdFactors(J)
    factors.damped_apply_batch([1e-3, 1.0], v[0])
    for lam, errstates in ((0.3, 0), (np.float64(7.0), 0), (np.array(1.0), 0),
                           (0.0, 1), (_BOUND * float(factors.s[-1]), 1)):
        del entered[:]
        got = factors.damped_apply(np.array([lam]), v)
        assert len(entered) == errstates, lam
        assert got.tobytes() == SvdFactors(J).damped_apply(np.array([lam]), v).tobytes()
    # Where s_min = 0 the products' screen fails too, since 1 / s_min is
    # inf: positive dampings enter one errstate if the sweep's, two if not.
    deficient = SvdFactors(np.array([[2.0, 0.0], [0.5, 0.0], [1.0, 0.0]]))
    assert deficient.s[-1] == 0.0
    sweep = np.array([0.0, 1.0])
    with pytest.warns(RuntimeWarning, match="rank-deficient"):
        deficient.damped_apply_batch(sweep, v[0])
    for lams, errstates in ((sweep, 1), (np.array([0.3]), 2)):
        del entered[:]
        rows = deficient.damped_apply(lams, np.repeat(v, len(lams), 0))
        assert np.isfinite(rows).all()
        assert len(entered) == errstates


@pytest.mark.parametrize("lam", [math.inf, True, np.bool_(True), -1.0, math.nan],
                         ids=["inf", "True", "np.True_", "negative", "nan"])
def test_an_infinite_or_bool_damping_is_rejected(lam):
    # Every damping follows as_positive's rule, in a sweep or a block, as a
    # float64 array, a list or a bool array: an infinite damping returned
    # zeros, and True acted as damping 1.
    factors = SvdFactors(np.eye(2))
    v = np.ones(2)
    message = "^damping must be non-negative and finite, got "
    for lams in ([lam], [0.5, lam], np.array([lam]), (np.float32(0.5), lam)):
        with pytest.raises(ValueError, match=message):
            factors.damped_apply_batch(lams, v)
        with pytest.raises(ValueError, match=message):
            factors.damped_apply(lams, np.ones((len(lams), 2)))
    assert np.array_equal(factors.damped_apply_batch([1.0], v), [[0.5, 0.5]])


def test_as_shape_names_the_argument_and_both_shapes():
    assert as_shape([1, 2], (2,), "x").dtype == np.float64
    # Non-finite entries pass, and a float64 array of the shape is not copied.
    values = np.array([np.nan, np.inf])
    assert as_shape(values, (2,), "f0") is values
    for value, got in ((np.ones(3), r"\(3,\)"), (np.ones((1, 2)), r"\(1, 2\)"),
                       (1.0, r"\(\)")):
        with pytest.raises(ValueError,
                           match=rf"^point has shape {got}, expected \(2,\)$"):
            as_shape(value, (2,), "point")


def test_as_int_takes_only_integers_in_range():
    for value in (1, 4, np.int64(3)):
        assert as_int(value, "n", 1, 4) is value
    assert as_int(10**30, "n", 1) == 10**30
    # 2.0 and True compare equal to integers in range; neither is an integer.
    for value in (0, 5, -1, True, np.bool_(True), 2.0, 2.5, math.nan, "2", None):
        with pytest.raises(ValueError,
                           match=r"^n must be an integer in \[1, 4\], got "):
            as_int(value, "n", 1, 4)
    with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got 0$"):
        as_int(0, "n", 1)


def test_as_finite_checks_the_shape_then_every_entry():
    values = np.array([1.0, -2.0])
    assert as_finite(values, (2,), "f0") is values
    assert as_finite([[1, 2]], (1, 2), "J").dtype == np.float64
    # A finite vector whose norm overflows is finite.
    assert as_finite([1e308, 1e308], (2,), "v").shape == (2,)
    for value in ([np.nan, 0.0], [0.0, np.inf], [-np.inf, 1.0]):
        with pytest.raises(ValueError, match=r"^f0 must be finite$"):
            as_finite(value, (2,), "f0")
    # The shape is checked first, so a misshaped non-finite value names its shape.
    with pytest.raises(ValueError, match=r"^f0 has shape \(3,\), expected \(2,\)$"):
        as_finite([np.nan, 0.0, 0.0], (2,), "f0")


def test_as_positive_takes_only_positive_finite_numbers():
    for value in (5e-324, 1.0, 1e300, 3, np.float64(2.0)):
        assert as_positive(value, "t") is value
    # A non-number gets the rule's ValueError, not the comparison's TypeError.
    for value in (0.0, -1.0, math.inf, -math.inf, math.nan, True, False,
                  np.bool_(True), None, "1e6", 1j, 1 + 0j, [1.0]):
        with pytest.raises(ValueError, match=r"^t must be positive and finite, got "):
            as_positive(value, "t")
    with pytest.raises(ValueError, match=r"^convergence_tol must be positive"):
        OptimizerConfig(convergence_tol=None)
    with pytest.raises(ValueError, match=r"^anisotropy factor must be positive"):
        valley_problem("1e6")


def test_factors_reject_a_jacobian_that_is_not_2d():
    for J, shape in ((np.ones(3), r"\(3,\)"), (np.ones((1, 2, 2)), r"\(1, 2, 2\)")):
        with pytest.raises(ValueError, match=rf"2-D matrix, got shape {shape}"):
            SvdFactors(J)


def test_a_jacobian_holding_float64s_maximum_factors_finitely():
    # The graded path's Householder QR overflowed on this J: numpy warned
    # "invalid value encountered in dot" (an error under the suite's filter)
    # and s, U and Vt came back nan.  Such a J is now factored times a power
    # of two, and its singular values scaled back.
    big = np.finfo(float).max
    J = np.array([[big, 1.0], [1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factors = SvdFactors(J)
    for part in (factors.s, factors.U, factors.Vt):
        assert np.isfinite(part).all()
    assert factors.s[0] == pytest.approx(big, rel=4 * np.finfo(float).eps)
    rebuilt = (factors.U * factors.s).dot(factors.Vt)
    assert np.abs(rebuilt - J).max() <= 4 * np.finfo(float).eps * big


@pytest.mark.parametrize("divisor", [1e10, 1e3, 5.0, 3.0])
def test_a_singular_value_is_never_negative(divisor, monkeypatch):
    # The graded path returned s = (a, -0.0) here, so inv_s[-1] and the
    # sweep screen's largest gain were -inf, and a sweep passed the screen
    # without an errstate.  The exact s_min, 1 / a, lies below what LAPACK
    # keeps once it has scaled R's largest entry near 1.5e138, so J reads
    # rank-deficient.  With s_min = 0 both screens fail, the scale rows'
    # and the products': two errstates.
    J = np.array([[np.finfo(float).max / divisor, 1.0], [1.0, 0.0]])
    factors = SvdFactors(J)
    assert not np.signbit(factors.s).any()
    assert factors.inv_s[-1] == math.inf
    entered = count_errstates(monkeypatch)
    v = np.array([1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = factors.damped_apply_batch(LambdaSchedule(1.0).grid(), v)
    assert len(entered) == 2
    assert np.isfinite(rows).all()
    with pytest.warns(RuntimeWarning, match="rank-deficient"):
        assert np.isfinite(damped(factors, 0.0)(v)).all()
