"""Worst-case generator G: closed forms, maximizers, sublinearity axioms."""

import numpy as np
import pytest

from grobust.gexp import (DimensionMismatchError, GammaSet, SymMatrix,
                          argmax_q, g_of, generator,
                          uniform_ellipticity_bounds, vol_grid)

THIRD_INTERVAL = GammaSet.interval(np.sqrt(1.0 / 3.0), 1.0)


class TestGOf:
    def test_interval_closed_form_positive(self):
        # G(a) = (a+ - a-/3) / 2 for the [sqrt(1/3), 1] set
        assert g_of(THIRD_INTERVAL, SymMatrix.scalar(2.0)) == 1.0

    def test_interval_zero(self):
        assert g_of(THIRD_INTERVAL, SymMatrix.scalar(0.0)) == 0.0

    def test_interval_negative(self):
        assert g_of(THIRD_INTERVAL, SymMatrix.scalar(-3.0)) == pytest.approx(
            -0.5, abs=1e-15)

    def test_matrix_list_enumeration(self):
        gamma = GammaSet.from_matrices([np.diag([0.5, 1.0]), np.diag([1.0, 0.5])])
        a = SymMatrix(np.diag([1.0, 0.0]))
        assert g_of(gamma, a) == 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            g_of(THIRD_INTERVAL, SymMatrix(np.eye(2)))
        gamma = GammaSet.from_matrices([np.eye(2)])
        with pytest.raises(DimensionMismatchError):
            g_of(gamma, SymMatrix.scalar(1.0))


class TestArgmax:
    def test_interval_positive_selects_high(self):
        gamma = GammaSet.interval(0.5, 1.0)
        assert argmax_q(gamma, SymMatrix.scalar(1.0))[0, 0] == 1.0

    def test_interval_negative_selects_low(self):
        gamma = GammaSet.interval(0.5, 1.0)
        assert argmax_q(gamma, SymMatrix.scalar(-1.0))[0, 0] == 0.5

    def test_interval_tie_selects_high(self):
        gamma = GammaSet.interval(0.5, 1.0)
        assert argmax_q(gamma, SymMatrix.scalar(0.0))[0, 0] == 1.0

    def test_matrix_list_first_maximizer(self):
        gamma = GammaSet.from_matrices([np.diag([0.5, 1.0]), np.diag([1.0, 0.5])])
        a = SymMatrix(np.diag([1.0, 0.0]))
        assert np.array_equal(argmax_q(gamma, a), np.diag([1.0, 0.5]))

    def test_one_dim_matrix_list_by_sign(self):
        # a q^2 is largest at the largest |q| for a > 0, the smallest for a < 0
        gamma = GammaSet.from_matrices(
            [np.array([[0.5]]), np.array([[-1.0]]), np.array([[0.8]])])
        assert argmax_q(gamma, SymMatrix.scalar(2.0))[0, 0] == -1.0
        assert argmax_q(gamma, SymMatrix.scalar(-2.0))[0, 0] == 0.5

    def test_attains_supremum(self):
        rng = np.random.default_rng(3)
        mats = [rng.normal(size=(2, 2)) + 2 * np.eye(2) for _ in range(5)]
        gamma = GammaSet.from_matrices(mats)
        for _ in range(50):
            a = SymMatrix(rng.normal(size=(2, 2)))
            q = argmax_q(gamma, a)
            assert 0.5 * np.trace(a.entries @ q @ q.T) == g_of(gamma, a)


class TestNondegeneracy:
    def test_interval(self):
        assert uniform_ellipticity_bounds(THIRD_INTERVAL)[0] == pytest.approx(
            1.0 / 3.0, abs=1e-15)

    def test_singleton(self):
        assert uniform_ellipticity_bounds(GammaSet.interval(1.0, 1.0))[0] == 1.0

    def test_matrix_list(self):
        gamma = GammaSet.from_matrices([np.diag([0.5, 1.0])])
        assert uniform_ellipticity_bounds(gamma)[0] == pytest.approx(
            0.25, abs=1e-14)

    def test_construction_rejects_degenerate(self):
        with pytest.raises(ValueError):
            GammaSet.interval(0.0, 1.0)
        with pytest.raises(ValueError):
            GammaSet.interval(-0.5, 1.0)
        with pytest.raises(ValueError):
            GammaSet.interval(1.0, 0.5)
        with pytest.raises(ValueError):
            GammaSet.from_matrices([np.array([[1.0, 0.0], [0.0, 0.0]])])
        with pytest.raises(ValueError):
            GammaSet.from_matrices([])


class TestSymMatrix:
    def test_exact_symmetry(self):
        m = SymMatrix(np.array([[1.0, 2.0], [99.0, 3.0]]))  # lower ignored
        assert np.all(m.entries == m.entries.T)
        assert m.entries[0, 1] == 2.0 and m.entries[1, 0] == 2.0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SymMatrix(np.ones((2, 3)))


class TestSublinearityAxioms:
    """Randomized axiom suite over both set kinds."""

    def _random_sets(self, rng):
        # O(1) scales so the absolute 1e-14 margins tolerate rounding
        lo = rng.uniform(0.2, 0.9)
        yield GammaSet.interval(lo, lo + rng.uniform(0.0, 1.0))
        mats = [0.3 * rng.normal(size=(2, 2)) + 1.2 * np.eye(2)
                for _ in range(4)]
        yield GammaSet.from_matrices(mats)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(11)
        for _ in range(250):
            for gamma in self._random_sets(rng):
                d = gamma.dim
                a = SymMatrix(rng.normal(size=(d, d)))
                lam = rng.uniform(0.0, 5.0)
                scaled = SymMatrix(lam * a.entries)
                lhs = g_of(gamma, scaled)
                rhs = lam * g_of(gamma, a)
                if gamma.kind == "interval":
                    # closed form is exactly homogeneous up to one rounding
                    assert lhs == pytest.approx(rhs, abs=1e-14, rel=1e-14)
                else:
                    assert lhs == pytest.approx(rhs, abs=1e-14, rel=1e-13)

    def test_subadditivity(self):
        rng = np.random.default_rng(12)
        for _ in range(250):
            for gamma in self._random_sets(rng):
                d = gamma.dim
                a = SymMatrix(rng.normal(size=(d, d)))
                b = SymMatrix(rng.normal(size=(d, d)))
                s = SymMatrix(a.entries + b.entries)
                assert g_of(gamma, s) <= g_of(gamma, a) + g_of(gamma, b) + 1e-14

    def test_quantitative_monotonicity(self):
        rng = np.random.default_rng(13)
        for _ in range(250):
            for gamma in self._random_sets(rng):
                d = gamma.dim
                b = SymMatrix(rng.normal(size=(d, d)))
                p = rng.normal(size=(d, d))
                a = SymMatrix(b.entries + p @ p.T)  # a >= b
                gap = g_of(gamma, a) - g_of(gamma, b)
                bound = 0.5 * uniform_ellipticity_bounds(gamma)[0] * np.trace(
                    a.entries - b.entries)
                assert gap >= bound - 1e-12

    def test_interval_list_agreement_1d(self):
        rng = np.random.default_rng(14)
        for _ in range(250):
            lo = rng.uniform(0.2, 1.0)
            hi = lo + rng.uniform(0.0, 1.5)
            interval = GammaSet.interval(lo, hi)
            listed = GammaSet.from_matrices([np.array([[lo]]), np.array([[hi]])])
            a = SymMatrix.scalar(rng.normal() * 3)
            assert g_of(interval, a) == g_of(listed, a)


@pytest.mark.parametrize("gamma", [
    GammaSet.interval(0.5, 1.0),
    GammaSet.interval(0.7, 0.7),
    GammaSet.from_matrices([np.array([[0.5]]), np.array([[-1.0]]),
                            np.array([[0.8]])]),
    GammaSet.from_matrices([np.array([[0.6]])]),
], ids=["interval", "single", "list3", "list1"])
def test_generator_is_g_of_bit_for_bit(gamma):
    # the array generator against the scalar g_of, sign of zero included
    # (SymMatrix stores -0.0 as +0.0, so g_of never sees a negative zero)
    rng = np.random.default_rng(8)
    a = np.concatenate([[0.0, 1e-300, -1e-300],
                        rng.normal(size=200), rng.normal(size=50) * 1e-200])
    bounds = uniform_ellipticity_bounds(gamma)
    arr = generator(*bounds, a)
    scal = np.array([g_of(gamma, SymMatrix.scalar(v)) for v in a])
    assert np.array_equal(arr.view(np.int64), scal.view(np.int64))
    zeros = generator(*bounds, np.array([0.0, -0.0]))
    assert list(np.signbit(zeros)) == [False, True]


def test_vol_grid():
    gamma = GammaSet.interval(0.5, 1.0)
    assert np.array_equal(vol_grid(gamma, 2), [0.5, 1.0])
    assert np.array_equal(vol_grid(gamma, 4), np.linspace(0.5, 1.0, 4))
    assert np.array_equal(vol_grid(GammaSet.interval(1.0, 1.0), 5), [1.0])
    listed = GammaSet.from_matrices([np.array([[0.7]]), np.array([[-0.9]])])
    assert np.array_equal(vol_grid(listed), [0.7, 0.9])


def test_uniform_ellipticity_bounds():
    assert uniform_ellipticity_bounds(GammaSet.interval(0.5, 1.0)) == (0.25, 1.0)
    lo, hi = uniform_ellipticity_bounds(
        GammaSet.from_matrices([np.diag([0.5, 1.0])]))
    assert lo == pytest.approx(0.25, abs=1e-14)
    assert hi == pytest.approx(1.0, abs=1e-14)
