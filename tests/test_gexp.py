"""Worst-case generator G on volatility intervals: closed forms, the
worst-case level, sublinearity axioms."""

import numpy as np
import pytest

from grobust.gexp import (GammaSet, generator, uniform_ellipticity_bounds,
                          vol_grid)

THIRD_INTERVAL = GammaSet.interval(np.sqrt(1.0 / 3.0), 1.0)
HALF_INTERVAL = GammaSet.interval(0.5, 1.0)


def G(gamma, a):
    return generator(*uniform_ellipticity_bounds(gamma), a)


class TestGOf:
    def test_interval_closed_form_positive(self):
        # G(a) = (a+ - a-/3) / 2 for the [sqrt(1/3), 1] set
        assert G(THIRD_INTERVAL, 2.0) == 1.0

    def test_interval_zero(self):
        assert G(THIRD_INTERVAL, 0.0) == 0.0

    def test_interval_negative(self):
        assert G(THIRD_INTERVAL, -3.0) == pytest.approx(-0.5, abs=1e-15)


class TestArgmax:
    """The worst-case level by the sign of a: sigma_hi at a >= 0, else
    sigma_lo; G(a) is q^2 a / 2 at that level."""

    def test_interval_positive_selects_high(self):
        assert G(HALF_INTERVAL, 1.0) == 0.5 * 1.0 ** 2 * 1.0

    def test_interval_negative_selects_low(self):
        assert G(HALF_INTERVAL, -1.0) == 0.5 * 0.5 ** 2 * -1.0

    def test_interval_tie_selects_high(self):
        # at a = +0.0 both levels give 0; the high level's +0.0 is the value
        value = G(HALF_INTERVAL, 0.0)
        assert value == 0.5 * 1.0 ** 2 * 0.0 and not np.signbit(value)

    def test_attains_supremum(self):
        rng = np.random.default_rng(3)
        qs = np.linspace(0.5, 1.0, 101)
        for _ in range(50):
            a = rng.normal()
            q = 1.0 if a >= 0.0 else 0.5
            assert G(HALF_INTERVAL, a) == 0.5 * q ** 2 * a
            assert np.all(0.5 * qs ** 2 * a <= G(HALF_INTERVAL, a))


class TestNondegeneracy:
    def test_interval(self):
        assert uniform_ellipticity_bounds(THIRD_INTERVAL)[0] == pytest.approx(
            1.0 / 3.0, abs=1e-15)

    def test_singleton(self):
        assert uniform_ellipticity_bounds(GammaSet.interval(1.0, 1.0))[0] == 1.0

    def test_construction_rejects_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            GammaSet.interval(0.0, 1.0)
        with pytest.raises(ValueError, match="degenerate"):
            GammaSet.interval(-0.5, 1.0)
        with pytest.raises(ValueError, match="degenerate"):
            GammaSet.interval(1.0, 0.5)
        with pytest.raises(ValueError, match="must be finite"):
            GammaSet.interval(0.5, np.inf)


class TestSublinearityAxioms:
    """Randomized axiom suite on scalar arguments."""

    def _random_set(self, rng):
        # O(1) scales so the absolute 1e-14 margins tolerate rounding
        lo = rng.uniform(0.2, 0.9)
        return GammaSet.interval(lo, lo + rng.uniform(0.0, 1.0))

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(11)
        for _ in range(250):
            gamma = self._random_set(rng)
            a = rng.normal()
            lam = rng.uniform(0.0, 5.0)
            # the closed form is exactly homogeneous up to one rounding
            assert G(gamma, lam * a) == pytest.approx(
                lam * G(gamma, a), abs=1e-14, rel=1e-14)

    def test_subadditivity(self):
        rng = np.random.default_rng(12)
        for _ in range(250):
            gamma = self._random_set(rng)
            a, b = rng.normal(size=2)
            assert G(gamma, a + b) <= G(gamma, a) + G(gamma, b) + 1e-14

    def test_quantitative_monotonicity(self):
        rng = np.random.default_rng(13)
        for _ in range(250):
            gamma = self._random_set(rng)
            b = rng.normal()
            a = b + rng.normal() ** 2  # a >= b
            gap = G(gamma, a) - G(gamma, b)
            bound = 0.5 * uniform_ellipticity_bounds(gamma)[0] * (a - b)
            assert gap >= bound - 1e-12


@pytest.mark.parametrize("gamma", [GammaSet.interval(0.5, 1.0),
                                   GammaSet.interval(0.7, 0.7)],
                         ids=["interval", "single"])
def test_generator_closed_form_bit_for_bit(gamma):
    # the array generator against q^2 a / 2 at the worst-case level, one
    # scalar at a time, and the sign of zero kept
    rng = np.random.default_rng(8)
    a = np.concatenate([[0.0, 1e-300, -1e-300],
                        rng.normal(size=200), rng.normal(size=50) * 1e-200])
    lo2, hi2 = uniform_ellipticity_bounds(gamma)
    arr = generator(lo2, hi2, a)
    scal = np.array([0.5 * (hi2 if v >= 0.0 else lo2) * v for v in a])
    assert np.array_equal(arr.view(np.int64), scal.view(np.int64))
    zeros = generator(lo2, hi2, np.array([0.0, -0.0]))
    assert list(np.signbit(zeros)) == [False, True]


def test_vol_grid():
    gamma = GammaSet.interval(0.5, 1.0)
    assert np.array_equal(vol_grid(gamma), [0.5, 1.0])
    assert np.array_equal(vol_grid(gamma, 2), [0.5, 1.0])
    assert np.array_equal(vol_grid(gamma, 4), np.linspace(0.5, 1.0, 4))
    # the endpoints come out exactly, interior points or not
    odd = GammaSet.interval(0.1 + 0.2, np.sqrt(1.0 / 3.0))
    for n_q in (2, 3, 7):
        grid = vol_grid(odd, n_q)
        assert grid[0] == odd.sigma_lo and grid[-1] == odd.sigma_hi
    assert np.array_equal(vol_grid(GammaSet.interval(1.0, 1.0), 5), [1.0])


def test_uniform_ellipticity_bounds():
    assert uniform_ellipticity_bounds(GammaSet.interval(0.5, 1.0)) == (0.25, 1.0)
