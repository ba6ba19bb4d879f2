"""Quadrature and its tail cut-offs."""

import math

import numpy as np
import pytest

from chargebit.numerics import (DEFAULT_CONFIG, TAIL_CUTOFF_GAUSSIAN,
                                NumericsConfig, integrate)


def normal_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda x: 1.0, 0.0, 1.0).value == pytest.approx(1.0)

    def test_linear(self):
        assert integrate(lambda x: x, 0.0, 2.0).value == pytest.approx(2.0)

    def test_normal_density_normalises(self):
        val = integrate(normal_pdf, -12.0, 12.0).value
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda x: 1.0, 1.0, 1.0)

    def test_linearity_on_random_polynomials(self, rng):
        for _ in range(20):
            cf = rng.uniform(-2, 2, 4)
            cg = rng.uniform(-2, 2, 4)
            a, b = sorted(rng.uniform(-3, 3, 2) + [0.0, 1.0])
            alpha, beta = rng.uniform(-2, 2, 2)
            f = lambda x: np.polyval(cf, x)
            g = lambda x: np.polyval(cg, x)
            combined = integrate(
                lambda x: alpha * f(x) + beta * g(x), a, b).value
            parts = (alpha * integrate(f, a, b).value
                     + beta * integrate(g, a, b).value)
            assert combined == pytest.approx(parts, abs=1e-9, rel=1e-9)

    def test_breakpoints_resolve_narrow_feature(self):
        # a spike of width 1e-3 inside a huge interval is found when marked
        spike = lambda x: normal_pdf(x / 1e-3) / 1e-3
        val = integrate(spike, -100.0, 100.0,
                        breakpoints=[-0.012, 0.0, 0.012]).value
        assert val == pytest.approx(1.0, abs=1e-9)


class TestSemiInfinite:
    def test_discarded_tails_below_abs_tol(self):
        cfg = DEFAULT_CONFIG
        # remainder past k sigma is below the k-sigma density
        k = TAIL_CUTOFF_GAUSSIAN
        assert normal_pdf(k) / k < cfg.abs_tol


class TestConfig:
    def test_subdivision_floor(self):
        with pytest.raises(ValueError):
            NumericsConfig(max_subdivisions=5)

    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
    def test_non_positive_tolerance_named(self, field):
        with pytest.raises(ValueError, match=f"{field} must be strictly"):
            NumericsConfig(**{field: 0.0})

    def test_defaults_sane(self):
        cfg = NumericsConfig()
        assert cfg.rel_tol < 1e-6 and cfg.abs_tol < cfg.rel_tol
