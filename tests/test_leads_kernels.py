"""Electrode distributions and broadening kernels."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from chargebit.kernels import (Delta, DeltaKernelError, Gaussian, Lorentzian,
                               kernel_mad)
from chargebit.leads import (LeadParams, ZeroTemperature,
                             fermi_derivative_density, fermi_occupation,
                             occupied_weight_above, vacancy_weight_below)
from chargebit.numerics import integrate


class TestFermiOccupation:
    def test_half_at_chemical_potential(self):
        lead = LeadParams(0.7, 3.0)
        assert fermi_occupation(3.0, lead) == pytest.approx(0.5)

    def test_quarter_at_ln3(self):
        lead = LeadParams(1.0, 0.0)
        assert fermi_occupation(math.log(3.0), lead) == pytest.approx(0.25)

    def test_zero_temperature_step(self):
        lead = LeadParams(0.0, 1.0)
        assert fermi_occupation(0.5, lead) == 1.0
        assert fermi_occupation(1.5, lead) == 0.0
        assert fermi_occupation(1.0, lead) == 0.5

    def test_extreme_arguments_stable(self):
        lead = LeadParams(1.0, 0.0)
        assert fermi_occupation(1e6, lead) == 0.0
        assert fermi_occupation(-1e6, lead) == 1.0

    def test_monotone_non_increasing(self, rng):
        lead = LeadParams(0.3, 1.2)
        grid = np.sort(rng.uniform(-20, 20, 200))
        vals = [fermi_occupation(e, lead) for e in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            LeadParams(-1.0, 0.0)


class TestFermiDerivativeDensity:
    def test_peak_value(self):
        lead = LeadParams(2.0, 1.0)
        assert fermi_derivative_density(1.0, lead) == pytest.approx(
            0.25 / 2.0)

    def test_symmetric_about_mu(self, rng):
        lead = LeadParams(0.8, -2.0)
        for x in rng.uniform(0, 10, 25):
            assert fermi_derivative_density(-2.0 + x, lead) == pytest.approx(
                fermi_derivative_density(-2.0 - x, lead), rel=1e-12)

    def test_normalises(self):
        lead = LeadParams(1.3, 0.5)
        val = integrate(lambda e: fermi_derivative_density(e, lead),
                        0.5 - 60 * 1.3, 0.5 + 60 * 1.3,
                        breakpoints=[0.5]).value
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_zero_temperature_raises(self):
        with pytest.raises(ZeroTemperature):
            fermi_derivative_density(0.0, LeadParams(0.0, 0.0))

    def test_mad_about_mu_is_2ln2_kt(self):
        lead = LeadParams(0.9, 4.0)
        # the MAD about a point is the occupied weight above it plus the
        # vacancy weight below it
        closed = (occupied_weight_above(4.0, lead)
                  + vacancy_weight_below(4.0, lead))
        assert closed == pytest.approx(2.0 * math.log(2.0) * 0.9, rel=1e-12)
        numeric = integrate(
            lambda e: abs(e - 4.0) * fermi_derivative_density(e, lead),
            4.0 - 60 * 0.9, 4.0 + 60 * 0.9, breakpoints=[4.0]).value
        assert numeric == pytest.approx(2.0 * math.log(2.0) * 0.9, rel=1e-9)

    def test_weight_primitives_reduce_at_zero_temperature(self):
        lead = LeadParams(0.0, 2.0)
        assert occupied_weight_above(0.5, lead) == 1.5
        assert occupied_weight_above(3.0, lead) == 0.0
        assert vacancy_weight_below(3.0, lead) == 1.0
        assert vacancy_weight_below(1.0, lead) == 0.0


class TestKernelDensity:
    def test_gaussian_peak(self):
        assert Gaussian(1.0).pdf(0.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_lorentzian_peak(self):
        assert Lorentzian(1.0).pdf(0.0) == pytest.approx(
            1.0 / math.pi, rel=1e-12)

    def test_gaussian_one_sigma(self):
        assert Gaussian(2.0).pdf(2.0) == pytest.approx(
            0.1209854, abs=1e-7)

    def test_delta_has_no_density(self):
        with pytest.raises(DeltaKernelError):
            Delta().pdf(0.0)

    def test_normalisation(self):
        g = Gaussian(1.7)
        val = integrate(g.pdf, -12 * 1.7, 12 * 1.7).value
        assert val == pytest.approx(1.0, abs=1e-10)
        lz = Lorentzian(0.4)
        # analytic CDF difference over a wide window
        assert lz.cdf(1e9) - lz.cdf(-1e9) == pytest.approx(
            1.0, abs=1e-9)

    def test_gaussian_cdf_matches_normal(self, rng):
        for x in rng.uniform(-4, 4, 20):
            assert Gaussian(1.0).cdf(x) == pytest.approx(ndtr(x), rel=1e-12)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Gaussian(0.0)
        with pytest.raises(ValueError):
            Lorentzian(-1.0)


class TestKernelMad:
    def test_delta(self):
        assert kernel_mad(Delta()) == 0.0

    def test_gaussian(self):
        assert kernel_mad(Gaussian(1.0)) == pytest.approx(
            math.sqrt(2.0 / math.pi), rel=1e-12)

    def test_lorentzian_diverges(self):
        assert math.isinf(kernel_mad(Lorentzian(1.0)))

    def test_width(self):
        assert Delta().width == 0.0
        assert Gaussian(2.5).width == 2.5
        assert Lorentzian(0.3).width == 0.3
