"""Erasure work costs, energy scales, the two-sided bound and eta-erasure."""

import math

import numpy as np
import pytest

from chargebit import (DotSystem, LeadParams, TunnelRates, check_bound,
                       energy_scales, erasure_costs, eta_erasure_work)
from chargebit.dot_model import occupation
from chargebit.erasure import DivergentInput, absolute_deviation_integral
from chargebit.kernels import Delta, Gaussian, Lorentzian
from chargebit.numerics import integrate
from chargebit.units import broadening_energy_uev, thermal_energy_uev

from conftest import make_system, random_system

LN2 = math.log(2.0)


class TestErasureCosts:
    def test_landauer(self):
        costs = erasure_costs(make_system(1.0, 1.0, 0.0, 0.5))
        assert costs.w_bar == pytest.approx(LN2, rel=1e-10)

    def test_weighted_landauer(self):
        costs = erasure_costs(make_system(2.0, 1.0, 0.0, 0.3))
        assert costs.w_bar == pytest.approx(1.3 * LN2, rel=1e-10)

    def test_symmetric_device_costs_equal(self):
        costs = erasure_costs(make_system(0.7, 0.7, 5.0, 0.5, Gaussian(0.9)))
        assert costs.w_zero == pytest.approx(costs.w_one, rel=1e-10)

    def test_atomic_step_geometry(self):
        # T = 0 leads, sharp level, gamma_S = 0.3: the half level sits at the
        # drain step, the plateau at 0.3 spans the bias window
        costs = erasure_costs(make_system(0.0, 0.0, 10.0, 0.3))
        assert costs.mu_half == 0.0
        assert costs.w_zero == pytest.approx(3.0)
        assert costs.w_one == pytest.approx(0.0, abs=1e-12)
        assert costs.w_bar == pytest.approx(1.5)

    def test_average_is_mean_of_costs(self, rng):
        for _ in range(5):
            costs = erasure_costs(random_system(rng))
            assert costs.w_bar == pytest.approx(
                0.5 * (costs.w_zero + costs.w_one), rel=1e-12)

    def test_lorentzian_divergent(self):
        costs = erasure_costs(make_system(1.0, 1.0, 2.0, 0.5, Lorentzian(1.0)))
        assert costs.divergent
        assert math.isinf(costs.w_bar)

    def test_mad_discrepancy_recorded_small(self):
        costs = erasure_costs(make_system(0.4, 0.9, 3.0, 0.6, Gaussian(1.2)))
        assert costs.mad_discrepancy is not None
        assert costs.mad_discrepancy <= 1e-8 * costs.w_bar

    def test_direct_quadrature_route_agrees(self):
        # independent evaluation: integrate the occupation itself over mu
        for sys_ in (make_system(0.8, 0.3, 4.0, 0.4),
                     make_system(0.5, 0.5, 2.0, 0.5, Gaussian(1.5))):
            costs = erasure_costs(sys_, mad_check=False)
            reach = 45.0 * 0.8 + 20.0
            hi = sys_.source.chemical_potential + reach
            lo = sys_.drain.chemical_potential - reach
            w0 = integrate(lambda m: occupation(m, sys_), costs.mu_half, hi,
                           breakpoints=[sys_.source.chemical_potential]).value
            w1 = integrate(lambda m: 1.0 - occupation(m, sys_), lo,
                           costs.mu_half,
                           breakpoints=[sys_.drain.chemical_potential]).value
            assert costs.w_zero == pytest.approx(w0, rel=1e-8)
            assert costs.w_one == pytest.approx(w1, rel=1e-8)

    def test_monotone_in_broadening(self):
        base = make_system(0.5, 0.5, 3.0, 0.5)
        prev = erasure_costs(base, mad_check=False).w_bar
        for sigma in (0.5, 1.0, 2.0, 4.0):
            sys_ = make_system(0.5, 0.5, 3.0, 0.5, Gaussian(sigma))
            w = erasure_costs(sys_, mad_check=False).w_bar
            assert w >= prev - 1e-9
            prev = w


class TestEnergyScales:
    def test_closed_forms(self):
        scales = energy_scales(make_system(2.0, 1.0, 6.0, 0.3, Gaussian(4.0)))
        assert scales.e_therm == pytest.approx(LN2 * (0.3 * 2.0 + 0.7 * 1.0))
        assert scales.e_bias == pytest.approx(0.5 * 0.3 * 6.0)
        assert scales.e_broad == pytest.approx(4.0 / math.sqrt(2 * math.pi),
                                               rel=1e-12)

    def test_degenerate_zero(self):
        scales = energy_scales(make_system(0.0, 0.0, 0.0, 0.5))
        assert (scales.e_therm, scales.e_bias, scales.e_broad) == (0, 0, 0)

    def test_device_values(self):
        kt = thermal_energy_uev(0.040)
        width = broadening_energy_uev(6.3e9 + 250e9)
        sys_ = make_system(kt, kt, 200.0, 6.3 / 256.3, Gaussian(width))
        scales = energy_scales(sys_)
        assert abs(scales.e_therm - 2.4) <= 0.05
        assert abs(scales.e_bias - 2.5) <= 0.05
        assert abs(scales.e_broad - 67.0) <= 0.5


class TestCheckBound:
    def test_device_window(self):
        kt = thermal_energy_uev(0.040)
        width = broadening_energy_uev(6.3e9 + 250e9)
        sys_ = make_system(kt, kt, 200.0, 6.3 / 256.3, Gaussian(width))
        report = check_bound(erasure_costs(sys_), energy_scales(sys_))
        assert report.satisfied
        assert 67.0 <= report.w_bar <= 71.9

    def test_tight_when_single_scale(self):
        sys_ = make_system(1.0, 1.0, 0.0, 0.5)
        report = check_bound(erasure_costs(sys_), energy_scales(sys_))
        assert report.lower == pytest.approx(report.upper)
        assert report.w_bar == pytest.approx(report.lower, rel=1e-10)

    def test_divergent_input_rejected(self):
        sys_ = make_system(1.0, 1.0, 0.0, 0.5, Lorentzian(1.0))
        with pytest.raises(DivergentInput):
            check_bound(erasure_costs(sys_), energy_scales(sys_))

    def test_margins_consistent(self, rng):
        sys_ = random_system(rng)
        report = check_bound(erasure_costs(sys_, mad_check=False),
                             energy_scales(sys_))
        assert report.margin_lower == pytest.approx(report.w_bar - report.lower)
        assert report.margin_upper == pytest.approx(report.upper - report.w_bar)


class TestEtaErasure:
    def test_lorentzian_quarter(self):
        sys_ = make_system(0.0, 0.0, 0.0, 0.5, Lorentzian(1.0))
        assert eta_erasure_work(sys_, 0.25) == pytest.approx(
            LN2 / (2.0 * math.pi), rel=1e-8)

    def test_lorentzian_tenth(self):
        sys_ = make_system(0.0, 0.0, 0.0, 0.5, Lorentzian(1.0))
        expected = (1.0 / (2.0 * math.pi)) * math.log(
            1.0 / math.cos(0.4 * math.pi) ** 2)
        assert expected == pytest.approx(0.3735, abs=5e-4)
        assert eta_erasure_work(sys_, 0.1) == pytest.approx(expected, rel=1e-8)

    def test_vanishes_as_eta_approaches_half(self):
        sys_ = make_system(1.0, 1.0, 0.0, 0.5)
        assert eta_erasure_work(sys_, 0.499) < 1e-4

    def test_scales_with_kernel_width(self):
        narrow = make_system(0.0, 0.0, 0.0, 0.5, Lorentzian(1.0))
        wide = make_system(0.0, 0.0, 0.0, 0.5, Lorentzian(3.0))
        assert eta_erasure_work(wide, 0.1) == pytest.approx(
            3.0 * eta_erasure_work(narrow, 0.1), rel=1e-7)

    @pytest.mark.parametrize("eta", [0.39, 0.3, 0.1, 1e-3])
    def test_ramp_past_zero_temperature_atom(self, eta):
        # p falls from 0.4 to ~0 at the T = 0 source's atom at mu = 1, so
        # every eta below 0.4 takes the same ramp to just past the atom
        kt = 0.01
        sys_ = DotSystem(LeadParams(0.0, 1.0), LeadParams(kt, 0.0),
                         TunnelRates(0.4, 0.6), Delta())
        mu_half = kt * math.log(5.0)  # 0.4 + 0.6/(1 + e^(mu/kT)) = 1/2
        softplus = lambda z: math.log1p(math.exp(z))
        raise_work = 0.4 * (1.0 - mu_half) + 0.6 * kt * (
            softplus(-mu_half / kt) - softplus(-1.0 / kt))
        p_after = 0.6 / (1.0 + math.exp(1.0 / kt))
        expected = raise_work - (1.0 - mu_half) * p_after
        assert expected == pytest.approx(0.394656, abs=1e-6)
        assert eta_erasure_work(sys_, eta) == pytest.approx(expected, rel=1e-9)

    def test_zero_when_atom_at_mu_half_jumps_below_eta(self):
        # p falls from 1 to 0.25 at the T = 0 drain's atom, which is mu_1/2,
        # so p just above mu_1/2 is already below eta
        sys_ = DotSystem(LeadParams(0.1, 10.0), LeadParams(0.0, 0.0),
                         TunnelRates(0.25, 0.75), Delta())
        assert eta_erasure_work(sys_, 0.3) == 0.0

    def test_domain(self):
        sys_ = make_system(1.0, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            eta_erasure_work(sys_, 0.0)
        with pytest.raises(ValueError):
            eta_erasure_work(sys_, 0.5)


class TestAbsoluteDeviationIntegral:
    def test_lorentzian_diverges(self):
        sys_ = make_system(1.0, 1.0, 0.0, 0.5, Lorentzian(1.0))
        assert math.isinf(absolute_deviation_integral(sys_, 0.0))

    def test_atomic_contributions_exact(self):
        sys_ = make_system(0.0, 0.0, 10.0, 0.3)
        # atoms at 0 and 10 weighted by the coupling ratios
        assert absolute_deviation_integral(sys_, 2.0) == pytest.approx(
            0.7 * 2.0 + 0.3 * 8.0)

    def test_median_minimizes(self, rng):
        sys_ = make_system(0.6, 0.2, 4.0, 0.55, Gaussian(0.8))
        costs = erasure_costs(sys_, mad_check=False)
        base = absolute_deviation_integral(sys_, costs.mu_half)
        for off in rng.uniform(-5, 5, 10):
            if abs(off) < 1e-3:
                continue
            assert absolute_deviation_integral(
                sys_, costs.mu_half + off) >= base - 1e-9
