"""Erasure work costs, energy scales, the two-sided bound and eta-erasure."""

import decimal
import logging
import math
import re
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from chargebit import (DotSystem, EnergyScales, LeadParams, TunnelRates,
                       check_bound, dot_model, energy_scales, erasure,
                       erasure_costs, eta_erasure_work)
from chargebit.dot_model import (LEVEL_TOL, half_occupation_level,
                                 occupation, occupation_levels)
from chargebit.erasure import DivergentInput, absolute_deviation_integral
from chargebit.kernels import Delta, Gaussian, Lorentzian
from chargebit.units import broadening_energy_uev, thermal_energy_uev

from conftest import (corpus_device, decimal_fermi, decimal_ramp,
                      lead_values, make_system, random_system, reference_quad)

LN2 = math.log(2.0)
_TWELVE_DECADES = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)


class TestErasureCosts:
    def test_landauer(self):
        costs = erasure_costs(make_system(1.0, 1.0, 0.0, 0.5))
        assert costs.w_bar == pytest.approx(LN2, rel=1e-10, abs=0.0)

    def test_weighted_landauer(self):
        costs = erasure_costs(make_system(2.0, 1.0, 0.0, 0.3))
        assert costs.w_bar == pytest.approx(1.3 * LN2, rel=1e-10, abs=0.0)

    def test_symmetric_device_costs_equal(self):
        costs = erasure_costs(make_system(0.7, 0.7, 5.0, 0.5, Gaussian(0.9)))
        assert costs.w_zero == pytest.approx(costs.w_one, rel=1e-10, abs=0.0)

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
                0.5 * (costs.w_zero + costs.w_one), rel=1e-12, abs=0.0)

    def test_lorentzian_divergent(self):
        costs = erasure_costs(make_system(1.0, 1.0, 2.0, 0.5, Lorentzian(1.0)))
        assert math.isinf(costs.w_bar)

    def test_mad_discrepancy_recorded_small(self):
        costs = erasure_costs(make_system(0.4, 0.9, 3.0, 0.6, Gaussian(1.2)))
        assert costs.mad_discrepancy is not None
        assert costs.mad_discrepancy <= 1e-8 * costs.w_bar

    @pytest.mark.parametrize("sys_", [
        pytest.param(make_system(0.8, 0.3, 4.0, 0.4), id="delta"),
        *(pytest.param(make_system(1.0, 1.0, 3.0, 0.4, Gaussian(ratio)),
                       id=f"sigma={ratio:g}kT")
          for ratio in (1e-3, 1e-1, 1.0, 10.0, 1e3)),
        pytest.param(make_system(0.0, 0.7, 3.0, 0.4, Gaussian(0.5)),
                     id="T=0-source")])
    def test_direct_quadrature_route_agrees(self, sys_):
        # independent evaluation: integrate the occupation itself over mu,
        # past each lead by 45 kT and 14 sigma, beyond which the integral of
        # p, or of 1 - p, is below 1e-19 of W
        costs = erasure_costs(sys_, mad_check=False)
        mu_s = sys_.source.chemical_potential
        mu_d = sys_.drain.chemical_potential
        reach = 14.0 * sys_.kernel.width + 45.0 * max(
            sys_.source.thermal_energy, sys_.drain.thermal_energy)
        w0 = reference_quad(lambda m: occupation(m, sys_), costs.mu_half,
                            mu_s + reach, points=[mu_d, mu_s])
        w1 = reference_quad(lambda m: 1.0 - occupation(m, sys_),
                            mu_d - reach, costs.mu_half, points=[mu_d, mu_s])
        assert costs.w_zero == pytest.approx(w0, rel=1e-9, abs=0.0)
        assert costs.w_one == pytest.approx(w1, rel=1e-9, abs=0.0)

    def test_monotone_in_broadening(self):
        base = make_system(0.5, 0.5, 3.0, 0.5)
        prev = erasure_costs(base, mad_check=False).w_bar
        for sigma in (0.5, 1.0, 2.0, 4.0):
            sys_ = make_system(0.5, 0.5, 3.0, 0.5, Gaussian(sigma))
            w = erasure_costs(sys_, mad_check=False).w_bar
            assert w >= prev - 1e-9
            prev = w

    @pytest.mark.parametrize("kernel", [Delta(), Gaussian(0.7),
                                        Lorentzian(0.7)],
                             ids=["delta", "gaussian", "lorentzian"])
    def test_lead_without_rate_drops_out(self, kernel):
        # with rates (0, R) the biased source carries no weight: the device
        # is its drain alone, as is the zero-bias device with rates R/2, R/2
        silent = DotSystem(LeadParams(0.9, 20.0), LeadParams(0.9, 0.0),
                           TunnelRates(0.0, 250.0), kernel)
        split = DotSystem(LeadParams(0.9, 0.0), LeadParams(0.9, 0.0),
                          TunnelRates(125.0, 125.0), kernel)
        got, want = erasure_costs(silent), erasure_costs(split)
        assert (math.isinf(got.w_bar) == math.isinf(want.w_bar)
                == math.isinf(kernel.mad))
        assert got.mu_half == pytest.approx(want.mu_half, abs=1e-12)
        for name in ("w_zero", "w_one", "w_bar"):
            value = getattr(got, name)
            assert not math.isnan(value)
            assert value == pytest.approx(getattr(want, name), rel=1e-12,
                                          abs=0.0)


class TestBroadeningExcessBudget:
    """The W0/W1 excess is folded onto |Y| and split where the logistic
    weight falls by decades, so QUADPACK's first pass mostly converges:
    unfolded and split at 0 only, it took a mean of 243 evaluations per
    call on these corpus devices and 296 on these random ones, and up to
    357."""

    def _check_evaluations(self, monkeypatch, systems):
        counts, exact = [], dot_model.integrate

        def counted(f, a, b, breakpoints=()):
            counts.append(0)

            def g(s):
                counts[-1] += 1
                return f(s)
            return exact(g, a, b, breakpoints)
        monkeypatch.setattr(dot_model, "integrate", counted)
        for sys_ in systems:
            erasure_costs(sys_, mad_check=False)
        assert counts
        assert sum(counts) / len(counts) <= 120
        assert max(counts) <= 231

    def test_corpus_gaussian_devices(self, monkeypatch):
        self._check_evaluations(monkeypatch, (_corpus_device(i)
                                              for i in range(1, 300, 3)))

    def test_random_systems(self, monkeypatch):
        rng = np.random.default_rng(42)
        self._check_evaluations(monkeypatch, (random_system(rng)
                                              for _ in range(200)))


class TestEnergyScales:
    def test_closed_forms(self):
        scales = energy_scales(make_system(2.0, 1.0, 6.0, 0.3, Gaussian(4.0)))
        assert scales.e_therm == pytest.approx(LN2 * (0.3 * 2.0 + 0.7 * 1.0))
        assert scales.e_bias == pytest.approx(0.5 * 0.3 * 6.0)
        assert scales.e_broad == pytest.approx(4.0 / math.sqrt(2 * math.pi),
                                               rel=1e-12, abs=0.0)

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

    def test_bound_is_their_max_and_sum(self):
        assert EnergyScales(0.5, 2.0, 1.25).bound == (2.0, 3.75)
        assert EnergyScales(0.5, 2.0, math.inf).bound == (math.inf, math.inf)


class TestCheckBound:
    def test_device_window(self):
        kt = thermal_energy_uev(0.040)
        width = broadening_energy_uev(6.3e9 + 250e9)
        sys_ = make_system(kt, kt, 200.0, 6.3 / 256.3, Gaussian(width))
        costs = erasure_costs(sys_)
        assert check_bound(costs, energy_scales(sys_)).satisfied
        assert 67.0 <= costs.w_bar <= 71.9

    def test_tight_when_single_scale(self):
        sys_ = make_system(1.0, 1.0, 0.0, 0.5)
        costs = erasure_costs(sys_)
        report = check_bound(costs, energy_scales(sys_))
        assert report.lower == pytest.approx(report.upper)
        assert costs.w_bar == pytest.approx(report.lower, rel=1e-10, abs=0.0)

    def test_divergent_input_rejected(self):
        sys_ = make_system(1.0, 1.0, 0.0, 0.5, Lorentzian(1.0))
        with pytest.raises(DivergentInput):
            check_bound(erasure_costs(sys_), energy_scales(sys_))

    @pytest.mark.parametrize("scales", [EnergyScales(1.0, math.nan, 1.0),
                                        EnergyScales(math.inf, 0.0, 1.0)])
    def test_non_finite_scale_rejected(self, scales):
        costs = erasure_costs(make_system(1.0, 1.0, 0.0, 0.5))
        with pytest.raises(DivergentInput):
            check_bound(costs, scales)

    def test_reads_the_scales_bound(self):
        sys_ = make_system(1.0, 0.5, 3.0, 0.3, Gaussian(0.8))
        scales = energy_scales(sys_)
        report = check_bound(erasure_costs(sys_), scales)
        assert (report.lower, report.upper) == scales.bound


def _delta_eta_work(sys_, mu_half, mu_eta):
    """The unbroadened eta work at given levels in 50-digit decimals.

    Per lead the softplus closed form of the raise work,
    kT [softplus((mu_i - mu_half)/kT) - softplus((mu_i - mu_eta)/kT)] (ramps
    at T = 0), less (mu_eta - mu_half) times its occupation at mu_eta, just
    above it for the step of a T = 0 lead. The digits spare the reference
    the cancellation of the two ramps.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        lo, hi = Decimal(mu_half), Decimal(mu_eta)
        above = Decimal(math.nextafter(mu_eta, math.inf))
        total = Decimal(0)
        for gamma, lead in sys_.coupled:
            kt = Decimal(lead.thermal_energy)
            mu_i = Decimal(lead.chemical_potential)
            total += Decimal(gamma) * (
                decimal_ramp(mu_i - lo, kt) - decimal_ramp(mu_i - hi, kt)
                - (hi - lo) * decimal_fermi((above if kt == 0 else hi) - mu_i,
                                            kt))
        return float(total)


def _eta_work_and_levels(sys_, eta):
    """(eta_erasure_work, mu_1/2, mu_eta), the levels the code itself used."""
    real = erasure.occupation_levels
    levels = []

    def record(*args):
        solved = real(*args)
        levels.extend(solved)
        return solved
    with mock.patch.object(erasure, "occupation_levels", record):
        work = eta_erasure_work(sys_, eta)
    (mu_eta,) = levels
    return work, half_occupation_level(sys_), mu_eta


def _eta_work_tolerance(expected, mu_half, mu_eta):
    """1e-9 relative plus 1e-13 of the levels' magnitude."""
    return 1e-9 * abs(expected) + 1e-13 * (abs(mu_half) + abs(mu_eta))


def _check_delta_eta_work(sys_, eta):
    """eta_erasure_work against _delta_eta_work at the code's own mu_1/2
    and mu_eta, to _eta_work_tolerance."""
    work, mu_half, mu_eta = _eta_work_and_levels(sys_, eta)
    if mu_eta <= mu_half:
        assert work == 0.0
        return
    expected = _delta_eta_work(sys_, mu_half, mu_eta)
    assert abs(work - expected) <= _eta_work_tolerance(
        expected, mu_half, mu_eta), (work, expected)


class TestEtaErasure:
    def test_lorentzian_quarter(self):
        sys_ = make_system(0.0, 0.0, 0.0, 0.5, Lorentzian(1.0))
        assert eta_erasure_work(sys_, 0.25) == pytest.approx(
            LN2 / (2.0 * math.pi), rel=1e-8, abs=0.0)

    def test_lorentzian_tenth(self):
        sys_ = make_system(0.0, 0.0, 0.0, 0.5, Lorentzian(1.0))
        expected = (1.0 / (2.0 * math.pi)) * math.log(
            1.0 / math.cos(0.4 * math.pi) ** 2)
        assert expected == pytest.approx(0.3735, abs=5e-4)
        assert eta_erasure_work(sys_, 0.1) == pytest.approx(expected, rel=1e-8,
                                                            abs=0.0)

    def test_vanishes_as_eta_approaches_half(self):
        sys_ = make_system(1.0, 1.0, 0.0, 0.5)
        assert eta_erasure_work(sys_, 0.499) < 1e-4

    def test_scales_with_kernel_width(self):
        narrow = make_system(0.0, 0.0, 0.0, 0.5, Lorentzian(1.0))
        wide = make_system(0.0, 0.0, 0.0, 0.5, Lorentzian(3.0))
        assert eta_erasure_work(wide, 0.1) == pytest.approx(
            3.0 * eta_erasure_work(narrow, 0.1), rel=1e-7, abs=0.0)

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
        assert eta_erasure_work(sys_, eta) == pytest.approx(expected, rel=1e-9,
                                                            abs=0.0)

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

    # a lead whose kT is far below the window [mu_1/2, mu_eta]: adaptive
    # quadrature over mu missed its step by 1.7e-3 and 1.0e-3 relative. The
    # references are the softplus closed form at 40 digits (Delta) and a
    # nested quadrature at 40 digits (Gaussian), both by mpmath.
    @pytest.mark.parametrize("sys_, expected", [
        pytest.param(DotSystem(LeadParams(0.002768855724460147,
                                          104.18071817894695),
                               LeadParams(94.38067633765615, 0.0),
                               TunnelRates(0.8789717095546369, 1.0), Delta()),
                     0.53590353830634693, id="delta"),
        pytest.param(DotSystem(LeadParams(1886.4123810427527,
                                          0.06177498053249975),
                               LeadParams(0.13923985156617974, 0.0),
                               TunnelRates(0.48268901327232366, 1.0),
                               Gaussian(0.06083561220976206)),
                     46.94541615467975, id="gaussian"),
    ])
    def test_narrow_lead_in_a_wide_window(self, sys_, expected):
        assert eta_erasure_work(sys_, 0.1) == pytest.approx(expected,
                                                            rel=1e-12, abs=0.0)

    # a Gaussian far narrower than kT: W_eta is the Delta one, to O(sigma^2),
    # although each lead's remainder drops by the window's width over about
    # sigma/kT of s at the upper kernel centre
    @pytest.mark.parametrize("sigma", [1e-13, 1e-15])
    def test_narrow_gaussian_is_the_delta_work(self, sigma):
        gaussian, delta = (eta_erasure_work(make_system(
            1.0, 0.5, 3.0, 0.3, kernel), [0.1, 1e-2])
            for kernel in (Gaussian(sigma), Delta()))
        assert gaussian == pytest.approx(delta, rel=1e-14, abs=0.0)

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(kt_s=st.just(0.0) | _TWELVE_DECADES,
           kt_d=st.just(0.0) | _TWELVE_DECADES, bias=_TWELVE_DECADES,
           gamma_s=st.floats(0.05, 0.95), eta=st.floats(1e-3, 0.45))
    def test_delta_softplus_twelve_decades(self, kt_s, kt_d, bias, gamma_s,
                                           eta):
        _check_delta_eta_work(make_system(kt_s, kt_d, bias, gamma_s), eta)

    # a lead held full (or empty) across a narrow window far from it, or one
    # whose kT dwarfs the window: a difference of the two levels' softplus
    # tails cancels there, to 1e-4 relative on the first device
    @pytest.mark.parametrize("kt_s, kt_d, bias, gamma_s, eta", [
        (1e-6, 1e-6, 1e6, 0.06, 0.3),
        (0.0, 1e-3, 1e6, 0.2, 0.3),
        (1e-6, 1e-6, 1e6, 0.7, 0.1),
        (1e6, 0.1, 1.0, 0.5, 0.375),
    ])
    def test_delta_far_or_wide_lead(self, kt_s, kt_d, bias, gamma_s, eta):
        _check_delta_eta_work(make_system(kt_s, kt_d, bias, gamma_s), eta)


# Lorentzian devices of the 12-decade corpus (conftest.corpus_device).
# Integrating p over mu adaptively raised NonConvergence on devices 65 and
# 167 at eta 0.001 and on 161 at 0.01, and was 5.4e-6 off on 236 at eta 0.01.
# On 158 a window 7e-4 kT_D wide sits 4 kT_D above the drain, with w = 5e-8
# kT_D; on 284 a window 1e6 wide has its lower end 0.08 kT_D above the
# drain. On 14 kT_S is 1e-9 of the bias, so no double near mu_0.1 meets the
# level tolerance: that level stops at adjacent doubles, the other three
# meet it.
_CORPUS_LORENTZIAN = (14, 65, 158, 161, 167, 236, 284)


# device-1 rates (6.3 GHz, 250 GHz) at 40 mK and a 200 ueV bias
_DEVICE1_LORENTZIAN = DotSystem(LeadParams(thermal_energy_uev(0.04), 200.0),
                                LeadParams(thermal_energy_uev(0.04), 0.0),
                                TunnelRates(6.3e9, 250e9),
                                Lorentzian(broadening_energy_uev(256.3e9)))


def _corpus_device(index):
    return make_system(*corpus_device(index))


class TestLorentzianEtaTwelveDecades:
    # The references are mpmath at 60 digits, at the code's own mu_1/2 and
    # mu_eta: per lead gamma_i*(E_Y[A(Y - (mu_1/2 - mu_i)) - A(Y - (mu_eta -
    # mu_i))] - (mu_eta - mu_1/2)*E_Y[K(Y - (mu_eta+ - mu_i))]), with A the
    # antiderivative of the Lorentzian cdf K, Y = kT_i*s, mu_eta+ the next
    # double above mu_eta, and each expectation one tanh-sinh quadrature
    # over s in (-inf, inf) split at 0 and at each kernel centre +- (w/kT)*8^k
    # up to 50. Changing that grading to 3^k moves no value by more than
    # 1e-53 relative. The work subtracts p(mu_eta), not p(mu_eta+): on these
    # devices the two differ by far less than the tolerance.
    @pytest.mark.parametrize("index, eta, expected", [
        (65, 0.1, 14.23332073236564255401),
        (65, 0.01, 26.52026165174135208273),
        (65, 0.001, 28.76650217295138278824),
        (161, 0.1, 60629.90170939521319255),
        (161, 0.01, 98798.83127690361645712),
        (161, 0.001, 105999.8379980538281086),
        (167, 0.1, 2275.959329757446790038),
        (167, 0.01, 19698.53481444946410345),
        (167, 0.001, 24032.58633841853088102),
        (236, 0.1, 0.1918719125155914885594),
        (236, 0.01, 46708.95203927990040919),
        (236, 0.001, 71438.38123008846988339),
    ])
    def test_matches_mpmath(self, index, eta, expected):
        work, mu_half, mu_eta = _eta_work_and_levels(_corpus_device(index),
                                                     eta)
        assert abs(work - expected) <= _eta_work_tolerance(
            expected, mu_half, mu_eta), (work, expected)

    # QUADPACK flagged roundoff on these when the integrand rebuilt one end
    # of the window from the other (284) or when no breakpoints graded down
    # to a kernel far narrower than kT (158)
    @pytest.mark.parametrize("index", [158, 284])
    def test_no_quadrature_near_miss(self, index, caplog):
        with caplog.at_level(logging.WARNING, logger="chargebit"):
            for eta in (0.1, 0.01, 0.001):
                eta_erasure_work(_corpus_device(index), eta)
        assert caplog.records == []

    def test_corpus_stream_is_pinned(self):
        # device 236 as first drawn: any change to the stream moves it
        assert corpus_device(236) == (
            0.4193015741717245, 838594.0086626075, 253.71932185895957,
            0.8685964334645372, Lorentzian(4.888988101100683e-06))

    def test_device_236_to_1e_12(self):
        assert eta_erasure_work(_corpus_device(236), 0.01) == pytest.approx(
            46708.95203927990040919, rel=1e-12, abs=0.0)

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(kt_s=st.just(0.0) | _TWELVE_DECADES,
           kt_d=st.just(0.0) | _TWELVE_DECADES, bias=_TWELVE_DECADES,
           w=_TWELVE_DECADES, gamma_s=st.floats(0.05, 0.95))
    def test_property(self, kt_s, kt_d, bias, w, gamma_s):
        sys_ = make_system(kt_s, kt_d, bias, gamma_s, Lorentzian(w))
        works = [eta_erasure_work(sys_, eta) for eta in (0.1, 0.01, 0.001)]
        assert 0.0 <= works[0] <= works[1] <= works[2], works

    def test_work_counts_stay_off_the_occupation(self):
        # the work integrates the kernel's remainder over each lead's
        # thermal variable, so p(mu) is evaluated only by the two level
        # solves and the ladder; integrating p over mu took 97-263
        # evaluations; these take 7-8
        for eta in (0.1, 0.01, 0.001):
            with mock.patch.object(dot_model, "_combined",
                                   wraps=dot_model._combined) as spy:
                eta_erasure_work(_DEVICE1_LORENTZIAN, eta)
            assert 0 < spy.call_count <= 11, (eta, spy.call_count)

    # 40-digit mpmath as above, at the levels listed (the code's own), each
    # expectation split at 0 and at the kernel centres +- (w/kT)*8^k; with
    # 3^k at 50 digits no value moves in its first 28 digits. Device 191
    # has a lead of kT 2.12 with w/kT = 1.8e-4: adaptive quadrature missed
    # its eta = 0.1 work by 2.9e-11, and fixed panels graded by 8 in place
    # of 3 miss it by 2.2e-13. Graded by 4, they miss device 110, whose
    # leads have w/kT = 0.093 and 6.5, by 1.6e-13. Device 59's reference is
    # per lead gamma_i*E_Y[B(Y - (mu_eta - mu_i), Y - (mu_1/2 - mu_i))], B
    # the remainder of the kernel, graded by 3^k: its W_eta = 0.0128 is
    # 1e-4 of the source's raise work, and subtracting the reached
    # occupation's share from that sum missed it by 2.5e-12.
    @pytest.mark.parametrize("index, eta, levels, expected", [
        (110, 0.1, (4.538773257925056e-06, 89107.32646149163),
         7367.6442447741069167473489746),
        (191, 0.1, (0.1374511317250045, 45.59492078281779),
         2.6761816583651345445367685266),
        (191, 0.01, (0.1374511317250045, 166.1540891914795),
         10.5451351841607653573834308343),
        (236, 0.1, (253.7193026669654, 255.05740982646344),
         0.191871912515591488559368785716),
        (236, 0.01, (253.7193026669654, 2093579.430662528),
         46708.952039280351463432969902),
        (59, 0.1, (1.946678589899855e-05, 195.40163728462494),
         0.012780849387031535039322657212288),
    ])
    def test_graded_panels_to_1e_13(self, index, eta, levels, expected):
        work, mu_half, mu_eta = _eta_work_and_levels(_corpus_device(index),
                                                     eta)
        assert (mu_half, mu_eta) == levels
        assert abs(work - expected) <= 1e-13 * expected, (work, expected)

    def test_no_adaptive_quadrature(self):
        with mock.patch.object(erasure, "integrate",
                               wraps=erasure.integrate) as spy:
            eta_erasure_work(_DEVICE1_LORENTZIAN, [0.1, 0.01, 0.001])
            eta_erasure_work(_corpus_device(191), [0.1, 0.01, 0.001])
        assert spy.call_count == 0


class TestWideGaussianNearHalf:
    """A window narrow next to sigma: kT = 1 on both leads at 0, gamma_S =
    1/2, where the broadening excess at the two ends of [mu_1/2, mu_eta]
    cancels to about width/sigma. The references are 40-digit mpmath at the
    code's own levels, per lead E_Y[B(Y - mu_eta, Y - mu_1/2)], B the
    Gaussian's remainder in closed form, one tanh-sinh quadrature over
    Y/kT split at 0 and at both kernel centres +- sigma/kT times 1/4 to 16.
    The two excesses of W0, subtracted, missed them by 6e-9 and 1.2e-6
    relative; their difference, less the reached occupation's share of the
    raise work, by 4.2e-12 and 8.9e-11. Subtracting p(mu_eta+) in place of
    p(mu_eta) would move them by 2.8e-16 and 4.4e-16."""

    @pytest.mark.parametrize("sigma, eta, levels, expected", [
        (100.0, 0.4999, (0.0, 0.025070405501298052),
         1.253520268496272495592365e-6),
        (1e4, 0.49999, (0.0, 0.25066283160291436),
         1.253314157900582384321868e-6),
    ])
    def test_matches_mpmath(self, sigma, eta, levels, expected):
        sys_ = make_system(1.0, 1.0, 0.0, 0.5, Gaussian(sigma))
        work, mu_half, mu_eta = _eta_work_and_levels(sys_, eta)
        assert (mu_half, mu_eta) == levels
        assert abs(work - expected) <= 1e-13 * expected, (work, expected)

    def test_one_quadrature_per_lead_and_eta(self):
        sys_ = make_system(1.0, 0.5, 3.0, 0.3, Gaussian(0.8))
        with mock.patch.object(erasure, "integrate",
                               wraps=erasure.integrate) as spy:
            eta_erasure_work(sys_, [0.1, 0.01])
        assert spy.call_count == 4


class TestLeadRemaindersAreNonNegative:
    """Each lead's share of W_eta, the integral of p_i - p_i(mu_eta) over
    [mu_1/2, mu_eta], is non-negative: on every 12-decade corpus device."""

    def test_corpus_at_three_etas(self):
        real, values = erasure._lead_remainders, []

        def record(*args):
            values.append(real(*args))
            return values[-1]
        with mock.patch.object(erasure, "_lead_remainders", record):
            for i in range(300):
                eta_erasure_work(_corpus_device(i), [0.1, 1e-2, 1e-6])
        assert len(values) >= 300
        assert all(v.shape == (3,) and (v >= 0.0).all() for v in values)


class TestEtaBelowTheReachableOccupation:
    """An eta below every occupation the ladder reaches before a level or an
    offset over a scale would overflow is a ValueError naming it."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sys_, eta", [
        # p/eta overflowed to inf, and ceil(log2(inf)) raised OverflowError
        pytest.param(_DEVICE1_LORENTZIAN, 5e-324, id="lorentzian-5e-324"),
        # the rungs doubled past the largest double, to mu = inf
        pytest.param(_DEVICE1_LORENTZIAN, 1e-310, id="lorentzian-1e-310"),
        # sigma < 2 kT: the capped exponent of the thermal cdf floors p near
        # 1e-304, and the rungs doubled past the largest double
        pytest.param(make_system(1.0, 0.7, 3.0, 0.4, Gaussian(1.0)), 1e-305,
                     id="gaussian-1e-305"),
    ])
    def test_names_eta(self, sys_, eta):
        with pytest.raises(ValueError,
                           match=f"^eta = {re.escape(repr(eta))} is below "):
            eta_erasure_work(sys_, eta)

    def test_floor_device_is_finite_above_the_floor(self):
        sys_ = make_system(1.0, 0.7, 3.0, 0.4, Gaussian(1.0))
        works = eta_erasure_work(sys_, [0.1, 1e-300, 1e-304])
        # the tail past the 1e-300 level adds nothing a double resolves
        assert works[0] < works[1] == pytest.approx(works[2], rel=1e-12,
                                                    abs=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_twelve_decade_corpus_at_1e_310(self):
        # the first 40 devices of the 12-decade corpus; a ladder doubled
        # without a cap overflowed a level or an offset over a scale on 23
        outcomes = []
        for i in range(40):
            sys_ = _corpus_device(i)
            try:
                work = eta_erasure_work(sys_, 1e-310)
            except ValueError as exc:
                assert str(exc).startswith("eta = 1e-310 is below "), (i, exc)
                outcomes.append("error")
            else:
                assert math.isfinite(work), (i, work)
                outcomes.append("work")
        assert set(outcomes) == {"error", "work"}


class TestEtaSequence:
    """One pass for several eta: a float gives a float, a sequence a list
    in its order, and every eta is checked before anything is solved."""

    ETAS = (0.01, 0.1, 0.001, 0.01)

    def test_float_gives_a_float(self):
        for eta in (0.1, np.float64(0.1)):
            assert type(eta_erasure_work(_DEVICE1_LORENTZIAN, eta)) is float

    def test_sequence_in_input_order_and_repeats_solved_once(self):
        with mock.patch.object(erasure, "occupation_levels",
                               wraps=erasure.occupation_levels) as spy:
            works = eta_erasure_work(_DEVICE1_LORENTZIAN, list(self.ETAS))
        # one solve, of the three distinct levels
        assert spy.call_count == 1
        assert spy.call_args.args[1] == [0.1, 0.01, 0.001]
        assert [type(w) for w in works] == [float] * 4
        assert works[0] == works[3]
        assert works[1] < works[0] < works[2]
        # each alone is solved on a ladder whose top may differ: the levels
        # agree to LEVEL_TOL in p
        assert works == pytest.approx(
            [eta_erasure_work(_DEVICE1_LORENTZIAN, e) for e in self.ETAS],
            rel=1e-9, abs=0.0)

    def test_empty_sequence_solves_nothing(self):
        with mock.patch.object(dot_model, "_combined",
                               wraps=dot_model._combined) as spy:
            assert eta_erasure_work(_DEVICE1_LORENTZIAN, ()) == []
        assert spy.call_count == 0

    @pytest.mark.parametrize("bad", [0.0, 0.5, 0.7, -0.1, math.nan,
                                     math.inf])
    def test_bad_eta_named_before_any_solve(self, bad):
        with mock.patch.object(dot_model, "_combined",
                               wraps=dot_model._combined) as spy:
            with pytest.raises(ValueError, match=re.escape(
                    f"eta must lie strictly in (0, 1/2), got {bad}")):
                eta_erasure_work(_DEVICE1_LORENTZIAN, [0.1, bad, 0.01])
        assert spy.call_count == 0

    def test_decoupled_source_moves_nothing(self):
        def device(bias):
            return DotSystem(LeadParams(1.0, bias), LeadParams(1.0, 0.0),
                             TunnelRates(0.0, 1.0), Lorentzian(1.0))
        assert (eta_erasure_work(device(0.0), [0.1, 0.01, 0.001])
                == eta_erasure_work(device(200.0), [0.1, 0.01, 0.001]))


class TestBatchedLevels:
    """One occupation_levels call solves every eta of a pass side by side:
    each level is the one its target reaches alone from the same bracket."""

    ETAS = [0.1, 0.01, 0.001, 1e-30]

    def _levels(self, sys_):
        """(targets, los, his, starts) of the pass's one level solve, and the
        levels it returned."""
        real = erasure.occupation_levels
        calls = []

        def record(system, *args):
            calls.append((args, real(system, *args)))
            return calls[-1][1]
        with mock.patch.object(erasure, "occupation_levels", record):
            eta_erasure_work(sys_, self.ETAS)
        (call,) = calls
        return call

    @pytest.mark.parametrize("index", _CORPUS_LORENTZIAN)
    def test_each_level_as_if_solved_alone(self, index):
        sys_ = _corpus_device(index)
        args, levels = self._levels(sys_)
        assert args[0] == self.ETAS
        for (target, lo, hi, start), mu in zip(zip(*args), levels):
            (alone,) = occupation_levels(sys_, [target], [lo], [hi], [start])
            # each stops within LEVEL_TOL of the target, on either side
            assert abs(occupation(mu, sys_) - occupation(alone, sys_)) <= (
                2.0 * LEVEL_TOL * target), (target, mu, alone)

    def test_a_level_at_adjacent_doubles_leaves_the_others(self, caplog):
        # mu_0.1 of device 14 stops at adjacent doubles within a few steps,
        # while 0.01 and 0.001, bracketed from mu_1/2 to past mu_1e-30 and
        # started halfway, are still open and go on to meet LEVEL_TOL
        sys_ = _corpus_device(14)
        (targets, los, his, starts), _ = self._levels(sys_)
        mu_half = half_occupation_level(sys_)
        mid = 0.5 * (mu_half + his[3])
        args = (targets, [los[0], mu_half, mu_half, los[3]],
                [his[0], his[3], his[3], his[3]],
                [starts[0], mid, mid, starts[3]])
        with caplog.at_level(logging.INFO, logger="chargebit"):
            levels = occupation_levels(sys_, *args)
        (record,) = caplog.records
        assert "p = 0.1 stopped at adjacent doubles" in record.getMessage()
        for (target, lo, hi, start), mu in zip(zip(*args), levels):
            excess = [occupation(x, sys_) / target - 1.0
                      for x in (math.nextafter(mu, -math.inf), mu)]
            alone = occupation_levels(sys_, [target], [lo], [hi], [start])
            if target == 0.1:
                # the upper end of the bracket of doubles across the target
                assert excess[0] > LEVEL_TOL and excess[1] < -LEVEL_TOL
                assert [mu] == alone
            else:
                assert abs(excess[1]) <= LEVEL_TOL, (target, excess)
                assert abs(occupation(alone[0], sys_) / target - 1.0) <= (
                    LEVEL_TOL)

    @pytest.mark.parametrize("index", _CORPUS_LORENTZIAN)
    def test_passed_mu_half_gives_the_same_works(self, index):
        sys_ = _corpus_device(index)
        assert eta_erasure_work(sys_, self.ETAS, half_occupation_level(
            sys_)) == eta_erasure_work(sys_, self.ETAS)


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


class TestMadOracleIndependence:
    """A relative error of 1e-7 in either closed form of W-bar breaks the
    analyze gate: the MAD oracle shares neither with it."""

    @pytest.mark.parametrize("name", ["_broadening_excess", "softplus_ramp"])
    @pytest.mark.parametrize("sigma", [
        pytest.param(15.0, id="sigma<2kT"),
        pytest.param(30.0, id="sigma>=2kT")])
    def test_perturbed_w_bar_fails_the_gate(self, monkeypatch, name, sigma):
        sys_ = make_system(10.0, 8.0, 20.0, 0.4, Gaussian(sigma))
        gap, allowed = _mad_gap(erasure_costs(sys_))
        assert gap <= allowed
        exact = getattr(erasure, name)
        monkeypatch.setattr(erasure, name,
                            lambda *args: exact(*args) * (1.0 + 1e-7))
        gap, allowed = _mad_gap(erasure_costs(sys_))
        assert gap > allowed


def _mad_gap(costs):
    """(|W-bar - MAD/2|, the analyze gate's allowance 1e-8 (1 + W-bar))."""
    return costs.mad_discrepancy, 1e-8 * (1.0 + costs.w_bar)


class TestMadGateTwelveDecades:
    """W-bar = MAD/2 to the analyze gate when scales span 12 decades.

    A lead with kT many decades below its chemical potential is a peak
    narrower than the doubles around it resolve in absolute mu; the
    cross-check integrates each lead in its own offset instead.
    """

    # draws (seed-index) from the 12-decade corpora of default_rng(1) and
    # default_rng(2); integrating in absolute mu gave gaps of up to 1.0e-7
    # of 1 + W-bar on them, or raised NonConvergence (seed2-16)
    @pytest.mark.parametrize("kt_s, kt_d, bias, gamma_s", [
        pytest.param(0.00034417662690987744, 4.506852141397688e-05,
                     638262.2388645308, 0.37925917626246536, id="seed1-64"),
        pytest.param(5.6481510548966954e-06, 0.02880426403485985,
                     23323.71882040422, 0.3405148457619577, id="seed1-196"),
        pytest.param(3.192577648770438e-06, 0.003579315634261619,
                     133660.54413668695, 0.06154798417734943, id="seed2-16"),
        pytest.param(1.8264270751876102e-06, 0.007396357630639522,
                     2232.3702878743256, 0.363955780819548, id="seed2-54"),
        pytest.param(3.0330557844269024e-06, 1.528722459859863e-06,
                     50431.01519712513, 0.20892665913923997, id="seed2-94"),
    ])
    def test_delta_devices(self, kt_s, kt_d, bias, gamma_s):
        gap, allowed = _mad_gap(erasure_costs(make_system(kt_s, kt_d, bias,
                                                          gamma_s)))
        assert gap <= allowed

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(kt_s=st.just(0.0) | _TWELVE_DECADES,
           kt_d=st.just(0.0) | _TWELVE_DECADES, bias=_TWELVE_DECADES,
           sigma=_TWELVE_DECADES, gamma_s=st.floats(0.05, 0.95),
           gaussian=st.booleans())
    def test_property(self, kt_s, kt_d, bias, sigma, gamma_s, gaussian):
        sys_ = make_system(kt_s, kt_d, bias, gamma_s,
                           Gaussian(sigma) if gaussian else Delta())
        costs = erasure_costs(sys_)
        gap, allowed = _mad_gap(costs)
        assert gap <= allowed
        assert check_bound(costs, energy_scales(sys_)).satisfied


def _reference_lead_mad(lead, kernel, point):
    """integral of |mu - point| * (-dp_i/dmu) for one lead, by tight QUADPACK.

    A different integrand from the oracle's: the lead's -dp_i/dmu from the
    occupation core, pointwise, times |mu - point|, in the lead's offset
    x = mu - mu_i over 45 kT_i plus 12 kernel widths each side, split at
    the cusp and the lead's centre.
    """
    kt, c = lead.thermal_energy, lead.chemical_potential - point
    if kt == 0.0 and kernel.width == 0.0:
        return abs(c)
    reach = 45.0 * kt + 12.0 * kernel.width

    def f(x):
        (dens,) = lead_values(np.array([x]), kt, kernel, ("pdf",))
        return abs(x + c) * dens[0]
    pts = [p for p in (-c, 0.0) if -reach < p < reach]
    return quad(f, -reach, reach, points=pts or None, epsabs=0.0,
                epsrel=1e-13, limit=2000)[0]


class TestPanelMadOracle:
    """The MAD oracle, an expectation of the thermal absolute moment over
    the kernel, against tight adaptive quadrature of |mu - point| times the
    occupation core's -dp_i/dmu, lead by lead, at mu_1/2 and at points
    whose cusp falls inside or outside the lead's window."""

    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(kt_s=st.just(0.0) | _TWELVE_DECADES,
           kt_d=st.just(0.0) | _TWELVE_DECADES, bias=_TWELVE_DECADES,
           sigma=_TWELVE_DECADES, gamma_s=st.floats(0.05, 0.95),
           gaussian=st.booleans())
    def test_matches_quadpack(self, kt_s, kt_d, bias, sigma, gamma_s,
                              gaussian):
        sys_ = make_system(kt_s, kt_d, bias, gamma_s,
                           Gaussian(sigma) if gaussian else Delta())
        mu_half = half_occupation_level(sys_)
        for rates, lead in ((TunnelRates(1.0, 0.0), sys_.source),
                            (TunnelRates(0.0, 1.0), sys_.drain)):
            one_lead = DotSystem(sys_.source, sys_.drain, rates, sys_.kernel)
            reach = 45.0 * lead.thermal_energy + 12.0 * sys_.kernel.width
            mu_i = lead.chemical_potential
            # mu_1/2; a cusp inside the window, off the lead's centre; one
            # far outside it
            for point in (mu_half, mu_i + 0.3 * reach, mu_i - 3.0 * reach):
                ref = _reference_lead_mad(lead, sys_.kernel, point)
                got = absolute_deviation_integral(one_lead, point)
                assert abs(got - ref) <= 1e-12 * ref, (point, got, ref)
