"""Steady-state occupation, its derivative density and the half level."""

import dataclasses
import logging
import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from chargebit import dot_model
from chargebit.dot_model import (LEVEL_TOL, AmbiguousMedianWarning, DotSystem,
                                 TunnelRates, dominant_scale,
                                 half_occupation_level, occupation,
                                 occupation_levels, unbroadened_occupation)
from chargebit.kernels import Delta, Gaussian, Lorentzian
from chargebit.leads import LeadParams

from conftest import make_system, occupation_density, reference_quad


class TestTunnelRates:
    def test_ratios_sum_to_one(self):
        r = TunnelRates(6.3e9, 250e9)
        assert r.gamma_source + r.gamma_drain == 1.0
        assert r.total == pytest.approx(256.3e9)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            TunnelRates(-1.0, 1.0)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            TunnelRates(0.0, 0.0)


class TestDotSystem:
    def test_bias_convention(self):
        sys_ = make_system(1.0, 1.0, 5.0, 0.5)
        assert sys_.bias == 5.0

    def test_reversed_potentials_rejected(self):
        with pytest.raises(ValueError):
            DotSystem(LeadParams(1.0, 0.0), LeadParams(1.0, 5.0),
                      TunnelRates(1.0, 1.0), Delta())


class TestUnbroadenedOccupation:
    def test_symmetric_midpoint(self):
        sys_ = make_system(1.0, 1.0, 6.0, 0.5)
        assert unbroadened_occupation(3.0, sys_) == pytest.approx(0.5)

    def test_far_tail(self):
        sys_ = make_system(1.0, 1.0, 2.0, 0.5)
        assert unbroadened_occupation(2.0 + 50.0, sys_) < 1e-15

    def test_bias_window_plateau(self):
        sys_ = make_system(0.0, 0.0, 10.0, 0.3)
        for mu in (2.0, 5.0, 8.0):
            assert unbroadened_occupation(mu, sys_) == 0.3


    def test_array_equals_float_calls(self):
        # a T = 0 source and a warm drain; the grid hits both potentials
        sys_ = make_system(0.0, 0.4, 3.0, 0.3, Gaussian(0.5))
        mus = np.array([-2.0, 0.0, 1e-300, 1.5, 3.0, np.nextafter(3.0, 4.0),
                        9.0])
        values = unbroadened_occupation(mus, sys_)
        assert values.shape == mus.shape
        for mu, value in zip(mus, values):
            assert value == unbroadened_occupation(float(mu), sys_)
        assert values[4] == pytest.approx(
            0.3 * 0.5 + 0.7 / (1.0 + math.exp(3.0 / 0.4)), rel=1e-15)


class TestOccupation:
    def test_delta_kernel_is_identity(self, rng):
        sys_ = make_system(0.7, 1.3, 4.0, 0.4)
        for mu in rng.uniform(-10, 14, 20):
            assert occupation(mu, sys_) == unbroadened_occupation(mu, sys_)

    def test_gaussian_step_cross_correlation(self):
        # T = 0, zero bias: broadened step is the complementary normal CDF
        sys_ = make_system(0.0, 0.0, 0.0, 0.5, Gaussian(2.0))
        assert occupation(2.0, sys_) == pytest.approx(ndtr(-1.0), rel=1e-10)

    def test_lorentzian_step_quarter(self):
        sys_ = make_system(0.0, 0.0, 0.0, 0.5, Lorentzian(1.5))
        assert occupation(1.5, sys_) == pytest.approx(0.25, rel=1e-10)

    def test_monotone_and_bounded(self, rng):
        sys_ = make_system(0.2, 0.05, 3.0, 0.7, Gaussian(0.5))
        grid = np.sort(rng.uniform(-15, 18, 60))
        vals = [occupation(m, sys_) for m in grid]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a >= b - 1e-10 for a, b in zip(vals, vals[1:]))

    def test_limits(self):
        sys_ = make_system(0.4, 0.4, 2.0, 0.5, Gaussian(1.0))
        assert occupation(-60.0, sys_) == pytest.approx(1.0, abs=1e-9)
        assert occupation(62.0, sys_) == pytest.approx(0.0, abs=1e-9)

    def test_weighted_sum_consistency(self, rng):
        gamma_s = 0.35
        kernel = Gaussian(0.8)
        sys_ = make_system(0.5, 0.9, 4.0, gamma_s, kernel)
        source_only = make_system(0.5, 0.5, 4.0, 1.0 - 1e-15, kernel)
        # a pure-drain view: swap the drain into the source slot at zero bias
        drain_only = DotSystem(LeadParams(0.9, 0.0), LeadParams(0.9, 0.0),
                               TunnelRates(0.5, 0.5), kernel)
        for mu in rng.uniform(-6, 10, 10):
            combined = occupation(mu, sys_)
            parts = (gamma_s * occupation(mu, source_only)
                     + (1.0 - gamma_s) * occupation(mu, drain_only))
            assert combined == pytest.approx(parts, abs=1e-9)

    def test_swap_invariance(self, rng):
        # relabeling source and drain (same potentials) leaves p unchanged
        a = DotSystem(LeadParams(0.3, 2.0), LeadParams(0.8, 0.0),
                      TunnelRates(0.25, 0.75), Gaussian(0.6))
        b = DotSystem(LeadParams(0.8, 2.0), LeadParams(0.3, 0.0),
                      TunnelRates(0.75, 0.25), Gaussian(0.6))
        # b has the leads' roles exchanged but potentials follow the slots,
        # so compare at mirrored gate positions about the bias midpoint
        for mu in rng.uniform(-5, 7, 10):
            pa = occupation(mu, a)
            pb = occupation(2.0 - mu, b)
            assert pa == pytest.approx(1.0 - pb, abs=1e-9)


def _logistic_pdf(y, kt):
    e = math.exp(-abs(y) / kt)
    return e / (kt * (1.0 + e) ** 2)


class TestThermalAbsoluteMoment:
    """E_Y|Y - x| of the logistic thermal distribution, the MAD oracle's
    inner function, in closed form."""

    @pytest.mark.parametrize("kt", [10.0 ** e for e in range(-6, 7)])
    def test_matches_quadrature(self, kt):
        thermal = dot_model._Thermal(kt)
        for x in kt * np.array([0.0, 0.3, -1.0, 4.0, -25.0, 60.0]):
            ref = reference_quad(lambda y: abs(y - x) * _logistic_pdf(y, kt),
                                 min(x, 0.0) - 50.0 * kt,
                                 max(x, 0.0) + 50.0 * kt, points=(x,))
            assert thermal.absolute_moment(x) == pytest.approx(ref,
                                                               rel=1e-12)

    @pytest.mark.parametrize("kt", [1e-6, 1.0, 1e6])
    def test_at_zero_is_twice_kt_ln2(self, kt):
        assert dot_model._Thermal(kt).absolute_moment(0.0) == pytest.approx(
            2.0 * kt * math.log(2.0), rel=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x, kt", [(1e300, 1.0), (-1.0, 1e-300),
                                       (1e300, 1e-10)])
    def test_far_from_the_peak_is_abs_x(self, x, kt):
        # |x|/kT = 1e300, and beyond: no overflow on the way
        assert dot_model._Thermal(kt).absolute_moment(x) == abs(x)


class TestOccupationDerivativeDensity:
    def test_logistic_peak(self):
        sys_ = make_system(2.0, 2.0, 0.0, 0.5)
        assert occupation_density(0.0, sys_) == pytest.approx(
            0.25 / 2.0, rel=1e-12)

    def test_normalises(self):
        sys_ = make_system(0.6, 0.3, 3.0, 0.45, Gaussian(0.7))
        val = reference_quad(
            lambda m: occupation_density(m, sys_),
            -40.0, 43.0, points=[0.0, 3.0])
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_matches_finite_difference(self, rng):
        sys_ = make_system(0.8, 0.5, 2.0, 0.6, Gaussian(0.9))
        h = 1e-5
        for mu in rng.uniform(-4, 6, 50):
            fd = (occupation(mu - h, sys_) - occupation(mu + h, sys_)) / (2 * h)
            assert occupation_density(mu, sys_) == pytest.approx(
                fd, abs=1e-6)


class TestHalfOccupationLevel:
    def test_symmetric_device_midpoint(self):
        sys_ = make_system(0.9, 0.9, 8.0, 0.5, Gaussian(1.1))
        assert half_occupation_level(sys_) == pytest.approx(4.0, abs=1e-9)

    def test_zero_bias(self):
        sys_ = make_system(1.4, 0.2, 0.0, 0.3)
        assert half_occupation_level(sys_) == pytest.approx(0.0, abs=1e-9)

    def test_bias_dominated_sits_near_drain(self):
        bias = 36.0
        sys_ = make_system(1.0, 1.0, bias, 0.35)
        mu_half = half_occupation_level(sys_)
        assert abs(mu_half - 0.0) <= 3.0  # within 3 kT of the drain
        assert occupation(mu_half, sys_) == pytest.approx(0.5, abs=1e-9)

    def test_zero_bias_atomic_median_is_silent(self):
        # both atoms sit at mu = 0, so the median is unique
        sys_ = make_system(0.0, 0.0, 0.0, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert half_occupation_level(sys_) == 0.0

    def test_atomic_plateau_midpoint_warns(self):
        sys_ = make_system(0.0, 0.0, 10.0, 0.5)
        with pytest.warns(AmbiguousMedianWarning):
            assert half_occupation_level(sys_) == pytest.approx(5.0)

    def test_lead_ten_decades_narrower_still_hits_half(self):
        # the solve stops on |p - 1/2|, not on a step scaled by the widest lead
        sys_ = make_system(2.37e5, 6.2e-6, 1.42e-6, 0.72, Delta())
        mu_half = half_occupation_level(sys_)
        assert abs(occupation(mu_half, sys_) - 0.5) <= 1e-12

    def test_atomic_asymmetric_atom(self):
        # with gamma_S < 1/2 the crossing sits at the drain's step
        sys_ = make_system(0.0, 0.0, 10.0, 0.3)
        assert half_occupation_level(sys_) == 0.0
        sys2 = make_system(0.0, 0.0, 10.0, 0.7)
        assert half_occupation_level(sys2) == 10.0

    @pytest.mark.filterwarnings("error")
    def test_numpy_float_inputs_solve_silently(self):
        # seed-1 corpus device 212: -dp/dmu is subnormal at a Newton iterate,
        # which overflowed numpy's scalar divide when the inputs stayed
        # numpy floats
        values = (0.0002425899939734757, 5.29848629617983,
                  4469.557103470103, 0.5987801454672194)
        plain = half_occupation_level(make_system(*values))
        assert half_occupation_level(
            make_system(*map(np.float64, values))) == plain
        assert plain == pytest.approx(4469.5567, abs=1e-4)


class TestOccupationLevel:
    def test_tiny_target_is_met_relative_to_itself(self):
        # p falls as 1/mu on the Lorentzian tail; a stop at an absolute
        # |p - target| <= 1e-12 took any level with p below that
        sys_ = make_system(1.0, 0.5, 5.0, 0.3, Lorentzian(2.0))
        mu_half = half_occupation_level(sys_)
        target = 1e-30
        (mu,) = occupation_levels(sys_, [target], [mu_half],
                                  [mu_half + 1e40], [mu_half + 1.0])
        assert abs(occupation(mu, sys_) / target - 1.0) <= 1e-10

    def test_unresolved_level_stops_at_the_neighbouring_double(self, caplog):
        # 12-decade corpus device 14: kT_S is 1e-9 of mu_0.1, so p falls by
        # more than 2 LEVEL_TOL * 0.1 from one double to the next there.
        # Once a Newton step is within an ulp, the neighbour across the
        # target ends the solve; bisecting down to adjacent doubles took 34
        # core calls
        sys_ = make_system(6.401739016889713e-05, 0.6117143356434784,
                           54524.331094924324, 0.5805518558756433,
                           Lorentzian(0.11819602830031115))
        with mock.patch.object(dot_model, "_combined",
                               wraps=dot_model._combined) as spy, \
                caplog.at_level(logging.INFO, logger="chargebit"):
            (mu,) = occupation_levels(sys_, [0.1], [54524.36605931103],
                                      [54524.654782899626],
                                      [54524.53505129207])
        assert spy.call_count <= 6
        # the upper end of the bracket of adjacent doubles across 0.1
        assert occupation(math.nextafter(mu, -math.inf), sys_) > 0.1 * (
            1.0 + LEVEL_TOL)
        assert occupation(mu, sys_) < 0.1 * (1.0 - LEVEL_TOL)
        (record,) = caplog.records
        assert f"returning {mu!r}," in record.getMessage()


_TWELVE_DECADES = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)


class TestHalfOccupationTwelveDecades:
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(kt_s=_TWELVE_DECADES, kt_d=_TWELVE_DECADES, bias=_TWELVE_DECADES,
           sigma=_TWELVE_DECADES, gamma_s=st.floats(0.05, 0.95),
           gaussian=st.booleans())
    def test_half_occupation_to_level_resolution(self, kt_s, kt_d, bias,
                                                 sigma, gamma_s, gaussian):
        """p(mu_1/2) = 1/2 up to what the doubles around mu_1/2 resolve.

        When a lead's kT is far below |mu_1/2|, adjacent doubles there can
        straddle 1/2; p then misses it by up to the slope times one ulp.
        """
        sys_ = make_system(kt_s, kt_d, bias, gamma_s,
                           Gaussian(sigma) if gaussian else Delta())
        mu = half_occupation_level(sys_)
        slope = occupation_density(mu, sys_)
        tol = (LEVEL_TOL + 2.0 * slope * math.ulp(mu)
               + 4.0 * sys.float_info.epsilon)
        assert abs(occupation(mu, sys_) - 0.5) <= tol


class TestMonotoneTwelveDecades:
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(kt_s=st.just(0.0) | _TWELVE_DECADES,
           kt_d=st.just(0.0) | _TWELVE_DECADES, bias=_TWELVE_DECADES,
           width=_TWELVE_DECADES, gamma_s=st.floats(0.05, 0.95),
           kernel=st.sampled_from([Delta, Gaussian, Lorentzian]))
    def test_occupation_non_increasing(self, kt_s, kt_d, bias, width,
                                       gamma_s, kernel):
        """p never rises with mu, from far below the drain to far above the
        source, and on each lead's own scale around its chemical potential."""
        sys_ = make_system(kt_s, kt_d, bias, gamma_s,
                           Delta() if kernel is Delta else kernel(width))
        s = dominant_scale(sys_)
        mus = [np.linspace(-20.0 * s, bias + 20.0 * s, 300)]
        for mu_i, kt in ((bias, kt_s), (0.0, kt_d)):
            reach = 5.0 * max(kt, sys_.kernel.width)
            mus.append(np.linspace(mu_i - reach, mu_i + reach, 100))
        p = occupation(np.unique(np.concatenate(mus)), sys_)
        assert np.all(np.diff(p) <= 4.0 * sys.float_info.epsilon)


class TestDominantScale:
    def test_fallback_unit(self):
        assert dominant_scale(make_system(0.0, 0.0, 5.0, 0.5)) == 1.0

    def test_prefers_largest(self):
        sys_ = make_system(0.1, 2.0, 5.0, 0.5, Gaussian(0.7))
        assert dominant_scale(sys_) == 2.0

    def test_reads_coupled_leads_only(self):
        sys_ = make_system(0.1, 2.0, 5.0, 1.0, Gaussian(0.7))
        assert dominant_scale(sys_) == 0.7


class TestDeviceFacts:
    """The smoothing scales and atoms a DotSystem carries."""

    def test_scales_and_atoms(self):
        sys_ = make_system(0.0, 0.5, 2.0, 0.3)
        assert sys_.scales == (0.5,)
        assert sys_.atoms == (2.0,)

    def test_kernel_width_is_a_scale_and_smooths_every_atom(self):
        sys_ = make_system(0.0, 0.0, 2.0, 0.3, Lorentzian(0.25))
        assert sys_.scales == (0.25,)
        assert sys_.atoms == ()

    def test_atoms_sorted_and_merged_at_zero_bias(self):
        assert make_system(0.0, 0.0, 2.0, 0.3).atoms == (0.0, 2.0)
        assert make_system(0.0, 0.0, 0.0, 0.3).atoms == (0.0,)

    def test_decoupled_lead_adds_neither(self):
        sys_ = make_system(0.0, 0.4, 2.0, 0.0)
        assert sys_.coupled == ((1.0, sys_.drain),)
        assert sys_.scales == (0.4,)
        assert sys_.atoms == ()

    def test_warm_decoupled_lead_leaves_a_pure_step(self):
        # p is the T = 0 drain's step alone
        assert not make_system(1.0, 0.0, 1.0, 0.0).scales

    def test_replace_carries_the_new_kernels_facts(self):
        # as unbroadened_occupation swaps the kernel for Delta()
        broad = make_system(0.0, 0.0, 2.0, 0.3, Gaussian(0.25))
        assert (broad.scales, broad.atoms) == ((0.25,), ())
        sharp = dataclasses.replace(broad, kernel=Delta())
        assert (sharp.scales, sharp.atoms) == ((), (0.0, 2.0))
        assert not sharp.scales and broad.scales
        again = dataclasses.replace(sharp, kernel=Lorentzian(3.0))
        assert (again.scales, again.atoms) == ((3.0,), ())
