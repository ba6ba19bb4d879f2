"""Electrode distributions and broadening kernels.

The Fermi function and its density are the occupation and -dp/dmu of a
one-lead device without broadening.
"""

import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from chargebit.dot_model import DotSystem, TunnelRates, unbroadened_occupation
from chargebit.kernels import Delta, Gaussian, Lorentzian
from chargebit.erasure import _window_integral, softplus_ramp
from chargebit.leads import LeadParams

from conftest import decimal_ramp, occupation_density, reference_quad


def _fermi(energy, lead):
    return unbroadened_occupation(
        energy, DotSystem(lead, lead, TunnelRates(1.0, 0.0), Delta()))


def _fermi_density(energy, lead):
    return occupation_density(
        energy, DotSystem(lead, lead, TunnelRates(1.0, 0.0), Delta()))


class TestFermiOccupation:
    def test_half_at_chemical_potential(self):
        lead = LeadParams(0.7, 3.0)
        assert _fermi(3.0, lead) == pytest.approx(0.5)

    def test_quarter_at_ln3(self):
        lead = LeadParams(1.0, 0.0)
        assert _fermi(math.log(3.0), lead) == pytest.approx(0.25)

    def test_zero_temperature_step(self):
        lead = LeadParams(0.0, 1.0)
        assert _fermi(0.5, lead) == 1.0
        assert _fermi(1.5, lead) == 0.0
        assert _fermi(1.0, lead) == 0.5

    def test_extreme_arguments_stable(self):
        lead = LeadParams(1.0, 0.0)
        assert _fermi(1e6, lead) == 0.0
        assert _fermi(-1e6, lead) == 1.0

    def test_monotone_non_increasing(self, rng):
        lead = LeadParams(0.3, 1.2)
        grid = np.sort(rng.uniform(-20, 20, 200))
        vals = [_fermi(e, lead) for e in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            LeadParams(-1.0, 0.0)


class TestFermiDerivativeDensity:
    def test_peak_value(self):
        lead = LeadParams(2.0, 1.0)
        assert _fermi_density(1.0, lead) == pytest.approx(0.25 / 2.0)

    def test_symmetric_about_mu(self, rng):
        lead = LeadParams(0.8, -2.0)
        for x in rng.uniform(0, 10, 25):
            assert _fermi_density(-2.0 + x, lead) == pytest.approx(
                _fermi_density(-2.0 - x, lead), rel=1e-12)

    def test_normalises(self):
        lead = LeadParams(1.3, 0.5)
        val = reference_quad(lambda e: _fermi_density(e, lead),
                             0.5 - 60 * 1.3, 0.5 + 60 * 1.3, points=[0.5])
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_mad_about_mu_is_2ln2_kt(self):
        lead = LeadParams(0.9, 4.0)
        # the MAD about a point is the occupied weight above it plus the
        # vacancy weight below it, the ramp at +-(mu - point)
        closed = softplus_ramp(0.0, 0.9) + softplus_ramp(-0.0, 0.9)
        assert closed == pytest.approx(2.0 * math.log(2.0) * 0.9, rel=1e-12)
        numeric = reference_quad(
            lambda e: abs(e - 4.0) * _fermi_density(e, lead),
            4.0 - 60 * 0.9, 4.0 + 60 * 0.9, points=[4.0])
        assert numeric == pytest.approx(2.0 * math.log(2.0) * 0.9, rel=1e-9)

    def test_weight_primitives_reduce_at_zero_temperature(self):
        # a lead at mu = 2: occupied weight above a level is the ramp at
        # 2 - level, vacancy weight below it the ramp at level - 2
        assert softplus_ramp(2.0 - 0.5, 0.0) == 1.5
        assert softplus_ramp(2.0 - 3.0, 0.0) == 0.0
        assert softplus_ramp(3.0 - 2.0, 0.0) == 1.0
        assert softplus_ramp(1.0 - 2.0, 0.0) == 0.0


_SIGNED_DECADES = st.builds(lambda sign, e: sign * 10.0 ** e,
                            st.sampled_from((-1.0, 1.0)),
                            st.floats(-6.0, 6.0))


class TestFermiIntegral:
    """The integral of f over a window, the window integral without a
    kernel, against the difference of two softplus ramps in 50-digit
    decimals."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(mu=_SIGNED_DECADES, lo=_SIGNED_DECADES,
           width=st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e),
           kt=st.just(0.0) | st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e))
    def test_matches_decimal_ramps(self, mu, lo, width, kt):
        hi = lo + width
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            exact = float(decimal_ramp(Decimal(mu) - Decimal(lo), Decimal(kt))
                          - decimal_ramp(Decimal(mu) - Decimal(hi),
                                         Decimal(kt)))
        got = _window_integral(mu, kt, lo, hi, Delta())
        assert abs(got - exact) <= 1e-14 * exact + 1e-15 * (
            abs(mu) + abs(lo) + abs(hi)), (got, exact)

    def test_half_filled_window_is_half_its_width(self):
        # a window centred on the lead: f - 1/2 is odd about mu_lead
        got = _window_integral(3.0, 5.0, 3.0 - 1e-9, 3.0 + 1e-9, Delta())
        assert got == pytest.approx(1e-9, rel=1e-12)

    def test_zero_temperature_is_the_occupied_part(self):
        assert _window_integral(2.0, 0.0, 0.5, 3.0, Delta()) == 1.5
        assert _window_integral(2.0, 0.0, 2.5, 3.0, Delta()) == 0.0
        assert _window_integral(2.0, 0.0, -1.0, 1.0, Delta()) == 2.0


class TestNonFiniteInputs:
    BUILDERS = {
        "thermal_energy": lambda v: LeadParams(v, 0.0),
        "chemical_potential": lambda v: LeadParams(1.0, v),
        "rate_source": lambda v: TunnelRates(v, 1.0),
        "rate_drain": lambda v: TunnelRates(1.0, v),
        "sigma": Gaussian,
        "scale": Lorentzian,
    }

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", list(BUILDERS))
    def test_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            self.BUILDERS[field](value)

    @pytest.mark.parametrize("field", list(BUILDERS))
    def test_stored_as_python_float(self, field):
        record = self.BUILDERS[field](np.float64(0.5))
        assert type(getattr(record, field)) is float
        assert getattr(record, field) == 0.5


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

    @pytest.mark.filterwarnings("error")
    def test_gaussian_array_far_tail_is_zero_without_overflow(self):
        g = Gaussian(0.3)
        x = np.array([-1e300, -12.0, -0.7, 0.0, 0.25, 11.9, 1e300])
        dens = g.pdf(x)
        assert dens[0] == dens[-1] == 0.0
        for xi, di in zip(x[1:-1], dens[1:-1]):
            assert di == pytest.approx(g.pdf(float(xi)), rel=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_lorentzian_far_tail_is_zero_without_overflow(self):
        lz = Lorentzian(0.3)
        x = np.array([-1e300, -2e154, -0.7, 0.0, 1e150, 2e154, 1e300])
        dens = lz.pdf(x)
        assert dens[0] == dens[1] == dens[-2] == dens[-1] == 0.0
        assert dens[4] > 0.0
        for xi, di in zip(x[2:5], dens[2:5]):
            assert di == 0.3 / (math.pi * (0.09 + xi * xi))

    def test_normalisation(self):
        g = Gaussian(1.7)
        val = reference_quad(g.pdf, -12 * 1.7, 12 * 1.7)
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
        assert Delta().mad == 0.0

    def test_gaussian(self):
        assert Gaussian(1.0).mad == pytest.approx(
            math.sqrt(2.0 / math.pi), rel=1e-12)

    def test_lorentzian_diverges(self):
        assert math.isinf(Lorentzian(1.0).mad)

    def test_width(self):
        assert Delta().width == 0.0
        assert Gaussian(2.5).width == 2.5
        assert Lorentzian(0.3).width == 0.3


class TestLorentzianAntiderivative:
    """A(x) = integral of the Lorentzian cdf over [0, x], and its
    differences over a window, which the eta raise work takes per lead."""

    W = 0.37

    @pytest.mark.parametrize("u", [sign * 10.0 ** e for sign in (-1.0, 1.0)
                                   for e in range(-6, 13)])
    def test_derivative_is_the_cdf(self, u):
        kernel, x = Lorentzian(self.W), u * self.W
        h = 1e-3 * abs(x)
        slope = (kernel.antiderivative(x + h)
                 - kernel.antiderivative(x - h)) / (2.0 * h)
        assert slope == pytest.approx(float(kernel.cdf(x)), rel=1e-6)

    def test_lower_tail_does_not_cancel(self):
        kernel, x = Lorentzian(self.W), -1e12 * self.W
        tail = -self.W / math.pi * (1.0 + math.log(abs(x / self.W)))
        assert kernel.antiderivative(x) == pytest.approx(tail, rel=1e-12)
        assert kernel.antiderivative(0.0) == 0.0

    # a window far narrower than its distance from the centre: the integral
    # is width * K(midpoint) to (width/x)^2, while the two antiderivatives
    # agree to all but a few of their digits
    @pytest.mark.parametrize("u", [-1e12, -1e6, -3.0, -1e-3, 0.0, 1e-3, 3.0,
                                   1e6, 1e12])
    @pytest.mark.parametrize("t", [1e-9, 1e-4])
    def test_narrow_window_is_width_times_cdf(self, u, t):
        kernel = Lorentzian(self.W)
        x0, width = u * self.W, t * max(1.0, abs(u)) * self.W
        got = kernel.cdf_integral(x0, x0 + width, width)
        expected = width * float(kernel.cdf(x0 + 0.5 * width))
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("x0, x1, x2", [
        (-1e9, -4e8, -1.0), (-5.0, 0.2, 7.0), (-2e6, 3.0, 1e6),
        (0.5, 3e3, 1e10)])
    def test_windows_add_up(self, x0, x1, x2):
        kernel = Lorentzian(self.W)
        left = kernel.cdf_integral(x0, x1, x1 - x0)
        right = kernel.cdf_integral(x1, x2, x2 - x1)
        assert left + right == pytest.approx(
            kernel.cdf_integral(x0, x2, x2 - x0), rel=1e-13)
