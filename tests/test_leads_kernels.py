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
from scipy.integrate import quad
from scipy.special import ndtr

from chargebit.dot_model import (DotSystem, TunnelRates, _Thermal,
                                 unbroadened_occupation)
from chargebit.kernels import Delta, Gaussian, Lorentzian
from chargebit.erasure import softplus_ramp
from chargebit.leads import LeadParams

from conftest import (decimal_fermi, decimal_ramp, occupation_density,
                      reference_quad)


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


def _logistic_remainder(kt, a, b, width):
    return float(_Thermal(kt).remainder(np.array([a]), np.array([b]),
                                        np.array([width]))[0])


class TestFermiIntegral:
    """The logistic remainder, the integral of f - f(hi) over a window
    [lo, hi] of a lead at mu, against the difference of two softplus ramps
    less the window times f(hi) in 50-digit decimals, at the window's ends
    a = mu - hi and b = mu - lo as passed; at T = 0 f(hi) is its limit from
    above."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(mu=_SIGNED_DECADES, lo=_SIGNED_DECADES,
           width=st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e),
           kt=st.just(0.0) | st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e))
    def test_matches_decimal_ramps(self, mu, lo, width, kt):
        hi = lo + width
        a, b = mu - hi, mu - lo
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            da, db, dkt = Decimal(a), Decimal(b), Decimal(kt)
            f_hi = Decimal(a > 0) if kt == 0.0 else decimal_fermi(-da, dkt)
            exact = float(decimal_ramp(db, dkt) - decimal_ramp(da, dkt)
                          - (db - da) * f_hi)
        got = _logistic_remainder(kt, a, b, hi - lo)
        assert got >= 0.0
        assert abs(got - exact) <= 1e-14 * exact + 1e-15 * (
            abs(mu) + abs(lo) + abs(hi)), (got, exact)

    # a window 30 kT from the lead, where f is within 1e-13 of 1 or 0: the
    # remainder takes the tail of f on the window's side, not 1 - F
    @pytest.mark.parametrize("a, b", [(30.0, 33.0), (-33.0, -30.0),
                                      (30.0, 330.0), (-330.0, -30.0)])
    def test_far_window_from_the_tail(self, a, b):
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            da, db, one = Decimal(a), Decimal(b), Decimal(1)
            exact = float(decimal_ramp(db, one) - decimal_ramp(da, one)
                          - (db - da) * decimal_fermi(-da, one))
        assert _logistic_remainder(1.0, a, b, b - a) == pytest.approx(
            exact, rel=1e-13, abs=0.0)

    def test_half_filled_window_is_half_its_width(self):
        # a window centred on the lead: f - 1/2 is odd about mu_lead, so the
        # integral of f is half the width, and the remainder is
        # h (F(h) - F(-h)) = h tanh(h/2kT)
        h, kt = 1e-9, 5.0
        got = _logistic_remainder(kt, -h, h, 2.0 * h)
        assert got == pytest.approx(h * math.tanh(0.5 * h / kt), rel=1e-12,
                                  abs=0.0)
        f_hi = 1.0 / (1.0 + math.exp(h / kt))
        assert got + 2.0 * h * f_hi == pytest.approx(h, rel=1e-12, abs=0.0)

    def test_zero_temperature_is_the_occupied_part(self):
        # a lead at mu = 2: the occupied part of [lo, hi] less the window
        # times the occupation just above hi
        for lo, hi, expected in ((0.5, 3.0, 1.5), (2.5, 3.0, 0.0),
                                 (-1.0, 1.0, 0.0), (0.5, 2.0, 1.5)):
            assert _logistic_remainder(0.0, 2.0 - hi, 2.0 - lo,
                                       hi - lo) == expected


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


class TestGaussianRemainder:
    """B(a, b) = integral of (b - z) k(z) over [a, b] for the Gaussian,
    against QUADPACK at 1e-13: on each side of the centre, across it, far
    out (where the mass of [a, b] is taken from the tail beyond it) and on
    windows narrow next to sigma or to sigma^2 over their distance."""

    SIGMA = 1.3

    @pytest.mark.parametrize("a, b", [
        (6.0, 9.0), (-9.0, -6.0), (-1.0, 2.0), (-30.0, 25.0), (3.0, 3.01),
        (-4.2, -4.1), (0.1, 0.2), (-1e-7, 1e-7), (2.0, 40.0)])
    def test_matches_quadpack(self, a, b):
        kernel = Gaussian(self.SIGMA)
        a, b = a * self.SIGMA, b * self.SIGMA
        expected = quad(lambda z: (b - z) * float(kernel.pdf(z)), a, b,
                        epsabs=0.0, epsrel=1e-13, limit=200)[0]
        got = kernel.remainder(a, b, b - a)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestLorentzianAntiderivative:
    """The integral of the Lorentzian cdf K over a window, through the
    remainder B(a, b) = integral of K - K(a) over [a, b], which the eta work
    takes per lead."""

    W = 0.37

    def _remainder(self, a, b, width=None):
        return float(Lorentzian(self.W).remainder(
            np.array([a]), np.array([b]),
            np.array([b - a if width is None else width]))[0])

    # dB/db = K(b) - K(a), on a window as wide as max(w, |b|) and on one a
    # tenth of that, which takes the narrow rule
    @pytest.mark.parametrize("u", [sign * 10.0 ** e for sign in (-1.0, 1.0)
                                   for e in range(-6, 13)])
    def test_derivative_is_the_cdf(self, u):
        kernel, b = Lorentzian(self.W), u * self.W
        for width in (max(self.W, abs(b)), 0.1 * max(self.W, abs(b))):
            a, h = b - width, 1e-4 * width
            slope = (self._remainder(a, b + h, width + h)
                     - self._remainder(a, b - h, width - h)) / (2.0 * h)
            # from the upper tail above the centre, where K is near 1
            expected = float(kernel.cdf(-a) - kernel.cdf(-b) if a > 0.0
                             else kernel.cdf(b) - kernel.cdf(a))
            assert slope == pytest.approx(expected, rel=1e-6, abs=0.0), width

    def test_lower_tail_does_not_cancel(self):
        # B(x, 0) = integral of -z k(z) over [x, 0] = (w/pi) ln hypot(1, x/w)
        x = -1e12 * self.W
        expected = self.W / math.pi * math.log(math.hypot(1.0, x / self.W))
        assert self._remainder(x, 0.0) == pytest.approx(expected, rel=1e-12)
        assert self._remainder(0.0, 0.0) == 0.0

    # both ends 1e200 w out, where u*v would overflow: to 1e-200 relative
    # B = (w/pi) ((b - a)/a - ln(b/a)) on each side
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_far_window_does_not_overflow(self, sign):
        a, b = sorted((sign * 1e200 * self.W, sign * 3e200 * self.W))
        expected = self.W / math.pi * (2.0 - math.log(3.0) if sign > 0.0
                                       else math.log(3.0) - 2.0 / 3.0)
        assert self._remainder(a, b) == pytest.approx(expected, rel=1e-13,
                                                      abs=0.0)

    # a window far narrower than its distance from the centre: the integral
    # of the cdf is width * K(midpoint) to (width/x)^2, and the remainder is
    # width^2 k/2 at the centroid a + width/3 of its weight b - z, to the
    # same order, where the closed form would cancel
    @pytest.mark.parametrize("u", [-1e12, -1e6, -3.0, -1e-3, 0.0, 1e-3, 3.0,
                                   1e6, 1e12])
    @pytest.mark.parametrize("t", [1e-9, 1e-4])
    def test_narrow_window_is_width_times_cdf(self, u, t):
        kernel = Lorentzian(self.W)
        a, width = u * self.W, t * max(1.0, abs(u)) * self.W
        got = self._remainder(a, a + width, width)
        assert got == pytest.approx(0.5 * width * width * float(
            kernel.pdf(a + width / 3.0)), rel=1e-12 + t * t, abs=0.0)
        assert got + width * float(kernel.cdf(a)) == pytest.approx(
            width * float(kernel.cdf(a + 0.5 * width)), rel=1e-12 + t * t,
            abs=0.0)

    # B(x0, x2) = B(x0, x1) + B(x1, x2) + (x2 - x1) (K(x1) - K(x0))
    @pytest.mark.parametrize("x0, x1, x2", [
        (-1e9, -4e8, -1.0), (-5.0, 0.2, 7.0), (-2e6, 3.0, 1e6),
        (0.5, 3e3, 1e10)])
    def test_windows_add_up(self, x0, x1, x2):
        kernel = Lorentzian(self.W)
        step = (x2 - x1) * float(kernel.cdf(x1) - kernel.cdf(x0))
        assert (self._remainder(x0, x1) + self._remainder(x1, x2)
                + step) == pytest.approx(self._remainder(x0, x2), rel=1e-13,
                                         abs=0.0)
