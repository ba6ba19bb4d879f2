"""Lifetime-broadening kernels: delta (none), Gaussian and Lorentzian.

All kernels are symmetric about 0 with median exactly 0. The width parameter
carries the broadening energy hbar*Gamma_tot: the Gaussian's standard
deviation and the Lorentzian's half-width both equal that energy.

Each kernel is a small frozen dataclass. Its ``cdf``, ``pdf`` and ``dpdf``
(the pdf's derivative), one for each of the core names of ``dot_model``,
have one numpy body each: they take a numpy array of energy offsets
(returning an array of the same shape) or a float (returning a 0-d numpy
value); on graded panels, where a kernel is much narrower than kT, the
core takes ``dpdf`` by parts from the ``pdf`` instead. The delta kernel has
neither ``pdf`` nor ``dpdf``: its callers branch on ``width == 0`` first.
The Gaussian's scalar ``partial_expectation`` is the integrand of the
W0/W1 broadening excess (0 without a kernel and infinite without a mean, as
read from the data). The Lorentzian's numpy ``antiderivative`` and
``cdf_integral``, its difference over a window, give the eta raise work on
fixed panels; neither warns at any input. The Gaussian and the Lorentzian also
have a numpy ``tail_moment``, E[e^((a - X)/kT); X > a], from which
``dot_model`` adds the logistic tail that its thermal rule's window cuts.
Code outside this module reads a kernel's data, not its type: ``width ==
0`` is no broadening and an infinite ``mad`` is a kernel without a mean.

The Gaussian ``cdf`` imports ``scipy.special.ndtr`` on its first call, and
its ``tail_moment`` ``erfcx`` and ``log_ndtr``, not at module level:
scipy.special takes about 0.2 s to import, and a run with the Delta or
Lorentzian kernel never needs it. After the first call the
import is a ``sys.modules`` lookup. ``dot_model`` reaches it only for a lead
with sigma >= 2 kT and for a T = 0 lead: a warmer lead integrates over the
Gaussian instead, of the thermal cdf, and never evaluates ``ndtr``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .units import store_finite

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Delta:
    """No broadening; the identity element for cross-correlation."""

    width = 0.0
    mad = 0.0

    def cdf(self, x):
        """Step at 0, with value 1/2 exactly at 0."""
        return np.where(x < 0.0, 0.0, np.where(x > 0.0, 1.0, 0.5))


@dataclass(frozen=True)
class Gaussian:
    sigma: float

    def __post_init__(self):
        store_finite(self, "sigma")
        if self.sigma <= 0:
            raise ValueError("sigma must be strictly positive")

    @property
    def width(self) -> float:
        return self.sigma

    @property
    def mad(self) -> float:
        return self.sigma * math.sqrt(2.0 / math.pi)

    def cdf(self, x):
        from scipy.special import ndtr
        return ndtr(x / self.sigma)

    def pdf(self, x):
        # |z| capped at 40, where the density has underflowed to 0 already,
        # so that z*z cannot overflow
        z = np.minimum(np.abs(x), 40.0 * self.sigma) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * _SQRT2PI)

    def dpdf(self, x):
        # d/dx of pdf, -z pdf / sigma, with z capped as in pdf
        z = np.clip(x, -40.0 * self.sigma, 40.0 * self.sigma) / self.sigma
        return -z * np.exp(-0.5 * z * z) / (self.sigma * self.sigma * _SQRT2PI)

    def partial_expectation(self, a: float) -> float:
        """E[(X - a)^+] = sigma*(phi(z) - z*Phi(-z)), z = a/sigma, for a >= 0."""
        z = a / self.sigma
        return self.sigma * (math.exp(-0.5 * z * z) / _SQRT2PI
                             - 0.5 * z * math.erfc(z / _SQRT2))

    def tail_moment(self, a, kt: float):
        """E[e^((a - X)/kT); X > a] = e^(a/kT + r^2/2) Phi(x), r = sigma/kT,
        x = -a/sigma - r: by its log where x >= 0, else as sqrt(pi/2) sigma
        pdf(a) erfcx(-x/sqrt2), where the two terms of the log cancel. Each
        branch is capped where the other is taken, so neither overflows."""
        from scipy.special import erfcx, log_ndtr
        r = self.sigma / kt
        x = -a / self.sigma - r
        return np.where(x >= 0.0, np.exp(np.minimum(
            a / kt + 0.5 * r * r + log_ndtr(x), 0.0)), 0.5 * _SQRT2PI
            * self.sigma * self.pdf(a) * erfcx(np.maximum(-x, 0.0) / _SQRT2))


@dataclass(frozen=True)
class Lorentzian:
    scale: float  # half-width at half maximum

    def __post_init__(self):
        store_finite(self, "scale")
        if self.scale <= 0:
            raise ValueError("scale must be strictly positive")

    mad = math.inf

    @property
    def width(self) -> float:
        return self.scale

    def cdf(self, x):
        # atan2(1, -x/scale)/pi = 1/2 + atan(x/scale)/pi, without the
        # cancellation far in the lower tail
        return np.arctan2(1.0, -x / self.scale) / math.pi

    def pdf(self, x):
        # past |x| ~ 1e154, x*x is inf and the density its limit, exactly 0
        with np.errstate(over="ignore"):
            return self.scale / (math.pi * (self.scale * self.scale + x * x))

    def dpdf(self, x):
        # d/dx of pdf, pdf * -2x/(w^2 + x^2): 0 where x*x is inf, as pdf
        with np.errstate(over="ignore"):
            return self.pdf(x) * (-2.0 * x / (self.scale * self.scale + x * x))

    def antiderivative(self, x):
        """A(x) = integral of the cdf over [0, x] = x*K(x) - (w/pi)*ln
        hypot(1, x/w); the lower tail, about -(w/pi)*(1 + ln|x/w|), is a sum
        of two terms of one sign. ln hypot is 0.5*log1p(u^2) below |u| = 1;
        both forms are computed, so the other's overflow is silenced."""
        with np.errstate(all="ignore"):
            u = x / self.scale
            log_hypot = np.where(np.abs(u) < 1.0, 0.5 * np.log1p(u * u),
                                 np.log(np.hypot(1.0, u)))
            return (x * np.arctan2(1.0, -u)
                    - self.scale * log_hypot) / math.pi

    def tail_moment(self, a, kt: float):
        """E[e^((a - X)/kT); X > a] for a kernel narrower than 2 kT, as
        e^(min(a, 0)/kT) K(-a), the exponential taken at X = max(a, 0). It
        misplaces only the kernel's mass beyond about kT, a fraction near
        w/kT, so the window tail it gives is within about e^(-40) of p."""
        return np.exp(np.minimum(a, 0.0) / kt) * self.cdf(-a)

    def cdf_integral(self, x0, x1, width):
        """A(x1) - A(x0), the integral of the cdf over [x0, x1].

        ``width`` is x1 - x0 as the caller computed it, free of the rounding
        of the two ends. Across 0 the two antiderivatives have opposite
        signs and are subtracted as they are. With both ends on one side of
        0 and the nearer end at least half as far out as the other, they
        would cancel; there the difference is taken term by term, in units
        of w (u = x1/w, v = x0/w, t = width/w): t*K(u) + v*(K(u) - K(v)) -
        ln((1 + u^2)/(1 + v^2))/(2 pi), with K(u) - K(v) = atan(t/(1 + u*v))/pi
        and the log ratio through log1p. As in ``antiderivative``, both forms
        are computed and the other's overflows silenced.
        """
        with np.errstate(all="ignore"):
            u = x1 / self.scale
            v = x0 / self.scale
            t = width / self.scale
            ratio = t * (u + v) / (1.0 + v * v)
            log_ratio = np.where(np.abs(ratio) <= 0.5, np.log1p(ratio),
                                 2.0 * np.log(np.hypot(1.0, u)
                                              / np.hypot(1.0, v)))
            term = self.scale * (t * np.arctan2(1.0, -u) / math.pi
                                 + v * np.arctan(t / (1.0 + u * v)) / math.pi
                                 - log_ratio / (2.0 * math.pi))
            return np.where((v < 0.0) & (0.0 < u) | (0.5 * v < u) & (u <= 0.0),
                            self.antiderivative(x1) - self.antiderivative(x0),
                            term)


BroadeningKernel = Union[Delta, Gaussian, Lorentzian]
