"""Lifetime-broadening kernels: delta (none), Gaussian and Lorentzian.

All kernels are symmetric about 0 with median exactly 0. The width parameter
carries the broadening energy hbar*Gamma_tot: the Gaussian's standard
deviation and the Lorentzian's half-width both equal that energy.

Each kernel is a small frozen dataclass. Its ``cdf`` and ``pdf`` have one
numpy body each: they take a numpy array of energy offsets (returning an
array of the same shape) or a float (returning a 0-d numpy value). The delta
kernel has no ``pdf``: its callers branch on ``width == 0`` first.
The scalar methods of adaptive integrands are the Gaussian's
``partial_expectation``, for the W0/W1 broadening excess (0 without a
kernel and infinite without a mean, as read from the data), and the
Lorentzian's ``antiderivative`` with ``cdf_integral``, its difference over
a window, for the eta raise work. Code outside this module reads a kernel's
data, not its type: ``width == 0`` is no broadening and an infinite ``mad``
is a kernel without a mean.

The Gaussian ``cdf`` imports ``scipy.special.ndtr`` on its first call, not
at module level: scipy.special takes about 0.2 s to import, and a run with
the Delta or Lorentzian kernel never needs it. After the first call the
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

    def partial_expectation(self, a: float) -> float:
        """E[(X - a)^+] = sigma*(phi(z) - z*Phi(-z)), z = a/sigma, for a >= 0."""
        z = a / self.sigma
        return self.sigma * (math.exp(-0.5 * z * z) / _SQRT2PI
                             - 0.5 * z * math.erfc(z / _SQRT2))


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

    def antiderivative(self, x: float) -> float:
        """A(x) = integral of the cdf over [0, x] = x*K(x) - (w/pi)*ln
        hypot(1, x/w); the lower tail, about -(w/pi)*(1 + ln|x/w|), is a sum
        of two terms of one sign."""
        u = x / self.scale
        log_hypot = (0.5 * math.log1p(u * u) if abs(u) < 1.0
                     else math.log(math.hypot(1.0, u)))
        return (x * math.atan2(1.0, -u) - self.scale * log_hypot) / math.pi

    def cdf_integral(self, x0: float, x1: float, width: float) -> float:
        """A(x1) - A(x0), the integral of the cdf over [x0, x1].

        ``width`` is x1 - x0 as the caller computed it, free of the rounding
        of the two ends. Across 0 the two antiderivatives have opposite
        signs and are subtracted as they are. With both ends on one side of
        0 and the nearer end at least half as far out as the other, they
        would cancel; there the difference is taken term by term, in units
        of w (u = x1/w, v = x0/w, t = width/w): t*K(u) + v*(K(u) - K(v)) -
        ln((1 + u^2)/(1 + v^2))/(2 pi), with K(u) - K(v) = atan(t/(1 + u*v))/pi
        and the log ratio through log1p.
        """
        u = x1 / self.scale
        v = x0 / self.scale
        if v < 0.0 < u or 0.5 * v < u <= 0.0:
            return self.antiderivative(x1) - self.antiderivative(x0)
        t = width / self.scale
        ratio = t * (u + v) / (1.0 + v * v)
        log_ratio = (math.log1p(ratio) if abs(ratio) <= 0.5 else
                     2.0 * math.log(math.hypot(1.0, u) / math.hypot(1.0, v)))
        return self.scale * (t * math.atan2(1.0, -u) / math.pi
                             + v * math.atan(t / (1.0 + u * v)) / math.pi
                             - log_ratio / (2.0 * math.pi))


BroadeningKernel = Union[Delta, Gaussian, Lorentzian]
