"""Lifetime-broadening kernels: delta (none), Gaussian and Lorentzian.

All kernels are symmetric about 0 with median exactly 0. The width parameter
carries the broadening energy hbar*Gamma_tot: the Gaussian's standard
deviation and the Lorentzian's half-width both equal that energy.

Each kernel is a small frozen dataclass. Its ``cdf`` and ``pdf`` have one
numpy body each: they take a numpy array of energy offsets (returning an
array of the same shape) or a float (returning a 0-d numpy value).
``partial_expectation`` is scalar-only, for the one adaptive integrand that
calls it. Code outside this module reads a kernel's data, not its type:
``width == 0`` is no broadening and an infinite ``mad`` is a kernel without
a mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import ndtr

from .units import store_finite

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


class DeltaKernelError(ValueError):
    """Pointwise density requested for the unbroadened (delta) kernel."""


@dataclass(frozen=True)
class Delta:
    """No broadening; the identity element for cross-correlation."""

    width = 0.0
    mad = 0.0

    def cdf(self, x):
        """Step at 0, with value 1/2 exactly at 0."""
        return np.where(x < 0.0, 0.0, np.where(x > 0.0, 1.0, 0.5))

    def pdf(self, x):
        raise DeltaKernelError("delta kernel has no pointwise density")

    def partial_expectation(self, a: float) -> float:
        """E[(X - a)^+] for a >= 0: zero for a point mass at 0."""
        return 0.0


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
        return self.scale / (math.pi * (self.scale * self.scale + x * x))

    def partial_expectation(self, a: float) -> float:
        """E[(X - a)^+] diverges: the Lorentzian has no mean."""
        return math.inf


BroadeningKernel = Union[Delta, Gaussian, Lorentzian]


def kernel_mad(k: BroadeningKernel) -> float:
    """Mean absolute deviation about the (zero) median; inf if divergent."""
    return k.mad
