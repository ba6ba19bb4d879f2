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
The Gaussian's scalar ``folded_partial_expectation``, P(|a - y|) + P(a + y)
with P(a) = E[(X - a)^+] its ``partial_expectation``, is the integrand of
the W0/W1 broadening excess folded onto y >= 0 (0 without a kernel and
infinite without a mean, as read from the data). The eta work takes from
each kernel its ``remainder`` B(a, b) = integral of (b - z) pdf(z) over
[a, b] >= 0, the integral of cdf - cdf(a) over the window: numpy for the
Lorentzian on fixed panels, without a warning at any input, scalar ``math``
for the Gaussian under adaptive quadrature. Both are closed forms, the
logistic's too (``dot_model._Thermal``); a window too narrow for them, where
their terms cancel, takes the one 10-node Gauss-Legendre rule
``_narrow_remainder``. The Gaussian and the Lorentzian also have a numpy
``tail_moment``, E[e^((a - X)/kT); X > a], from which
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
_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)
_GL_SLOPE = _GL_W * (1.0 - _GL_X)  # the weights times (b - z)/half


def _narrow_remainder(pdf, a, width):
    """B(a, a + width) = integral of (b - z) pdf(z) over [a, b], on the
    10-node Gauss-Legendre rule, b - z formed as width (1 - x)/2: the
    remainder of any inner distribution over a window too narrow for its
    closed form. numpy; a float gives a 0-d value."""
    half = 0.5 * np.asarray(width)
    z = np.asarray(a)[..., None] + half[..., None] * (1.0 + _GL_X)
    return half * (pdf(z) @ _GL_SLOPE * half)


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
        return 0.5 * self.folded_partial_expectation(a, 0.0)

    def folded_partial_expectation(self, a: float, y: float) -> float:
        """P(|a - y|) + P(a + y) for a, y >= 0, P the partial expectation."""
        r = self.sigma * _SQRT2  # each term in u = z/sqrt2
        u, v = abs(a - y) / r, (a + y) / r
        return self.sigma * ((math.exp(-u * u) + math.exp(-v * v)) / _SQRT2PI
                             - (u * math.erfc(u) + v * math.erfc(v)) / _SQRT2)

    def remainder(self, a: float, b: float, width: float) -> float:
        """B(a, b) = b (Phi(b) - Phi(a)) + sigma^2 (pdf(b) - pdf(a)), scalar,
        the mass of [a, b] from the upper tail Q when a > 0, so that it is
        not a difference of two numbers near 1. A window narrower than
        sigma, or than sigma^2 over its distance from 0, where the pdf
        changes by a factor e, takes the shared rule."""
        s = self.sigma
        if width * max(s, a, -b) < s * s:
            return float(_narrow_remainder(self.pdf, a, width))
        r = s * _SQRT2
        mass = 0.5 * (math.erfc(a / r) - math.erfc(b / r) if a > 0.0
                      else math.erfc(-b / r) - math.erfc(-a / r))
        za, zb = a / s, b / s
        return b * mass + s * (math.exp(-0.5 * zb * zb)
                               - math.exp(-0.5 * za * za)) / _SQRT2PI

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

    def tail_moment(self, a, kt: float):
        """E[e^((a - X)/kT); X > a] for a kernel narrower than 2 kT, as
        e^(min(a, 0)/kT) K(-a), the exponential taken at X = max(a, 0). It
        misplaces only the kernel's mass beyond about kT, a fraction near
        w/kT, so the window tail it gives is within about e^(-40) of p."""
        return np.exp(np.minimum(a, 0.0) / kt) * self.cdf(-a)

    def remainder(self, a, b, width):
        """B(a, b), numpy: (b (K(b) - K(a)) - w ln(hypot(1, v)/hypot(1, u)))/pi
        in units u, v = a/w, b/w, with K(b) - K(a) = atan2(t, 1 + u*v)/pi,
        t = width/w, both arguments divided by max(1, |u|) so that u*v
        cannot overflow. A window narrower than half of max(w, its distance
        from 0) takes the shared rule, where the two terms cancel."""
        w = self.scale
        u, v = a / w, b / w
        m = np.maximum(np.abs(u), 1.0)
        out = (b * np.arctan2(width / (w * m), 1.0 / m + u / m * v)
               - w * np.log(np.hypot(1.0, v) / np.hypot(1.0, u))) / math.pi
        narrow = width < 0.5 * np.maximum(np.maximum(a, -b), w)
        if narrow.any():
            out[narrow] = _narrow_remainder(self.pdf, a[narrow], width[narrow])
        return out


BroadeningKernel = Union[Delta, Gaussian, Lorentzian]
