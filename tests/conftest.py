"""Shared fixtures and builders for the test suite."""

import functools
from decimal import Decimal

import numpy as np
import pytest
from scipy.integrate import quad

from chargebit import DotSystem, TunnelRates
from chargebit.dot_model import _combined, _lead_values
from chargebit.kernels import Delta, Gaussian, Lorentzian
from chargebit.leads import LeadParams


def make_system(kt_source, kt_drain, bias, gamma_source, kernel=Delta()):
    """Dot system with the drain pinned at zero chemical potential.

    The tunnel rates are entered directly as the coupling ratios, so the
    total rate is exactly 1 (handy for dynamics tests where times are in
    units of 1/Gamma_tot).
    """
    return DotSystem(LeadParams(kt_source, bias), LeadParams(kt_drain, 0.0),
                     TunnelRates(gamma_source, 1.0 - gamma_source), kernel)


def random_system(rng, kernel=None):
    """Log-uniform sample over three decades of every energy scale."""
    kt_s, kt_d = 10.0 ** rng.uniform(-3, 0, 2)
    bias = 10.0 ** rng.uniform(-1, 2)
    gamma_s = rng.uniform(0.05, 0.95)
    if kernel is None:
        kernel = Gaussian(10.0 ** rng.uniform(-1, 2))
    return make_system(kt_s, kt_d, bias, gamma_s, kernel)


@functools.cache
def _twelve_decade_corpus():
    rng = np.random.default_rng(1)
    corpus = []
    for i in range(300):
        kt_s, kt_d, bias, w = 10.0 ** rng.uniform(-6, 6, 4)
        gamma_s = rng.uniform(0.05, 0.95)
        kernel = (Delta(), Gaussian(w), Lorentzian(w))[i % 3]
        corpus.append((kt_s, kt_d, bias, gamma_s, kernel))
    return corpus


def corpus_device(i):
    """make_system's arguments for device i of the 12-decade corpus.

    default_rng(1), 300 draws of kT_S, kT_D, bias, w = 10**U(-6, 6) each,
    then gamma_S = U(0.05, 0.95); the kernel is Delta, Gaussian(w) or
    Lorentzian(w) by i % 3.
    """
    return _twelve_decade_corpus()[i]


def lead_values(d, kt, kernel, names):
    """The core's values of one lead at 0 of temperature kt for the offsets
    d (a 1-D array): ``_lead_values`` for the one group of the device whose
    source alone is coupled."""
    (group,) = make_system(kt, kt, 0.0, 1.0, kernel).plan
    return [v[0] for v in _lead_values(d[None], group, kernel, names)]


def occupation_density(mu, sys_):
    """-dp/dmu for a float or an array of mu: the kernel-pdf expectation of
    the occupation core, the value its level solves and ramp tables use."""
    (dens,) = _combined(mu, sys_, ("pdf",))
    return dens


def reference_quad(f, a, b, points=()):
    """QUADPACK integral of f over [a, b]: the tests' independent oracle.

    Absolute 1e-14, relative 1e-10, at most 60 subintervals; the ``points``
    strictly inside (a, b) are passed on as breakpoints.
    """
    inside = [p for p in points if a < p < b]
    return quad(f, a, b, points=inside or None, epsabs=1e-14, epsrel=1e-10,
                limit=60)[0]


def decimal_ramp(c: Decimal, kt: Decimal) -> Decimal:
    """Integral of a Fermi step at c over [0, inf), kT ln(1 + e^(c/kT)), at
    the precision of the current decimal context; max(c, 0) at T = 0."""
    if kt == 0:
        return max(c, Decimal(0))
    z = c / kt
    return kt * (max(z, Decimal(0)) + (1 + (-abs(z)).exp()).ln())


def decimal_fermi(x: Decimal, kt: Decimal) -> Decimal:
    """The Fermi occupation at x = mu - mu_lead; 1/2 at x = 0 when T = 0."""
    if kt == 0:
        return Decimal(1 if x < 0 else 0 if x > 0 else 0.5)
    e = (-abs(x) / kt).exp()
    return e / (1 + e) if x > 0 else 1 / (1 + e)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
