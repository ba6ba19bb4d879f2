"""Optimal erasure work costs, characteristic energy scales and the bound.

W0 (erase to empty) and W1 (erase to full) are the quasistatic-ramp-plus-
quench limits: the integral of p above mu_1/2 and of 1 - p below it. Per
lead they are the unbroadened softplus closed forms (exact ramps at T = 0)
plus a common broadening excess, one adaptive integral of the kernel's
closed-form partial expectation (see ``dot_model.occupation_tail_integrals``).
The Lorentzian kernel makes both diverge and is reported as such;
eta-erasure is the supported finite-cost alternative.

The mean-absolute-deviation form of the average cost is the independent
cross-check of W-bar: per lead, |mu - mu_1/2| times that lead's -dp_i/dmu,
evaluated in one array call on the fixed Gauss-Legendre panels of the
lead's own offset mu - mu_i. The panels are 2 max(kT_i, w) wide over its
peak (45 kT_i plus 12 kernel widths each side), with the cusp and the
lead's centre as panel edges.

eta-erasure finds its level mu_eta with the solver of mu_1/2,
``dot_model.occupation_level``. For a kernel with a finite mean its raise
work, the integral of p over [mu_1/2, mu_eta], is built per lead from the
closed forms of W0, ``dot_model.occupation_integral``: the Fermi integral
over the window plus the broadening excess at either end. No quadrature
runs over mu, where an adaptive rule misses the sharp step of a lead whose
kT is far below the window. The Lorentzian, whose broadening excess
diverges, takes the raise work from the antiderivative A of its cdf: lead i
contributes E_Y[A(Y - (mu_1/2 - mu_i)) - A(Y - (mu_eta - mu_i))], Y logistic
of scale kT_i, one adaptive integral over s = Y/kT_i on [-40, 40] (the
closed form at T = 0) whose integrand is a few ``math`` calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dot_model import (_WINDOW, DotSystem, _lead_values, _panel_rule,
                        dominant_scale, half_occupation_level, occupation,
                        occupation_integral, occupation_level,
                        occupation_tail_integrals)
from .numerics import (TAIL_CUTOFF_EXPONENTIAL, TAIL_CUTOFF_GAUSSIAN,
                       integrate)


# MAD-oracle panel width, in units of the lead's widest scale max(kT_i, w)
_MAD_PANEL = 2.0


class DivergentInput(ValueError):
    """Bound check received a divergent (Lorentzian exact-erasure) quantity."""


@dataclass(frozen=True)
class ErasureCosts:
    w_zero: float
    w_one: float
    w_bar: float
    mu_half: float
    divergent: bool
    mad_discrepancy: float | None = None  # |w_bar - MAD/2| when cross-checked


@dataclass(frozen=True)
class EnergyScales:
    e_therm: float
    e_bias: float
    e_broad: float  # inf for Lorentzian broadening


@dataclass(frozen=True)
class BoundReport:
    lower: float
    upper: float
    w_bar: float
    satisfied: bool
    margin_lower: float
    margin_upper: float


def energy_scales(sys: DotSystem) -> EnergyScales:
    g_s = sys.rates.gamma_source
    g_d = sys.rates.gamma_drain
    e_therm = math.log(2.0) * (g_s * sys.source.thermal_energy
                               + g_d * sys.drain.thermal_energy)
    e_bias = 0.5 * min(g_s, g_d) * sys.bias
    e_broad = 0.5 * sys.kernel.mad
    return EnergyScales(e_therm, e_bias, e_broad)


def absolute_deviation_integral(sys: DotSystem, point: float) -> float:
    """integral of |mu - point| * (-dp/dmu) dmu, lead by lead.

    Independent of the softplus route used for W0/W1: the integrand is each
    lead's -dp_i/dmu evaluated pointwise. Lead i is integrated in its own
    offset x = mu - mu_i over the support of its peak, where the weight is
    |x + mu_i - point|; a T = 0 lead without broadening is an atom at mu_i.
    """
    kernel = sys.kernel
    if math.isinf(kernel.mad):
        return math.inf
    total = 0.0
    for gamma, lead in sys.weighted_leads():
        kt = lead.thermal_energy
        c = lead.chemical_potential - point
        if kt == 0.0 and kernel.width == 0.0:
            total += gamma * abs(c)
            continue
        reach = (TAIL_CUTOFF_EXPONENTIAL * kt
                 + TAIL_CUTOFF_GAUSSIAN * kernel.width)
        panels = math.ceil(2.0 * reach / (_MAD_PANEL * max(kt, kernel.width)))
        edges = np.linspace(-reach, reach, panels + 1)
        x, weights = _panel_rule(
            np.union1d(edges, [e for e in (-c, 0.0) if -reach < e < reach]))
        (dens,) = _lead_values(x, kt, kernel, ("pdf",))
        total += gamma * float(np.abs(x + c) * dens @ weights)
    return total


def erasure_costs(sys: DotSystem, mad_check: bool = True) -> ErasureCosts:
    """W0, W1 and their average for optimal (quasistatic) erasure.

    With ``mad_check`` the mean-absolute-deviation form of the average cost
    is also integrated directly and the discrepancy recorded; disable it in
    large parameter sweeps where only w_bar is needed.
    """
    mu_half = half_occupation_level(sys)
    w0, w1 = occupation_tail_integrals(mu_half, sys)
    w_bar = 0.5 * (w0 + w1)
    if math.isinf(w_bar):
        return ErasureCosts(w0, w1, w_bar, mu_half, True)
    discrepancy = None
    if mad_check:
        mad = absolute_deviation_integral(sys, mu_half)
        discrepancy = abs(w_bar - 0.5 * mad)
    return ErasureCosts(w0, w1, w_bar, mu_half, False, discrepancy)


def check_bound(costs: ErasureCosts, scales: EnergyScales) -> BoundReport:
    """max(scales) <= w_bar <= sum(scales), each side with a fixed slack of
    1e-9 times sum(scales)."""
    values = (costs.w_bar, scales.e_therm, scales.e_bias, scales.e_broad)
    if costs.divergent or any(not math.isfinite(v) for v in values):
        raise DivergentInput("bound check requires finite costs and scales")
    lower = max(scales.e_therm, scales.e_bias, scales.e_broad)
    upper = scales.e_therm + scales.e_bias + scales.e_broad
    slack = 1e-9 * upper
    satisfied = (lower - slack <= costs.w_bar <= upper + slack)
    return BoundReport(lower, upper, costs.w_bar, satisfied,
                       costs.w_bar - lower, upper - costs.w_bar)


def _window_integral(mu_lead: float, kt: float, lo: float, hi: float,
                     kernel) -> float:
    """integral of one lead's occupation over [lo, hi], by the kernel's
    antiderivative: E_Y[A(Y - (lo - mu_lead)) - A(Y - (hi - mu_lead))].

    A lead above the window is mirrored, as in ``leads.fermi_integral``: the
    window width less the integral of the mirrored lead's occupation.
    """
    if mu_lead > hi:
        return (hi - lo) - _window_integral(-mu_lead, kt, -hi, -lo, kernel)
    c_lo, c_hi, width = lo - mu_lead, hi - mu_lead, hi - lo
    if kt == 0.0:
        return kernel.cdf_integral(-c_hi, -c_lo, width)

    def f(s):
        e = math.exp(-abs(s))
        y = kt * s
        return e / (1.0 + e) ** 2 * kernel.cdf_integral(y - c_hi, y - c_lo,
                                                        width)
    # about each kernel centre the integrand has a log-like corner, rounded
    # off at the kernel width: breakpoints grade down to it by factors of 8,
    # but no finer than 1e-12 (integrate merges breakpoints closer than
    # 8e-11 on [-40, 40])
    rungs = [0.0]
    r = max(kernel.width / kt, 1e-12)
    while r < 1.0:
        rungs += [r, -r]
        r *= 8.0
    return integrate(f, -_WINDOW, _WINDOW, breakpoints=[0.0] + [
        c / kt + r for c in (c_lo, c_hi) for r in rungs]).value


def eta_erasure_work(sys: DotSystem, eta: float) -> float:
    """Work to drive the occupation from 1/2 down to eta and reset the level.

    W = integral of p over [mu_half, mu_eta] minus (mu_eta - mu_half) times
    the occupation reached just above mu_eta, which is eta unless p jumps
    past eta at the atom of a T = 0 lead. Finite for every kernel, which is
    the point: it is the supported erasure notion when exact erasure
    diverges (Lorentzian broadening).
    """
    if not 0.0 < eta < 0.5:
        raise ValueError(f"eta must lie strictly in (0, 1/2), got {eta}")
    mu_half = half_occupation_level(sys)
    scale = dominant_scale(sys)
    hi = sys.source.chemical_potential + 60.0 * scale
    while occupation(hi, sys) > eta:
        hi = mu_half + 2.0 * (hi - mu_half)
    mu_eta = occupation_level(sys, eta, mu_half, hi, mu_half)
    if mu_eta <= mu_half:
        return 0.0
    reached = occupation(math.nextafter(mu_eta, math.inf), sys)
    if not math.isinf(sys.kernel.mad):
        raised = occupation_integral(mu_half, mu_eta, sys)
    else:
        raised = sum(gamma * _window_integral(lead.chemical_potential,
                                              lead.thermal_energy, mu_half,
                                              mu_eta, sys.kernel)
                     for gamma, lead in sys.weighted_leads() if gamma > 0.0)
    return raised - (mu_eta - mu_half) * reached
