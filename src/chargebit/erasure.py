"""Optimal erasure work costs, characteristic energy scales and the bound.

Every integral of the occupation p is assembled here, lead by lead. W0
(erase to empty) and W1 (erase to full) are the quasistatic-ramp-plus-
quench limits: the integral of p above mu_1/2 and of 1 - p below it. Per
lead they are the unbroadened softplus closed forms (exact ramps at T = 0)
plus a common broadening excess, one adaptive integral of the kernel's
closed-form partial expectation (``dot_model._broadening_excess``). The
Lorentzian kernel makes both diverge and is reported as such; eta-erasure
is the supported finite-cost alternative.

The mean-absolute-deviation form of the average cost is the independent
cross-check of W-bar. As -dp_i/dmu is the density of mu_i + Y + U, lead i
adds E_U[g(U + mu_i - mu_1/2)], g(x) = E_Y|Y - x| in closed form: one core
call over the kernel's variable, where W0/W1 integrate over the thermal
one, at a small cost next to the mu_1/2 solve.

eta-erasure does one pass for any number of eta: mu_1/2 is solved once or
passed in, one array call of p on a ladder of levels above it brackets
every level mu_eta, one call of the solver of mu_1/2,
``dot_model.occupation_levels``, finds them all, each within its ladder
step, and the occupations just above them are read in one more array call.
The raise work, the integral of p over [mu_1/2, mu_eta], is per lead
``_window_integral``, the one integral of a lead's p over a window, for
every kernel. With a finite mean it is built from the closed forms of W0:
the Fermi integral over the window plus the broadening excess at either
end. No quadrature runs over mu, where an adaptive rule misses the sharp
step of a lead whose kT is far below the window. The Lorentzian, whose
broadening excess diverges, takes it from the antiderivative A of its cdf:
lead i contributes E_Y[A(Y - (mu_1/2 - mu_i)) - A(Y - (mu_eta - mu_i))], Y
logistic of scale kT_i, one adaptive integral over s = Y/kT_i on [-40, 40]
(the closed form at T = 0) whose integrand is a few ``math`` calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dot_model import (_NORMAL_RULE, _WINDOW, DotSystem, _broadening_excess,
                        _lead_block, _Thermal, dominant_scale,
                        half_occupation_level, occupation, occupation_levels)
from .leads import fermi_integral, softplus_ramp
from .numerics import integrate


# most halvings below the top of the eta-erasure ladder
_LADDER_RUNGS = 60


class DivergentInput(ValueError):
    """Bound check received a divergent (Lorentzian exact-erasure) quantity."""


@dataclass(frozen=True)
class ErasureCosts:
    w_zero: float
    w_one: float
    w_bar: float  # inf for Lorentzian broadening
    mu_half: float
    mad_discrepancy: float | None = None  # |w_bar - MAD/2| when cross-checked


@dataclass(frozen=True)
class EnergyScales:
    e_therm: float
    e_bias: float
    e_broad: float  # inf for Lorentzian broadening

    @property
    def bound(self) -> tuple[float, float]:
        """(max, sum) of the three scales, the ends of the bound on W-bar."""
        return (max(self.e_therm, self.e_bias, self.e_broad),
                self.e_therm + self.e_bias + self.e_broad)


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
    return EnergyScales(e_therm, e_bias, 0.5 * sys.kernel.mad)


def absolute_deviation_integral(sys: DotSystem, point: float) -> float:
    """integral of |mu - point| * (-dp/dmu) dmu: per lead E_U[g(U + c)],
    c = mu_i - point, g = ``_Thermal.absolute_moment``. Closed forms without
    a kernel (g(c)), at T = 0 (|c| + 2 E[(U - |c|)^+]) and without both."""
    kernel = sys.kernel
    if math.isinf(kernel.mad):
        return math.inf
    total = 0.0
    for gamma, lead in sys.coupled:
        kt = lead.thermal_energy
        c = lead.chemical_potential - point
        if kt == 0.0:
            mad = abs(c) + (2.0 * kernel.partial_expectation(abs(c))
                            if kernel.width else 0.0)
        elif kernel.width == 0.0:
            mad = _Thermal(kt).absolute_moment(c)
        else:
            mad = _lead_block(np.array([-c]), kernel.width, _NORMAL_RULE,
                              _Thermal(kt), ("absolute_moment",))[0][0]
        total += gamma * float(mad)
    return total


def erasure_costs(sys: DotSystem, mad_check: bool = True,
                  mu_half: float | None = None) -> ErasureCosts:
    """W0, W1 and their average for optimal (quasistatic) erasure.

    With ``mad_check`` the mean-absolute-deviation form of the average cost
    is also evaluated and the discrepancy recorded. ``mu_half`` is mu_1/2
    when solved already (as by ``dynamics.make_erasure_schedule``).
    """
    if mu_half is None:
        mu_half = half_occupation_level(sys)
    w0 = w1 = 0.0
    for gamma, lead in sys.coupled:
        c, kt = lead.chemical_potential - mu_half, lead.thermal_energy
        excess = _broadening_excess(c, kt, sys.kernel)
        w0 += gamma * (softplus_ramp(c, kt) + excess)
        w1 += gamma * (softplus_ramp(-c, kt) + excess)
    w_bar = 0.5 * (w0 + w1)
    discrepancy = None
    if mad_check and math.isfinite(w_bar):
        mad = absolute_deviation_integral(sys, mu_half)
        discrepancy = abs(w_bar - 0.5 * mad)
    return ErasureCosts(w0, w1, w_bar, mu_half, discrepancy)


def check_bound(costs: ErasureCosts, scales: EnergyScales) -> BoundReport:
    """max(scales) <= w_bar <= sum(scales), each side with a fixed slack of
    1e-9 times sum(scales)."""
    lower, upper = scales.bound  # upper is finite when every scale is
    if not all(map(math.isfinite, (costs.w_bar, upper))):
        raise DivergentInput("bound check requires finite costs and scales")
    slack = 1e-9 * upper
    satisfied = (lower - slack <= costs.w_bar <= upper + slack)
    return BoundReport(lower, upper, costs.w_bar, satisfied,
                       costs.w_bar - lower, upper - costs.w_bar)


def _window_integral(mu_lead: float, kt: float, lo: float, hi: float,
                     kernel) -> float:
    """integral of one lead's occupation over [lo, hi], lo <= hi.

    For a kernel with a mean, the closed forms of W0: the Fermi integral
    over the window plus the broadening excess at lo less that at hi.
    Otherwise (the Lorentzian) by the kernel's antiderivative A:
    E_Y[A(Y - (lo - mu_lead)) - A(Y - (hi - mu_lead))]. A lead above the
    window is then mirrored, as in ``leads.fermi_integral``: the window
    width less the integral of the mirrored lead's occupation.
    """
    if math.isfinite(kernel.mad):
        return (fermi_integral(mu_lead, lo, hi, kt)
                + _broadening_excess(mu_lead - lo, kt, kernel)
                - _broadening_excess(mu_lead - hi, kt, kernel))
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


def _level_ladder(sys: DotSystem, mu_half: float,
                  eta_min: float) -> tuple[list[float], list[float]]:
    """Levels mu_1/2 + top * 2^-k, k = rungs, ..., 0, and p at each.

    top reaches 60 smoothing scales past the highest coupled lead, and the
    rungs below it halve down to the narrowest scale: one array call. While
    p at the top still exceeds eta_min, one more call adds the doublings
    that a tail falling as 1/mu, the Lorentzian's, needs to get below it,
    at most 8 at a time. None goes 2^1022 min(1, scales) past mu_1/2, so
    that no level, nor an offset over a scale, overflows; p still above
    eta_min there is a ValueError. Both lists are floats, mu_1/2 first.
    """
    scale = dominant_scale(sys)
    top = (max(lead.chemical_potential for _, lead in sys.coupled)
           - mu_half + 60.0 * scale)
    rungs = min(_LADDER_RUNGS, max(0, math.ceil(
        math.log2(top) - math.log2(min(sys.scales, default=scale)))))
    ladder = [mu_half] + (mu_half + top * 2.0 ** -np.arange(
        rungs, -1, -1)).tolist()
    p = occupation(np.array(ladder), sys).tolist()
    while p[-1] > eta_min:
        room = (1021 + math.frexp(min((1.0,) + sys.scales))[1]
                - math.frexp(ladder[-1] - mu_half)[1])
        if room < 1:
            raise ValueError(f"eta = {eta_min!r} is below {p[-1]!r}, the "
                             "smallest occupation the device reaches")
        doublings = min(8, room, math.ceil(math.log2(p[-1])
                                           - math.log2(eta_min)))
        more = mu_half + (ladder[-1] - mu_half) * 2.0 ** np.arange(
            1, doublings + 1)
        ladder += more.tolist()
        p += occupation(more, sys).tolist()
    return ladder, p


def eta_erasure_work(sys: DotSystem, eta, mu_half: float | None = None):
    """Work to drive the occupation from 1/2 down to eta and reset the level.

    W = integral of p over [mu_half, mu_eta] minus (mu_eta - mu_half) times
    the occupation reached just above mu_eta, which is eta unless p jumps
    past eta at the atom of a T = 0 lead. Finite for every kernel, which is
    the point: it is the supported erasure notion when exact erasure
    diverges (Lorentzian broadening).

    ``eta`` is a float, which gives a float, or a sequence, which gives a
    list in its order; all of them are checked before anything is solved.
    ``mu_half`` is mu_1/2 when solved already (as by ``erasure_costs``).
    """
    scalar = np.ndim(eta) == 0
    etas = [float(e) for e in np.atleast_1d(eta)]
    for e in etas:
        if not 0.0 < e < 0.5:
            raise ValueError(f"eta must lie strictly in (0, 1/2), got {e}")
    targets = sorted(set(etas), reverse=True)
    works = dict.fromkeys(targets, 0.0)
    if targets:
        if mu_half is None:
            mu_half = half_occupation_level(sys)
        ladder, p = _level_ladder(sys, mu_half, targets[-1])
        brackets = []
        j = 0
        for e in targets:  # their levels rise along the ladder
            while p[j] > e:
                j += 1
            lo, hi = ladder[max(j - 1, 0)], ladder[j]
            # start where log p is linear in log(mu - mu_1/2) between the
            # bracket's ends, as on a Lorentzian tail; in mu when the
            # bracket's lower end is mu_1/2
            frac = (0.0 if j == 0 or p[j] <= 0.0 else
                    math.log(p[j - 1] / e) / math.log(p[j - 1] / p[j]))
            a, b = lo - mu_half, hi - mu_half
            brackets.append((lo, hi, mu_half + a * (b / a) ** frac if a > 0.0
                             else lo + frac * (hi - lo)))
        levels = {e: mu_eta for e, mu_eta in zip(targets, occupation_levels(
            sys, targets, *zip(*brackets))) if mu_eta > mu_half}
        if levels:
            reached = occupation(np.nextafter(list(levels.values()), math.inf),
                                 sys).tolist()
            for (e, mu_eta), r in zip(levels.items(), reached):
                raised = sum(gamma * _window_integral(
                    lead.chemical_potential, lead.thermal_energy, mu_half,
                    mu_eta, sys.kernel) for gamma, lead in sys.coupled)
                works[e] = raised - (mu_eta - mu_half) * r
    return works[etas[0]] if scalar else [works[e] for e in etas]
