"""Optimal erasure work costs, characteristic energy scales and the bound.

Every integral of the occupation p is assembled here, lead by lead. W0
(erase to empty) and W1 (erase to full) are the quasistatic-ramp-plus-
quench limits: the integral of p above mu_1/2 and of 1 - p below it. Per
lead they are the unbroadened softplus closed forms (exact ramps at T = 0)
plus a common broadening excess, one adaptive integral over |Y| of the
kernel's closed-form partial expectation (``dot_model._broadening_excess``).
The Lorentzian kernel makes both diverge and is reported as such;
eta-erasure is the supported finite-cost alternative.

The mean-absolute-deviation form of the average cost is the independent
cross-check of W-bar. As -dp_i/dmu is the density of mu_i + Y + U, lead i
adds E_U[g(U + mu_i - mu_1/2)], g(x) = E_Y|Y - x| in closed form: one core
call over the kernel's variable, where W0/W1 integrate over the thermal
one, at a small cost next to the mu_1/2 solve.

eta-erasure does one pass for any number of eta: mu_1/2 is solved once or
passed in, one array call of p on a ladder of levels above it brackets
every level mu_eta, and one call of the solver of mu_1/2,
``dot_model.occupation_levels``, finds them all, each within its ladder
step. The work is the integral of p - p(mu_eta) over [mu_1/2, mu_eta], a
sum of non-negative per-lead terms with nothing subtracted at the end: lead
i adds E_Y[B(Y - (mu_eta - mu_i), Y - (mu_1/2 - mu_i))], Y logistic of
scale kT_i and B(a, b) = integral of (b - z) k(z) over [a, b] >= 0 the
``remainder`` of the inner distribution of pdf k (the kernel, or the
logistic without one). Per lead and for all eta at once
``_lead_remainders`` takes it closed without a kernel and at T = 0; for a
Lorentzian on fixed Gauss-Legendre panels over s = Y/kT_i in [-40, 40]
graded about both kernel centres, one array pass and no scipy; and for a
Gaussian as one adaptive integral over s per eta
(``_adaptive_remainder``). No quadrature runs over mu, where an adaptive
rule misses the sharp step of a lead whose kT is far below the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dot_model import (_NORMAL_RULE, _THERMAL_RULE, _WINDOW, DotSystem,
                        _broadening_excess, _grading_levels, _lead_block,
                        _panel_rule, _Thermal, dominant_scale,
                        half_occupation_level, occupation, occupation_levels)
from .numerics import TAIL_CUTOFF_GAUSSIAN, integrate


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
    satisfied: bool


def softplus_ramp(d: float, kt: float) -> float:
    """kT*log(1 + e^(d/kT)), overflow-safe; the ramp max(d, 0) at T = 0.

    With d = mu_lead - level it is the integral of the lead's occupation f
    over [level, inf); with d = level - mu_lead, that of 1 - f over
    (-inf, level].
    """
    if kt == 0.0:
        return max(d, 0.0)
    z = d / kt
    return kt * (max(z, 0.0) + math.log1p(math.exp(-abs(z))))


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
            mad = _lead_block(np.array([-c]), kt, kernel, _NORMAL_RULE,
                              _grading_levels(kt / kernel.width),
                              ("absolute_moment",))[0][0]
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
    return BoundReport(lower, upper, satisfied)


def _adaptive_remainder(kt: float, c_lo: float, c_hi: float, width: float,
                        kernel) -> float:
    """E_Y[B(Y - c_hi, Y - c_lo)], B the remainder of a kernel with a mean:
    one adaptive integral over s = Y/kT, B itself at T = 0. B vanishes where
    Y is past [c_lo, c_hi] by the kernel's reach, so the integral runs
    between those points, clipped to the thermal window, and is split at
    them, at both kernel centres and at 0. A reach of at least 1e-9 keeps
    ``integrate`` from merging away the upper centre, where B drops by the
    window's width: that cost 5e-13 of W at sigma/kT = 1e-13."""
    if kt == 0.0:
        return kernel.remainder(-c_hi, -c_lo, width)
    reach = max(TAIL_CUTOFF_GAUSSIAN * kernel.width / kt, 1e-9)
    s_lo, s_hi = c_lo / kt, c_hi / kt
    a, b = max(-_WINDOW, s_lo - reach), min(_WINDOW, s_hi + reach)
    if not a < b:
        return 0.0

    def f(s):
        e, y = math.exp(-abs(s)), kt * s
        return e / (1.0 + e) ** 2 * kernel.remainder(y - c_hi, y - c_lo, width)
    return integrate(f, a, b, breakpoints=[
        0.0, s_lo, s_hi, s_lo + reach, s_hi - reach]).value


def _lead_remainders(mu_lead: float, kt: float, lo: float, his: np.ndarray,
                     kernel) -> np.ndarray:
    """E_Y[B(Y - c_hi, Y - c_lo)], the integral of p_i - p_i(hi) over
    [lo, hi], for each hi of ``his``: c = lo - mu_lead, hi - mu_lead, Y
    logistic of scale kT and B the remainder of the inner distribution.

    Closed without a kernel (the logistic's, the step's at T = 0) and at
    T = 0 (the kernel's). A kernel with a mean takes ``_adaptive_remainder``.
    Without one, in one array pass, on the thermal rule's panels over
    s = Y/kT, with edges at each kernel centre c/kT and about it at w/kT
    times powers of 3 below 8. No panel is then more than 3 times as far
    from a kernel centre at one end as at the other: by 4, 10 nodes missed
    corpus device 110 by 1.6e-13.
    """
    c_lo, c_hi, width = lo - mu_lead, his - mu_lead, his - lo
    if kernel.width == 0.0:
        return _Thermal(kt).remainder(-c_hi, -c_lo, width)
    if math.isfinite(kernel.mad):
        return np.array([_adaptive_remainder(kt, c_lo, c, w, kernel)
                         for c, w in zip(c_hi.tolist(), width.tolist())])
    if kt == 0.0:
        return kernel.remainder(-c_hi, -c_lo, width)
    r = max(kernel.width / kt, 1e-15)  # finer rungs split s's rounding
    rungs = r * 3.0 ** np.arange(max(0, math.ceil(math.log(8.0 / r, 3))))
    offsets = np.concatenate(([0.0], rungs, -rungs))
    common = np.concatenate((np.linspace(-_WINDOW, _WINDOW, round(_WINDOW) + 1),
                             c_lo / kt + offsets))
    rules = [_panel_rule(np.unique(np.clip(np.concatenate(
        (common, c / kt + offsets)), -_WINDOW, _WINDOW)))
        for c in c_hi.tolist()]
    s, weights = map(np.concatenate, zip(*rules))
    rows = np.repeat(np.arange(len(rules)), [n.size for n, _ in rules])
    y = kt * s
    return np.bincount(rows, weights * _THERMAL_RULE.density(s)
                       * kernel.remainder(y - c_hi[rows], y - c_lo,
                                          width[rows]))


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

    W = integral of p - p(mu_eta) over [mu_half, mu_eta], the work to reach
    the occupation at the returned level, eta to the level tolerance; where
    p jumps past eta at the atom of a T = 0 lead, p(mu_eta) is its limit
    from above. Finite for every kernel, which is the point: it is the
    supported erasure notion when exact erasure diverges (Lorentzian
    broadening).

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
            his = np.array(list(levels.values()))
            works.update(zip(levels, sum(gamma * _lead_remainders(
                lead.chemical_potential, lead.thermal_energy, mu_half, his,
                sys.kernel) for gamma, lead in sys.coupled).tolist()))
    return works[etas[0]] if scalar else [works[e] for e in etas]
