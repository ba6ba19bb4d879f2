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
The raise work, the integral of p over [mu_1/2, mu_eta], is per lead and
for all eta at once ``_window_integrals``, which mirrors a lead above a
window. With a finite mean each window is ``_window_integral``, built from
the closed forms of W0: the Fermi integral over the window plus the
difference of the broadening excess at its two ends, one adaptive integral
of the term-by-term difference of the kernel's partial expectations. No
quadrature runs over mu, where an adaptive rule misses the sharp step of a
lead whose kT is far below the window. The Lorentzian, whose broadening
excess diverges, takes it from the antiderivative A of its cdf: lead i
contributes E_Y[A(Y - (mu_1/2 - mu_i)) - A(Y - (mu_eta - mu_i))], Y
logistic of scale kT_i, on fixed Gauss-Legendre panels over s = Y/kT_i in
[-40, 40] graded about both kernel centres (the closed form at T = 0): one
array pass per lead for every eta, and no scipy.
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


def _window_integral(mu_lead: float, kt: float, lo: float, hi: float,
                     kernel) -> float:
    """integral of one lead's occupation over [lo, hi], lo <= hi, for a
    kernel with a mean.

    A lead above the window is mirrored: the window width less the integral
    of the mirrored lead's occupation. Then the closed forms of W0: the
    Fermi integral, a difference of two softplus ramps that cancels for a
    window narrow next to kT, is kT*log1p(f(hi)*expm1(width/kT)) below
    700 kT, where expm1 cannot overflow. The broadening excess at lo less
    that at hi is E_Y[D(Y - c_hi)], D(b) = PE(|b + width|) - PE(|b|) with PE
    the kernel's partial expectation: one adaptive integral over s = Y/kT
    (D itself at T = 0). For a window narrower than the kernel, where the
    two PE cancel, D is the integral of their derivative, -sign(x) K(-|x|),
    over [b, b + width] on Gauss-Legendre panels split at 0.
    """
    if mu_lead > hi:
        return (hi - lo) - _window_integral(-mu_lead, kt, -hi, -lo, kernel)
    c_lo, c_hi, width = lo - mu_lead, hi - mu_lead, hi - lo
    if kt > 0.0 and width / kt < 700.0:
        e = math.exp(-c_hi / kt)
        fermi = kt * math.log1p(e / (1.0 + e) * math.expm1(width / kt))
    else:
        fermi = softplus_ramp(-c_lo, kt) - softplus_ramp(-c_hi, kt)
    w = kernel.width
    if w == 0.0:
        return fermi

    def excess(y):
        b = y - c_hi
        if width >= w:
            return (kernel.partial_expectation(abs(y - c_lo))
                    - kernel.partial_expectation(abs(b)))
        x, weights = _panel_rule(np.array(
            [b, 0.0, b + width] if b < 0.0 < b + width else [b, b + width]))
        return float(-np.sign(x) * kernel.cdf(-np.abs(x)) @ weights)
    if kt == 0.0:
        return fermi + excess(0.0)
    # D vanishes where both |b| and |b + width| exceed the kernel's reach
    reach = TAIL_CUTOFF_GAUSSIAN * w / kt
    s_lo, s_hi = c_lo / kt, c_hi / kt
    a, b = max(-_WINDOW, s_lo - reach), min(_WINDOW, s_hi + reach)
    if not a < b:
        return fermi

    def f(s):
        e = math.exp(-abs(s))
        return e / (1.0 + e) ** 2 * excess(kt * s)
    return fermi + integrate(f, a, b, breakpoints=[
        0.0, s_lo, s_hi, s_lo + reach, s_hi - reach]).value


def _window_integrals(mu_lead: float, kt: float, lo: float, his: np.ndarray,
                      kernel) -> np.ndarray:
    """``_window_integral`` over [lo, hi] for each hi of ``his``.

    Without a mean, in one array pass and with a lead above a window
    mirrored, E_Y[A(Y - c_lo) - A(Y - c_hi)], A the antiderivative of the
    kernel's cdf and c = lo - mu_lead, hi - mu_lead: at T = 0 closed, else
    on the thermal rule's panels over s = Y/kT, with edges at each kernel
    centre c/kT and about it at w/kT times powers of 3 below 8. No panel is
    then more than 3 times as far from A's log-like corner at one end as at
    the other: by 4, 10 nodes missed corpus device 110 by 1.6e-13.
    """
    if math.isfinite(kernel.mad):
        return np.array([_window_integral(mu_lead, kt, lo, hi, kernel)
                         for hi in his.tolist()])
    width = his - lo
    mirror = mu_lead > his
    c_lo = np.where(mirror, mu_lead - his, lo - mu_lead)
    c_hi = np.where(mirror, mu_lead - lo, his - mu_lead)
    if kt == 0.0:
        values = kernel.cdf_integral(-c_hi, -c_lo, width)
    else:
        r = max(kernel.width / kt, 1e-15)  # finer rungs split s's rounding
        rungs = r * 3.0 ** np.arange(max(0, math.ceil(math.log(8.0 / r, 3))))
        offsets = np.concatenate(([0.0], rungs, -rungs))
        uniform = np.linspace(-_WINDOW, _WINDOW, round(_WINDOW) + 1)
        rules = [_panel_rule(np.unique(np.clip(np.concatenate(
            (uniform, lo_k / kt + offsets, hi_k / kt + offsets)),
            -_WINDOW, _WINDOW))) for lo_k, hi_k in zip(c_lo.tolist(),
                                                       c_hi.tolist())]
        s, weights = map(np.concatenate, zip(*rules))
        rows = np.repeat(np.arange(len(rules)), [n.size for n, _ in rules])
        values = np.bincount(rows, weights * _THERMAL_RULE.density(s)
                             * kernel.cdf_integral(kt * s - c_hi[rows],
                                                   kt * s - c_lo[rows],
                                                   width[rows]))
    return np.where(mirror, width - values, values)


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
            his = np.array(list(levels.values()))
            reached = occupation(np.nextafter(his, math.inf), sys).tolist()
            raised = sum(gamma * _window_integrals(
                lead.chemical_potential, lead.thermal_energy, mu_half, his,
                sys.kernel) for gamma, lead in sys.coupled).tolist()
            for (e, mu_eta), r, work in zip(levels.items(), reached, raised):
                works[e] = work - (mu_eta - mu_half) * r
    return works[etas[0]] if scalar else [works[e] for e in etas]
