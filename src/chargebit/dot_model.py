"""Two-electrode quantum-dot device model.

The steady-state occupation is the tunnelling-ratio-weighted sum of the two
leads' smoothed occupations. Lead i contributes

    p_i(mu) = E_Y[K((Y - (mu - mu_i)) / w)],

with Y logistic of scale kT_i (the Fermi function is its upper tail) and K
the cdf of the broadening kernel of width w; -dp_i/dmu is the same
expectation of the kernel pdf. Each lead is evaluated in its own offset
d = mu - mu_i; a caller that integrates over one lead passes d directly,
so a lead whose kT is many decades below |mu_i| keeps its resolution. The
expectation runs over s = Y/kT on fixed 10-node Gauss-Legendre panels of
width 2 covering |s| <= 40 (the logistic mass beyond is 4e-18). When the
kernel is narrower than 2 kT its transition is sharper than a panel, so the
panels next to the kernel centre s* = d/kT are replaced by panels graded
geometrically down to the kernel width. T = 0 leads (p_i = K(-d/w)) and
the delta kernel (p_i = Fermi function) are closed forms. The per-lead
core takes and returns arrays only; the public routines take a float level
or an array of levels, and ``_combined`` is the one place where a float
becomes a one-element array and back. Node matrices are built in blocks of
at most about 128 kB. The level where p crosses a target
(1/2 for mu_1/2, eta for eta-erasure) is one safeguarded Newton solve.

The integrals of p above a level and of 1 - p below it, which are the
quasistatic erasure works, split into the unbroadened softplus closed forms
and a broadening excess E_Y[E_U[(U - |mu_i - mu + Y|)^+]] per lead: a single
adaptive integral over s of the kernel's closed-form partial expectation.
The integral of p over a window (the eta raise work) is per lead the Fermi
integral over it plus the excess at its lower end less that at its upper.
A level solve that stops at adjacent doubles logs at INFO on this module's
logger.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .kernels import BroadeningKernel, Delta
from .leads import LeadParams, fermi_integral, softplus_ramp
from .numerics import TAIL_CUTOFF_GAUSSIAN, NonConvergence, integrate
from .units import store_finite

LEVEL_TOL = 1e-12  # |p - target| at which occupation_level stops

_log = logging.getLogger(__name__)


class PureStep(ValueError):
    """Occupation distribution is purely atomic (T = 0 leads, no broadening)."""


class AmbiguousMedianWarning(UserWarning):
    """p = 1/2 holds on an extended plateau; the midpoint was returned."""


@dataclass(frozen=True)
class TunnelRates:
    rate_source: float
    rate_drain: float

    def __post_init__(self):
        store_finite(self, "rate_source", "rate_drain")
        if self.rate_source < 0 or self.rate_drain < 0:
            raise ValueError("tunnelling rates must be non-negative")
        if self.rate_source + self.rate_drain <= 0:
            raise ValueError("total tunnelling rate must be positive")

    @property
    def total(self) -> float:
        return self.rate_source + self.rate_drain

    @property
    def gamma_source(self) -> float:
        return self.rate_source / self.total

    @property
    def gamma_drain(self) -> float:
        return 1.0 - self.gamma_source


@dataclass(frozen=True)
class DotSystem:
    source: LeadParams
    drain: LeadParams
    rates: TunnelRates
    kernel: BroadeningKernel

    def __post_init__(self):
        if self.source.chemical_potential < self.drain.chemical_potential:
            raise ValueError("convention requires mu_source >= mu_drain")

    @property
    def bias(self) -> float:
        return self.source.chemical_potential - self.drain.chemical_potential

    def weighted_leads(self):
        return ((self.rates.gamma_source, self.source),
                (self.rates.gamma_drain, self.drain))


def dominant_scale(sys: DotSystem) -> float:
    """Largest smoothing energy scale (thermal or broadening); 1.0 fallback."""
    s = max(sys.source.thermal_energy, sys.drain.thermal_energy,
            sys.kernel.width)
    return s if s > 0.0 else 1.0


def is_atomic(sys: DotSystem) -> bool:
    """True when the occupation is a pure double step (both T = 0, no kernel)."""
    return (sys.kernel.width == 0.0
            and sys.source.thermal_energy == 0.0
            and sys.drain.thermal_energy == 0.0)


# -- the fixed-panel rule over s = Y/kT ---------------------------------------

_WINDOW = 40.0
_PANELS = 40  # of width 2 on [-_WINDOW, _WINDOW]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)
_BLOCK_ELEMENTS = 1 << 14  # 128 kB of float64 per node matrix, cache-sized


def _logistic_density(s):
    e = np.exp(-np.abs(s))
    return e / (1.0 + e) ** 2


def _panel_rule(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    return ((mid[:, None] + half[:, None] * _GL_X).ravel(),
            (half[:, None] * _GL_W).ravel())


_S, _S_W = _panel_rule(np.linspace(-_WINDOW, _WINDOW, _PANELS + 1))
_S_LW = _S_W * _logistic_density(_S)
_S_PANEL = np.repeat(np.arange(_PANELS), _GL_X.size)


def _grading_levels(ratio: float) -> int:
    """Halvings from a 4-wide region down to a kernel of width ratio*kT; 0
    when the kernel is at least a panel wide and needs no grading."""
    return 0 if ratio >= 2.0 else math.ceil(math.log2(4.0 / ratio))


@lru_cache(maxsize=64)
def _graded_rule(levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Panels on [0, 1] with edges 0, 2^-levels, ..., 1/2, 1."""
    return _panel_rule(np.concatenate(([0.0], 2.0 ** -np.arange(levels, -1, -1))))


def _lead_block(d: np.ndarray, kt: float, kernel: BroadeningKernel,
                names: tuple[str, ...]) -> list[np.ndarray]:
    """E_Y[kernel.<name>(Y - d)] for a block of offsets d = mu - mu_lead."""
    xs = kt * _S - d[:, None]
    weights = _S_LW
    levels = _grading_levels(kernel.width / kt)
    if levels:
        # replace the three panels around the kernel centre by panels graded
        # geometrically from it, down to the kernel width
        t, tw = _graded_rule(levels)
        c = np.clip(d / kt, -_WINDOW, _WINDOW)
        panel = np.clip(np.floor(0.5 * (c + _WINDOW)), 0, _PANELS - 1)
        a = 2.0 * np.maximum(panel - 1, 0) - _WINDOW
        b = 2.0 * (np.minimum(panel + 1, _PANELS - 1) + 1) - _WINDOW
        right, left = (b - c)[:, None], (c - a)[:, None]
        offsets = np.concatenate((right * t, -left * t), axis=1)
        near_w = (np.concatenate((right * tw, left * tw), axis=1)
                  * _logistic_density(c[:, None] + offsets))
        far_w = np.where(np.abs(_S_PANEL - panel[:, None]) <= 1, 0.0, _S_LW)
        # kt*(c + offset) - d, keeping the small offset exact near s*
        xs = np.concatenate(
            (xs, kt * offsets + (kt * c - d)[:, None]), axis=1)
        weights = np.concatenate((far_w, near_w), axis=1)
    return [(getattr(kernel, name)(xs) * weights).sum(axis=1) for name in names]


def _lead_values(d: np.ndarray, kt: float, kernel: BroadeningKernel,
                 names: tuple[str, ...]) -> list[np.ndarray]:
    """[E_Y[kernel.<name>(Y - d)] for name in names], Y logistic of scale kt.

    ``d`` is a 1-D array of lead-local offsets mu - mu_lead; each result has
    its shape. ``names`` are kernel method names, "cdf" for the lead's
    smoothed occupation and "pdf" for its -d/dmu.
    """
    if kernel.width == 0.0 and kt > 0.0:
        # the Fermi closed form, exp of -|x| only
        x = d / kt
        e = np.exp(-np.abs(x))
        up = np.where(x >= 0.0, e, 1.0)
        return [up / (1.0 + e) if n == "cdf" else e / (kt * (1.0 + e) ** 2)
                for n in names]
    if kt == 0.0:
        # the kernel itself; without one an atom: a step occupation and no
        # density away from mu_lead
        return [0.0 * d if n == "pdf" and kernel.width == 0.0
                else getattr(kernel, n)(-d) for n in names]
    levels = _grading_levels(kernel.width / kt)
    nodes = _S.size + (2 * _GL_X.size * (levels + 1) if levels else 0)
    rows = max(1, _BLOCK_ELEMENTS // nodes)
    # at least one block, so that no levels give empty results
    blocks = [_lead_block(d[lo:lo + rows], kt, kernel, names)
              for lo in range(0, d.size or 1, rows)]
    return [np.concatenate(parts) for parts in zip(*blocks)]


def _combined(mu, sys: DotSystem, names: tuple[str, ...]) -> list:
    """Rate-weighted sums over the leads of _lead_values.

    A float level is evaluated as a one-element array and returned as a
    float; an array of levels gives arrays of its shape.
    """
    scalar = isinstance(mu, (float, int))
    mu = np.asarray(mu, dtype=float)
    flat = mu.ravel()
    totals = [0.0] * len(names)
    for gamma, lead in sys.weighted_leads():
        d = flat - lead.chemical_potential
        for i, v in enumerate(_lead_values(d, lead.thermal_energy, sys.kernel,
                                           names)):
            totals[i] = totals[i] + gamma * v
    if scalar:
        return [float(t[0]) for t in totals]
    return [np.reshape(t, mu.shape) for t in totals]


def occupation(mu, sys: DotSystem, _unread=None):
    """Broadened steady-state occupation p(mu) for a float or an array of mu.

    A third positional argument is accepted and not read: the fixed panel
    rule has no tolerance to set.
    """
    (p,) = _combined(mu, sys, ("cdf",))
    # the rule's roundoff can overshoot the probability range by ~1e-16
    if isinstance(p, float):
        return min(1.0, max(0.0, p))
    return np.clip(p, 0.0, 1.0)


def unbroadened_occupation(mu, sys: DotSystem):
    """Occupation without broadening, gS*fS(mu) + gD*fD(mu), for a float or
    an array of mu: the occupation under the Delta kernel."""
    return occupation(mu, replace(sys, kernel=Delta()))


def occupation_derivative_density(mu, sys: DotSystem):
    """-dp/dmu for a float or an array of mu: the kernel-pdf expectation.

    A T = 0 lead without broadening contributes an atom; its density part is
    zero everywhere except exactly at its chemical potential.
    """
    if is_atomic(sys):
        raise PureStep("occupation distribution is atomic; no pointwise density")
    (dens,) = _combined(mu, sys, ("pdf",))
    return dens


def occupation_level(sys: DotSystem, target: float, lo: float, hi: float,
                     mu0: float) -> float:
    """The level in [lo, hi] where p crosses target; p(lo) >= target >= p(hi).

    Safeguarded Newton iteration on p(mu) - target from mu0, with -dp/dmu
    from the same nodes. It keeps the bracket and bisects whenever a Newton
    step would leave it or would be longer than half the step before last.
    It stops once |p - target| <= LEVEL_TOL. When p jumps across the target
    at the atom of a T = 0 lead, the bracket shrinks to adjacent doubles and
    its end beyond the target, hi, is returned and logged at INFO with its
    |p - target|.
    """
    mu = mu0
    step = prev_step = hi - lo
    # bisection alone splits any bracket of doubles within ~2100 steps
    for _ in range(2200):
        p, dens = _combined(mu, sys, ("cdf", "pdf"))
        excess = p - target
        if abs(excess) <= LEVEL_TOL:
            return mu
        if excess > 0.0:
            lo = mu
        else:
            hi = mu
        nxt = mu + excess / dens if dens > 0.0 else math.nan
        if not lo < nxt < hi or abs(nxt - mu) > 0.5 * prev_step:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                (p_hi,) = _combined(hi, sys, ("cdf",))
                _log.info("level with p = %r stopped at adjacent doubles: "
                          "returning %r, |p - target| = %.3g",
                          target, hi, abs(p_hi - target))
                return hi
        prev_step, step = step, abs(nxt - mu)
        mu = nxt
    raise NonConvergence(f"level with p = {target} did not converge near {mu}")


def half_occupation_level(sys: DotSystem) -> float:
    """The gate level mu_1/2 with p(mu_1/2) = 1/2, by occupation_level.

    For the all-atomic device this is the median of the two-atom
    distribution; the degenerate gamma_S = 1/2 case has a whole plateau at
    p = 1/2 and the midpoint is returned with a warning.
    """
    mu_s = sys.source.chemical_potential
    mu_d = sys.drain.chemical_potential
    g_s = sys.rates.gamma_source
    if is_atomic(sys):
        if g_s < 0.5:
            return mu_d
        if g_s > 0.5:
            return mu_s
        warnings.warn("p = 1/2 on the whole bias window; returning midpoint",
                      AmbiguousMedianWarning, stacklevel=2)
        return 0.5 * (mu_s + mu_d)
    scale = dominant_scale(sys)
    # start inside the lead that carries the majority of the rate
    mu0 = mu_s if g_s > 0.5 else mu_d if g_s < 0.5 else 0.5 * (mu_s + mu_d)
    return occupation_level(sys, 0.5, mu_d - 60.0 * scale,
                            mu_s + 60.0 * scale, mu0)


# -- integrals of the occupation ----------------------------------------------

def _broadening_excess(c: float, kt: float, kernel: BroadeningKernel) -> float:
    """E_Y[E_U[(U - |c + Y|)^+]]: U the kernel, Y logistic of scale kT.

    What broadening adds to both integrals of occupation_tail_integrals for
    a lead at c = mu_lead - mu: 0 without a kernel, infinite for a kernel
    without a mean.
    """
    if kt == 0.0:
        return kernel.partial_expectation(abs(c))
    w = kernel.width
    if w == 0.0 or math.isinf(kernel.mad):
        return kernel.partial_expectation(0.0)
    s_star = -c / kt
    reach = TAIL_CUTOFF_GAUSSIAN * w / kt
    lo = max(-_WINDOW, s_star - reach)
    hi = min(_WINDOW, s_star + reach)
    if not lo < hi:
        return 0.0

    def f(s):
        e = math.exp(-abs(s))
        return e / (1.0 + e) ** 2 * kernel.partial_expectation(abs(c + kt * s))
    return integrate(f, lo, hi, breakpoints=[s_star, 0.0]).value


def occupation_tail_integrals(mu: float,
                              sys: DotSystem) -> tuple[float, float]:
    """(integral of p over [mu, inf), integral of 1 - p over (-inf, mu]).

    Per lead these are kT*softplus(+-(mu_lead - mu)/kT) (exact ramps at
    T = 0) plus the same broadening excess; both are infinite for the
    Lorentzian kernel.
    """
    above = below = 0.0
    for gamma, lead in sys.weighted_leads():
        if gamma == 0.0:
            continue
        c, kt = lead.chemical_potential - mu, lead.thermal_energy
        excess = _broadening_excess(c, kt, sys.kernel)
        above += gamma * (softplus_ramp(c, kt) + excess)
        below += gamma * (softplus_ramp(-c, kt) + excess)
    return above, below


def occupation_integral(lo: float, hi: float, sys: DotSystem) -> float:
    """integral of p over [lo, hi] for a kernel with a mean.

    Per lead the same closed forms as occupation_tail_integrals: the Fermi
    integral over the window, taken without the cancellation of two
    softplus ramps, plus the broadening excess at lo less that at hi.
    """
    total = 0.0
    for gamma, lead in sys.weighted_leads():
        if gamma == 0.0:
            continue
        mu_i, kt = lead.chemical_potential, lead.thermal_energy
        total += gamma * (fermi_integral(mu_i, lo, hi, kt)
                          + _broadening_excess(mu_i - lo, kt, sys.kernel)
                          - _broadening_excess(mu_i - hi, kt, sys.kernel))
    return total
