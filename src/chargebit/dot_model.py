"""Two-electrode quantum-dot device model.

The steady-state occupation is the tunnelling-ratio-weighted sum of the two
leads' smoothed occupations. Lead i contributes

    p_i(mu) = E_Y[K((Y - (mu - mu_i)) / w)],

with Y logistic of scale kT_i (the Fermi function is its upper tail) and K
the cdf of the broadening kernel of width w; -dp_i/dmu is the same
expectation of the kernel pdf. Each lead is evaluated in its own offset
d = mu - mu_i; a caller that integrates over one lead passes d directly,
so a lead whose kT is many decades below |mu_i| keeps its resolution.

The convolution can be integrated over either of its two distributions,
and each lead takes the narrower one's. A Gaussian lead with sigma < 2 kT_i
is p_i = E_U[F(U - d)], U the kernel and F the logistic cdf of scale kT_i,
and -dp_i/dmu = E_U[F'(U - d)]: each one exp per node, where the kernel
cdf would be scipy's ndtr. The sum runs over u = U/sigma on fixed 10-node
Gauss-Legendre panels of width 2 covering |u| <= 12. Every other lead (a
wider Gaussian, any Lorentzian) integrates over s = Y/kT on the same panels
covering |s| <= 40 (the logistic mass beyond is 4e-18). When the inner
distribution is narrower than 2 outer scales its transition is sharper
than a panel, so the three panels about its centre are replaced by panels
graded geometrically down to its width: at most 3 levels for a Gaussian,
whose inner width is then over half the outer. T = 0 leads (p_i = K(-d/w))
and the delta kernel (p_i = Fermi function) are closed forms. The per-lead
core takes and returns arrays only; the public routines take a float level
or an array of levels, and ``_combined`` is the one place where a float
becomes a one-element array and back, and where a NaN or infinite level is
rejected. Node matrices are built in blocks of at most about 128 kB. The
levels where p crosses targets (1/2 for mu_1/2, each eta for eta-erasure)
are safeguarded Newton solves side by side, one core call per step; one
that stops at adjacent doubles logs at INFO on this module's logger.

The integrals of p are assembled in ``erasure``; this module keeps their
one primitive, the broadening excess ``_broadening_excess``, and the device
facts that every module reads, the attributes of ``DotSystem``. The MAD
cross-check of W-bar runs the same core over a Gaussian's variable with
the inner function ``_Thermal.absolute_moment``, E_Y|Y - x| in closed form.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .kernels import BroadeningKernel, Delta, Gaussian
from .leads import LeadParams
from .numerics import TAIL_CUTOFF_GAUSSIAN, NonConvergence, integrate
from .units import store_finite

LEVEL_TOL = 1e-12  # |p/target - 1| at which occupation_levels stops

_log = logging.getLogger(__name__)


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
    """A dot between two leads. Built with it: ``coupled``, (gamma, lead)
    for each lead with a positive share of the rate (a decoupled one adds
    nothing to p); ``scales``, its positive smoothing widths, a coupled
    lead's kT or the kernel width, none for a step p; ``atoms``, its jumps."""
    source: LeadParams
    drain: LeadParams
    rates: TunnelRates
    kernel: BroadeningKernel

    def __post_init__(self):
        if self.source.chemical_potential < self.drain.chemical_potential:
            raise ValueError("convention requires mu_source >= mu_drain")
        coupled = tuple((gamma, lead) for gamma, lead in (
            (self.rates.gamma_source, self.source),
            (self.rates.gamma_drain, self.drain)) if gamma > 0.0)
        object.__setattr__(self, "coupled", coupled)
        object.__setattr__(self, "scales", tuple(
            s for s in [lead.thermal_energy for _, lead in coupled]
            + [self.kernel.width] if s > 0.0))
        object.__setattr__(self, "atoms", () if self.kernel.width else tuple(
            sorted({lead.chemical_potential for _, lead in coupled
                    if lead.thermal_energy == 0.0})))

    @property
    def bias(self) -> float:
        return self.source.chemical_potential - self.drain.chemical_potential


def dominant_scale(sys: DotSystem) -> float:
    """Largest smoothing scale of the device; 1.0 when it has none."""
    return max(sys.scales, default=1.0)


# -- the fixed-panel rules -----------------------------------------------------

_WINDOW = 40.0  # the thermal rule's cut, in units of kT
_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)
_BLOCK_ELEMENTS = 1 << 14  # 128 kB of float64 per node matrix, cache-sized


def _panel_rule(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    return ((mid[:, None] + half[:, None] * _GL_X).ravel(),
            (half[:, None] * _GL_W).ravel())


class _Rule(NamedTuple):
    """Panels of width 2 on [-window, window] for a standard density: the
    nodes in panel order, their weights times the density, and the density
    itself for the graded panels that replace three of them."""
    window: float
    nodes: np.ndarray
    weights: np.ndarray
    density: Callable[[np.ndarray], np.ndarray]


def _fixed_rule(window: float, density) -> _Rule:
    panels = round(window)  # of width 2
    nodes, weights = _panel_rule(np.linspace(-window, window, panels + 1))
    return _Rule(window, nodes, weights * density(nodes), density)


@dataclass(frozen=True)
class _Thermal:
    """A lead's thermal distribution, logistic of scale kT: the inner
    distribution when a lead is integrated over its kernel. Its cdf at -d is
    the Fermi function of the offset d."""
    width: float  # kT

    def cdf(self, x):
        # the exponent is capped where the cdf is below 1e-304 anyway, so
        # that it cannot overflow; no np.where, which cost half the time
        return 1.0 / (1.0 + np.exp(np.minimum(x / -self.width, 700.0)))

    def pdf(self, x):
        e = np.exp(-np.abs(x) / self.width)
        return e / (self.width * (1.0 + e) ** 2)

    def absolute_moment(self, x):
        """E_Y|Y - x| = |x| + 2 kT ln(1 + e^(-|x|/kT)), the quotient capped
        at 800 where the exponential has underflowed, so it cannot overflow."""
        a = np.abs(x)
        return a + 2.0 * self.width * np.log1p(
            np.exp(np.minimum(a, 800.0 * self.width) / -self.width))


# over s = Y/kT, and over u = U/sigma for a Gaussian kernel U
_THERMAL_RULE = _fixed_rule(_WINDOW, _Thermal(1.0).pdf)
_NORMAL_RULE = _fixed_rule(TAIL_CUTOFF_GAUSSIAN, Gaussian(1.0).pdf)


def _grading_levels(ratio: float) -> int:
    """Halvings from a 4-wide region down to an inner distribution of width
    ratio times the outer scale; 0 when it is at least a panel wide and
    needs no grading."""
    return 0 if ratio >= 2.0 else math.ceil(math.log2(4.0 / ratio))


@lru_cache(maxsize=64)
def _graded_rule(levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Panels on [0, 1] with edges 0, 2^-levels, ..., 1/2, 1."""
    return _panel_rule(np.concatenate(([0.0], 2.0 ** -np.arange(levels, -1, -1))))


def _lead_block(d: np.ndarray, scale: float, outer: _Rule, inner,
                names: tuple[str, ...]) -> list[np.ndarray]:
    """E_V[inner.<name>(scale*V - d)] for a block of offsets d = mu - mu_lead,
    V of the outer rule's standard density."""
    xs = scale * outer.nodes - d[:, None]
    values = [getattr(inner, name)(xs) for name in names]
    levels = _grading_levels(inner.width / scale)
    if not levels:
        return [v @ outer.weights for v in values]
    # replace the three panels about the inner centre c = d/scale (the three
    # at the end of the window when c is in an end panel) by panels graded
    # geometrically from it, down to the inner width
    t, tw = _graded_rule(levels)
    window = outer.window
    c = np.minimum(np.maximum(d / scale, -window), window)
    first = np.minimum(np.maximum(np.floor(0.5 * (c + window)) - 1.0, 0.0),
                       round(window) - 3.0)
    a = 2.0 * first - window
    right, left = (a + 6.0 - c)[:, None], (c - a)[:, None]
    offsets = np.concatenate((right * t, -left * t), axis=1)
    near_w = (np.concatenate((right * tw, left * tw), axis=1)
              * outer.density(c[:, None] + offsets))
    # scale*(c + offset) - d, keeping the small offset exact near the centre
    near_x = scale * offsets + (scale * c - d)[:, None]
    # the node columns of the three replaced panels, which are consecutive
    rows = np.arange(d.size)[:, None]
    cols = (first.astype(int)[:, None] * _GL_X.size
            + np.arange(3 * _GL_X.size))
    out = []
    for name, v in zip(names, values):
        v[rows, cols] = 0.0
        out.append(v @ outer.weights
                   + (getattr(inner, name)(near_x) * near_w).sum(axis=1))
    return out


def _lead_values(d: np.ndarray, kt: float, kernel: BroadeningKernel,
                 names: tuple[str, ...]) -> list[np.ndarray]:
    """[E_Y[kernel.<name>(Y - d)] for name in names], Y logistic of scale kt.

    ``d`` is a 1-D array of lead-local offsets mu - mu_lead; each result has
    its shape. ``names`` are "cdf" for the lead's smoothed occupation and
    "pdf" for its -d/dmu. The expectation runs over the narrower of the two
    distributions: over the kernel's (the Gaussian's) when it has a mean and
    sigma < 2 kt, of the thermal cdf and pdf; otherwise over the thermal
    one, of the kernel's.
    """
    if kt == 0.0:
        # the kernel itself; without one an atom: a step occupation and no
        # density away from mu_lead
        return [0.0 * d if n == "pdf" and kernel.width == 0.0
                else getattr(kernel, n)(-d) for n in names]
    if kernel.width == 0.0:
        # the Fermi closed form, both names from one exp of -|x|: it is all
        # a Delta ramp computes, and _Thermal's one exp per name made those
        # ramps about a tenth slower
        x = d / kt
        e = np.exp(-np.abs(x))
        up = np.where(x >= 0.0, e, 1.0)
        return [up / (1.0 + e) if n == "cdf" else e / (kt * (1.0 + e) ** 2)
                for n in names]
    if math.isfinite(kernel.mad) and kernel.width < 2.0 * kt:
        scale, outer, inner = kernel.width, _NORMAL_RULE, _Thermal(kt)
    else:
        scale, outer, inner = kt, _THERMAL_RULE, kernel
    levels = _grading_levels(inner.width / scale)
    nodes = outer.nodes.size + (2 * _GL_X.size * (levels + 1) if levels else 0)
    rows = max(1, _BLOCK_ELEMENTS // nodes)
    # at least one block, so that no levels give empty results
    blocks = [_lead_block(d[lo:lo + rows], scale, outer, inner, names)
              for lo in range(0, d.size or 1, rows)]
    return [np.concatenate(parts) for parts in zip(*blocks)]


def _combined(mu, sys: DotSystem, names: tuple[str, ...]) -> list:
    """Rate-weighted sums over the leads of _lead_values.

    A float level is evaluated as a one-element array and returned as a
    float; an array of levels gives arrays of its shape. A NaN or infinite
    level is a ValueError.
    """
    scalar = isinstance(mu, (float, int))
    mu = np.asarray(mu, dtype=float)
    flat = mu.ravel()
    if not (math.isfinite(flat[0]) if scalar else np.isfinite(flat).all()):
        raise ValueError(
            f"mu must be finite, got {flat[~np.isfinite(flat)][0]}")
    totals = [0.0] * len(names)
    for gamma, lead in sys.coupled:
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


def occupation_levels(sys: DotSystem, targets, los, his, starts) -> list:
    """The level where p crosses targets[k] in [los[k], his[k]], for each k.

    Each bracket has p(lo) >= target >= p(hi). A safeguarded Newton
    iteration per target from starts[k], with -dp/dmu from the same nodes;
    each step evaluates every level still open in one call, a float when
    one is. It keeps each bracket and bisects whenever a Newton step would
    leave it or would be longer than half the step before last, and stops
    once |p - target| <= LEVEL_TOL * target. A Newton step within an ulp of
    mu goes to the neighbouring double across the target instead: where p
    jumps across the target (the atom of a T = 0 lead) or doubles cannot
    resolve it, the bracket shrinks to adjacent doubles and its end beyond
    the target, hi, is returned and logged at INFO with its |p - target|.
    """
    # per open target: index, target, lo, hi, mu, step, prev_step, p(hi)
    state = [[k, t, lo, hi, mu, hi - lo, hi - lo, math.nan] for k, (
        t, lo, hi, mu) in enumerate(zip(targets, los, his, starts))]
    levels = [math.nan] * len(state)
    # bisection alone splits any bracket of doubles within ~2100 steps
    for _ in range(2200):
        if not state:
            return levels
        if len(state) == 1:  # a float: no array is built here
            values = [_combined(state[0][4], sys, ("cdf", "pdf"))]
        else:
            values = zip(*(v.tolist() for v in _combined(
                np.array([s[4] for s in state]), sys, ("cdf", "pdf"))))
        still = []
        for (k, target, lo, hi, mu, step, prev_step, p_hi), (p, dens) in zip(
                state, values):
            excess = p - target
            if abs(excess) <= LEVEL_TOL * target:
                levels[k] = mu
                continue
            if excess > 0.0:
                lo = mu
            else:
                hi, p_hi = mu, p
            nxt = mu + excess / dens if dens > 0.0 else math.nan
            if not lo < nxt < hi or abs(nxt - mu) > 0.5 * prev_step:
                nxt = (math.nextafter(mu, hi if excess > 0.0 else lo)
                       if abs(nxt - mu) <= math.ulp(mu) else 0.5 * (lo + hi))
            if lo < nxt < hi:
                still.append([k, target, lo, hi, nxt, abs(nxt - mu), step,
                              p_hi])
                continue
            if math.isnan(p_hi):
                (p_hi,) = _combined(hi, sys, ("cdf",))
            _log.info("level with p = %r stopped at adjacent doubles: "
                      "returning %r, |p - target| = %.3g",
                      target, hi, abs(p_hi - target))
            levels[k] = hi
        state = still
    raise NonConvergence(f"level with p = {state[0][1]} did not converge "
                         f"near {state[0][4]}")


def half_occupation_level(sys: DotSystem) -> float:
    """The gate level mu_1/2 with p(mu_1/2) = 1/2, by occupation_levels.

    For the all-atomic device this is the median of the two-atom
    distribution. With gamma_S = 1/2 and a bias, p is 1/2 on the whole bias
    window, and the midpoint is returned with a warning.
    """
    mu_s = sys.source.chemical_potential
    mu_d = sys.drain.chemical_potential
    g_s = sys.rates.gamma_source
    if not sys.scales:
        if g_s < 0.5:
            return mu_d
        if g_s > 0.5 or mu_s == mu_d:
            return mu_s
        warnings.warn("p = 1/2 on the whole bias window; returning midpoint",
                      AmbiguousMedianWarning, stacklevel=2)
        return 0.5 * (mu_s + mu_d)
    scale = dominant_scale(sys)
    mus = [lead.chemical_potential for _, lead in sys.coupled]
    # start inside the lead that carries the majority of the rate
    mu0 = mu_s if g_s > 0.5 else mu_d if g_s < 0.5 else 0.5 * (mu_s + mu_d)
    return occupation_levels(sys, [0.5], [min(mus) - 60.0 * scale],
                             [max(mus) + 60.0 * scale], [mu0])[0]


# -- the broadening excess -----------------------------------------------------
# It belongs with the integrals of p in erasure, but stays here: the traced
# benchmark binds the quadrature as dot_model.integrate as well as
# erasure.integrate, and this is the function that calls it by that name.

def _broadening_excess(c: float, kt: float, kernel: BroadeningKernel) -> float:
    """E_Y[E_U[(U - |c + Y|)^+]]: U the kernel, Y logistic of scale kT.

    What broadening adds to both the integral of p above a level mu and that
    of 1 - p below it, for a lead at c = mu_lead - mu: 0 without a kernel,
    infinite for a kernel without a mean.
    """
    w = kernel.width
    if w == 0.0 or math.isinf(kernel.mad):
        return 0.0 if w == 0.0 else math.inf
    if kt == 0.0:
        return kernel.partial_expectation(abs(c))
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
