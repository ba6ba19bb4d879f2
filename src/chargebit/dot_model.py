"""Two-electrode quantum-dot device model.

The steady-state occupation is the tunnelling-ratio-weighted sum of the two
leads' smoothed occupations. Lead i contributes

    p_i(mu) = E_Y[K((Y - (mu - mu_i)) / w)],

with Y logistic of scale kT_i (the Fermi function is its upper tail) and K
the cdf of the broadening kernel of width w. The core's names are "cdf"
for p_i, "pdf" for -dp_i/dmu, the same expectation of the kernel pdf, and
"dpdf" for +d2p_i/dmu2, that of the pdf's derivative. Each lead is
evaluated in its own offset d = mu - mu_i; a caller that integrates over
one lead passes d directly, so a lead whose kT is many decades below
|mu_i| keeps its resolution.

The convolution can be integrated over either of its two distributions,
and each lead takes the narrower one's. A Gaussian lead with sigma < 2 kT_i
is p_i = E_U[F(U - d)], U the kernel and F the logistic cdf of scale kT_i,
and -dp_i/dmu = E_U[F'(U - d)]: each one exp per node, where the kernel
cdf would be scipy's ndtr. The sum runs over u = U/sigma on fixed 10-node
Gauss-Legendre panels of width 2 covering |u| <= 12. Every other lead (a
wider Gaussian, any Lorentzian) integrates over s = Y/kT on the same panels
covering |s| <= 40. The logistic mass beyond is 4e-18, but far above a
lead under a wide Gaussian p_i is carried beyond it, and near 40 kT above
a lead under a Lorentzian narrower than 2 kT it can exceed the kernel's
algebraic tail: there that tail is added in closed form. When the inner
distribution is narrower than 2 outer scales its transition is sharper
than a panel, so the three panels about its centre are replaced by panels
graded geometrically down to its width, on which "dpdf" is taken by parts:
at most 3 levels for a Gaussian, whose inner width is then over half the
outer. T = 0 leads (p_i = K(-d/w)) and the delta kernel (p_i = Fermi
function) are closed forms. The device's ``plan`` groups the leads on one
path, and a group is one pass on its leads' stacked rows, each lead summed
in the shapes it has alone. The core takes and returns arrays only;
``_combined`` is the one place where a float becomes a one-element array
and back, and where a NaN or infinite level is rejected. Node matrices are
built in blocks of at most about 128 kB. The levels where p crosses targets
(1/2 for mu_1/2, each eta for eta-erasure) are safeguarded Newton solves
side by side, one core call per step; one that stops at adjacent doubles
logs at INFO on this module's logger.

The integrals of p are assembled in ``erasure``; this module keeps the
broadening excess of W0/W1 ``_broadening_excess`` (folded onto |Y|), the
logistic's eta remainder ``_Thermal.remainder``, and the device facts that
every module reads, the attributes of ``DotSystem``. The MAD cross-check of
W-bar runs the same core over a Gaussian's variable with the inner function
``_Thermal.absolute_moment``, E_Y|Y - x| in closed form.
"""

from __future__ import annotations

import logging
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .kernels import (_GL_X, _GL_W, BroadeningKernel, Delta, Gaussian,
                      _narrow_remainder)
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
    nothing to p); ``scales``, the positive ones of its coupled leads' kT
    and kernel width; ``atoms``, its jumps; ``plan``, its groups of leads."""
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
        object.__setattr__(self, "plan", _plan(coupled, self.kernel))

    @property
    def bias(self) -> float:
        return self.source.chemical_potential - self.drain.chemical_potential


def dominant_scale(sys: DotSystem) -> float:
    """Largest smoothing scale of the device; 1.0 when it has none."""
    return max(sys.scales, default=1.0)


# -- the fixed-panel rules -----------------------------------------------------

_WINDOW = 40.0  # the thermal rule's cut, in units of kT
_BLOCK_ELEMENTS = 1 << 14  # 128 kB of float64 per node matrix, cache-sized


def _panel_rule(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    return ((mid[:, None] + half[:, None] * _GL_X).ravel(),
            (half[:, None] * _GL_W).ravel())


class _Rule(NamedTuple):
    """Panels of width 2 on [-window, window] for a standard density: the
    nodes in panel order, their weights times the density, the density
    itself for the graded panels that replace three of them, and its score
    -density'/density for derivatives taken by parts."""
    window: float
    nodes: np.ndarray
    weights: np.ndarray
    density: Callable[[np.ndarray], np.ndarray]
    score: Callable[[np.ndarray], np.ndarray]


def _fixed_rule(window: float, density, score) -> _Rule:
    panels = round(window)  # of width 2
    nodes, weights = _panel_rule(np.linspace(-window, window, panels + 1))
    return _Rule(window, nodes, weights * density(nodes), density, score)


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

    def dpdf(self, x):
        e = np.exp(-np.abs(x) / self.width)
        return (np.sign(x) * (e - 1.0) * e
                / (self.width * self.width * (1.0 + e) ** 3))

    def remainder(self, a, b, width):
        """B(a, b) = kT (softplus(b/kT) - softplus(a/kT)) - width F(a),
        numpy: with e = e^(-|a|/kT) and g(x) = kT ln(1 + e^(-|x|/kT)),
        max(b, 0) + g(b) - g(a) - width e/(1 + e) for a <= 0, and from the
        upper tail g(b) - g(a) + width e/(1 + e) for a > 0, where 1 - F(a)
        would cancel. A window narrower than 2 kT takes the shared rule. At
        T = 0, the step, F(a) is its limit from below, p at mu_eta+."""
        kt = self.width
        if kt == 0.0:
            return np.where(a > 0.0, 0.0, np.maximum(b, 0.0))
        e = np.exp(-np.abs(a) / kt)
        tail = width * e / (1.0 + e)
        out = kt * (np.log1p(np.exp(-np.abs(b) / kt)) - np.log1p(e)) + np.where(
            a > 0.0, tail, np.maximum(b, 0.0) - tail)
        narrow = width < 2.0 * kt
        if narrow.any():
            out[narrow] = _narrow_remainder(self.pdf, a[narrow], width[narrow])
        return out

    def absolute_moment(self, x):
        """E_Y|Y - x| = |x| + 2 kT ln(1 + e^(-|x|/kT)), the quotient capped
        at 800 where the exponential has underflowed, so it cannot overflow."""
        a = np.abs(x)
        return a + 2.0 * self.width * np.log1p(
            np.exp(np.minimum(a, 800.0 * self.width) / -self.width))


# over s = Y/kT, and over u = U/sigma for a Gaussian kernel U
_THERMAL_RULE = _fixed_rule(_WINDOW, _Thermal(1.0).pdf,
                            lambda s: np.tanh(0.5 * s))
_NORMAL_RULE = _fixed_rule(TAIL_CUTOFF_GAUSSIAN, Gaussian(1.0).pdf,
                           lambda u: u)


def _grading_levels(ratio: float) -> int:
    """Halvings from a 4-wide region down to an inner distribution of width
    ratio times the outer scale; 0 when it is at least a panel wide and
    needs no grading."""
    return 0 if ratio >= 2.0 else math.ceil(math.log2(4.0 / ratio))


@lru_cache(maxsize=64)
def _graded_rule(levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Panels on [0, 1] with edges 0, 2^-levels, ..., 1/2, 1."""
    return _panel_rule(np.concatenate(([0.0], 2.0 ** -np.arange(levels, -1, -1))))


def _lead_block(d: np.ndarray, kt, kernel: BroadeningKernel, outer: _Rule,
                levels: int, names: tuple[str, ...]) -> list[np.ndarray]:
    """E_V[inner.<name>(scale*V - d)] for offsets d = mu - mu_lead of a lead
    of kT ``kt``, or a row per lead and kt a column; V of the outer rule,
    graded ``levels`` deep: U/sigma (inner thermal) or Y/kT (the kernel).

    On graded panels "dpdf", the inner pdf's derivative, is taken by parts
    over the whole line, E_V[score(V) inner.pdf(scale*V - d)] / scale, from
    the pdf at the same nodes. Straight on, the odd derivative of an inner
    much sharper than the outer cancels (by 2e-8 of its peak under a
    Lorentzian a millionth of kT wide), and where it straddles the end of
    the window it is cut in half; by parts, an inner much wider than the
    outer cancels instead, so ungraded blocks take it straight.
    """
    scale, inner = ((kernel.width, _Thermal(kt)) if outer is _NORMAL_RULE
                    else (kt, kernel))
    d = d[..., None]
    xs = scale * outer.nodes - d
    if not levels:
        return [getattr(inner, name)(xs) @ outer.weights for name in names]
    values = {name: getattr(inner, name)(xs) for name in dict.fromkeys(
        "pdf" if name == "dpdf" else name for name in names)}
    # replace the three panels about the inner centre c = d/scale (the three
    # at the end of the window when c is in an end panel) by panels graded
    # geometrically from it, down to the inner width
    t, tw = _graded_rule(levels)
    window = outer.window
    c = np.minimum(np.maximum(d / scale, -window), window)
    first = np.minimum(np.maximum(np.floor(0.5 * (c + window)) - 1.0, 0.0),
                       round(window) - 3.0)
    a = 2.0 * first - window
    right, left = a + 6.0 - c, c - a
    offsets = np.concatenate((right * t, -left * t), axis=-1)
    near_v = c + offsets
    near_w = (np.concatenate((right * tw, left * tw), axis=-1)
              * outer.density(near_v))
    # scale*(c + offset) - d, keeping the small offset exact near the centre
    near_x = scale * offsets + (scale * c - d)
    # the nodes of the three replaced panels, consecutive in each row
    at = (np.arange(0, xs.size, xs.shape[-1]).reshape(first.shape)
          + first.astype(int) * _GL_X.size + np.arange(3 * _GL_X.size))
    near = {}
    for name, v in values.items():
        v.put(at, 0.0)
        near[name] = getattr(inner, name)(near_x)
    out = []
    for name in names:
        if name == "dpdf":
            weights = outer.weights * outer.score(outer.nodes)
            by_parts = values["pdf"] @ weights + (
                near["pdf"] * near_w * outer.score(near_v)).sum(axis=-1)
            out.append((by_parts[..., None] / scale)[..., 0])
        else:
            out.append(values[name] @ outer.weights
                       + (near[name] * near_w).sum(axis=-1))
    return out


_Group = namedtuple("_Group", "path levels tail gammas mus kts")


def _plan(coupled: tuple, kernel: BroadeningKernel) -> tuple[_Group, ...]:
    """The coupled leads in order, grouped by path: "step" (T = 0), "fermi"
    (no kernel), or the narrower distribution's rule graded ``levels`` deep,
    "normal" (over U, sigma < 2 kT) or "thermal" (over Y/kT), with the
    leads' gamma, mu and kT as columns. A thermal lead's window ``tail`` can
    matter under a Gaussian, whose e^(sigma^2/2kT^2) carries p beyond the
    window once d - sigma^2/kT exceeds about 40 kT, and under a kernel
    without a mean narrower than 2 kT, whose algebraic tail near d = 40 kT
    can be below the e^(-40) of the Fermi part."""
    w, mean = kernel.width, math.isfinite(kernel.mad)
    groups = {}
    for gamma, lead in coupled:
        kt = lead.thermal_energy
        key = (("step" if kt == 0.0 else "fermi", 0) if kt == 0.0 or w == 0.0
               else ("normal", _grading_levels(kt / w)) if mean and w < 2 * kt
               else ("thermal", _grading_levels(w / kt)))
        groups.setdefault(key, []).append((gamma, lead.chemical_potential, kt))
    return tuple(
        _Group(path, levels, path == "thermal" and (mean or levels > 0),
               *np.array(leads).T[..., None].copy())
        for (path, levels), leads in groups.items())


def _lead_values(d: np.ndarray, group: _Group, kernel: BroadeningKernel,
                 names: tuple[str, ...]) -> list[np.ndarray]:
    """[E_Y[kernel.<name>(Y - d)] for name in names], Y logistic of scale kT,
    for a group's offsets d = mu - mu_lead, a row per lead, each result of
    their shape: "cdf" for p_i, "pdf" for -dp_i/dmu, "dpdf" for d2p_i/dmu2."""
    if group.path == "step":
        # the kernel itself; without one an atom: a step occupation and no
        # density away from mu_lead
        return [0.0 * d if n != "cdf" and kernel.width == 0.0
                else getattr(kernel, n)(-d) for n in names]
    levels, kts = group.levels, group.kts
    if group.path == "fermi":
        # the Fermi closed form, every name from one exp of -|x|: it is all
        # a Delta ramp computes, and _Thermal's one exp per name made those
        # ramps about a tenth slower
        x = d / kts
        e = np.exp(-np.abs(x))
        return [np.where(x >= 0.0, e, 1.0) / (1.0 + e) if n == "cdf"
                else e / (kts * (1.0 + e) ** 2) if n == "pdf"
                else np.sign(x) * (1.0 - e) * e / (kts * kts * (1.0 + e) ** 3)
                for n in names]
    outer = _NORMAL_RULE if group.path == "normal" else _THERMAL_RULE
    nodes = outer.nodes.size + (2 * _GL_X.size * (levels + 1) if levels else 0)
    rows = max(1, _BLOCK_ELEMENTS // nodes)
    # the leads share a block while all their levels fit in one, else each
    # takes blocks of its own, at least one, so no levels give empty results
    if d.size <= rows:
        return _lead_block(d, kts[..., None], kernel, outer, levels, names)
    blocks = [_lead_block(row[lo:lo + rows], kt, kernel, outer, levels, names)
              for row, kt in zip(d, kts[:, 0].tolist())
              for lo in range(0, row.size or 1, rows)]
    return [(np.concatenate(parts) if len(parts) > 1 else parts[0]).reshape(
        d.shape) for parts in zip(*blocks)]


_TAIL_MASS = math.exp(-_WINDOW)  # the logistic mass beyond the window
# a total below this (times w^j for the j-th derivative) may take a tail
# above its rounding
_TAIL_REACH = _TAIL_MASS / np.finfo(float).eps
_DERIVATIVE = {"cdf": 0, "pdf": 1, "dpdf": 2}


def _add_window_tails(totals: list, flat: np.ndarray, sys: DotSystem,
                      names: tuple[str, ...]) -> None:
    """Add to the rate-weighted totals what the window cuts of each lead
    integrated over s = Y/kT, on the levels where it may exceed the
    rounding of a total.

    Above the lead (d > 0) the cut is the integral of e^(-s) K(kT s - d)
    over s > 40, by parts e^(-40) (K(a) + M(a)), a = 40 kT - d and M the
    kernel's ``tail_moment``. -d/dd of that is e^(-40) M/kT, and the next
    derivative e^(-40) (M/kT - K'(a))/kT where the block takes "dpdf"
    straight (a Gaussian lead). A graded block (a Lorentzian lead) takes it
    by parts, of the logistic slope, whose cut is e^(-40) M/kT^2 alone: the
    edge term is in the window's sum already. Below the lead the pdf and its
    derivative take the mirror image, and p is 1 to rounding. The tail is
    at most about e^(-40)/w^j in the j-th name, below the rounding of a
    total above e^(-40)/eps/w^j. d2p/dmu2 crosses zero where p inflects, as
    at mu_1/2, but its rounding is that of -dp/dmu over w, so it follows
    the pdf's gate when both are requested.
    """
    groups = [group for group in sys.plan if group.tail]
    if not groups:
        return
    kernel = sys.kernel
    w, mean = kernel.width, math.isfinite(kernel.mad)
    rows = False
    for n, t in zip(names, totals):
        if n != "dpdf" or "pdf" not in names:
            rows = rows | (np.abs(t) < _TAIL_REACH / w ** _DERIVATIVE[n])
    if not np.count_nonzero(rows):
        return
    for group in groups:  # a row per lead, added in turn
        mass, kt = group.gammas * _TAIL_MASS, group.kts
        d = flat[rows] - group.mus
        a = _WINDOW * kt - np.abs(d)
        m = mass * kernel.tail_moment(a, kt)
        edge = mass * kernel.pdf(a) if mean and "dpdf" in names else 0.0
        for n, t in zip(names, totals):
            t[rows] = sum(
                np.where(d > 0.0, mass * kernel.cdf(a) + m, 0.0)
                if n == "cdf" else m / kt if n == "pdf"
                else np.sign(d) * (m / kt - edge) / kt, t[rows])


def _combined(mu, sys: DotSystem, names: tuple[str, ...]) -> list:
    """Rate-weighted sums over the leads of _lead_values, with the tails
    that the thermal rule's window cuts (_add_window_tails).

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
    for group in sys.plan:
        # 0.0 + gamma_S v_S + gamma_D v_D, a row of v per lead
        values = _lead_values(flat - group.mus, group, sys.kernel, names)
        totals = [sum(group.gammas * v, t) for t, v in zip(totals, values)]
    _add_window_tails(totals, flat, sys, names)
    if scalar:
        return [float(t[0]) for t in totals]
    return [t.reshape(mu.shape) for t in totals]


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
    each step evaluates every level still open in one array call. It keeps
    each bracket and bisects whenever a Newton step would leave it or would
    be longer than half the step before last, and stops once |p - target|
    <= LEVEL_TOL * target. A Newton step within an ulp of mu goes to the
    neighbouring double across the target instead: where p jumps across the
    target (the atom of a T = 0 lead) or doubles cannot resolve it, the
    bracket shrinks to adjacent doubles and its end beyond the target, hi,
    is returned and logged at INFO with its |p - target|.
    """
    # per open target: index, target, lo, hi, mu, step, prev_step, p(hi)
    state = [[k, t, lo, hi, mu, hi - lo, hi - lo, math.nan] for k, (
        t, lo, hi, mu) in enumerate(zip(targets, los, his, starts))]
    levels = [math.nan] * len(state)
    # bisection alone splits any bracket of doubles within ~2100 steps
    for _ in range(2200):
        if not state:
            return levels
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
_LOGISTIC_BREAKS = (3.0, 8.0, 20.0)  # where the weight e^-s falls by decades

def _broadening_excess(c: float, kt: float, kernel: BroadeningKernel) -> float:
    """E_Y[E_U[(U - |c + Y|)^+]]: U the kernel, Y logistic of scale kT.

    What broadening adds to both the integral of p above a level mu and that
    of 1 - p below it, for a lead at c = mu_lead - mu: 0 without a kernel,
    infinite for a kernel without a mean. One integral over s = |Y|/kT of
    the weight times ``folded_partial_expectation``, cut at its reach past
    the kink s = |c|/kT, split there and at ``_LOGISTIC_BREAKS``.
    """
    w = kernel.width
    if w == 0.0 or math.isinf(kernel.mad):
        return 0.0 if w == 0.0 else math.inf
    c = abs(c)
    if kt == 0.0:
        return kernel.partial_expectation(c)
    s_star = c / kt
    reach = TAIL_CUTOFF_GAUSSIAN * w / kt
    lo, hi = max(0.0, s_star - reach), min(_WINDOW, s_star + reach)
    if not lo < hi:
        return 0.0
    pair = kernel.folded_partial_expectation

    def f(s):
        e = math.exp(-s)
        return e / (1.0 + e) ** 2 * pair(c, kt * s)
    return integrate(f, lo, hi, breakpoints=(s_star, *_LOGISTIC_BREAKS)).value
