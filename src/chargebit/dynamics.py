"""Finite-time driving of the dot level and work accumulation.

The occupation starts in the (broadened) steady state p_ss at the first level
and relaxes towards p_ss at the total tunnelling rate, dp/dt = Gamma_tot *
(p_ss(mu) - p). Work accumulates as p * dmu/dt along ramps; an instantaneous
level shift freezes p and costs (mu_end - mu_start) * p.

A linear ramp is integrated exactly for an interpolant of p_ss over the ramp
fraction u = t/tau, where dp/du = Gamma_tot tau (p_ss - p): the duration
enters only as c = Gamma_tot tau. The table of p_ss, dp_ss/du and
d2p_ss/du2 (four rows with u) depends on the level path alone; it comes
from a few array calls of the steady-state core for the names "cdf", "pdf"
and "dpdf", refined by bisection until the piecewise quintic Hermite
interpolant q(u) is good to about 1e-12, or to p_ss's rounding if coarser.
On each table step the equation is linear with a quintic forcing, so p at
the step's end and the integral of p over the step are exact combinations
of the phi-functions of exponential integrators, phi_k(z) = sum_n z^n /
(n + k)!, k up to 7, at z = -c du (Hochbruck & Ostermann, Acta Numerica 19,
209 (2010)). That is the particular solution q - q'/c + q''/c^2 - ... plus
the decaying homogeneous term, written without the cancellation the
particular solution suffers on steps much shorter than 1/Gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .dot_model import (DotSystem, _combined, dominant_scale,
                        half_occupation_level, occupation)
from .units import store_finite

_CUTOFF = 40.0      # smoothing scales from the far lead to a ramp's end
_U_OUT = np.linspace(0.0, 1.0, 201)  # the output fractions of each ramp
_TABLE_TOL = 1e-12  # |Hermite quintic - p_ss| at a table step's midpoint


@dataclass(frozen=True)
class Segment:
    mu_start: float
    mu_end: float
    duration: float  # 0 is an instantaneous quench, else a linear ramp

    def __post_init__(self):
        store_finite(self, "mu_start", "mu_end", "duration")
        if self.duration < 0:
            raise ValueError("duration must be non-negative")


@dataclass(frozen=True)
class ProtocolSchedule:
    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        for prev, nxt in zip(self.segments, self.segments[1:]):
            if not math.isclose(prev.mu_end, nxt.mu_start,
                                rel_tol=1e-12, abs_tol=1e-12):
                raise ValueError("segments are not contiguous in mu")


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    mu: np.ndarray
    p: np.ndarray
    work: np.ndarray  # cumulative

    @property
    def total_work(self) -> float:
        return float(self.work[-1])

    @property
    def final_occupation(self) -> float:
        return float(self.p[-1])


def simulate(sys: DotSystem, sched: ProtocolSchedule,
             _unread=None) -> Trajectory:
    """Integrate the relaxation equation through a schedule, tracking work.

    p starts at p_ss of the first segment's start; to start elsewhere, open
    with a quench. Each linear ramp is sampled at 201 equal fractions of its
    duration, which may be any finite positive time. A third positional
    argument is accepted and not read: the ramp table sets its own steps, and
    the integration, exact for the table's interpolant, has no stability limit.
    """
    p = occupation(sched.segments[0].mu_start, sys)
    # the samples of t, mu, p and work: the start's, then each ramp's
    parts = [[np.array([x]) for x in (
        0.0, sched.segments[0].mu_start, p, 0.0)]]
    t = work = 0.0
    for seg in sched.segments:
        if seg.duration == 0.0:
            work += (seg.mu_end - seg.mu_start) * p
            # quench happens "at" the current time; update the last sample
            parts[-1][1][-1], parts[-1][3][-1] = seg.mu_end, work
            continue
        seg_p, seg_work = _exact_ramp(sys, seg, p)
        seg_p = np.clip(seg_p, 0.0, 1.0)
        parts.append([t + seg.duration * _U_OUT[1:],
                      seg.mu_start + (seg.mu_end - seg.mu_start) * _U_OUT[1:],
                      seg_p[1:], work + seg_work[1:]])
        t += seg.duration
        p = float(seg_p[-1])
        work += float(seg_work[-1])
    return Trajectory(*map(np.concatenate, zip(*parts)))


def _exact_ramp(sys: DotSystem, seg: Segment,
                p0: float) -> tuple[np.ndarray, np.ndarray]:
    """p and the cumulative work of one linear ramp at the fractions _U_OUT."""
    u, q, m, a = _ramp_table(sys, seg)
    X = sys.rates.total * seg.duration * u
    h, x = np.diff(u), np.diff(X)
    # Hermite quintic of step k in s = (u - u_k)/h, sum_j c_j s^j: c0..c2
    # from the value, slope and curvature at s = 0, c3..c5 from what those
    # leave of the value (Q), slope (D) and curvature (S) at s = 1
    c0, c1, c2 = q[:-1], h * m[:-1], 0.5 * h * h * a[:-1]
    Q = q[1:] - c0 - c1 - c2
    D = h * m[1:] - c1 - 2.0 * c2
    S = h * h * a[1:] - 2.0 * c2
    # j! c_j for j = 0 ... 5
    terms = (c0, c1, 2.0 * c2, 6.0 * (10.0 * Q - 4.0 * D + 0.5 * S),
             24.0 * (-15.0 * Q + 7.0 * D - S),
             120.0 * (6.0 * Q - 3.0 * D + 0.5 * S))
    f = _phi(x)
    # dp/ds = x (q - p): p_{k+1} = e^{-x} p_k + x int_0^1 e^{-x(1-s)} q ds,
    # and int_0^1 s^j e^{-x(1-s)} ds = j! phi_{j+1}(-x)
    p = _relax(p0, X, x * sum(t * fj for t, fj in zip(terms, f)))
    # int_0^1 p ds, from the same solution integrated once more
    mean = p[:-1] * f[0] + x * sum(t * fj for t, fj in zip(terms, f[1:]))
    span = seg.mu_end - seg.mu_start
    work = np.concatenate(([0.0], np.cumsum(span * h * mean)))
    at = np.searchsorted(u, _U_OUT)
    return p[at], work[at]


def _ramp_table(sys: DotSystem, seg: Segment) -> tuple[np.ndarray, ...]:
    """Fractions u, p_ss, dp_ss/du and d2p_ss/du2 for one ramp, one value
    per node.

    The output fractions are refined by bisection: each pass evaluates the
    midpoints of the steps still open in one array call and makes every
    midpoint a node. A step stays open while the Hermite quintic of its
    parent missed p_ss at the midpoint by more than 64 _TABLE_TOL and more
    than 4 times p_ss's own rounding there; the quintic's error falls as the
    sixth power of the step, so the table is good to about _TABLE_TOL, or to
    p_ss's rounding where that is coarser. p_ss steps at each atom of the
    device (``DotSystem.atoms``) that a moving ramp crosses: two nodes at the
    same u, the first with the limit of p_ss from before it, the second from
    after it. The zero-length step between them changes neither p nor the work.
    Without them the bisection chases each jump to adjacent doubles: a thousand
    passes for a two-atom ramp, not two.
    """
    span = seg.mu_end - seg.mu_start
    atoms = np.array(sys.atoms if span != 0.0 else (), dtype=float)
    u_atoms = (atoms - seg.mu_start) / span
    inside = (u_atoms >= 0.0) & (u_atoms <= 1.0)
    atoms, u_atoms = atoms[inside], u_atoms[inside]
    u = np.setdiff1d(_U_OUT, u_atoms)
    mu = np.concatenate((seg.mu_start + span * u,
                         np.nextafter(atoms, seg.mu_start),
                         np.nextafter(atoms, seg.mu_end)))
    u = np.concatenate((u, u_atoms, u_atoms))
    order = np.argsort(u, kind="stable")
    u, mu = u[order], mu[order]

    def steady(mu):
        p, dens, curv = _combined(mu, sys, ("cdf", "pdf", "dpdf"))
        return np.clip(p, 0.0, 1.0), -span * dens, span * span * curv

    table = np.stack((u, *steady(mu)))
    k = np.arange(u.size - 1)
    while k.size:
        u, q, m, a = table
        mid = 0.5 * (u[k] + u[k + 1])
        # a step of adjacent doubles cannot be split further, and the step
        # across an atom has no length
        split = (u[k] < mid) & (mid < u[k + 1])
        k, mid = k[split], mid[split]
        mu_mid = seg.mu_start + span * mid
        q_mid, m_mid, a_mid = steady(mu_mid)
        h = u[k + 1] - u[k]
        guess = (0.5 * (q[k] + q[k + 1]) + 5.0 / 32.0 * h * (m[k] - m[k + 1])
                 + h * h / 64.0 * (a[k] + a[k + 1]))
        # p_ss's rounding: |dp_ss/dmu| ulp(mu) + eps p_ss; m = 0 if span = 0
        floor = (np.abs(m_mid * np.spacing(mu_mid)) / (abs(span) or 1.0)
                 + np.finfo(float).eps * q_mid)
        table = np.insert(table, k + 1, np.stack((mid, q_mid, m_mid, a_mid)),
                          axis=1)
        new = (k + 1 + np.arange(k.size))[np.abs(guess - q_mid) > np.maximum(
            64.0 * _TABLE_TOL, 4.0 * floor)]
        k = np.sort(np.concatenate((new - 1, new)))
    return tuple(table)


def _relax(p0: float, X: np.ndarray, g: np.ndarray) -> np.ndarray:
    """p_0 = p0 and p_{k+1} = e^{X_k - X_{k+1}} p_k + g_k, by cumulative sums.

    X_n, the exponent at node n from X_0 = 0, is read off the node, not
    summed over thousands of steps whose rounding would drift. p_n is the sum
    of p0 e^{-X_n} and of g_k e^{-(X_n - X_{k+1})}, run in blocks over which
    X grows by at most 500, scaled to the block's end, so every exponential
    stays finite; where e^{X_k - X_{k+1}} underflows, p_{k+1} = g_k exactly.
    A run of steps each over 500 is one expression, its factors by math.exp
    as a block's, with p_k = g_{k-1}: where they differ, both times e^(X_k -
    X_{k+1}) round to 0. p is as good as the ramp table behind g: about
    1e-12, or p_ss's own rounding where that is coarser.
    """
    p = np.empty(X.size)
    p[0] = p0
    lo = 0
    while lo < g.size:
        hi = int(np.searchsorted(X, X[lo] + 500.0, "right")) - 1
        if hi > lo:
            scale = np.exp(X[lo + 1:hi + 1] - X[hi])
            p[lo + 1:hi + 1] = (np.cumsum(g[lo:hi] * scale)
                                + p[lo] * math.exp(X[lo] - X[hi])) / scale
        else:  # a run of steps over 500, to the first one under it or the end
            hi = lo + 1 + int(np.argmax(np.append(
                X[lo + 2:] <= X[lo + 1:-1] + 500.0, True)))
            p[lo + 1:hi + 1] = g[lo:hi] + np.append(p[lo], g[lo:hi - 1]) * [
                math.exp(x) for x in (X[lo:hi] - X[lo + 1:hi + 1]).tolist()]
        lo = hi
    return p


_INV_FACT = [1.0 / math.factorial(n) for n in range(42)]


def _phi(x: np.ndarray) -> list[np.ndarray]:
    """phi_1 ... phi_7 at -x for x >= 0, phi_k(z) = sum_n z^n / (n + k)!.

    phi_k below x = k from the Taylor series of phi_7, to as many terms as
    the largest such x needs (34 at 7), and the stable phi_k = 1/k! +
    z phi_{k+1}; above it from phi_0 = e^z and phi_k = (phi_{k-1} -
    1/(k-1)!)/z, which loses digits where x is below k. The steps of a
    ramp of 2 to 20/Gamma all have x below 1, where the short series and
    no exponential branch make a call a third as long.
    """
    z = -x
    zl = np.maximum(z, -7.0)  # where x >= 7 drops the series: no overflow
    largest = float(x.max(initial=0.0))
    top = min(largest, 7.0)
    # the first term left out is below 1e-17/7!, under 2e-17 phi_7(-top):
    # phi_7(-7) is over half of 1/7!
    terms = 1
    while top ** terms * _INV_FACT[terms + 7] > 1e-17 * _INV_FACT[7]:
        terms += 1
    series = np.full_like(z, _INV_FACT[terms + 6])
    for n in range(terms - 2, -1, -1):
        series = series * zl + _INV_FACT[n + 7]
    low = [series]
    for k in range(6, 0, -1):
        low.append(_INV_FACT[k] + zl * low[-1])
    low.reverse()
    if largest < 1.0:  # below every switch
        return low
    zs = np.minimum(z, -1.0)
    high = [np.exp(zs)]
    for k in range(1, 8):
        high.append((high[-1] - _INV_FACT[k - 1]) / zs)
    return [np.where(x < k, lo, hi)
            for k, lo, hi in zip(range(1, 8), low, high[1:])]


def make_erasure_schedule(sys: DotSystem, target: Literal["zero", "one"],
                          ramp_duration: float) -> ProtocolSchedule:
    """From the steady state at mu_1/2, ramp past the far electrode, then
    quench back.

    The turning point sits _CUTOFF smoothing scales beyond the far coupled
    electrode (or mu_1/2, if further), where p_ss is negligible; a decoupled
    lead, which adds nothing to p, does not move it.
    """
    mu_half = half_occupation_level(sys)
    scale = dominant_scale(sys)
    mus = [lead.chemical_potential for _, lead in sys.coupled] + [mu_half]
    if target == "zero":
        mu_far = max(mus) + _CUTOFF * scale
    elif target == "one":
        mu_far = min(mus) - _CUTOFF * scale
    else:
        raise ValueError(f"unknown erasure target {target!r}")
    return ProtocolSchedule((Segment(mu_half, mu_far, ramp_duration),
                             Segment(mu_far, mu_half, 0.0)))
