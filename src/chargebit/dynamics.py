"""Finite-time driving of the dot level and work accumulation.

The occupation relaxes towards the (broadened) steady state at the total
tunnelling rate, dp/dt = Gamma_tot * (p_ss(mu) - p). Work accumulates as
p * dmu/dt along ramps; an instantaneous level shift freezes p and costs
(mu_end - mu_start) * p.

A linear ramp is integrated exactly for an interpolant of p_ss over the ramp
fraction u = t/tau, where dp/du = Gamma_tot tau (p_ss - p): the duration
enters only as c = Gamma_tot tau. The table of p_ss and dp_ss/du depends on
the level path alone; it comes from a few array calls of the steady-state
core, refined by bisection until the piecewise cubic Hermite interpolant
q(u) is good to about 1e-12. On each table step the equation is linear with
a cubic forcing, so p at the step's end and the integral of p over the step
are exact combinations of the phi-functions of exponential integrators,
phi_k(z) = sum_n z^n / (n + k)!, at z = -c du. That is the particular
solution q - q'/c + q''/c^2 - q'''/c^3 plus the decaying homogeneous term,
written without the cancellation the particular solution suffers on steps
much shorter than 1/Gamma.
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
_SAMPLES = 200      # output steps per ramp
_TABLE_TOL = 1e-12  # |Hermite cubic - p_ss| at the midpoint of a table step


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
    initial_occupation: float | None = None  # None: p_ss at the start

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

    p starts at the schedule's ``initial_occupation``, or at p_ss of the
    first segment's start when that is None. Each linear ramp is sampled at
    201 equal fractions of its duration, which may be any finite positive
    time. A third positional argument is accepted and not read: the ramp
    table sets its own steps, and the integration, exact for the table's
    interpolant, has no stability limit.
    """
    if sched.initial_occupation is None:
        p = occupation(sched.segments[0].mu_start, sys)
    else:
        p = float(sched.initial_occupation)
        if not 0.0 <= p <= 1.0:
            raise ValueError("initial occupation must lie in [0, 1]")

    ts = [0.0]
    mus = [sched.segments[0].mu_start]
    ps = [p]
    works = [0.0]
    t = 0.0
    work = 0.0
    u_out = np.linspace(0.0, 1.0, _SAMPLES + 1)
    for seg in sched.segments:
        if seg.duration == 0.0:
            work += (seg.mu_end - seg.mu_start) * p
            # quench happens "at" the current time; update the last sample
            mus[-1] = seg.mu_end
            works[-1] = work
            continue
        seg_p, seg_work = _exact_ramp(sys, seg, u_out, p)
        seg_p = np.clip(seg_p, 0.0, 1.0)
        ts.extend(t + seg.duration * u_out[1:])
        mus.extend(seg.mu_start + (seg.mu_end - seg.mu_start) * u_out[1:])
        ps.extend(seg_p[1:])
        works.extend(work + seg_work[1:])
        t += seg.duration
        p = float(seg_p[-1])
        work += float(seg_work[-1])
    return Trajectory(np.asarray(ts), np.asarray(mus),
                      np.asarray(ps), np.asarray(works))


def _exact_ramp(sys: DotSystem, seg: Segment, u_out: np.ndarray,
                p0: float) -> tuple[np.ndarray, np.ndarray]:
    """p and the cumulative work of one linear ramp at the fractions u_out."""
    u, q, m = _ramp_table(sys, seg, u_out)
    X = sys.rates.total * seg.duration * u
    h, x = np.diff(u), np.diff(X)
    # Hermite cubic of step k in s = (u - u_k)/h: q0 + c1 s + c2 s^2 + c3 s^3
    q0, q1 = q[:-1], q[1:]
    c1 = h * m[:-1]
    c2 = 3.0 * (q1 - q0) - 2.0 * c1 - h * m[1:]
    c3 = 2.0 * (q0 - q1) + c1 + h * m[1:]
    f1, f2, f3, f4, f5 = _phi(x)
    # dp/ds = x (q - p): p_{k+1} = e^{-x} p_k + x int_0^1 e^{-x(1-s)} q ds,
    # and int_0^1 s^j e^{-x(1-s)} ds = j! phi_{j+1}(-x)
    p = _relax(p0, X, x * (q0 * f1 + c1 * f2 + 2.0 * c2 * f3 + 6.0 * c3 * f4))
    # int_0^1 p ds, from the same solution integrated once more
    mean = p[:-1] * f1 + x * (q0 * f2 + c1 * f3 + 2.0 * c2 * f4
                              + 6.0 * c3 * f5)
    span = seg.mu_end - seg.mu_start
    work = np.concatenate(([0.0], np.cumsum(span * h * mean)))
    at = np.searchsorted(u, u_out)
    return p[at], work[at]


def _ramp_table(sys: DotSystem, seg: Segment,
                u_out: np.ndarray) -> tuple[np.ndarray, ...]:
    """Fractions u, p_ss and dp_ss/du for one ramp, one value per node.

    The output fractions are refined by bisection: each pass evaluates the
    midpoints of the steps still open in one array call and makes every
    midpoint a node. A step stays open while the Hermite cubic of its parent
    missed p_ss at the midpoint by more than 16 _TABLE_TOL; the cubic's
    error falls as the fourth power of the step, so its own midpoint error
    is then about _TABLE_TOL. p_ss steps at each atom of the device
    (``DotSystem.atoms``) that a moving ramp crosses: two nodes at the same
    u, the first with the limit of p_ss from before it, the second from
    after it. The zero-length step between them changes neither p nor the
    work.
    """
    span = seg.mu_end - seg.mu_start
    atoms = np.array(sys.atoms if span != 0.0 else (), dtype=float)
    u_atoms = (atoms - seg.mu_start) / span
    inside = (u_atoms >= 0.0) & (u_atoms <= 1.0)
    atoms, u_atoms = atoms[inside], u_atoms[inside]
    u = np.setdiff1d(u_out, u_atoms)
    mu = np.concatenate((seg.mu_start + span * u,
                         np.nextafter(atoms, seg.mu_start),
                         np.nextafter(atoms, seg.mu_end)))
    u = np.concatenate((u, u_atoms, u_atoms))
    order = np.argsort(u, kind="stable")
    u, mu = u[order], mu[order]

    def steady(mu):
        p, dens = _combined(mu, sys, ("cdf", "pdf"))
        return np.clip(p, 0.0, 1.0), -span * dens

    table = np.stack((u, *steady(mu)))
    k = np.arange(u.size - 1)
    while k.size:
        u, q, m = table
        mid = 0.5 * (u[k] + u[k + 1])
        # a step of adjacent doubles cannot be split further, and the step
        # across an atom has no length
        split = (u[k] < mid) & (mid < u[k + 1])
        k, mid = k[split], mid[split]
        q_mid, m_mid = steady(seg.mu_start + span * mid)
        guess = (0.5 * (q[k] + q[k + 1])
                 + 0.125 * (u[k + 1] - u[k]) * (m[k] - m[k + 1]))
        table = np.insert(table, k + 1, np.stack((mid, q_mid, m_mid)), axis=1)
        new = (k + 1 + np.arange(k.size))[
            np.abs(guess - q_mid) > 16.0 * _TABLE_TOL]
        k = np.sort(np.concatenate((new - 1, new)))
    return tuple(table)


def _relax(p0: float, X: np.ndarray, g: np.ndarray) -> np.ndarray:
    """p_0 = p0 and p_{k+1} = e^{X_k - X_{k+1}} p_k + g_k, by cumulative sums.

    X_n, the exponent at node n from X_0 = 0, is read off the node, not
    summed over thousands of steps whose rounding would drift. p_n is the sum
    of p0 e^{-X_n} and of g_k e^{-(X_n - X_{k+1})}, run in blocks over which
    X grows by at most 500, scaled to the block's end, so every exponential
    stays finite.
    """
    p = np.empty(X.size)
    p[0] = p0
    lo = 0
    while lo < g.size:
        hi = max(lo + 1, int(np.searchsorted(X, X[lo] + 500.0, "right")) - 1)
        scale = np.exp(X[lo + 1:hi + 1] - X[hi])
        p[lo + 1:hi + 1] = (np.cumsum(g[lo:hi] * scale)
                            + p[lo] * math.exp(X[lo] - X[hi])) / scale
        lo = hi
    return p


_INV_FACT = [1.0 / math.factorial(n) for n in range(26)]


def _phi(x: np.ndarray) -> list[np.ndarray]:
    """phi_1 ... phi_5 at -x for x >= 0, phi_k(z) = sum_n z^n / (n + k)!.

    A Taylor series of phi_5 and the stable phi_k = 1/k! + z phi_{k+1} below
    x = 2; above it, phi_k = (phi_{k-1} - 1/(k-1)!)/z from phi_0 = e^z.
    """
    z = -x
    zl = np.maximum(z, -2.0)  # where x >= 2 drops the series: no overflow
    series = np.full_like(z, _INV_FACT[25])
    for n in range(19, -1, -1):
        series = series * zl + _INV_FACT[n + 5]
    low = [series]
    for k in (4, 3, 2, 1):
        low.append(_INV_FACT[k] + zl * low[-1])
    low.reverse()
    zs = np.minimum(z, -2.0)
    high = [np.exp(zs)]
    for k in range(1, 6):
        high.append((high[-1] - _INV_FACT[k - 1]) / zs)
    return [np.where(x < 2.0, lo, hi) for lo, hi in zip(low, high[1:])]


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
