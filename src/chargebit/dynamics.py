"""Finite-time driving of the dot level and work accumulation.

The occupation relaxes towards the (broadened) steady state at the total
tunnelling rate, dp/dt = Gamma_tot * (p_ss(mu) - p). Work accumulates as
p * dmu/dt along ramps; an instantaneous level shift freezes p and costs
(mu_end - mu_start) * p.

A linear ramp is integrated exactly for an interpolant of p_ss. Its table of
p_ss and dp_ss/dt comes from a few array calls of the steady-state core,
refined by bisection until the piecewise cubic Hermite interpolant q(t) is
good to about 1e-12. On each table step the equation is linear with a cubic
forcing, so p at the step's end and the integral of p over the step are
exact combinations of the phi-functions of exponential integrators,
phi_k(z) = sum_n z^n / (n + k)!, at z = -Gamma_tot * dt. That is the
particular solution q - q'/Gamma + q''/Gamma^2 - q'''/Gamma^3 plus the
decaying homogeneous term, written without the cancellation the particular
solution suffers on steps much shorter than 1/Gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .dot_model import (DotSystem, _combined, dominant_scale,
                        half_occupation_level, occupation)
from .units import store_finite

STEADY_STATE = "steady"

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
    initial_occupation: float | Literal["steady"] = STEADY_STATE

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
             dt_max: float = math.inf) -> Trajectory:
    """Integrate the relaxation equation through a schedule, tracking work.

    Each linear ramp is sampled at 201 equal times. ``dt_max`` caps the
    steps of a ramp's p_ss table, which the table's own accuracy test
    refines anyway; the integration is exact for the table's interpolant,
    so it sets no stability limit.
    """
    if not dt_max > 0:
        raise ValueError("dt_max must be positive")

    if sched.initial_occupation == STEADY_STATE:
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
    for seg in sched.segments:
        if seg.duration == 0.0:
            work += (seg.mu_end - seg.mu_start) * p
            # quench happens "at" the current time; update the last sample
            mus[-1] = seg.mu_end
            works[-1] = work
            continue
        rate = (seg.mu_end - seg.mu_start) / seg.duration
        t_out = np.linspace(0.0, seg.duration, _SAMPLES + 1)
        seg_p, seg_work = _exact_ramp(sys, seg, rate, t_out, dt_max, p)
        seg_p = np.clip(seg_p, 0.0, 1.0)
        ts.extend(t + t_out[1:])
        mus.extend(seg.mu_start + rate * t_out[1:])
        ps.extend(seg_p[1:])
        works.extend(work + seg_work[1:])
        t += seg.duration
        p = float(seg_p[-1])
        work += float(seg_work[-1])
    return Trajectory(np.asarray(ts), np.asarray(mus),
                      np.asarray(ps), np.asarray(works))


def _exact_ramp(sys: DotSystem, seg: Segment, rate: float, t_out: np.ndarray,
                dt_max: float, p0: float) -> tuple[np.ndarray, np.ndarray]:
    """p and the cumulative work of one linear ramp at the times t_out."""
    t, q, m = _ramp_table(sys, seg, rate, t_out, dt_max)
    h = np.diff(t)
    x = sys.rates.total * h
    # Hermite cubic of step k in u = (t - t_k)/h: q0 + c1 u + c2 u^2 + c3 u^3
    q0, q1 = q[:-1], q[1:]
    c1 = h * m[:-1]
    c2 = 3.0 * (q1 - q0) - 2.0 * c1 - h * m[1:]
    c3 = 2.0 * (q0 - q1) + c1 + h * m[1:]
    f1, f2, f3, f4, f5 = _phi(x)
    # dp/du = x (q - p): p_{k+1} = e^{-x} p_k + x int_0^1 e^{-x(1-u)} q du,
    # and int_0^1 u^j e^{-x(1-u)} du = j! phi_{j+1}(-x)
    p = _relax(p0, x, x * (q0 * f1 + c1 * f2 + 2.0 * c2 * f3 + 6.0 * c3 * f4))
    # int_0^1 p du, from the same solution integrated once more
    mean = p[:-1] * f1 + x * (q0 * f2 + c1 * f3 + 2.0 * c2 * f4
                              + 6.0 * c3 * f5)
    work = np.concatenate(([0.0], np.cumsum(rate * h * mean)))
    at = np.searchsorted(t, t_out)
    return p[at], work[at]


def _ramp_table(sys: DotSystem, seg: Segment, rate: float, t_out: np.ndarray,
                dt_max: float) -> tuple[np.ndarray, ...]:
    """Times t, p_ss and dp_ss/dt for one ramp, one value per node.

    The output samples, split into equal steps no longer than dt_max, are
    refined by bisection: each pass evaluates the midpoints of the steps
    still open in one array call and makes every midpoint a node. A step
    stays open while the Hermite cubic of its parent missed p_ss at the
    midpoint by more than 16 _TABLE_TOL; the cubic's error falls as the
    fourth power of the step, so its own midpoint error is then about
    _TABLE_TOL. p_ss steps at each atom of the device (``DotSystem.atoms``)
    that a moving ramp crosses: two nodes at the same time, the first with
    the limit of p_ss from before it, the second from after it. The
    zero-length step between them changes neither p nor the work.
    """
    sub = max(1, math.ceil((t_out[1] - t_out[0]) / dt_max))
    t = np.append(t_out[:-1, None] + np.outer(np.diff(t_out),
                                              np.arange(sub) / sub),
                  t_out[-1])
    atoms = np.array(sys.atoms if rate != 0.0 else (), dtype=float)
    t_atoms = (atoms - seg.mu_start) / rate
    inside = (t_atoms >= 0.0) & (t_atoms <= seg.duration)
    atoms, t_atoms = atoms[inside], t_atoms[inside]
    t = np.setdiff1d(t, t_atoms)
    mu = np.concatenate((seg.mu_start + rate * t,
                         np.nextafter(atoms, seg.mu_start),
                         np.nextafter(atoms, seg.mu_end)))
    t = np.concatenate((t, t_atoms, t_atoms))
    order = np.argsort(t, kind="stable")
    t, mu = t[order], mu[order]

    def steady(mu):
        p, dens = _combined(mu, sys, ("cdf", "pdf"))
        return np.clip(p, 0.0, 1.0), -rate * dens

    table = np.stack((t, *steady(mu)))
    k = np.arange(t.size - 1)
    while k.size:
        t, q, m = table
        mid = 0.5 * (t[k] + t[k + 1])
        # a step of adjacent doubles cannot be split further, and the step
        # across an atom has no length
        split = (t[k] < mid) & (mid < t[k + 1])
        k, mid = k[split], mid[split]
        q_mid, m_mid = steady(seg.mu_start + rate * mid)
        guess = (0.5 * (q[k] + q[k + 1])
                 + 0.125 * (t[k + 1] - t[k]) * (m[k] - m[k + 1]))
        table = np.insert(table, k + 1, np.stack((mid, q_mid, m_mid)), axis=1)
        new = (k + 1 + np.arange(k.size))[
            np.abs(guess - q_mid) > 16.0 * _TABLE_TOL]
        k = np.sort(np.concatenate((new - 1, new)))
    return tuple(table)


def _relax(p0: float, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """p_0 = p0 and p_{k+1} = e^{-x_k} p_k + g_k, by cumulative sums.

    With X_n = x_0 + ... + x_{n-1}, p_n is the sum of p0 e^{-X_n} and of
    g_k e^{-(X_n - X_{k+1})}. The sums run in blocks over which X grows by at
    most 500, scaled to the block's end, so every exponential stays finite.
    """
    X = np.concatenate(([0.0], np.cumsum(x)))
    p = np.empty(X.size)
    p[0] = p0
    lo = 0
    while lo < x.size:
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
    series = np.full_like(z, _INV_FACT[25])
    for n in range(19, -1, -1):
        series = series * z + _INV_FACT[n + 5]
    low = [series]
    for k in (4, 3, 2, 1):
        low.append(_INV_FACT[k] + z * low[-1])
    low.reverse()
    zs = np.where(x < 2.0, -2.0, z)
    high = [np.exp(zs)]
    for k in range(1, 6):
        high.append((high[-1] - _INV_FACT[k - 1]) / zs)
    return [np.where(x < 2.0, lo, hi) for lo, hi in zip(low, high[1:])]


def make_erasure_schedule(sys: DotSystem, target: Literal["zero", "one"],
                          ramp_duration: float,
                          cutoff_multiplier: float = 40.0) -> ProtocolSchedule:
    """Ramp away from mu_half past the far electrode, then quench back.

    The turning point sits ``cutoff_multiplier`` smoothing scales beyond the
    relevant coupled electrode so the steady-state occupation there is
    negligible; a decoupled lead, which adds nothing to p, does not move it.
    """
    if ramp_duration < 0:
        raise ValueError("ramp_duration must be non-negative")
    mu_half = half_occupation_level(sys)
    scale = dominant_scale(sys)
    mus = [lead.chemical_potential for _, lead in sys.weighted_leads()]
    if target == "zero":
        mu_far = max(mus + [mu_half]) + cutoff_multiplier * scale
    elif target == "one":
        mu_far = min(mus + [mu_half]) - cutoff_multiplier * scale
    else:
        raise ValueError(f"unknown erasure target {target!r}")
    return ProtocolSchedule(
        segments=(Segment(mu_half, mu_far, ramp_duration),
                  Segment(mu_far, mu_half, 0.0)),
        initial_occupation=STEADY_STATE)
