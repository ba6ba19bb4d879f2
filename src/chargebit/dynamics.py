"""Finite-time driving of the dot level and work accumulation.

The occupation relaxes towards the (broadened) steady state at the total
tunnelling rate, dp/dt = Gamma_tot * (p_ss(mu) - p). Work accumulates as
p * dmu/dt along ramps; an instantaneous level shift freezes p and costs
(mu_end - mu_start) * p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.integrate import solve_ivp

from .dot_model import DotSystem, dominant_scale, half_occupation_level, occupation
from .numerics import DEFAULT_CONFIG, NumericsConfig

LINEAR = "linear"
INSTANTANEOUS = "instantaneous"
STEADY_STATE = "steady"


class StepTooLarge(ValueError):
    """dt_max exceeds the 0.1/Gamma_tot stability cap."""


@dataclass(frozen=True)
class Segment:
    mu_start: float
    mu_end: float
    duration: float
    shape: Literal["linear", "instantaneous"] = LINEAR

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("duration must be non-negative")
        if self.shape == INSTANTANEOUS and self.duration != 0.0:
            raise ValueError("instantaneous segments must have zero duration")
        if self.shape not in (LINEAR, INSTANTANEOUS):
            raise ValueError(f"unknown segment shape {self.shape!r}")


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


def simulate(sys: DotSystem, sched: ProtocolSchedule, dt_max: float,
             cfg: NumericsConfig = DEFAULT_CONFIG) -> Trajectory:
    """Integrate the relaxation equation through a schedule, tracking work."""
    gamma_tot = sys.rates.total
    if dt_max <= 0:
        raise ValueError("dt_max must be positive")
    if dt_max > 0.1 / gamma_tot:
        raise StepTooLarge(
            f"dt_max={dt_max} exceeds stability cap {0.1 / gamma_tot}")

    if sched.initial_occupation == STEADY_STATE:
        p = occupation(sched.segments[0].mu_start, sys, cfg)
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
        if seg.shape == INSTANTANEOUS or seg.duration == 0.0:
            work += (seg.mu_end - seg.mu_start) * p
            # quench happens "at" the current time; update the last sample
            mus[-1] = seg.mu_end
            works[-1] = work
            continue
        rate = (seg.mu_end - seg.mu_start) / seg.duration

        def rhs(tau, y):
            mu = seg.mu_start + rate * tau
            return [gamma_tot * (occupation(mu, sys, cfg) - y[0]),
                    y[0] * rate]

        # the trajectory samples each ramp at 200 equal steps
        t_eval = np.linspace(0.0, seg.duration, 201)
        sol = solve_ivp(rhs, (0.0, seg.duration), [p, 0.0], method="RK45",
                        rtol=1e-10, atol=1e-12, max_step=dt_max,
                        t_eval=t_eval)
        if not sol.success:
            raise RuntimeError(f"ODE integration failed: {sol.message}")
        seg_p = np.clip(sol.y[0], 0.0, 1.0)
        ts.extend(t + sol.t[1:])
        mus.extend(seg.mu_start + rate * sol.t[1:])
        ps.extend(seg_p[1:])
        works.extend(work + sol.y[1][1:])
        t += seg.duration
        p = float(seg_p[-1])
        work += float(sol.y[1][-1])
    return Trajectory(np.asarray(ts), np.asarray(mus),
                      np.asarray(ps), np.asarray(works))


def make_erasure_schedule(sys: DotSystem, target: Literal["zero", "one"],
                          ramp_duration: float,
                          cutoff_multiplier: float = 40.0,
                          cfg: NumericsConfig = DEFAULT_CONFIG) -> ProtocolSchedule:
    """Ramp away from mu_half past the far electrode, then quench back.

    The turning point sits ``cutoff_multiplier`` smoothing scales beyond the
    relevant electrode so the steady-state occupation there is negligible.
    """
    if ramp_duration < 0:
        raise ValueError("ramp_duration must be non-negative")
    mu_half = half_occupation_level(sys, cfg)
    scale = dominant_scale(sys)
    if target == "zero":
        mu_far = max(sys.source.chemical_potential, mu_half) \
            + cutoff_multiplier * scale
    elif target == "one":
        mu_far = min(sys.drain.chemical_potential, mu_half) \
            - cutoff_multiplier * scale
    else:
        raise ValueError(f"unknown erasure target {target!r}")
    shape = LINEAR if ramp_duration > 0 else INSTANTANEOUS
    return ProtocolSchedule(
        segments=(Segment(mu_half, mu_far, ramp_duration, shape),
                  Segment(mu_far, mu_half, 0.0, INSTANTANEOUS)),
        initial_occupation=STEADY_STATE)


@dataclass(frozen=True)
class ReversibilityReport:
    net_work: float
    p_error: float  # |final p - 1/2|


def reversibility_check(sys: DotSystem, ramp_duration: float,
                        cutoff_multiplier: float = 40.0,
                        dt_max: float | None = None,
                        cfg: NumericsConfig = DEFAULT_CONFIG) -> ReversibilityReport:
    """Erasure to zero followed immediately by its time-reverse.

    Net work tends to zero and the final occupation returns to 1/2 as the
    ramp duration grows; at finite speed the net work is the dissipation of
    the round trip.
    """
    forward = make_erasure_schedule(sys, "zero", ramp_duration,
                                    cutoff_multiplier, cfg)
    up, down = forward.segments
    reverse = (Segment(down.mu_end, down.mu_start, 0.0, INSTANTANEOUS),
               Segment(up.mu_end, up.mu_start, ramp_duration,
                       LINEAR if ramp_duration > 0 else INSTANTANEOUS))
    sched = ProtocolSchedule(forward.segments + reverse, STEADY_STATE)
    if dt_max is None:
        dt_max = 0.05 / sys.rates.total
    traj = simulate(sys, sched, dt_max, cfg)
    return ReversibilityReport(traj.total_work,
                               abs(traj.final_occupation - 0.5))
