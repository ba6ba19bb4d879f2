"""The four workloads: seeded inputs, the timed call into chargebit, checks.

Inputs are drawn round by round from randomised Halton points (a seeded
Cranley-Patterson shift per item class), so every prefix of the item list
covers each parameter range evenly and two seeds give corpora of nearly the
same cost. Each round has the same make-up of item classes and a fixed order.
Timed calls look chargebit functions up through their modules at call time,
so the tracer's wrappers see them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import chargebit.cli
import chargebit.dynamics
import chargebit.erasure
import chargebit.madgrid
from chargebit.dot_model import DotSystem, TunnelRates
from chargebit.kernels import Delta, Gaussian
from chargebit.leads import LeadParams

import oracle

cb = chargebit
_PRIMES = (2, 3, 5, 7, 11, 13)


def _radical_inverse(index: int, base: int) -> float:
    value, scale = 0.0, 1.0
    while index:
        scale /= base
        index, digit = divmod(index, base)
        value += digit * scale
    return value


class Stream:
    """Randomised Halton points in [0, 1)^dims for one class of items.

    Coordinate 0 (base 2) is the most evenly covered by any prefix, so each
    workload puts there the parameter its item cost depends on most, and it
    is not shifted: every seed runs the same sequence of that parameter and
    draws the others, so a run's cost hardly depends on its seed.
    """

    def __init__(self, seed: int, tag: int, dims: int):
        self.shift = [0.0] + np.random.default_rng([seed, tag]).random(
            dims - 1).tolist()

    def point(self, index: int) -> list[float]:
        return [(_radical_inverse(index + 1, base) + s) % 1.0
                for base, s in zip(_PRIMES, self.shift)]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _core_system(dev: oracle.Device) -> DotSystem:
    """Core-unit device with total tunnelling rate 1 (times in 1/Gamma)."""
    kernel = Gaussian(dev.sigma) if dev.sigma > 0.0 else Delta()
    return DotSystem(LeadParams(dev.kt_source, dev.mu_source),
                     LeadParams(dev.kt_drain, dev.mu_drain),
                     TunnelRates(dev.gamma_source, 1.0 - dev.gamma_source),
                     kernel)


class Workload:
    name = ""
    round_size = 1
    warmup = 1        # items of the warm-up round run before timing starts
    trace_rounds = 1  # rounds a traced run processes, untraced then traced

    def make_round(self, seed: int, index: int) -> list:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out) -> None:
        raise NotImplementedError

    def check_round(self, seed: int, index: int) -> None:
        """Extra untimed checks made once per round."""


@dataclass(frozen=True)
class SteadyItem:
    device: oracle.Device
    system: DotSystem


class Sweep(Workload):
    """Criterion-5 devices: every scale log-uniform over three decades."""
    name = "sweep"
    round_size = 8
    warmup = 8
    trace_rounds = 40

    def make_round(self, seed, index):
        stream = Stream(seed, 0, 5)
        items = []
        for k in range(index * self.round_size,
                       (index + 1) * self.round_size):
            u = stream.point(k)
            dev = oracle.Device(
                kt_source=_log_uniform(u[1], 1e-3, 1.0),
                kt_drain=_log_uniform(u[2], 1e-3, 1.0),
                mu_source=_log_uniform(u[3], 0.1, 100.0), mu_drain=0.0,
                gamma_source=0.05 + 0.9 * u[4],
                sigma=_log_uniform(u[0], 0.1, 100.0))
            items.append(SteadyItem(dev, _core_system(dev)))
        return items

    def run(self, item):
        # what `chargebit sweep` does per grid point
        scales = cb.erasure.energy_scales(item.system)
        costs = cb.erasure.erasure_costs(item.system, mad_check=False)
        return scales, costs, cb.erasure.check_bound(costs, scales)

    def check(self, item, out):
        scales, costs, bound = out
        oracle.check_scales(item.device, scales.e_therm, scales.e_bias,
                            scales.e_broad)
        oracle.check_steady_state(item.device, costs.w_zero, costs.w_one,
                                  costs.w_bar, costs.mu_half)
        if not bound.satisfied:
            raise oracle.CheckFailed(f"check_bound not satisfied: {bound}")


KERNELS = ("delta", "gaussian", "lorentzian")


def device_from_spec(spec) -> oracle.Device:
    """The device a lab-unit spec describes, converted with CODATA values."""
    rate = spec.rate_source + spec.rate_drain
    sigma = oracle.HBAR_UEV_S * rate if spec.kernel != "delta" else 0.0
    return oracle.Device(oracle.K_B_UEV_PER_K * spec.temperature_source,
                         oracle.K_B_UEV_PER_K * spec.temperature_drain,
                         spec.bias, 0.0, spec.rate_source / rate, sigma)


class Analyze(Workload):
    """Lab-unit devices, one third per kernel, through `chargebit analyze`."""
    name = "analyze"
    round_size = 3
    warmup = 3
    trace_rounds = 12

    def make_round(self, seed, index):
        items = []
        for tag, kernel in enumerate(KERNELS):
            u = Stream(seed, tag, 5).point(index)
            # the Gaussian items' cost follows the total rate, the
            # Lorentzian items' the source temperature and the bias: those
            # take the best-stratified coordinates
            if kernel == "lorentzian":
                u = [u[2], u[3], u[4], u[0], u[1]]
            rate = _log_uniform(u[0], 2e9, 2e12)
            share = 0.05 + 0.9 * u[1]
            items.append(cb.cli.DeviceSpec(
                temperature_source=_log_uniform(u[3], 0.01, 1.0),
                temperature_drain=_log_uniform(u[2], 0.01, 1.0),
                bias=500.0 * u[4],
                rate_source=share * rate,
                rate_drain=(1.0 - share) * rate,
                kernel=kernel))
        return items

    def run(self, item):
        return cb.cli.analyze(item)

    def check(self, item, out):
        if item.kernel == "lorentzian":
            oracle.check_eta_works({
                float(key[len("w_eta_"):-len("_ueV")]): value
                for key, value in out.items() if key.startswith("w_eta_")})
            return
        dev = device_from_spec(item)
        oracle.check_scales(dev, out["e_therm_ueV"], out["e_bias_ueV"],
                            out["e_broad_ueV"])
        oracle.check_steady_state(dev, out["w_zero_ueV"], out["w_one_ueV"],
                                  out["w_bar_ueV"], out["mu_half_ueV"])
        oracle.check_mad_discrepancy(out["w_bar_ueV"],
                                     out["mad_form_discrepancy_ueV"])
        if not out["bound_satisfied"]:
            raise oracle.CheckFailed(f"bound not satisfied: {out}")


@dataclass(frozen=True)
class RampItem:
    device: oracle.Device
    system: DotSystem
    target: str
    tau_gamma: float


# one round: (kernel, target) per item, Delta ramps first so the warm-up
# round's first items are cheap. A Gaussian ramp costs 0.5-4 s, a Delta ramp
# 10-50 ms: the two Gaussian ramps take three quarters of a round's time and
# set items_per_s, while at a twenty-fifth of the items they stay clear of
# item_ms.p90, which falls among the Delta ramps with a dozen beyond it.
_RAMP_ROUND = ((("delta", "zero"), ("delta", "one")) * 12
               + (("gaussian", "zero"),)
               + (("delta", "zero"), ("delta", "one")) * 12
               + (("gaussian", "one"),))


class Protocol(Workload):
    """Erasure ramps, 2 Gaussian and 48 Delta devices per round."""
    name = "protocol"
    round_size = len(_RAMP_ROUND)
    warmup = 2
    trace_rounds = 1

    def make_round(self, seed, index):
        # one stream per (kernel, target), so a ramp's duration does not
        # depend on its place in the round
        classes = sorted(set(_RAMP_ROUND))
        streams = {c: Stream(seed, tag, 6) for tag, c in enumerate(classes)}
        per_round = {c: _RAMP_ROUND.count(c) for c in classes}
        seen = dict.fromkeys(classes, 0)
        items = []
        for c in _RAMP_ROUND:
            u = streams[c].point(index * per_round[c] + seen[c])
            seen[c] += 1
            kernel, target = c
            # the ramp duration sets the cost: it takes coordinate 0. The
            # RK45 step count also follows the ramp span over the narrowest
            # width, so the widths stay within a factor of 1.6 and the bias
            # within 4, and a Gaussian ramp's cost varies little else
            dev = oracle.Device(
                kt_source=_log_uniform(u[2], 0.8, 1.25),
                kt_drain=_log_uniform(u[3], 0.8, 1.25),
                mu_source=_log_uniform(u[4], 2.0, 8.0), mu_drain=0.0,
                gamma_source=0.3 + 0.4 * u[5],
                sigma=_log_uniform(u[1], 0.8, 1.25) if kernel == "gaussian"
                else 0.0)
            items.append(RampItem(dev, _core_system(dev), target,
                                  _log_uniform(u[0], 2.0, 20.0)))
        return items

    def run(self, item):
        # what `chargebit protocol` does, without writing the trajectory
        gamma_tot = item.system.rates.total
        sched = cb.dynamics.make_erasure_schedule(
            item.system, item.target, item.tau_gamma / gamma_tot)
        traj = cb.dynamics.simulate(item.system, sched, 0.05 / gamma_tot)
        return sched, traj

    def check(self, item, out):
        sched, traj = out
        ramp = sched.segments[0]
        p_half = float(oracle.occupation(ramp.mu_start, item.device)[0])
        if abs(p_half - 0.5) > oracle.HALF_OCCUPATION_ABS:
            raise oracle.CheckFailed(
                f"ramp does not start at p = 1/2: p={p_half}")
        gamma_tot = item.system.rates.total
        mine = oracle.check_ramp(item.device, gamma_tot, ramp.mu_start,
                                 ramp.mu_end, ramp.duration, traj.total_work,
                                 traj.final_occupation)
        oracle.check_linear_response(item.device, ramp.mu_start, ramp.mu_end,
                                     ramp.duration * gamma_tot,
                                     traj.total_work, mine.occupation_integral)


# the lemma suite's grid, as `madgrid.random_grid_pdf` lays it out
GRID_LO, GRID_HI, GRID_STEP = -8.0, 8.0, 1.0 / 512.0


class Lemmas(Workload):
    """Trials of `chargebit lemmas`: two sandwich checks on 8193-point grids."""
    name = "lemmas"
    round_size = 16
    warmup = 16
    trace_rounds = 125

    def make_round(self, seed, index):
        return [np.random.default_rng([seed, k])
                for k in range(index * self.round_size,
                               (index + 1) * self.round_size)]

    def run(self, rng):
        # one iteration of cli.run_lemma_suite
        mg = cb.madgrid
        f = mg.random_grid_pdf(rng)
        g = mg.random_grid_pdf(rng)
        rep1 = mg.verify_lemma1(f, g)
        fs = mg.random_symmetric_grid_pdf(rng)
        gs = mg.random_symmetric_grid_pdf(rng)
        p_f = float(rng.uniform(0.05, 0.95))
        rep2 = mg.verify_lemma2(fs, gs, p_f)
        return f, g, rep1, fs, gs, p_f, rep2

    def check(self, rng, out):
        f, g, rep1, fs, gs, p_f, rep2 = out
        oracle.check_lemma1(f, g, rep1.values, rep1.ok)
        oracle.check_lemma2(fs, gs, p_f, rep2.values, rep2.ok)

    def check_round(self, seed, index):
        # a seeded Gaussian pair, whose cross-correlation MAD is closed-form
        rng = np.random.default_rng([seed, index, 1])
        xs = np.arange(GRID_LO, GRID_HI + 0.5 * GRID_STEP, GRID_STEP)
        sigmas = rng.uniform(0.1, 1.0, 2)
        centres = rng.uniform(-3.0, 3.0, 2)
        f, g = (cb.madgrid.GridPdf.from_samples(
            GRID_LO, GRID_STEP, np.exp(-0.5 * ((xs - c) / s) ** 2))
            for c, s in zip(centres, sigmas))
        rep = cb.madgrid.verify_lemma1(f, g)
        oracle.check_lemma1(f, g, rep.values, rep.ok)
        oracle.check_gaussian_cross_mad(sigmas[0], sigmas[1],
                                        rep.values["d_fg"])


WORKLOADS = {w.name: w for w in (Sweep(), Analyze(), Protocol(), Lemmas())}
