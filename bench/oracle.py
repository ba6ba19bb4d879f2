"""Reference computations made apart from chargebit, and the output checks.

Nothing here imports chargebit. The steady-state occupation is evaluated from
closed-form Fermi functions and a fixed composite Gauss-Legendre rule over the
kernel variable, p_i(mu) = integral of phi(z) F((mu - mu_i + sigma z)/kT) dz,
which is the order of integration opposite to the program's (it integrates the
kernel CDF against the logistic density with adaptive QUADPACK). Every check
raises :class:`CheckFailed` with the quantities that disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

LN2 = math.log(2.0)
# CODATA 2018, as the CLI converts lab units
K_B_UEV_PER_K = 8.617333262e-5 * 1e6
HBAR_UEV_S = 6.582119569e-16 * 1e6

# tolerances of the checks
BOUND_SLACK_REL = 1e-9          # max <= w_bar <= sum, as check_bound allows
MEAN_IDENTITY_REL = 1e-10       # W0 - W1 = mean of -dp/dmu minus mu_half
HALF_OCCUPATION_ABS = 1e-8      # |p(mu_half) - 1/2|
MAD_DISCREPANCY_REL = 1e-8      # |w_bar - MAD/2| <= tol * (1 + w_bar)
SCALE_REL = 1e-12               # program's energy scales against ours
RAMP_WORK_REL = 1e-7            # own integration vs simulate, per unit of ramp
RAMP_OCCUPATION_ABS = 1e-8
LINEAR_RESPONSE_TOL = 1e-3
# the exact excess differs from the slow limit by 2 (1 + tau Gamma) p_end,
# with p_end ~ e^{-tau Gamma} the occupation left at the far end; that term
# reaches 2e-3 at tau Gamma = 12 on some Delta devices, 1e-4 at 16
LINEAR_RESPONSE_MIN_TAU = 16.0
GRID_MAD_REL = 1e-9
GAUSSIAN_MAD_ABS = 2e-5         # grid step 1/512: O(step^2) discretisation


class CheckFailed(AssertionError):
    """A program output disagreed with the reference computation."""


@dataclass(frozen=True)
class Device:
    """A dot in core units (micro-eV); sigma = 0 means no broadening."""
    kt_source: float
    kt_drain: float
    mu_source: float
    mu_drain: float
    gamma_source: float
    sigma: float = 0.0

    @property
    def gamma_drain(self) -> float:
        return 1.0 - self.gamma_source

    def leads(self):
        return ((self.gamma_source, self.mu_source, self.kt_source),
                (self.gamma_drain, self.mu_drain, self.kt_drain))


def _panels(lo: float, hi: float, width: float, order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.arange(lo, hi + 0.5 * width, width)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    return ((mid[:, None] + half[:, None] * x).ravel(),
            (half[:, None] * w).ravel())


def fermi(x):
    """1 / (1 + e^x), to an absolute 1e-16, without overflow."""
    return 0.5 - 0.5 * np.tanh(0.5 * np.asarray(x))


def _phi(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def gauss_upper(x):
    """P(Z > x) for a standard normal Z."""
    return 0.5 * erfc(np.asarray(x) / math.sqrt(2.0))


# Fermi window in s = (energy - mu_lead)/kT, cut where 1 - F and F are e^-36;
# F is analytic within |Im s| < pi, so 10 nodes per panel of width 2 suffice
_WINDOW = 36.0
_S_NODES, _S_WEIGHTS = _panels(-_WINDOW, _WINDOW, 2.0, 10)
_S_WEIGHTED_FERMI = _S_WEIGHTS * fermi(_S_NODES)
# Gaussian kernel variable, mass beyond |z| = 8.5 is 1e-17
_Z_NODES, _Z_WEIGHTS = _panels(-8.5, 8.5, 1.0, 10)
_Z_WEIGHTED_PHI = _Z_WEIGHTS * _phi(_Z_NODES)
_CHUNK = 256  # levels per block, so the node matrices stay small


def lead_occupation(mu, mu_lead: float, kt: float, sigma: float):
    """integral of g_sigma(u) f_lead(mu + u) du for an array of levels mu."""
    d = np.atleast_1d(np.asarray(mu, dtype=float)) - mu_lead
    if sigma == 0.0:
        if kt == 0.0:
            return np.where(d < 0.0, 1.0, np.where(d > 0.0, 0.0, 0.5))
        return fermi(d / kt)
    if kt == 0.0:
        return gauss_upper(d / sigma)
    out = np.empty_like(d)
    for lo in range(0, d.size, _CHUNK):
        dc = d[lo:lo + _CHUNK]
        if kt <= sigma:
            # the Fermi step is the narrow factor: below the window F = 1 and
            # the kernel mass there is a Gaussian tail; quadrature across it
            r = kt / sigma
            z_star = -dc / sigma
            out[lo:lo + _CHUNK] = gauss_upper(r * _WINDOW - z_star) + r * (
                _phi(z_star[:, None] + r * _S_NODES) @ _S_WEIGHTED_FERMI)
        else:
            out[lo:lo + _CHUNK] = (fermi((dc[:, None] + sigma * _Z_NODES) / kt)
                                   @ _Z_WEIGHTED_PHI)
    return out


def occupation(mu, dev: Device):
    """Broadened steady-state occupation p(mu), vectorised over mu."""
    return sum(g * lead_occupation(mu, m, kt, dev.sigma)
               for g, m, kt in dev.leads())


def energy_scales(dev: Device) -> tuple[float, float, float]:
    e_therm = LN2 * (dev.gamma_source * dev.kt_source
                     + dev.gamma_drain * dev.kt_drain)
    e_bias = 0.5 * min(dev.gamma_source, dev.gamma_drain) * (
        dev.mu_source - dev.mu_drain)
    e_broad = dev.sigma / math.sqrt(2.0 * math.pi)
    return e_therm, e_bias, e_broad


def _fail(what: str, **values) -> None:
    shown = ", ".join(f"{k}={v!r}" for k, v in values.items())
    raise CheckFailed(f"{what}: {shown}")


def check_scales(dev: Device, e_therm: float, e_bias: float,
                 e_broad: float) -> None:
    for name, mine, theirs in zip(("e_therm", "e_bias", "e_broad"),
                                  energy_scales(dev),
                                  (e_therm, e_bias, e_broad)):
        if abs(mine - theirs) > SCALE_REL * max(abs(mine), 1e-300):
            _fail(f"{name} differs from the closed form",
                  expected=mine, got=theirs)


def check_steady_state(dev: Device, w_zero: float, w_one: float,
                       w_bar: float, mu_half: float) -> None:
    """Sandwich bound, mean identity and p(mu_half) = 1/2."""
    scales = energy_scales(dev)
    lower, upper = max(scales), sum(scales)
    slack = BOUND_SLACK_REL * upper
    if not lower - slack <= w_bar <= upper + slack:
        _fail("w_bar outside [max, sum] of the energy scales",
              w_bar=w_bar, lower=lower, upper=upper)
    if abs(0.5 * (w_zero + w_one) - w_bar) > 1e-14 * w_bar:
        _fail("w_bar is not the mean of W0 and W1",
              w_zero=w_zero, w_one=w_one, w_bar=w_bar)
    mean = dev.gamma_source * dev.mu_source + dev.gamma_drain * dev.mu_drain
    size = max(w_zero, w_one, abs(dev.mu_source), abs(dev.mu_drain),
               abs(mu_half), upper)
    if abs((w_zero - w_one) - (mean - mu_half)) > MEAN_IDENTITY_REL * size:
        _fail("W0 - W1 differs from the mean of -dp/dmu minus mu_half",
              w_zero=w_zero, w_one=w_one, mean=mean, mu_half=mu_half)
    p = float(occupation(mu_half, dev)[0])
    if abs(p - 0.5) > HALF_OCCUPATION_ABS:
        _fail("p(mu_half) is not 1/2", mu_half=mu_half, p=p)


def check_mad_discrepancy(w_bar: float, discrepancy: float) -> None:
    if not discrepancy <= MAD_DISCREPANCY_REL * (1.0 + w_bar):
        _fail("|w_bar - MAD/2| too large", w_bar=w_bar,
              discrepancy=discrepancy)


def check_eta_works(works: dict) -> None:
    """w_eta finite, positive and strictly increasing as eta decreases."""
    etas = sorted(works, reverse=True)
    values = [works[e] for e in etas]
    for eta, w in zip(etas, values):
        if not (math.isfinite(w) and w > 0.0):
            _fail("w_eta not finite and positive", eta=eta, w=w)
    for (e1, w1), (e2, w2) in zip(zip(etas, values),
                                  zip(etas[1:], values[1:])):
        if not w2 > w1:
            _fail("w_eta does not grow as eta shrinks", eta=(e1, e2),
                  w=(w1, w2))


# -- finite-time ramps ---------------------------------------------------------

@dataclass(frozen=True)
class RampResult:
    total_work: float   # ramp work plus the quench back to mu_start
    final_occupation: float
    occupation_integral: float  # integral of p_ss over the ramp


def integrate_ramp(dev: Device, gamma_tot: float, mu_start: float,
                   mu_end: float, duration: float) -> RampResult:
    """Classical RK4 at a fixed step for dp/dt = Gamma (p_ss - p).

    The level moves linearly from mu_start to mu_end and is quenched back; the
    occupation starts in the steady state. p_ss is evaluated at every stage
    time in one vectorised call, and the integral of p_ss over the ramp uses
    Simpson's rule on the same nodes.
    """
    span = mu_end - mu_start
    widths = [max(kt, dev.sigma) for _, _, kt in dev.leads()]
    width = min(w for w in widths if w > 0.0)
    n = max(64, math.ceil(20.0 * gamma_tot * duration),
            math.ceil(10.0 * abs(span) / width))
    h = duration / n
    mus = mu_start + span * np.linspace(0.0, 1.0, 2 * n + 1)
    s = occupation(mus, dev)
    rate = span / duration
    g = gamma_tot
    p = float(s[0])
    work = 0.0
    for k in range(n):
        s0, s1, s2 = s[2 * k], s[2 * k + 1], s[2 * k + 2]
        k1 = g * (s0 - p)
        p2 = p + 0.5 * h * k1
        k2 = g * (s1 - p2)
        p3 = p + 0.5 * h * k2
        k3 = g * (s1 - p3)
        p4 = p + h * k3
        k4 = g * (s2 - p4)
        work += h * rate * (p + 2.0 * p2 + 2.0 * p3 + p4) / 6.0
        p += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    p_end = min(1.0, max(0.0, p))
    work += (mu_start - mu_end) * p_end
    step = span / n
    integral = step / 6.0 * float(s[0:-1:2].sum() + 4.0 * s[1::2].sum()
                                  + s[2::2].sum())
    return RampResult(work, p_end, integral)


def check_ramp(dev: Device, gamma_tot: float, mu_start: float, mu_end: float,
               duration: float, total_work: float,
               final_occupation: float) -> RampResult:
    """Own integration against simulate's total work and final occupation."""
    mine = integrate_ramp(dev, gamma_tot, mu_start, mu_end, duration)
    if abs(mine.total_work - total_work) > RAMP_WORK_REL * abs(
            mu_end - mu_start):
        _fail("total work differs from the RK4 reference",
              expected=mine.total_work, got=total_work)
    if abs(mine.final_occupation - final_occupation) > RAMP_OCCUPATION_ABS:
        _fail("final occupation differs from the RK4 reference",
              expected=mine.final_occupation, got=final_occupation)
    return mine


def check_linear_response(dev: Device, mu_start: float, mu_end: float,
                          tau_gamma: float, total_work: float,
                          occupation_integral: float) -> None:
    """Slow erasure to zero: tau*Gamma*(W - W0) -> dmu * (1/2 - p_ss(mu_end)).

    The dissipation of a slow ramp is (v/Gamma) times the change of p
    (Sivak & Crooks, PRL 108, 190602, 2012). W0, the quasistatic work of the
    same ramp and quench, is the integral of p_ss over the ramp minus
    dmu * p_ss(mu_end).
    """
    if not (mu_end > mu_start and tau_gamma >= LINEAR_RESPONSE_MIN_TAU):
        return
    span = mu_end - mu_start
    p_end = float(occupation(mu_end, dev)[0])
    excess = tau_gamma * (total_work - (occupation_integral - span * p_end))
    predicted = span * (0.5 - p_end)
    if abs(excess / predicted - 1.0) > LINEAR_RESPONSE_TOL:
        _fail("slow ramp misses the linear-response dissipation",
              tau_gamma=tau_gamma, excess=excess, predicted=predicted)


# -- grid densities ------------------------------------------------------------

def grid_median(densities: np.ndarray, origin: float, step: float) -> float:
    """Level where the CDF of cell-centred samples, linear in each cell,
    reaches 1/2."""
    cdf_right = step * np.cumsum(densities)
    i = int(np.argmax(cdf_right >= 0.5))
    below = cdf_right[i] - step * densities[i]
    return origin + (i - 0.5) * step + (0.5 - below) / densities[i]


def grid_mad(densities: np.ndarray, origin: float, step: float) -> float:
    m = grid_median(densities, origin, step)
    xs = origin + step * np.arange(densities.size)
    return step * float(np.sum(np.abs(xs - m) * densities))


def cross_correlate(f: np.ndarray, g: np.ndarray, step: float) -> np.ndarray:
    """h[k] = sum_j f[j] g[j - k + len(g) - 1] * step, normalised, by numpy FFT."""
    n = f.size + g.size - 1
    size = 1 << (n - 1).bit_length()
    h = np.fft.irfft(np.fft.rfft(f, size) * np.fft.rfft(g[::-1], size),
                     size)[:n]
    h = np.clip(h, 0.0, None)
    return h / (step * h.sum())


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def check_lemma1(f, g, values: dict, ok: bool) -> None:
    """f, g are GridPdf-like (origin, step, densities)."""
    if not ok:
        _fail("lemma 1 reported a violation", values=values)
    step = f.step
    mine = {"d_f": grid_mad(f.densities, f.origin, step),
            "d_g": grid_mad(g.densities, g.origin, step)}
    h = cross_correlate(f.densities, g.densities, step)
    h_origin = f.origin - g.origin - (g.densities.size - 1) * step
    mine["d_fg"] = grid_mad(h, h_origin, step)
    for key, value in mine.items():
        if not _close(value, values[key], GRID_MAD_REL):
            _fail(f"lemma 1 {key} differs from the numpy MAD",
                  expected=value, got=values[key])


def check_lemma2(f, g, p_f: float, values: dict, ok: bool) -> None:
    if not ok:
        _fail("lemma 2 reported a violation", values=values)
    step = f.step
    d_f = grid_mad(f.densities, f.origin, step)
    d_g = grid_mad(g.densities, g.origin, step)
    shift = int(round((g.origin - f.origin) / step))
    lo, hi = min(0, shift), max(f.densities.size, shift + g.densities.size)
    mix = np.zeros(hi - lo)
    mix[-lo:-lo + f.densities.size] += p_f * f.densities
    mix[shift - lo:shift - lo + g.densities.size] += (1.0 - p_f) * g.densities
    d_mix = grid_mad(mix, f.origin + lo * step, step)
    # the program orders the pair by median; MADs are symmetric in it
    pair = sorted((d_f, d_g))
    if not (_close(pair[0], min(values["d_f"], values["d_g"]), GRID_MAD_REL)
            and _close(pair[1], max(values["d_f"], values["d_g"]),
                       GRID_MAD_REL)):
        _fail("lemma 2 component MADs differ from the numpy MAD",
              expected=(d_f, d_g), got=(values["d_f"], values["d_g"]))
    if not _close(d_mix, values["d_mix"], GRID_MAD_REL):
        _fail("lemma 2 mixture MAD differs from the numpy MAD",
              expected=d_mix, got=values["d_mix"])


def check_gaussian_cross_mad(sigma_f: float, sigma_g: float,
                             d_fg: float) -> None:
    """MAD of the cross-correlation of two Gaussians, sqrt(2/pi)*sigma."""
    exact = math.sqrt(2.0 / math.pi) * math.hypot(sigma_f, sigma_g)
    if abs(d_fg - exact) > GAUSSIAN_MAD_ABS:
        _fail("Gaussian cross-correlation MAD misses the closed form",
              expected=exact, got=d_fg)
