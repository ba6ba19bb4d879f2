"""Shared numerical kernels: adaptive quadrature, tail truncation, root finding.

Everything here is a pure function of its arguments; tolerances travel in a
:class:`NumericsConfig` so callers can tighten or relax them uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from scipy import integrate as _sciint
from scipy import optimize as _sciopt


class NonConvergence(RuntimeError):
    """Quadrature hit the subdivision limit without meeting tolerance."""


class DivergentTail(ArithmeticError):
    """Semi-infinite integral with a tail too heavy to truncate (e.g. ~1/x)."""


class NoBracket(ValueError):
    """Root finder called with same-signed endpoints."""


@dataclass(frozen=True)
class NumericsConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 60
    tail_cutoff_exponential: float = 45.0  # multiples of the decay scale
    tail_cutoff_gaussian: float = 12.0     # multiples of sigma
    root_tol: float = 1e-12  # |p - 1/2| for mu_1/2; the step for find_root

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "tail_cutoff_exponential",
                     "tail_cutoff_gaussian", "root_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.max_subdivisions < 10:
            raise ValueError("max_subdivisions must be at least 10")


DEFAULT_CONFIG = NumericsConfig()


@dataclass(frozen=True)
class ExponentialTail:
    """Integrand magnitude decays like exp(-x/scale)."""
    scale: float


@dataclass(frozen=True)
class GaussianTail:
    """Integrand magnitude decays like exp(-x^2/(2 scale^2))."""
    scale: float


@dataclass(frozen=True)
class AlgebraicTail:
    """Power-law decay; cannot be safely truncated."""


TailClass = ExponentialTail | GaussianTail | AlgebraicTail


class QuadResult(NamedTuple):
    value: float
    error_estimate: float


def integrate(f: Callable[[float], float], a: float, b: float,
              cfg: NumericsConfig = DEFAULT_CONFIG,
              breakpoints: Sequence[float] = ()) -> QuadResult:
    """Adaptive quadrature of f over [a, b].

    ``breakpoints`` marks known kinks or near-discontinuities; intervals are
    pre-split there so the subdivision budget is spent where it matters.
    """
    if not a < b:
        raise ValueError(f"integration interval is empty: [{a}, {b}]")
    # merge breakpoints that are (nearly) coincident with each other or the
    # interval ends: quasi-degenerate subintervals derail the adaptive rule
    eps = 1e-12 * (b - a)
    pts = []
    for p in sorted({p for p in breakpoints if a + eps < p < b - eps}):
        if not pts or p - pts[-1] > eps:
            pts.append(p)
    out = _sciint.quad(
        f, a, b,
        points=pts if pts else None,
        epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
        limit=max(cfg.max_subdivisions, 2 * len(pts) + 10),
        full_output=1,
    )
    value, abserr = out[0], out[1]
    if len(out) > 3:
        # QUADPACK flagged trouble; accept only if the estimate still meets
        # a loosened version of the requested tolerance.
        if abserr > 100.0 * max(cfg.abs_tol, cfg.rel_tol * abs(value)):
            raise NonConvergence(
                f"quadrature on [{a}, {b}] did not converge: {out[3]}")
    return QuadResult(value, abserr)


def integrate_semi_infinite(f: Callable[[float], float], a: float,
                            decay: TailClass,
                            cfg: NumericsConfig = DEFAULT_CONFIG,
                            breakpoints: Sequence[float] = ()) -> QuadResult:
    """Integrate f over [a, inf) by class-aware tail truncation.

    The truncation point is chosen so the discarded tail is below abs_tol for
    the declared decay class. Algebraic tails are refused outright: callers
    that can diverge (Lorentzian broadening) must handle that case explicitly.
    """
    if isinstance(decay, AlgebraicTail):
        raise DivergentTail(
            "algebraic tail cannot be truncated to finite precision")
    if isinstance(decay, ExponentialTail):
        cutoff = cfg.tail_cutoff_exponential * decay.scale
    else:
        cutoff = cfg.tail_cutoff_gaussian * decay.scale
    if cutoff <= 0:
        raise ValueError("tail decay scale must be strictly positive")
    return integrate(f, a, a + cutoff, cfg, breakpoints)


def find_root(f: Callable[[float], float], lo: float, hi: float,
              cfg: NumericsConfig = DEFAULT_CONFIG) -> float:
    """Bracketed root of f on [lo, hi] (Brent, bisection fallback built in)."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise NoBracket(f"f({lo})={flo} and f({hi})={fhi} have the same sign")
    return float(_sciopt.brentq(f, lo, hi, xtol=cfg.root_tol, rtol=8.9e-16))
