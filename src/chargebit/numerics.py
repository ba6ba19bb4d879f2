"""Adaptive quadrature and the tolerances its callers share.

Everything here is a pure function of its arguments; tolerances travel in a
:class:`NumericsConfig` so callers can tighten or relax them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from scipy import integrate as _sciint


class NonConvergence(RuntimeError):
    """Quadrature hit the subdivision limit without meeting tolerance."""


@dataclass(frozen=True)
class NumericsConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 60

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.max_subdivisions < 10:
            raise ValueError("max_subdivisions must be at least 10")


DEFAULT_CONFIG = NumericsConfig()

# Where infinite integration ranges are cut: the mass discarded beyond these
# multiples of an exponential decay scale or of a Gaussian sigma is below the
# default abs_tol.
TAIL_CUTOFF_EXPONENTIAL = 45.0
TAIL_CUTOFF_GAUSSIAN = 12.0


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
