"""Adaptive quadrature at one fixed tolerance.

``integrate`` runs QUADPACK at the tolerances of ``DEFAULT_CONFIG``; no
caller sets others. :class:`NumericsConfig` is the record of those
tolerances, and building one validates its fields.

``integrate`` imports ``scipy.integrate.quad`` when it is called, not at
module level: scipy.integrate takes about 0.3 s to import, and only the
broadening excess of W0/W1 and the eta work under a Gaussian call it.
After the first call the import is a ``sys.modules`` lookup. A result that
QUADPACK flagged but that meets the loosened tolerance is accepted and
logged as a WARNING on this module's logger; no handler is configured here.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

_log = logging.getLogger(__name__)


class NonConvergence(RuntimeError):
    """A quadrature or level solve ran out of steps short of tolerance."""


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

# Where infinite integration ranges are cut: the mass discarded beyond this
# multiple of a Gaussian sigma is below the default abs_tol.
TAIL_CUTOFF_GAUSSIAN = 12.0


class QuadResult(NamedTuple):
    value: float
    error_estimate: float


def integrate(f: Callable[[float], float], a: float, b: float,
              breakpoints: Sequence[float] = ()) -> QuadResult:
    """Adaptive quadrature of f over [a, b].

    ``breakpoints`` marks known kinks or near-discontinuities; intervals are
    pre-split there so the subdivision budget is spent where it matters.
    """
    from scipy.integrate import quad

    cfg = DEFAULT_CONFIG
    if not a < b:
        raise ValueError(f"integration interval is empty: [{a}, {b}]")
    # merge breakpoints that are (nearly) coincident with each other or the
    # interval ends: quasi-degenerate subintervals derail the adaptive rule
    eps = 1e-12 * (b - a)
    pts = []
    for p in sorted({p for p in breakpoints if a + eps < p < b - eps}):
        if not pts or p - pts[-1] > eps:
            pts.append(p)
    out = quad(
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
        _log.warning("quadrature on [%r, %r] accepted with abserr %.3g: %s",
                     a, b, abserr, out[3])
    return QuadResult(value, abserr)
