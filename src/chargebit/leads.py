"""Electrode parameters and the integrals of a lead's Fermi step.

Temperatures are stored as thermal energies (k_B * T) so the core never sees
kelvin; T = 0 is an exact ramp, not a tiny epsilon. The Fermi function is
the Delta-kernel occupation of ``dot_model``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .units import store_finite


@dataclass(frozen=True)
class LeadParams:
    thermal_energy: float      # k_B * T, as an energy; 0 allowed
    chemical_potential: float  # mu

    def __post_init__(self):
        store_finite(self, "thermal_energy", "chemical_potential")
        if self.thermal_energy < 0:
            raise ValueError("thermal_energy must be non-negative")


def softplus_ramp(d: float, kt: float) -> float:
    """kT*log(1 + e^(d/kT)), overflow-safe; the ramp max(d, 0) at T = 0.

    With d = mu_lead - level it is the integral of the lead's occupation f
    over [level, inf); with d = level - mu_lead, that of 1 - f over
    (-inf, level].
    """
    if kt == 0.0:
        return max(d, 0.0)
    z = d / kt
    return kt * (max(z, 0.0) + math.log1p(math.exp(-abs(z))))


def fermi_integral(mu_lead: float, lo: float, hi: float, kt: float) -> float:
    """Integral of the lead's occupation f over [lo, hi], lo <= hi.

    It equals softplus_ramp(mu_lead - lo) - softplus_ramp(mu_lead - hi),
    but that difference of two ramps cancels when the window is narrow next
    to kT, or lies far below mu_lead where both ramps are nearly linear. A
    lead above hi is more than half full on the window, so the window width
    less the integral of 1 - f (the mirrored lead's f) is taken. Otherwise
    the result is kT*log1p(f(hi)*expm1(width/kT)) for windows narrower than
    700 kT, where expm1 cannot overflow, and the ramp difference for wider
    ones, which then cannot cancel.
    """
    if mu_lead > hi:
        return (hi - lo) - fermi_integral(-mu_lead, -hi, -lo, kt)
    if kt == 0.0:
        return max(mu_lead - lo, 0.0)
    d = (hi - lo) / kt
    if d < 700.0:
        e = math.exp((mu_lead - hi) / kt)
        return kt * math.log1p(e / (1.0 + e) * math.expm1(d))
    return softplus_ramp(mu_lead - lo, kt) - softplus_ramp(mu_lead - hi, kt)
