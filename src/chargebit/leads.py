"""Electrode parameters and the integral of a lead's Fermi step.

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
