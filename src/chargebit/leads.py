"""Electrode parameters.

Temperatures are stored as thermal energies (k_B * T) so the core never sees
kelvin; T = 0 is an exact ramp, not a tiny epsilon. The Fermi function is
the Delta-kernel occupation of ``dot_model``, and its integrals are in
``erasure``.
"""

from __future__ import annotations

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
