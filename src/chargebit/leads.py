"""Fermi-Dirac electrode distributions and their closed-form primitives.

Temperatures are stored as thermal energies (k_B * T) so the core never sees
kelvin. T = 0 is handled by exact step/ramp branches, not a tiny epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ZeroTemperature(ValueError):
    """Requested a pointwise density for a T = 0 lead (it is a delta)."""


@dataclass(frozen=True)
class LeadParams:
    thermal_energy: float      # k_B * T, as an energy; 0 allowed
    chemical_potential: float  # mu

    def __post_init__(self):
        if self.thermal_energy < 0:
            raise ValueError("thermal_energy must be non-negative")


def fermi_occupation(energy: float, lead: LeadParams) -> float:
    """Average occupation 1/(1 + exp((e - mu)/kT)); exact step at T = 0."""
    d = energy - lead.chemical_potential
    kt = lead.thermal_energy
    if kt == 0.0:
        if d < 0.0:
            return 1.0
        if d > 0.0:
            return 0.0
        return 0.5
    x = d / kt
    # exp of the negative |x| only, so nothing overflows
    if x >= 0.0:
        e = math.exp(-x)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(x))


def fermi_derivative_density(energy: float, lead: LeadParams) -> float:
    """-df/de, the logistic density centred on mu with scale kT."""
    kt = lead.thermal_energy
    if kt == 0.0:
        raise ZeroTemperature("density of a T = 0 lead is a delta function")
    x = (energy - lead.chemical_potential) / kt
    e = math.exp(-abs(x))
    return e / (kt * (1.0 + e) ** 2)


def _softplus(z: float) -> float:
    # log(1 + e^z), overflow-safe
    return max(z, 0.0) + math.log1p(math.exp(-abs(z)))


def occupied_weight_above(level: float, lead: LeadParams) -> float:
    """Integral of the occupation f over [level, inf): kT*log(1+e^((mu-level)/kT)).

    Reduces to max(mu - level, 0) at T = 0.
    """
    kt = lead.thermal_energy
    d = lead.chemical_potential - level
    if kt == 0.0:
        return max(d, 0.0)
    return kt * _softplus(d / kt)


def vacancy_weight_below(level: float, lead: LeadParams) -> float:
    """Integral of (1 - f) over (-inf, level]: kT*log(1+e^((level-mu)/kT))."""
    kt = lead.thermal_energy
    d = level - lead.chemical_potential
    if kt == 0.0:
        return max(d, 0.0)
    return kt * _softplus(d / kt)

