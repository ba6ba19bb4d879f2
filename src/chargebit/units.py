"""Physical constants, laboratory-unit conversions and the finite-float check.

The core works exclusively in micro-electronvolts; kelvin and hertz appear
only at the CLI boundary. CODATA values, fixed and never configurable.
"""

import math

K_BOLTZMANN_EV_PER_K = 8.617333262e-5
HBAR_EV_S = 6.582119569e-16

K_BOLTZMANN_UEV_PER_K = K_BOLTZMANN_EV_PER_K * 1e6
HBAR_UEV_S = HBAR_EV_S * 1e6


def thermal_energy_uev(temperature_k: float) -> float:
    """k_B * T in micro-eV for a temperature in kelvin."""
    return K_BOLTZMANN_UEV_PER_K * temperature_k


def broadening_energy_uev(rate_hz: float) -> float:
    """hbar * Gamma in micro-eV for a tunnelling rate in Hz."""
    return HBAR_UEV_S * rate_hz


def store_finite(record, *fields: str) -> None:
    """Store the named fields of a frozen dataclass as Python floats;
    ValueError, naming the field, for NaN or an infinity."""
    for name in fields:
        value = float(getattr(record, name))
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        object.__setattr__(record, name, value)
