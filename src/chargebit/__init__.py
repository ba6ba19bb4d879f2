"""Minimum work cost of erasing a quantum-dot charge bit.

Core model: a single-level dot exchanging electrons with source and drain
electrodes at different temperatures and chemical potentials, with optional
lifetime broadening of the level. The package computes optimal erasure work
costs, the thermal/bias/broadening energy scales that sandwich them, grid
verification of the underlying mean-absolute-deviation inequalities, and
finite-time protocol simulations.
"""

from types import ModuleType as _ModuleType

from .dot_model import (AmbiguousMedianWarning, DotSystem, TunnelRates,
                        half_occupation_level, occupation,
                        unbroadened_occupation)
from .dynamics import (ProtocolSchedule, Segment, Trajectory,
                       make_erasure_schedule, simulate)
from .erasure import (BoundReport, DivergentInput, EnergyScales, ErasureCosts,
                      check_bound, energy_scales, erasure_costs,
                      eta_erasure_work)
from .kernels import BroadeningKernel, Delta, Gaussian, Lorentzian
from .leads import LeadParams
from .madgrid import (GridPdf, LemmaReport, grid_mad, grid_median,
                      verify_lemma1, verify_lemma2)
from .numerics import NonConvergence

# the names imported above, not the submodules that importing them binds
__all__ = sorted(name for name, value in globals().items() if not (
    name.startswith("_") or isinstance(value, _ModuleType)))
__version__ = "0.1.0"
