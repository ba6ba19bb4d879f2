"""Minimum work cost of erasing a quantum-dot charge bit.

Core model: a single-level dot exchanging electrons with source and drain
electrodes at different temperatures and chemical potentials, with optional
lifetime broadening of the level. The package computes optimal erasure work
costs, the thermal/bias/broadening energy scales that sandwich them, grid
verification of the underlying mean-absolute-deviation inequalities, and
finite-time protocol simulations.
"""

from .dot_model import (AmbiguousMedianWarning, DotSystem, PureStep,
                        TunnelRates, half_occupation_level, occupation,
                        occupation_derivative_density, unbroadened_occupation)
from .dynamics import (ProtocolSchedule, Segment, Trajectory,
                       make_erasure_schedule, simulate)
from .erasure import (BoundReport, DivergentInput, EnergyScales, ErasureCosts,
                      check_bound, energy_scales, erasure_costs,
                      eta_erasure_work)
from .kernels import (BroadeningKernel, Delta, DeltaKernelError, Gaussian,
                      Lorentzian)
from .leads import LeadParams
from .madgrid import (GridPdf, LemmaReport, grid_cross_correlate, grid_mad,
                      grid_median, verify_lemma1, verify_lemma2)
from .numerics import NonConvergence, NumericsConfig, integrate

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
