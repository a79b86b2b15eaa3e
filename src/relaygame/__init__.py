"""Relay-selection security game: solver, channel/throughput models, simulator.

The top level re-exports the names README's "Library use" shows; everything
else is imported from its submodule.
"""

__version__ = "0.1.0"

from .game import solve_equilibrium, verify_equilibrium
from .throughput import SecurityRequirement, min_auth_probability
from .sim import SimConfig, estimate_compromise_curve, run_simulation
from .scenario import load_scenario

__all__ = ["__version__", "load_scenario", "solve_equilibrium", "verify_equilibrium",
           "SimConfig", "run_simulation", "min_auth_probability", "SecurityRequirement",
           "estimate_compromise_curve"]
