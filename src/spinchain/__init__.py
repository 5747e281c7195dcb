"""Quasi-exact quantization toolkit for the continuum anisotropic spin chain.

Submodules:

    params      physical constants and derived composites
    stereo      stereographic spin mapping and sigma-model kinetic densities
    classical   static Hamiltonian density and RK4 trajectories in z
    bethe       functional Bethe-ansatz solver of the confluent-Heun reduction
    mathieu     characteristic values / functions and the two Mathieu reductions
    verify      residual checks, finite-difference oracles, equivalence tests
    cli         command-line front end (`spinchain`)
"""

from .errors import (
    ConstraintViolationError,
    ConvergenceError,
    DivergenceError,
    DomainError,
    IncompleteSpectrumError,
)
from .params import PhysicalParams, make_params

__all__ = [
    "ConstraintViolationError",
    "ConvergenceError",
    "DivergenceError",
    "DomainError",
    "IncompleteSpectrumError",
    "PhysicalParams",
    "make_params",
]

__version__ = "0.1.0"
