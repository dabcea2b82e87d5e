"""Jacobi-Sobolev orthogonal polynomials: construction, ladder operators,
second-order ODE, and electrostatic classification of zero configurations.

The five library modules are imported here, so `import jacobisobolev`
loads each of them; perfbench/spans.py relies on that to find the
functions it traces.
"""

from .electrostatics import ElectroError, FieldDecomposition, classify, decompose_field, gradient
from .jacobi import InvalidMeasure, JacobiParams, classical_ode_residual
from .ladder import LadderData, StructureError, build_ladder, ladder_residual, ode_residual, recurrence_residual
from .numkernel import NumKernelError, Poly, precision_digits, tol
from .sobolev import (
    MassPoint,
    SobolevError,
    SobolevFamily,
    SobolevProduct,
    build_family,
    inner_sobolev,
    is_sequentially_ordered,
    zeros_of,
)

__all__ = [
    "ElectroError",
    "FieldDecomposition",
    "InvalidMeasure",
    "JacobiParams",
    "LadderData",
    "MassPoint",
    "NumKernelError",
    "Poly",
    "SobolevError",
    "SobolevFamily",
    "SobolevProduct",
    "StructureError",
    "build_family",
    "build_ladder",
    "classical_ode_residual",
    "classify",
    "decompose_field",
    "gradient",
    "inner_sobolev",
    "is_sequentially_ordered",
    "ladder_residual",
    "ode_residual",
    "precision_digits",
    "recurrence_residual",
    "tol",
    "zeros_of",
]

__version__ = "0.1.0"
