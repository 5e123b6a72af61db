"""Numerical toolkit for state-space geometry of mechanics.

The library realizes classical space and phase space as submanifolds of a
Gaussian-kernel Hilbert space, provides the projective-space geometry of
finite-dimensional state vectors (observables as tangent fields, curvature
from commutators, the uncertainty identity), coherent-packet dynamics with the
four-component decomposition of state velocity, the bridge between the normal
distribution on embedded space and the squared-overlap transition rule, and
stochastic measurement walks (spin and cell-lattice position) together with
the statistics needed to test them.  The ``hb`` command line runs named,
seed-reproducible experiments over these modules.
"""

from hilbertbridge.hilbert_core import (
    ClassicalPath,
    Grid,
    GridWaveFunction,
    GridResolutionError,
    KernelSpec,
)
from hilbertbridge.packet_dynamics import GaussianPacket, PotentialField

__all__ = [
    "ClassicalPath",
    "GaussianPacket",
    "Grid",
    "GridResolutionError",
    "GridWaveFunction",
    "KernelSpec",
    "PotentialField",
    "__version__",
]

__version__ = "0.1.0"
