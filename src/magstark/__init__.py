"""Desk-scale spectral experiments for the 2D magnetic Stark operator.

The package discretizes H = (Dx - By)^2 + Dy^2 + eps x + V(x, y) on a
truncated rectangle and runs quantitative experiments: the trace-formula
identity for the spectral shift function, its eps-scaling law, commutator
positivity and limiting-absorption probes, and weighted trace-norm bounds.
"""

from .errors import (CapacityError, ConfigurationError, DecayCertificateError,
                     GapNotFoundError, GeometryError, MagstarkError,
                     NearSingularityError, SpectralWindowError)
from .grid import DiscreteOperator, GridSpec, d2_op, make_grid
from .hamiltonian import FieldParams, assemble
from .potentials import (PotentialSpec, certify_decay, clamp_amplitude,
                         eval_potential)
from .spectral import (BumpFunction, SpectralDecomposition, eigendecompose,
                       weight_dx_s)
from .traces import (weighted_resolvent_norms, frobenius_norm, nuclear_norm,
                     operator_norm, tracebound_sweep, resolvent_chain_tracenorm, resolvent)

__version__ = "0.1.0"
