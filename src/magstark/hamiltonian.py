"""Assembly of the discrete magnetic Stark operators.

One function builds every member of the family

    H(B, eps) = (Dx - B Y)^2 + Dy^2 + eps X + V

in Landau gauge: H0 is the member with V = 0 and Q the member with eps = 0.
Dx, Dy are centered first differences, Dx^2, Dy^2 three-point second
differences with Dirichlet truncation, and X, Y, V diagonal.  Expanding the
square, (Dx - B Y)^2 = Dx^2 - 2B Y Dx + B^2 Y^2; the cross term couples the
y-diagonal with an x-stencil, so the two factors commute exactly and no
symmetrization is needed.  With cx = 1/hx^2, cy = 1/hy^2, c1 = 1/(2hx), the
row of grid point (i, j) carries a 5-point stencil plus the cross term:

    diagonal        (2cx + 2cy) + (B y_j)^2 + eps x_i + V_ij
    (i +- 1, j)     -cx + i (-2B y_j)(-+c1)
    (i, j +- 1)     -cy

The operator holds these coefficients and nothing else, so assembly costs
O(N) time and memory; the solvers write the dense arrays they need (M, z - M,
the real form, its parity blocks) straight from them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import DiscreteOperator, GridSpec


@dataclass(frozen=True)
class FieldParams:
    """Finite magnetic strength b > 0 and electric strength eps >= 0."""

    b: float
    eps: float = 0.0

    def __post_init__(self):
        if not 0 < self.b < np.inf:
            raise ConfigurationError(f"b must be positive and finite, got {self.b}")
        if not 0 <= self.eps < np.inf:
            raise ConfigurationError(f"eps must be nonnegative and finite, got {self.eps}")


@np.errstate(over="ignore", invalid="ignore")  # the finiteness check reports it
def assemble(grid: GridSpec, fields: FieldParams, v) -> DiscreteOperator:
    """H(B, eps) = (Dx - B Y)^2 + Dy^2 + eps X + diag(v).

    ``v`` is the sampled potential on the flat grid (length N); pass zeros
    for H0, and ``FieldParams(b)`` (eps = 0) for Q.
    """
    b = fields.b
    cx = 1.0 / (grid.hx * grid.hx)
    cy = 1.0 / (grid.hy * grid.hy)
    c1 = 1.0 / (2.0 * grid.hx)
    xf, yf = grid.meshes()
    diag = (2.0 * cx + 2.0 * cy) + (b * yf) ** 2 + fields.eps * xf + v
    # the x coupling of grid row j, between (i, j) and (i + 1, j)
    cross = -2.0 * b * grid.y
    xhop = np.repeat((-cx + 1j * (cross * -c1))[:, None], grid.nx - 1, axis=1)
    if not (np.isfinite(diag).all() and np.isfinite(xhop).all()):
        raise ConfigurationError(f"the operator has a non-finite coefficient "
                                 f"at b = {b}, eps = {fields.eps}")
    return DiscreteOperator(diag, xhop, -cy, grid)
