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

It is written straight into one complex N x N array, so assembly holds a
single dense matrix, whose size in bytes is checked before it is allocated.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigurationError
from .grid import DiscreteOperator, GridSpec

DENSE_BYTES_MAX = 16 * 6400 ** 2  # a complex N x N matrix up to 80 x 80 points


@dataclass(frozen=True)
class FieldParams:
    """Magnetic strength b > 0 and electric strength eps >= 0."""

    b: float
    eps: float = 0.0

    def __post_init__(self):
        if not self.b > 0:
            raise ConfigurationError(f"b must be positive, got {self.b}")
        if self.eps < 0:
            raise ConfigurationError(f"eps must be nonnegative, got {self.eps}")


def assemble(grid: GridSpec, fields: FieldParams, v) -> DiscreteOperator:
    """H(B, eps) = (Dx - B Y)^2 + Dy^2 + eps X + diag(v).

    ``v`` is the sampled potential on the flat grid (length N); pass zeros
    for H0, and ``FieldParams(b)`` (eps = 0) for Q.
    """
    nx, n = grid.nx, grid.n_points
    if 16 * n * n > DENSE_BYTES_MAX:
        raise CapacityError(f"a dense {n} x {n} complex matrix exceeds the "
                            f"dense limit of {DENSE_BYTES_MAX} bytes")
    b = fields.b
    cx = 1.0 / (grid.hx * grid.hx)
    cy = 1.0 / (grid.hy * grid.hy)
    c1 = 1.0 / (2.0 * grid.hx)
    xf, yf = grid.meshes()
    m = np.zeros((n, n), dtype=complex)
    k = np.arange(n)
    m[k, k] = (2.0 * cx + 2.0 * cy) + (b * yf) ** 2 + fields.eps * xf + v
    # x neighbours: every point but the last of each grid row
    k = k[(k % nx) != nx - 1]
    cross = -2.0 * b * yf[k]
    m[k, k + 1] = -cx + 1j * (cross * -c1)
    m[k + 1, k] = -cx + 1j * (cross * c1)
    k = np.arange(n - nx)
    m[k, k + nx] = -cy
    m[k + nx, k] = -cy
    return DiscreteOperator(m, grid)
