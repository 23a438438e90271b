"""Truncated rectangular domain and 1D/2D discrete operators.

The domain is [-lx, lx] x [-ly, ly] sampled on nx * ny points including the
walls.  Grid point (i, j) maps to flat index j*nx + i, i.e. row-major with x
fastest.  A 1D operator A acting on the x axis acts on the grid as
kron(I_ny, A), which :func:`apply_x` applies one grid row at a time without
forming it.  All fields outside the sampled box are treated as zero
(hard-wall / Dirichlet truncation).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class GridSpec:
    """Uniform mesh over [-lx, lx] x [-ly, ly] with nx, ny points per axis."""

    lx: float
    ly: float
    nx: int
    ny: int
    hx: float = field(init=False)
    hy: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "hx", 2.0 * self.lx / (self.nx - 1))
        object.__setattr__(self, "hy", 2.0 * self.ly / (self.ny - 1))

    @property
    def n_points(self):
        return self.nx * self.ny

    @property
    def x(self):
        """x samples, exactly odd like :attr:`y`."""
        return _odd_samples(self.lx, self.nx)

    @property
    def y(self):
        """y samples, exactly odd: y[j] == -y[ny-1-j] bitwise.

        linspace leaves mirrored samples unequal in the last bit, which breaks
        the exact reflection symmetries the real-form and parity-split
        eigensolves check for.
        """
        return _odd_samples(self.ly, self.ny)

    def meshes(self):
        """Flat coordinate arrays (X, Y) of length nx*ny, x fastest."""
        xg, yg = np.meshgrid(self.x, self.y)  # shape (ny, nx)
        return xg.ravel(), yg.ravel()


def _odd_samples(l, n):
    """n uniform samples of [-l, l], symmetrized so that s == -s[::-1] bitwise."""
    s = np.linspace(-l, l, n)
    return 0.5 * (s - s[::-1])


@dataclass(frozen=True)
class DiscreteOperator:
    """Hermitian matrix on a grid."""

    mat: np.ndarray
    grid: GridSpec

    @property
    def dim(self):
        return self.mat.shape[0]

    def stencil_apply(self, x):
        """M @ x for an N x k block x, from the diagonals of M at offsets 0,
        +-1 and +-nx.

        Every assembled operator is a 5-point stencil on the grid, so this
        costs O(N) per column where a dense product costs O(N^2).  M is first
        checked, in O(N^2), to hold no nonzero off those five diagonals; a
        matrix that does raises :class:`ConfigurationError`.
        """
        m, nx, n = self.mat, self.grid.nx, self.dim
        diags = {k: np.diagonal(m, k) for k in (0, 1, -1, nx, -nx)}
        off = np.count_nonzero(m) - sum(map(np.count_nonzero, diags.values()))
        if off:
            raise ConfigurationError(
                f"M has {off} nonzeros off the 5-point stencil "
                f"(diagonals 0, +-1, +-{nx})")
        y = diags[0][:, None] * x
        for k in (1, nx):
            y[:n - k] += diags[k][:, None] * x[k:]
            y[k:] += diags[-k][:, None] * x[:n - k]
        return y

    def is_t_symmetric(self):
        """True when conj(M) == P_y M P_y holds bitwise.

        P_y is the reflection y -> -y, which maps the row block of grid row j
        to that of row ny-1-j; with K the complex conjugation, this says M
        commutes with the antiunitary K P_y.  The check runs one pair of
        mirrored row blocks at a time, so it allocates no N x N temporary.
        """
        nx, ny = self.grid.nx, self.grid.ny
        n = self.dim
        if n != nx * ny:
            return False
        m = self.mat
        for j in range((ny + 1) // 2):
            rows = m[j * nx:(j + 1) * nx]
            mirror = m[(ny - 1 - j) * nx:(ny - j) * nx]
            if not np.array_equal(
                    rows.conj(),
                    mirror.reshape(nx, ny, nx)[:, ::-1].reshape(nx, n)):
                return False
        return True


def make_grid(lx, ly, nx, ny) -> GridSpec:
    """Validate and build a GridSpec; spacings follow h = 2l/(n-1)."""
    if not lx > 0:
        raise ConfigurationError(f"lx must be positive, got {lx}")
    if not ly > 0:
        raise ConfigurationError(f"ly must be positive, got {ly}")
    if nx < 8:
        raise ConfigurationError(f"nx must be at least 8, got {nx}")
    if ny < 8:
        raise ConfigurationError(f"ny must be at least 8, got {ny}")
    return GridSpec(float(lx), float(ly), int(nx), int(ny))


def d2_op(n, h):
    """Three-point -d^2/dx^2 with Dirichlet truncation (real symmetric)."""
    if n < 8:
        raise ConfigurationError(f"n must be at least 8, got {n}")
    if not h > 0:
        raise ConfigurationError(f"h must be positive, got {h}")
    m = np.zeros((n, n))
    c = 1.0 / (h * h)
    np.fill_diagonal(m, 2.0 * c)
    idx = np.arange(n - 1)
    m[idx, idx + 1] = -c
    m[idx + 1, idx] = -c
    return m


def apply_x(grid: GridSpec, m1d, a):
    """kron(I_ny, m1d) @ a without forming the kron: m1d acts on each grid row.

    ``a`` has the grid's N rows; a right product a @ kron(I_ny, m1d) is
    apply_x(grid, m1d.T, a.T).T.
    """
    return (m1d @ a.reshape(grid.ny, grid.nx, -1)).reshape(a.shape)

