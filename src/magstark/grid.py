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

from .errors import CapacityError, ConfigurationError


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


DENSE_BYTES_MAX = 16 * 6400 ** 2  # a complex N x N matrix up to 80 x 80 points


def checked_zeros(shape, dtype=float, order="C"):
    """np.zeros(shape, dtype, order), refused with :class:`CapacityError`
    before allocation when its bytes exceed DENSE_BYTES_MAX."""
    nbytes = np.dtype(dtype).itemsize * int(np.prod(shape))
    if nbytes > DENSE_BYTES_MAX:
        raise CapacityError(f"a dense {shape} array of {nbytes} bytes exceeds "
                            f"the dense limit of {DENSE_BYTES_MAX} bytes")
    return np.zeros(shape, dtype, order)


@dataclass(frozen=True)
class DiscreteOperator:
    """Hermitian 5-point stencil M on a grid, held as its coefficients.

    For grid point k = j*nx + i, M[k, k] = diag[k] (real), M[k, k+1] =
    conj(M[k+1, k]) = xhop[j, i] for i < nx - 1, and M[k, k+-nx] = yhop
    (real); every other entry is zero.  :meth:`dense` builds M on demand.
    """

    diag: np.ndarray
    xhop: np.ndarray
    yhop: float
    grid: GridSpec

    @property
    def dim(self):
        return self.diag.size

    def entries(self, k, l):
        """M[k, l] for flat index arrays k, l of one shape."""
        d, hop = l - k, np.zeros(self.dim, dtype=complex)
        hop.reshape(self.grid.ny, -1)[:, :-1] = self.xhop  # 0 at row ends
        out = np.zeros(k.shape, dtype=complex)
        out[d == 0] = self.diag[k[d == 0]]
        out[d == 1] = hop[k[d == 1]]
        # M[l+1, l] = conj(hop[l]), with 0.0 - im so no zero turns negative
        out.real[d == -1] = hop.real[l[d == -1]]
        out.imag[d == -1] = 0.0 - hop.imag[l[d == -1]]
        out[np.abs(d) == self.grid.nx] = self.yhop
        return out

    def real_entries(self, k, l):
        """R[k, l] of the real form R = Re M - (Im M) P_y, entry by entry."""
        return self.entries(k, l).real - self.entries(k, self.flip_y(l)).imag

    def flip_y(self, k):
        """P_y on flat indices: grid row j to row ny-1-j."""
        return k + (self.grid.ny - 1 - 2 * (k // self.grid.nx)) * self.grid.nx

    def near(self, k):
        """(row, column) index pairs holding every nonzero of rows k of M and
        of its real form: the 5-point stencil and P_y of the x neighbours.
        Indices past an edge are clipped; a repeated entry gets one value."""
        nx, n = self.grid.nx, self.dim
        c = np.clip(k[:, None] + np.array([0, 1, -1, nx, -nx]), 0, n - 1)
        c = np.hstack([c, self.flip_y(c[:, 1:3])])
        return np.broadcast_to(k[:, None], c.shape), c

    def dense(self, z=None):
        """M as a complex N x N array, or z - M when z is given, written
        straight from the stencil."""
        n = self.dim
        m = checked_zeros((n, n), complex)
        k, c = self.near(np.arange(n))
        vals = self.entries(k, c)
        m[k, c] = vals if z is None else np.where(k == c, z, 0) - vals
        return m

    def stencil_apply(self, x):
        """M @ x for an N x k block x, in O(N) per column."""
        ny, nx = self.grid.ny, self.grid.nx
        y = (self.diag[:, None] * x).astype(complex, copy=False)
        y3, x3, hop = y.reshape(ny, nx, -1), x.reshape(ny, nx, -1), self.xhop
        y3[:, :-1] += hop[..., None] * x3[:, 1:]
        y3[:, 1:] += hop.conj()[..., None] * x3[:, :-1]
        y[:-nx] += self.yhop * x[nx:]
        y[nx:] += self.yhop * x[:-nx]
        return y

    def inertia_counts(self, shifts):
        """The number of eigenvalues of M at or below each shift s.

        Along the longer grid axis M is block tridiagonal (D_j the stencil
        on grid line j, C_j its diagonal coupling to line j + 1), and the
        block LDL* recursion S_j = D_j - s - C_{j-1}* S_{j-1}^-1 C_{j-1} has
        inertia(M - s) = sum_j inertia(S_j) (Haynsworth, Linear Algebra
        Appl. 1 (1968) 73): O(N m^2) for lines of m points."""
        ny, nx, hop = self.grid.ny, self.grid.nx, self.yhop
        d, inner, cross = (self.diag.reshape(ny, nx), self.xhop,
                           np.full((ny - 1, nx), hop))
        if ny < nx:
            d, inner, cross = d.T, np.full((nx, ny - 1), hop), self.xhop.T
        i = np.arange(d.shape[1])
        s = np.zeros((d.shape[0], len(shifts)) + 2 * i.shape, complex)
        s[..., i, i] = d[:, None] - np.asarray(shifts, dtype=float)[:, None]
        s[..., i[:-1], i[1:]] = inner[:, None]
        s[..., i[1:], i[:-1]] = inner.conj()[:, None]
        for j, c in enumerate(cross, 1):
            s[j] -= c.conj()[:, None] * np.linalg.inv(s[j - 1]) * c
        return np.count_nonzero(np.linalg.eigvalsh(s) <= 0.0, axis=(0, 2))

    def is_t_symmetric(self):
        """True when conj(M) == P_y M P_y holds bitwise, i.e. M commutes with
        the antiunitary K P_y (K the complex conjugation, P_y the reflection
        y -> -y): diag is even in y, and xhop of grid row j is the conjugate
        of that of row ny-1-j."""
        d = self.diag.reshape(self.grid.ny, self.grid.nx)
        return (np.array_equal(d, d[::-1])
                and np.array_equal(self.xhop.conj(), self.xhop[::-1]))


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
    c = 1.0 / (h * h)
    return c * (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))


def apply_x(grid: GridSpec, m1d, a):
    """kron(I_ny, m1d) @ a without forming the kron: m1d acts on each grid row.

    ``a`` has the grid's N rows; a right product a @ kron(I_ny, m1d) is
    apply_x(grid, m1d.T, a.T).T.
    """
    return (m1d @ a.reshape(grid.ny, grid.nx, -1)).reshape(a.shape)

