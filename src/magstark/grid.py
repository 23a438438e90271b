"""Truncated rectangular domain and 1D/2D discrete operators.

The domain is [-lx, lx] x [-ly, ly] sampled on nx * ny points including the
walls.  Grid point (i, j) maps to flat index j*nx + i, i.e. row-major with x
fastest.  A 1D operator A acting on the x axis acts on the grid as
kron(I_ny, A), which :func:`apply_x` applies one grid row at a time without
forming it.  All fields outside the sampled box are treated as zero
(hard-wall / Dirichlet truncation).
"""

from dataclasses import dataclass, field, replace

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
    (real); every other entry is zero.  Every dense or sparse matrix of M,
    its real form or their parts is written from the entry list :meth:`coo`.
    """

    diag: np.ndarray
    xhop: np.ndarray
    yhop: float
    grid: GridSpec

    @property
    def dim(self):
        return self.diag.size

    def flip_y(self, k):
        """P_y on flat indices: grid row j to row ny-1-j."""
        return k + (self.grid.ny - 1 - 2 * (k // self.grid.nx)) * self.grid.nx

    def coo(self, real=False):
        """(rows, cols, values) of M, or with ``real`` of its real form R =
        Re M - (Im M) P_y, one entry per position, sorted by row and column:
        the five bands of M, an x neighbour past a row end an explicit 0, and
        for R the P_y images of the x bands' -Im, summed with Re M where they
        meet on the centre row.  At most 5N entries, or 7N for R."""
        n, nx = self.dim, self.grid.nx
        hop = np.zeros(n, dtype=complex)
        hop.reshape(self.grid.ny, -1)[:, :-1] = self.xhop  # 0 at row ends
        k, y, h = np.arange(n), np.full(n - nx, self.yhop), hop[:-1]
        rows = np.concatenate([k[:-1], k[1:], k[:-nx], k, k[nx:]])
        cols = np.concatenate([k[1:], k[:-1], k[nx:], k, k[:-nx]])
        # M[k+1, k] = conj(M[k, k+1]) + 0.0, whose zeros are all +0
        vals = np.concatenate([h, h.conj() + 0.0, y, self.diag, y])
        if real:  # the x bands come first
            x = slice(2 * n - 2)
            rows = np.concatenate([rows, rows[x]])
            cols = np.concatenate([cols, self.flip_y(cols[x])])
            vals = np.concatenate([vals.real, 0.0 - vals.imag[x]])
        key = rows * n + cols
        order = np.argsort(key, kind="stable")
        key, vals = key[order], vals[order]
        # a position holds at most a band entry and, after it, one image
        dup = key[1:] == key[:-1]
        vals[:-1][dup] += vals[1:][dup]
        keep = np.concatenate([[True], ~dup])
        return (*np.divmod(key[keep], n), vals[keep])

    def dense(self, z=None, real=False):
        """M as a complex N x N array, z - M when z is given, or with
        ``real`` the real form R, written from :meth:`coo` in Fortran order
        (eigh may overwrite it)."""
        m = checked_zeros((self.dim,) * 2, float if real else complex, "F")
        k, c, vals = self.coo(real)
        m[k, c] = vals if z is None else np.where(k == c, z, 0) - vals
        return m

    def csc(self, z=None, real=False):
        """M, z - M or (``real``) the real form as a CSC matrix, one stored
        entry per position of :meth:`coo`."""
        from scipy.sparse import csc_matrix
        k, c, vals = self.coo(real)
        vals = vals if z is None else np.where(k == c, z, 0) - vals
        return csc_matrix((vals, (k, c)), shape=(self.dim,) * 2)

    def gershgorin_bounds(self):
        """(min_k diag[k] - off[k], max_k diag[k] + off[k]), off[k] =
        sum_l |M[k, l]| (l != k): an interval holding the spectrum of M and
        of its unitarily similar real form."""
        off = replace(self, diag=np.zeros(self.dim), xhop=np.abs(self.xhop),
                      yhop=abs(self.yhop)).stencil_apply(np.ones((self.dim, 1)))
        off = off.real[:, 0]
        return float(np.min(self.diag - off)), float(np.max(self.diag + off))

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
        Appl. 1 (1968) 73): O(N m^2) for lines of m points.  Each S_j is
        counted as it is formed, so only two lines' m x m blocks are held."""
        ny, nx, hop = self.grid.ny, self.grid.nx, self.yhop
        d, inner, cross = (self.diag.reshape(ny, nx), self.xhop,
                           np.full((ny - 1, nx), hop))
        if ny < nx:
            d, inner, cross = d.T, np.full((nx, ny - 1), hop), self.xhop.T
        i, shifts = np.arange(d.shape[1]), np.asarray(shifts, dtype=float)
        count, s = np.zeros(shifts.size, dtype=int), None
        for j in range(d.shape[0]):
            prev, s = s, np.zeros((shifts.size,) + 2 * i.shape, complex)
            s[:, i, i] = d[j] - shifts[:, None]
            s[:, i[:-1], i[1:]] = inner[j]
            s[:, i[1:], i[:-1]] = inner[j].conj()
            if j:
                c = cross[j - 1]
                s -= c.conj()[:, None] * np.linalg.inv(prev) * c
            count += np.count_nonzero(np.linalg.eigvalsh(s) <= 0.0, axis=1)
        return count

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

