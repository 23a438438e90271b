"""Reference implementations that the tests check the package against.

No experiment runs these.  They form the plain dense objects of the
definitions: the first-difference matrix, the kron embedding of an x-axis
operator, the d/dx matrix and explicit commutators with it, f(M) from the
eigenvectors, the mollified counting difference, the symmetry checks,
real form and parity blocks of a dense M, and the windowed eigensolve by
value range.  Tests compare the package's stencil writes, per-row products,
eigenvalue sums and windows with them, and check the exact
finite-dimensional identities the trace formula rests on.
"""

import numpy as np
import scipy.linalg

from magstark.errors import ConfigurationError
from magstark.grid import DiscreteOperator, GridSpec
from magstark.hamiltonian import FieldParams, assemble
from magstark.potentials import PotentialSpec, eval_potential
from magstark.spectral import (BumpFunction, SpectralDecomposition,
                               eigendecompose)


def d1_op(n, h):
    """Centered-difference D = -i d/dx with Dirichlet truncation (Hermitian)."""
    if n < 8:
        raise ConfigurationError(f"n must be at least 8, got {n}")
    if not h > 0:
        raise ConfigurationError(f"h must be positive, got {h}")
    m = np.zeros((n, n), dtype=complex)
    c = 1.0 / (2.0 * h)
    idx = np.arange(n - 1)
    m[idx, idx + 1] = -1j * c
    m[idx + 1, idx] = 1j * c
    return m


def embed_x(grid: GridSpec, m1d):
    """Embed a 1D x-axis operator into the 2D grid: kron(I_ny, m1d)."""
    return np.kron(np.eye(grid.ny, dtype=m1d.dtype), m1d)


def interior_mask(grid: GridSpec, band: int = 2):
    """Flat boolean mask of points at least `band` mesh steps from a wall."""
    ix = np.arange(grid.nx)
    iy = np.arange(grid.ny)
    okx = (ix >= band) & (ix < grid.nx - band)
    oky = (iy >= band) & (iy < grid.ny - band)
    return (oky[:, None] & okx[None, :]).ravel()


def partial_x(grid: GridSpec):
    """The discrete d/dx matrix, i * (-i d/dx) = i * d1, acting on the x factor."""
    return embed_x(grid, 1j * d1_op(grid.nx, grid.hx))


def commutator_dx(op: DiscreteOperator):
    """Explicit matrix commutator [d/dx, op], as an N x N array.

    Computed as a genuine product difference so that tests see the true
    discretization error; interior rows approach eps + dxV at second order
    while a band of width ~1 near the x-walls carries O(1/h^3) corner terms
    from the Dirichlet truncation.
    """
    d, m = partial_x(op.grid), op.dense()
    return d @ m - m @ d


def eigenvectors(dec: SpectralDecomposition):
    """U of a decomposition: a complex factor itself, else built from the
    real one as u = (phi + i P_y phi)/sqrt(2)."""
    phi = dec.real_eigenvectors()
    if phi is None:
        return dec.factor
    u = np.empty(phi.shape, dtype=complex)
    np.multiply(phi, np.sqrt(0.5), out=u.real)
    u.imag[:] = u.real[dec.source.flip_y(np.arange(phi.shape[0]))]
    return u


def apply_function(dec: SpectralDecomposition, f):
    """f(M) = U diag(f(lam)) U* for any callable f on the spectrum."""
    fvals = np.asarray(f(dec.eigenvalues))
    u = eigenvectors(dec)
    return (u * fvals) @ u.conj().T


def commutator_trace_zero(grid: GridSpec, fields: FieldParams,
                          spec: PotentialSpec, f: BumpFunction):
    """tr([d/dx, H f(H)]) as an explicit matrix commutator trace.

    Vanishes to round-off in finite dimension for every input; this is the
    exact backbone the trace identity rests on.
    """
    dec = eigendecompose(assemble(grid, fields, eval_potential(spec, grid).v))
    u = eigenvectors(dec)
    m = (u * (dec.eigenvalues * f(dec.eigenvalues))) @ u.conj().T  # H f(H)
    d = partial_x(grid)
    k = d @ m - m @ d
    return float(np.trace(k).real), float(np.trace(k).imag)


def xi_prime_mollified(decH: SpectralDecomposition, decH0: SpectralDecomposition,
                       lambda_grid, eta):
    """Counting difference smoothed by a unit-mass gaussian of width eta."""
    if not eta > 0:
        raise ConfigurationError(f"eta must be positive, got {eta}")
    lam = np.asarray(lambda_grid, dtype=float)
    norm = 1.0 / (eta * np.sqrt(2.0 * np.pi))

    def smear(evals):
        out = np.zeros(lam.shape)
        for block in np.array_split(evals, max(1, evals.size // 512)):
            out += np.exp(-((lam[:, None] - block[None, :]) ** 2)
                          / (2.0 * eta * eta)).sum(axis=1)
        return norm * out

    return smear(decH.eigenvalues) - smear(decH0.eigenvalues)


def is_t_symmetric(m, grid: GridSpec):
    """conj(M) == P_y M P_y, compared entry by entry on the dense M."""
    py = np.arange(grid.n_points).reshape(grid.ny, grid.nx)[::-1].ravel()
    return np.array_equal(m.conj(), m[np.ix_(py, py)])


def real_form(m, grid: GridSpec):
    """Re M - (Im M) P_y from the dense M."""
    py = np.arange(grid.n_points).reshape(grid.ny, grid.nx)[::-1].ravel()
    return np.asfortranarray(m.real - m.imag[:, py])


def commutes_with_reversal(r):
    """r[k] == r[N-1-k, ::-1] for every k, i.e. r J == J r."""
    return np.array_equal(r, r[::-1, ::-1])


def parity_blocks(r):
    """The even and odd blocks R11 +- R12 J of a real form r that commutes
    with J, R11 = r[:m, :m] and (R12 J)[k, l] = r[k, N-1-l] for m = N//2;
    for odd N the even block is bordered by the centre row and column of r,
    scaled by sqrt(2)."""
    n = r.shape[0]
    m = n // 2
    r11, r12j = r[:m, :m], r[:m, ::-1][:, :m]
    even = np.empty((n - m, n - m), order="F")
    even[:m, :m] = r11 + r12j
    if n > 2 * m:
        even[:m, m] = np.sqrt(2.0) * r[:m, m]
        even[m, :m] = np.sqrt(2.0) * r[m, :m]
        even[m, m] = r[m, m]
    return even, np.asfortranarray(r11 - r12j)


def windowed_by_value(op: DiscreteOperator, window):
    """The eigenpairs of op in (lo, hi] from ``scipy.linalg.eigh`` with
    ``subset_by_value``, of the real form of a T-symmetric op or else of the
    dense M: the windowed solve without a count, which allocates an N x N
    eigenvector array for the value range."""
    m = op.dense()
    if not is_t_symmetric(m, op.grid):
        lam, u = scipy.linalg.eigh(m, subset_by_value=window)
        return SpectralDecomposition(lam, u.copy(), op, window)
    lam, phi = scipy.linalg.eigh(real_form(m, op.grid), subset_by_value=window)
    return SpectralDecomposition(lam, phi.copy(), op, window)
