"""Eigendecomposition, spectral sums, weights and localization.

All functional calculus goes through one exact Hermitian eigendecomposition
M = U diag(lam) U*: tr f(M) is the eigenvalue sum of f(lam), and
tr(diag(w) f(M)) pairs f(lam) with the weighted density w @ |U|^2, so no
trace forms f(M).  Smooth compactly supported test functions are the
C-infinity bump exp(1 - 1/(1-u^2)) on |u| < 1, optionally with a flat plateau
where the function is identically 1.  The localized spectrum, the discrete
proxy for sigma(Q), is the eigenvalues whose eigenvectors carry almost all
their mass inside an interior box.

Three properties of the input make the eigensolve cheaper without changing
what callers see:

* Real form.  When M commutes exactly with the antiunitary T = K P_y (K the
  complex conjugation, P_y the reflection y -> -y), as every assembled
  operator with a potential even in y does, W = (I + i P_y)/sqrt(2) is
  unitary and W* M W = Re M - (Im M) P_y is real symmetric.  Its
  eigenvectors phi map back to eigenvectors u = (phi + i P_y phi)/sqrt(2)
  of M.  Any other input takes the complex solve, of the dense M.
* Parity split.  When the real form R also commutes bitwise with the flat
  reversal J = P_x P_y, as it does for every eps = 0 operator with a
  potential even in x and y, R is block diagonal in the +-1 eigenspaces of
  J.  On the first N//2 indices the even block is R11 + R12 J and the odd
  block R11 - R12 J (the even one bordered by the centre row and column,
  scaled by sqrt(2), when N is odd), so two eigensolves of order about N/2
  replace one of order N at about a quarter of the flops.  Both checks read
  the stencil in O(N), and R or its blocks are written straight from it.
* Window.  ``window=(lo, hi)`` computes only the eigenpairs with eigenvalue
  in (lo, hi].  A function supported in [lo, hi] vanishes on every other
  eigenvalue, so its f(M), traces and weighted traces are unchanged.

A full solve (no window) uses LAPACK's divide-and-conquer driver ``evd``; a
windowed one the default ``evr``, since ``evd`` has no subset.

The eigenvectors are kept in the real factor they were solved in: the
parity-block vectors (ceil(N/2) rows, with the +-1 parity of each column),
phi for the unsplit real form, and U itself only for the complex solve.
Weighted densities w @ |U|^2, which localization scores, weighted traces
and the probe weights of prop2 all reduce to, are read from that factor by
:meth:`SpectralDecomposition.weighted_density`; the complex U is built from
it only when ``eigenvectors`` is read, so a caller that needs densities
alone never holds an N x N complex matrix.  A caller that can work in the
real form reads phi itself from :meth:`SpectralDecomposition.real_eigenvectors`.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigurationError
from .grid import DiscreteOperator, GridSpec, checked_zeros, d2_op


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues of a Hermitian matrix M, and its eigenvectors in
    the factor the solve produced.

    A complex ``factor`` is U itself.  A real one is phi, the eigenvectors of
    the real form (N rows), or, with ``parity`` set, the parity-block vectors
    (ceil(N/2) rows; an odd column is zero on the centre row of odd N) with
    the +-1 parity of each column.  With ``window`` set, only the eigenpairs
    with eigenvalue in (lo, hi] are held.
    """

    eigenvalues: np.ndarray
    factor: np.ndarray
    source: DiscreteOperator
    window: tuple | None = None
    path: str = "complex"   # "real_parity", "real" or "complex"
    blocks: tuple = ()      # the order of each eigh call
    parity: np.ndarray | None = None

    @property
    def dim(self):
        return self.eigenvalues.size

    @property
    def eigenvectors(self):
        """U, built from the factor on each read: u = (phi + i P_y phi)/sqrt(2)."""
        phi = self.real_eigenvectors()
        if phi is None:
            return self.factor
        u = np.empty(phi.shape, dtype=complex)
        np.multiply(phi, np.sqrt(0.5), out=u.real)
        u.imag[:] = u.real[self.source.flip_y(np.arange(phi.shape[0]))]
        return u

    def real_eigenvectors(self):
        """phi, the eigenvectors of the real form, with U = (phi + i P_y
        phi)/sqrt(2); None for a complex factor.

        A parity-block vector v is scattered to its N rows: phi[k] =
        v[k]/sqrt(2) and phi[N-1-k] = parity v[k]/sqrt(2) for k < m = N//2,
        and phi[m] = v[m] at the centre of odd N (zero for an odd column).
        """
        a = self.factor
        if np.iscomplexobj(a) or self.parity is None:
            return None if np.iscomplexobj(a) else a
        n, m = self.source.dim, self.source.dim // 2
        phi = np.empty((n, a.shape[1]))
        np.multiply(a[:m], np.sqrt(0.5), out=phi[:m])
        phi[n - m:] = (self.parity * phi[:m])[::-1]
        if n > 2 * m:
            phi[m] = a[m]
        return phi

    def weighted_density(self, w):
        """w @ |U|^2 for a real weight vector w on the grid, from the factor.

        |u|^2 = (phi^2 + (P_y phi)^2)/2, so a real factor is weighted by w
        folded by P_y, and the parity-block vectors by that folded again by
        the flat reversal J.  Both folds are exact for any w.  The squares
        are taken one grid row at a time, so no temporary has N rows.
        """
        a = self.factor
        w = np.asarray(w, dtype=float)
        nx, ny = self.source.grid.nx, self.source.grid.ny
        if not np.iscomplexobj(a):
            w = 0.5 * (w + w.reshape(ny, nx)[::-1].ravel())
            if self.parity is not None:
                m = w.size // 2
                w = np.concatenate([0.5 * (w[:m] + w[::-1][:m]),
                                    w[m:w.size - m]])
        out = np.zeros(a.shape[1])
        for k in range(0, a.shape[0], nx):
            out += w[k:k + nx] @ (np.abs(a[k:k + nx]) ** 2)
        return out

    def solver_info(self):
        """The solver path, the order of each eigh call, N, the number of
        eigenpairs held and the bytes of the stored factor, for a report."""
        return {"path": self.path, "blocks": list(self.blocks),
                "n": self.source.dim, "pairs": self.dim,
                "factor_bytes": self.factor.nbytes}

    def residual(self):
        """(F, E) with E = A F - F diag(lam), A applied by ``stencil_apply``.

        A is M and F = U for a complex factor, else F = phi and A the real
        form R = Re M - (Im M) P_y = Re M + P_y Im M (T-symmetry makes Im M
        anticommute with P_y), so R phi = Re(M phi) + P_y Im(M phi).
        """
        f, lam, grid = self.real_eigenvectors(), self.eigenvalues, self.source.grid
        if f is None:
            return self.factor, self.source.stencil_apply(self.factor) \
                - self.factor * lam
        mf = self.source.stencil_apply(f)
        e = mf.real - f * lam
        e.reshape(grid.ny, grid.nx, -1)[::-1] += mf.imag.reshape(
            grid.ny, grid.nx, -1)
        return f, e

    def reconstruction_defect(self):
        """max|A F - F diag(lam)|, the eigen-residual of the pairs held, in
        the factor of :meth:`residual`."""
        return float(np.max(np.abs(self.residual()[1]), initial=0.0))

    def orthonormality_defect(self):
        """max|F* F - I| of the stored factor: U* U = phi^T phi, and
        parity-block vectors of opposite parity are orthogonal in phi."""
        a = self.factor
        g = a.conj().T @ a
        if self.parity is not None:
            g *= self.parity[:, None] == self.parity
        g[np.diag_indices(self.dim)] -= 1.0
        return float(np.max(np.abs(g), initial=0.0))


def eigendecompose(op: DiscreteOperator, window=None):
    """Hermitian eigendecomposition.

    ``window=(lo, hi)`` restricts it to the eigenpairs in (lo, hi].  A
    T-symmetric operator (see :meth:`DiscreteOperator.is_t_symmetric`) is
    solved through its real form, split by parity when that commutes with
    the flat reversal, and keeps its eigenvectors in that real factor.
    """
    how = {"driver": "evd"}
    if window is not None:
        lo, hi = window
        if not lo < hi:
            raise ConfigurationError(f"window needs lo < hi, got {window}")
        how = {"subset_by_value": (lo, hi)}
    if op.is_t_symmetric():
        lam, factor, parity, blocks = _real_form_eigh(op, how)
        path = "real" if parity is None else "real_parity"
    else:
        lam, u = scipy.linalg.eigh(op.dense(), **how)
        factor, parity, blocks, path = _owned(u), None, (op.dim,), "complex"
    return SpectralDecomposition(lam, factor, op, window, path, blocks, parity)


def _owned(v):
    """v, or a copy of it when it is a view: a windowed eigh returns its k
    columns of an N x N work array, which would otherwise stay alive."""
    return v if v.base is None else v.copy()


def _real_form(op: DiscreteOperator):
    """Re M - (Im M) P_y, 7 nonzeros per row (the 5 of Re M and the 2 of
    -(Im M) P_y), in one Fortran-ordered buffer that eigh may overwrite."""
    n = op.dim
    r = checked_zeros((n, n), order="F")
    k, c = op.near(np.arange(n))
    r[k, c] = op.real_entries(k, c)
    return r


def _real_form_eigh(op: DiscreteOperator, how):
    """Eigenvalues of a T-symmetric M from its real form, the real factor,
    the parity of its columns (None when unsplit) and the eigh orders.

    When the real form commutes with the flat reversal, its two parity
    blocks are solved instead, and their vectors are merged into one array
    of ceil(N/2) rows in ascending eigenvalue order.
    """
    n = op.dim
    if not _commutes_with_reversal(op):
        lam, phi = scipy.linalg.eigh(_real_form(op), overwrite_a=True, **how)
        return lam, _owned(phi), None, (n,)
    m = n // 2
    even, odd = _parity_blocks(op)
    lam_e, a = scipy.linalg.eigh(even, overwrite_a=True, **how)
    del even
    lam_o, b = scipy.linalg.eigh(odd, overwrite_a=True, **how)
    del odd
    lam = np.concatenate([lam_e, lam_o])
    order = np.argsort(lam, kind="stable")
    parity = np.concatenate([np.ones(lam_e.size), -np.ones(lam_o.size)])
    col = np.empty_like(order)
    col[order] = np.arange(order.size)
    # an odd vector has no centre row, so it stays zero there
    v = np.zeros((n - m, order.size))
    v[:, col[:lam_e.size]] = a
    v[:m, col[lam_e.size:]] = b
    return lam[order], v, parity[order], (n - m, m)


def _commutes_with_reversal(op: DiscreteOperator):
    """True when the real form R has R[k, l] == R[N-1-k, N-1-l] bitwise for
    all k, l (R J == J R), checked in O(N) at the positions of ``op.near``,
    which hold every nonzero of R."""
    n = op.dim
    k, c = op.near(np.arange(n))
    return np.array_equal(op.real_entries(k, c),
                          op.real_entries(n - 1 - k, n - 1 - c))


def _parity_blocks(op: DiscreteOperator):
    """The even and odd blocks of a real form R that commutes with J,
    written straight from the stencil.

    In the basis (e_k +- e_{N-1-k})/sqrt(2), k < m = N//2, plus the centre
    e_m in the even block when N is odd, R is diag(R11 + R12 J, R11 - R12 J)
    with R11 = R[:m, :m] and (R12 J)[k, l] = R[k, N-1-l]: a nonzero R[k, c]
    lands on block column c, or N-1-c when c >= N - m.  Both blocks are
    Fortran ordered, so eigh can overwrite them without a copy.
    """
    n, m = op.dim, op.dim // 2
    even = checked_zeros((n - m, n - m), order="F")
    odd = checked_zeros((m, m), order="F")
    k, c = op.near(np.arange(m))
    c = np.where(c < m, c, n - 1 - c)
    k, c = k[c < m], c[c < m]
    r11, r12j = op.real_entries(k, c), op.real_entries(k, n - 1 - c)
    even[k, c] = r11 + r12j
    odd[k, c] = r11 - r12j
    if n > 2 * m:
        k, c = np.arange(m), np.full(m, m)
        even[:m, m] = np.sqrt(2.0) * op.real_entries(k, c)
        even[m, :m] = np.sqrt(2.0) * op.real_entries(c, k)
        even[m, m] = op.real_entries(c[:1], c[:1])[0]
    return even, odd


@dataclass(frozen=True)
class BumpFunction:
    """C-infinity bump supported on [center - halfwidth, center + halfwidth].

    With plateau > 0 the function equals 1 on |t - center| <= plateau *
    halfwidth and falls smoothly to 0 at the support edge (the cutoff shape
    used where a test function must be identically 1 near a point).
    """

    center: float
    halfwidth: float
    plateau: float = 0.0

    def __post_init__(self):
        if not self.halfwidth > 0:
            raise ConfigurationError(
                f"halfwidth must be positive, got {self.halfwidth}")
        if not 0.0 <= self.plateau < 1.0:
            raise ConfigurationError(
                f"plateau must lie in [0, 1), got {self.plateau}")

    @property
    def support(self):
        return self.center - self.halfwidth, self.center + self.halfwidth

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        u = np.abs(t - self.center) / self.halfwidth
        out = np.zeros(u.shape)
        if self.plateau == 0.0:
            inside = u < 1.0
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
        else:
            out[u <= self.plateau] = 1.0
            shoulder = (u > self.plateau) & (u < 1.0)
            s = (u[shoulder] - self.plateau) / (1.0 - self.plateau)
            out[shoulder] = _smooth_step(1.0 - s)
        return out if out.shape else float(out)

    def derivative(self, t):
        """Exact derivative d/dt of the bump (closed form, no differencing)."""
        t = np.asarray(t, dtype=float)
        v = (t - self.center) / self.halfwidth
        u = np.abs(v)
        out = np.zeros(u.shape)
        if self.plateau == 0.0:
            inside = u < 1.0
            w = 1.0 - u[inside] ** 2
            out[inside] = (np.exp(1.0 - 1.0 / w) * (-2.0 * v[inside] / w ** 2)
                           / self.halfwidth)
        else:
            shoulder = (u > self.plateau) & (u < 1.0)
            s = (u[shoulder] - self.plateau) / (1.0 - self.plateau)
            ds = _smooth_step_d(1.0 - s) * (-1.0 / (1.0 - self.plateau))
            out[shoulder] = ds * np.sign(v[shoulder]) / self.halfwidth
        return out if out.shape else float(out)


def _smooth_step(s):
    """C-infinity monotone 0 -> 1 transition on [0, 1]."""
    s = np.asarray(s, dtype=float)
    a = np.zeros(s.shape)
    pos = s > 0.0
    a[pos] = np.exp(-1.0 / s[pos])
    b = np.zeros(s.shape)
    neg = s < 1.0
    b[neg] = np.exp(-1.0 / (1.0 - s[neg]))
    return a / (a + b)


def _smooth_step_d(s):
    """Derivative of the smooth step (zero at and beyond both ends)."""
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    mid = (s > 0.0) & (s < 1.0)
    sm = s[mid]
    a = np.exp(-1.0 / sm)
    b = np.exp(-1.0 / (1.0 - sm))
    da = a / sm ** 2
    db = -b / (1.0 - sm) ** 2
    out[mid] = (da * b - a * db) / (a + b) ** 2
    return out


def trace_function(dec: SpectralDecomposition, f):
    """tr f(M) as a plain eigenvalue sum."""
    return float(np.sum(f(dec.eigenvalues)))


def weighted_trace_function(dec: SpectralDecomposition, weights, f):
    """tr(diag(weights) f(M)) without forming f(M)."""
    fvals = np.asarray(f(dec.eigenvalues))
    return float(dec.weighted_density(weights) @ fvals)


@dataclass(frozen=True)
class WeightSpec:
    """Exponents for the <Dx>^-s, <x>^p and power-decay k_j weights."""

    s: float = 0.75
    p: float = -2.0
    delta: float = 0.5

    def __post_init__(self):
        if not self.delta > 0:
            raise ConfigurationError(f"delta must be positive, got {self.delta}")


def weight_dx_s(grid: GridSpec, w: WeightSpec, power=None):
    """The nx x nx factor (1 + Dx^2)^(power/2), from the 1D Dirichlet Dx^2
    eigenbasis.

    The 2D weight is kron(I_ny, factor); apply it with
    :func:`~magstark.grid.apply_x`.  Default power is -w.s (the smoothing
    weight of the resolvent probes, requiring s in (1/2, 1)); an explicit
    power builds the matching growing weight used by the trace-class
    experiments.
    """
    if power is None:
        if not 0.5 < w.s < 1.0:
            raise ConfigurationError(
                f"s must lie in (1/2, 1) for resolvent weights, got {w.s}")
        power = -w.s
    lam, u = np.linalg.eigh(d2_op(grid.nx, grid.hx))
    return (u * (1.0 + lam) ** (power / 2.0)) @ u.T


def decay_weight(grid: GridSpec, j, delta):
    """Diagonal k_j = <x>^(-j(1+delta)) <y>^(-j(1/2+delta)) of the norm bounds."""
    xf, yf = grid.meshes()
    return ((1.0 + xf * xf) ** (-j * (1.0 + delta) / 2.0)
            * (1.0 + yf * yf) ** (-j * (0.5 + delta) / 2.0))


LOCALIZATION_THRESHOLD = 0.99


def localization_scores(dec: SpectralDecomposition, grid: GridSpec, margin):
    """Interior-box mass fraction of every eigenvector.

    The box is the centered rectangle of relative size (1 - 2 margin) per
    axis; wall-hugging truncation artifacts score low, gaussian-decaying
    physical states score near 1.
    """
    if not 0.0 < margin < 0.5:
        raise ConfigurationError(f"margin must lie in (0, 0.5), got {margin}")
    xf, yf = grid.meshes()
    inside = ((np.abs(xf) <= (1.0 - 2.0 * margin) * grid.lx + 1e-12)
              & (np.abs(yf) <= (1.0 - 2.0 * margin) * grid.ly + 1e-12))
    return dec.weighted_density(inside)


def localized_spectrum(dec: SpectralDecomposition, grid: GridSpec,
                       margin=0.05):
    """Ascending eigenvalues whose eigenvectors carry more than
    LOCALIZATION_THRESHOLD of their mass in the interior box: the discrete
    proxy for sigma(Q)."""
    return dec.eigenvalues[localization_scores(dec, grid, margin)
                           > LOCALIZATION_THRESHOLD]
