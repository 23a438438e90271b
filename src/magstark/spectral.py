"""Eigendecomposition, matrix functional calculus and weights.

All functional calculus goes through one exact Hermitian eigendecomposition:
f(M) = U diag(f(lam)) U*.  Smooth compactly supported test functions are the
C-infinity bump exp(1 - 1/(1-u^2)) on |u| < 1, optionally with a flat plateau
where the function is identically 1.

Three properties of the input make the eigensolve cheaper without changing
what callers see:

* Real form.  When M commutes exactly with the antiunitary T = K P_y (K the
  complex conjugation, P_y the reflection y -> -y), as every assembled
  operator with a potential even in y does, W = (I + i P_y)/sqrt(2) is
  unitary and W* M W = Re M - (Im M) P_y is real symmetric.  Its eigenvectors
  phi map back to eigenvectors u = (phi + i P_y phi)/sqrt(2) of M.  Any other
  input takes the complex solve.
* Parity split.  When the real form R also commutes bitwise with the flat
  reversal J = P_x P_y, as it does for every eps = 0 operator with a
  potential even in x and y, R is block diagonal in the +-1 eigenspaces of
  J.  On the first N//2 indices the even block is R11 + R12 J and the odd
  block R11 - R12 J (the even one bordered by the centre row and column,
  scaled by sqrt(2), when N is odd), so two eigensolves of order about N/2
  replace one of order N at about a quarter of the flops.
* Window.  ``window=(lo, hi)`` computes only the eigenpairs with eigenvalue
  in (lo, hi].  A function supported in [lo, hi] vanishes on every other
  eigenvalue, so its f(M), traces and weighted traces are unchanged.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigurationError
from .grid import DiscreteOperator, GridSpec, d2_op


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors of a Hermitian matrix.

    With ``window`` set, only the eigenpairs with eigenvalue in (lo, hi] are
    held.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    source: DiscreteOperator
    window: tuple | None = None
    path: str = "complex"   # "real_parity", "real" or "complex"
    blocks: tuple = ()      # the order of each eigh call

    @property
    def dim(self):
        return self.eigenvalues.size

    def solver_info(self):
        """The solver path, the order of each eigh call and N, for a report."""
        return {"path": self.path, "blocks": list(self.blocks),
                "n": self.source.dim}

    def reconstruction_defect(self):
        """max|U diag(lam) U* - M|, or max|M U - U diag(lam)| when windowed.

        A windowed decomposition reconstructs only a rank-k piece of M, so
        there the defect is the eigen-residual of the pairs it holds.
        """
        u, lam, m = self.eigenvectors, self.eigenvalues, self.source.mat
        if self.window is None:
            return float(np.max(np.abs((u * lam) @ u.conj().T - m)))
        if not lam.size:
            return 0.0
        return float(np.max(np.abs(m @ u - u * lam)))

    def orthonormality_defect(self):
        u = self.eigenvectors
        g = u.conj().T @ u
        return float(np.max(np.abs(g - np.eye(self.dim))))


def eigendecompose(op: DiscreteOperator, window=None):
    """Hermitian eigendecomposition.

    ``window=(lo, hi)`` restricts it to the eigenpairs in (lo, hi].  A
    T-symmetric operator (see :meth:`DiscreteOperator.is_t_symmetric`) is
    solved through its real form, split by parity when that commutes with
    the flat reversal; the eigenvectors are returned for M itself either way.
    """
    subset = {}
    if window is not None:
        lo, hi = window
        if not lo < hi:
            raise ConfigurationError(f"window needs lo < hi, got {window}")
        subset = {"subset_by_value": (lo, hi)}
    if np.iscomplexobj(op.mat) and op.is_t_symmetric():
        lam, u, blocks = _real_form_eigh(op, subset)
        path = "real_parity" if len(blocks) == 2 else "real"
    else:
        lam, u = scipy.linalg.eigh(op.mat, **subset)
        path = "complex" if np.iscomplexobj(op.mat) else "real"
        blocks = (op.dim,)
    return SpectralDecomposition(lam, u, op, window, path, blocks)


def _real_form(op: DiscreteOperator):
    """Re M - (Im M) P_y in one real N x N buffer, built per column block."""
    nx, ny = op.grid.nx, op.grid.ny
    re, im = op.mat.real, op.mat.imag
    r = np.empty(op.mat.shape)
    for k in range(ny):
        mk = ny - 1 - k
        np.subtract(re[:, k * nx:(k + 1) * nx], im[:, mk * nx:(mk + 1) * nx],
                    out=r[:, k * nx:(k + 1) * nx])
    return r


def _real_form_eigh(op: DiscreteOperator, subset):
    """Eigenpairs of a T-symmetric M from its real form, and the eigh orders.

    The real form is freed before the eigenvectors u = (phi + i P_y phi)/
    sqrt(2) are written straight into one complex array.  When it commutes
    with the flat reversal, its two parity blocks are solved instead, and
    phi is never formed.
    """
    nx, ny = op.grid.nx, op.grid.ny
    r = _real_form(op)
    n = r.shape[0]
    if _commutes_with_reversal(r, nx):
        even, odd = _parity_blocks(r)
        del r
        lam_e, a = scipy.linalg.eigh(even, overwrite_a=True, **subset)
        del even
        lam_o, b = scipy.linalg.eigh(odd, overwrite_a=True, **subset)
        del odd
        lam = np.concatenate([lam_e, lam_o])
        order = np.argsort(lam, kind="stable")
        col = np.empty_like(order)
        col[order] = np.arange(order.size)
        u = np.empty((n, order.size), dtype=complex)
        _write_parity_vectors(u.real, a, col[:lam_e.size], 1.0, nx)
        _write_parity_vectors(u.real, b, col[lam_e.size:], -1.0, nx)
        lam, blocks = lam[order], (n - n // 2, n // 2)
    else:
        lam, phi = scipy.linalg.eigh(r, overwrite_a=True, **subset)
        del r
        u = np.empty(phi.shape, dtype=complex)
        np.multiply(phi, np.sqrt(0.5), out=u.real)
        del phi
        blocks = (n,)
    # u.real = phi/sqrt(2), and P_y swaps whole grid-row blocks
    for j in range(ny):
        mj = ny - 1 - j
        u.imag[j * nx:(j + 1) * nx] = u.real[mj * nx:(mj + 1) * nx]
    return lam, u, blocks


def _commutes_with_reversal(r, rows):
    """True when r[k] == r[N-1-k, ::-1] bitwise for every k, i.e. r J == J r.

    The check runs ``rows`` rows at a time, so it allocates no N x N
    temporary.
    """
    n = r.shape[0]
    flipped = r[::-1, ::-1]
    return all(np.array_equal(r[k:k + rows], flipped[k:k + rows])
               for k in range(0, (n + 1) // 2, rows))


def _parity_blocks(r):
    """The even and odd blocks of a real form r that commutes with J.

    In the basis (e_k +- e_{N-1-k})/sqrt(2), k < N//2, plus the centre e_m
    in the even block when N is odd, r is diag(R11 + R12 J, R11 - R12 J)
    with R11 = r[:m, :m] and (R12 J)[k, l] = r[k, N-1-l].  Both blocks are
    Fortran ordered, so eigh can overwrite them without a copy.
    """
    n = r.shape[0]
    m = n // 2
    r11, r12j = r[:m, :m], r[:m, ::-1][:, :m]
    even = np.empty((n - m, n - m), order="F")
    np.add(r11, r12j, out=even[:m, :m])
    odd = np.empty((m, m), order="F")
    np.subtract(r11, r12j, out=odd)
    if n > 2 * m:
        even[:m, m] = np.sqrt(2.0) * r[:m, m]
        even[m, :m] = np.sqrt(2.0) * r[m, :m]
        even[m, m] = r[m, m]
    return even, odd


def _write_parity_vectors(out, v, cols, sign, rows):
    """Scatter block eigenvectors v into the columns ``cols`` of out = phi/sqrt(2).

    A block vector v maps to phi[k] = v[k]/sqrt(2) and phi[N-1-k] = sign
    v[k]/sqrt(2) for k < N//2, and to phi[m] = v[m] at the centre of odd N
    (which the odd block, sign = -1, leaves zero).  ``rows`` rows are
    written at a time, so no temporary has N rows.
    """
    n = out.shape[0]
    m = n // 2
    for k in range(0, m, rows):
        stop = min(k + rows, m)
        top = 0.5 * v[k:stop]
        out[k:stop, cols] = top
        out[n - stop:n - k, cols] = sign * top[::-1]
    if n > 2 * m:
        out[m, cols] = np.sqrt(0.5) * v[m] if sign > 0 else 0.0


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


def apply_function(dec: SpectralDecomposition, f):
    """f(M) = U diag(f(lam)) U* for any callable f on the spectrum."""
    fvals = np.asarray(f(dec.eigenvalues))
    u = dec.eigenvectors
    return (u * fvals) @ u.conj().T


def trace_function(dec: SpectralDecomposition, f):
    """tr f(M) as a plain eigenvalue sum."""
    return float(np.sum(f(dec.eigenvalues)))


def weighted_trace_function(dec: SpectralDecomposition, weights, f):
    """tr(diag(weights) f(M)) without forming f(M)."""
    fvals = np.asarray(f(dec.eigenvalues))
    dens = np.abs(dec.eigenvectors) ** 2
    return float(weights @ dens @ fvals)


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
    :func:`~magstark.grid.apply_x`, or form it with
    :func:`~magstark.grid.embed_x`.  Default power is -w.s (the smoothing
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


@dataclass(frozen=True)
class LocalizedSpectrum:
    """Eigenvalues whose eigenvectors carry >= 0.99 mass in the interior box."""

    values: np.ndarray
    scores: np.ndarray
    margin: float

    def __len__(self):
        return self.values.size


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
    dens = np.abs(dec.eigenvectors) ** 2
    return dens[inside, :].sum(axis=0)


def localized_spectrum(dec: SpectralDecomposition, grid: GridSpec,
                       margin=0.05) -> LocalizedSpectrum:
    """Eigenpairs passing the interior-mass test: the discrete proxy for sigma(Q)."""
    scores = localization_scores(dec, grid, margin)
    keep = scores > LOCALIZATION_THRESHOLD
    return LocalizedSpectrum(dec.eigenvalues[keep], scores[keep], margin)
