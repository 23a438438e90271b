"""Eigendecomposition, spectral sums, weights and localization.

All functional calculus goes through one exact Hermitian eigendecomposition
M = U diag(lam) U*: tr f(M) is the eigenvalue sum of f(lam), and
tr(diag(w) f(M)) pairs f(lam) with the weighted density w @ |U|^2, so no
trace forms f(M).  Smooth compactly supported test functions are the
C-infinity bump exp(1 - 1/(1-u^2)) on |u| < 1, optionally with a flat plateau
where the function is identically 1.  The localized spectrum, the discrete
proxy for sigma(Q), is the eigenvalues whose eigenvectors carry almost all
their mass inside an interior box.

Every eigensolve runs in real arithmetic, and the real form is its
precondition.  M must commute exactly with the antiunitary T = K P_y (K the
complex conjugation, P_y the reflection y -> -y), as every assembled
operator with a potential even in y does.  Then W = (I + i P_y)/sqrt(2) is
unitary, W* M W = R = Re M - (Im M) P_y is real symmetric, and the
eigenvectors phi of R map back to eigenvectors u = (phi + i P_y phi)/sqrt(2)
of M.  Any other operator is refused with :class:`ConfigurationError` before
anything is written.  Resolvents and the limiting-absorption probe, which
factor z - M, are not eigensolves and stay complex.  The two solve shapes:

* Full.  :func:`weighted_spectrum` returns the eigenvalues and one weighted
  density, and keeps no eigenvector.  It serves only operators whose R
  also commutes bitwise with the flat reversal J = P_x P_y, as every eps =
  0 operator with a potential even in x and y does; any other is refused
  with :class:`ConfigurationError` before a block is written.  R is block
  diagonal in the +-1 eigenspaces of J: on the first N//2 indices the even
  block is R11 + R12 J and the odd block R11 - R12 J (the even one
  bordered by the centre row and column, scaled by sqrt(2), when N is
  odd), so two eigensolves of order about N/2 replace one of order N at
  about a quarter of the flops.  Each block is written, solved and reduced
  before the next is written, so one block, its ``evd`` workspace (3 n_b^2
  doubles for a block of order n_b) and the rows of R's entry list that
  the blocks read are held.  This is the only place the parity split
  appears: ``eigendecompose(op)`` is the unsplit solve of R, the dense
  reference.
* Window.  ``eigendecompose(op, window=(lo, hi))`` computes only the k
  eigenpairs in (lo, hi].  A function supported in [lo, hi] vanishes on
  every other eigenvalue, so its f(M) and (weighted) traces are unchanged.
  Stencil inertia counts certify the pairs (:func:`_windowed`), which one of
  two paths solves, chosen from N and the counts alone.  Above N = 512 a
  window of at most N/16 pairs takes shift-invert Lanczos (ARPACK ``eigsh``)
  on the sparse R, at most 7 entries per row, and holds no N x N array.  Any
  other window, or one whose sparse pairs the counts reject, takes one
  index-subset eigh of the dense R: 8 N^2 bytes plus 8 N (k + 2) for
  eigenvectors.  The certificate names the path as ``solver``.

R or its blocks are written from R's entry list, built once per solve.  A
full solve uses LAPACK's ``evd``; a dense window the default driver ``evr``,
which has a subset.  A decomposition keeps phi and every reader works in it;
none builds the complex U.  Weighted densities w @ |U|^2 come from
``weighted_density``, and compressions U* diag(w) U from ``compress``.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CapacityError, ConfigurationError, SpectralWindowError
from .grid import DiscreteOperator, GridSpec, checked_zeros, d2_op

# A window of at most N/16 pairs is solved sparse above this order.  On 2
# cores a 4-pair window costs about the same both ways at N = 361 to 441
# and 0.6 times as much sparse at N = 729, where dense catches up near
# 0.07 N pairs.
SPARSE_DIM_MIN = 512
SPARSE_PAD = 2  # Lanczos pairs asked for beyond the window and its neighbours


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues of a T-symmetric Hermitian matrix M, and as
    ``factor`` phi, the eigenvectors of its real form R (N rows), with U =
    (phi + i P_y phi)/sqrt(2).  A windowed solve holds only the eigenpairs
    with eigenvalue in (lo, hi], and its ``certificate`` holds the window,
    its inertia counts, the bracketing eigenvalues and the solver path,
    "dense" or "sparse" (with its ``sigma``, ``nev`` and ``doublings``).
    """

    eigenvalues: np.ndarray
    factor: np.ndarray
    source: DiscreteOperator
    certificate: dict | None = None

    @property
    def dim(self):
        return self.eigenvalues.size

    def weighted_density(self, w):
        """w @ |U|^2 for a real weight vector w on the grid: |u|^2 = (phi^2
        + (P_y phi)^2)/2, so phi is weighted by w folded by P_y
        (:func:`_folded_weight`), one grid row at a time
        (:func:`_row_density`)."""
        grid = self.source.grid
        return _row_density(_folded_weight(w, grid, parity=False),
                            self.factor, grid.nx)

    def compress(self, w):
        """U* diag(w) U over the pairs held, for a real weight vector w on
        the grid: phi^T diag(w_s) phi + i phi^T diag(w_a) P_y phi, where w_s
        and w_a are the y-even and y-odd parts of w, exact for any real w."""
        phi, w = self.factor, np.asarray(w, dtype=float)
        py = self.source.flip_y(np.arange(w.size))
        return 0.5 * (phi.T @ ((w + w[py])[:, None] * phi)
                      + 1j * (phi.T @ ((w - w[py])[:, None] * phi[py])))

    def solver_info(self):
        """The path ("real"), the order of its eigh call, N, the number of
        eigenpairs held, the bytes of phi, and for a full solve the bytes of
        R and of its ``evd`` workspace, or the window certificate, for a
        report."""
        n = self.source.dim
        return {"path": "real", "blocks": [n], "n": n, "pairs": self.dim,
                "factor_bytes": self.factor.nbytes,
                **(self.certificate or _evd_bytes(n))}

    def health_info(self):
        """:meth:`solver_info` with both health defects of the pairs held."""
        return {**self.solver_info(),
                "reconstruction_defect": self.reconstruction_defect(),
                "orthonormality_defect": self.orthonormality_defect()}

    def reconstruction_defect(self):
        """max|R phi - phi diag(lam)|, the eigen-residual of the pairs held,
        with R = Re M - (Im M) P_y = Re M + P_y Im M (T-symmetry makes Im M
        anticommute with P_y) applied by M's ``stencil_apply``: R phi =
        Re(M phi) + P_y Im(M phi)."""
        f, lam, grid = self.factor, self.eigenvalues, self.source.grid
        mf = self.source.stencil_apply(f)
        e = mf.real - f * lam
        e.reshape(grid.ny, grid.nx, -1)[::-1] += mf.imag.reshape(
            grid.ny, grid.nx, -1)
        return float(np.max(np.abs(e), initial=0.0))

    def orthonormality_defect(self):
        """max|phi^T phi - I|, which is max|U* U - I|."""
        g = self.factor.T @ self.factor
        g[np.diag_indices(self.dim)] -= 1.0
        return float(np.max(np.abs(g), initial=0.0))


def eigendecompose(op: DiscreteOperator, window=None):
    """The eigenpairs of op's real form: with ``window=(lo, hi)`` those in
    (lo, hi], certified (:func:`_windowed`), else all of them from one
    unsplit solve.  An op that does not commute with T = K P_y is refused
    (:func:`_check_t_symmetric`)."""
    _check_t_symmetric(op)
    if window is not None:
        return _windowed(op, *window)
    return SpectralDecomposition(*_evd(op.dense(real=True)), op)


def weighted_spectrum(op: DiscreteOperator, w):
    """The ascending eigenvalues of a full solve, w @ |U|^2 for a real
    weight vector w on the grid, and the record of the solve, holding no
    eigenvector past its reduction: each parity block is written, solved
    and reduced before the next is written.  The eigenvalues and densities
    are ``eigendecompose(op)``'s to round-off.  An op that does not commute
    with T = K P_y, or whose real form does not commute with J, is refused.
    """
    _check_t_symmetric(op)
    half = _real_form(op)
    n, m = op.dim, op.dim // 2
    w, lams, dens = _folded_weight(w, op.grid, parity=True), [], []
    for sign in (1.0, -1.0):
        lam, v = _evd(_parity_block(op, half, sign))
        lams.append(lam)  # an odd block has no centre row
        dens.append(_row_density(w[:v.shape[0]], v, op.grid.nx))
        del v
    lam = np.concatenate(lams)
    order = np.argsort(lam, kind="stable")
    return (lam[order], np.concatenate(dens)[order],
            {"path": "real_parity", "blocks": [n - m, m], "n": n, "pairs": n,
             "factor_bytes": 0, **_evd_bytes(n - m)})


def _check_t_symmetric(op: DiscreteOperator):
    """Refuse, before anything is written, an op that does not commute
    with T = K P_y (``op.is_t_symmetric()``): it has no real form."""
    if not op.is_t_symmetric():
        raise ConfigurationError(
            "an eigensolve needs an operator that commutes with T = K P_y "
            "(a potential even in y); this one has no real form")


def _real_form(op: DiscreteOperator):
    """The rows k <= N//2 of op's real form entry list ``op.coo(real=True)``,
    which are all the parity blocks read, or :class:`ConfigurationError`
    when R does not commute bitwise with the flat reversal J.  J maps the
    sorted positions onto themselves in reverse order, so it commutes when
    the values read the same reversed."""
    k, c, r = op.coo(real=True)
    if not np.array_equal(r, r[::-1]):
        raise ConfigurationError(
            "a full solve needs a real form that commutes with J = P_x P_y "
            "(eps = 0 and a potential even in x and y)")
    cut = int(np.searchsorted(k, op.dim // 2, side="right"))
    return k[:cut].copy(), c[:cut].copy(), r[:cut].copy()


def _evd(a):
    """eigh of a, which it may overwrite, by LAPACK's divide and conquer."""
    return scipy.linalg.eigh(a, overwrite_a=True, driver="evd")


def _evd_bytes(order):
    """The bytes of a real dense array of the given order and of LAPACK's
    ``evd`` workspace for it: work and the 4-byte iwork, from the driver's
    lwork query."""
    from scipy.linalg import lapack
    work, iwork, _ = lapack.dsyevd_lwork(order)
    return {"dense_bytes": 8 * order ** 2,
            "workspace_bytes": 8 * int(work) + 4 * int(iwork)}


def _folded_weight(w, grid: GridSpec, parity):
    """The weight of |phi|^2 that gives w @ |U|^2: w folded by P_y, and
    with ``parity`` that folded again by the flat reversal J, for the
    ceil(N/2) rows of the parity-block vectors.  Both folds are exact."""
    w = np.asarray(w, dtype=float)
    w = 0.5 * (w + w.reshape(grid.ny, grid.nx)[::-1].ravel())
    if not parity:
        return w
    m = w.size // 2
    return np.concatenate([0.5 * (w[:m] + w[::-1][:m]), w[m:w.size - m]])


def _row_density(w, a, nx):
    """w @ |a|^2, the squares taken nx rows at a time, so no temporary has
    as many rows as a.  The squares are C ordered whatever the layout of a,
    so a column sums in the same order in any layout."""
    w = np.asarray(w, dtype=float)
    out = np.zeros(a.shape[1])
    for k in range(0, a.shape[0], nx):
        out += w[k:k + nx] @ (np.abs(a[k:k + nx], order="C") ** 2)
    return out


def _windowed(op: DiscreteOperator, lo, hi):
    """The eigenpairs in (lo, hi], certified by the stencil's inertia counts
    c_lo, c_hi at lo and hi.

    Above SPARSE_DIM_MIN, a window of at most N/16 pairs is solved by
    :func:`_shift_invert` on the sparse real form; any other by one eigh of
    the dense one for the pairs c_lo - 1 to c_hi.  Either way the window
    must hold c_hi - c_lo eigenvalues, and each bracketing pair that exists
    must be returned and lie at or below lo or above hi, else
    :class:`SpectralWindowError`.  Lanczos from one start vector finds an
    exactly multiple eigenvalue only once, so sparse pairs the counts
    reject are solved again dense, when the dense real form fits.
    """
    if not lo < hi:
        raise ConfigurationError(f"window needs lo < hi, got {(lo, hi)}")
    n = op.dim
    try:
        c_lo, c_hi = (int(c) for c in op.inertia_counts((lo, hi)))
    except np.linalg.LinAlgError:  # an end is an eigenvalue of a leading block
        raise SpectralWindowError(f"no inertia count at a window end of "
                                  f"{(lo, hi)}; move it off the spectrum") from None

    def certified(solver, lam, v, first, record):
        # lam[i] is eigenvalue first + i if the counts hold
        below, above = lam[:c_lo - first], lam[c_hi - first:]
        if (first < 0 or below.size != (c_lo > 0) or above.size != (c_hi < n)
                or np.count_nonzero((lam > lo) & (lam <= hi)) != c_hi - c_lo
                or np.any(below > lo) or np.any(above <= hi)):
            raise SpectralWindowError(
                f"inertia counts {c_lo}, {c_hi} at {lo}, {hi} disagree with "
                f"the eigenvalues {lam}")
        k = slice(c_lo - first, c_hi - first)
        cert = {"window": [lo, hi], "counts": [c_lo, c_hi],
                "bracket": [float(b[0]) if b.size else None
                            for b in (below, above)],
                "solver": solver, **record}
        return SpectralDecomposition(lam[k], v[:, k].copy(), op, cert)

    def dense():
        first = max(c_lo - 1, 0)
        return certified("dense", *scipy.linalg.eigh(
            op.dense(real=True), subset_by_index=(first, min(c_hi, n - 1)),
            overwrite_a=True), first, {})

    if not (n > SPARSE_DIM_MIN and 16 * (c_hi - c_lo) <= n):
        return dense()
    pairs = _shift_invert(op, lo, hi, c_lo, c_hi)
    try:
        return certified("sparse", *pairs)
    except SpectralWindowError as rejected:
        try:
            return dense()
        except CapacityError:
            raise rejected from None


def _shift_invert(op: DiscreteOperator, lo, hi, c_lo, c_hi):
    """Ascending eigenpairs c_lo - 1 to c_hi (those that exist) of the
    sparse real form (``op.csc``), the index ``first`` of the first and the
    solve's record {sigma, nev, doublings}, from shift-invert Lanczos
    (ARPACK eigsh) at sigma = (lo + hi)/2, or for c_lo = 0 at max(lo, the
    Gershgorin floor ``op.gershgorin_bounds()[0]``), below the lowest
    eigenvalue.

    eigsh returns the k pairs nearest sigma.  k starts at the window and
    its two neighbours plus SPARSE_PAD, and doubles, up to N/8, while a
    neighbour that exists (c_lo > 0, c_hi < N) is missing.  The indices
    follow from c_lo and the number returned at or below lo, so they are
    right only when the counts are; :func:`_windowed` checks them.  A
    neighbour still missing, no convergence, or a shift that is exactly an
    eigenvalue (SuperLU's singular factor) raises
    :class:`SpectralWindowError`.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh
    n, a = op.dim, op.csc(real=True)
    sigma = 0.5 * (lo + hi) if c_lo else max(lo, op.gershgorin_bounds()[0])
    nev, doublings = c_hi - c_lo + 2 + SPARSE_PAD, 0
    while True:
        try:
            lam, v = eigsh(a, nev, sigma=sigma, which="LM", v0=np.ones(n),
                           tol=0)
        except ArpackNoConvergence:
            raise SpectralWindowError(f"shift-invert Lanczos for {nev} pairs "
                                      f"near {sigma} did not converge") from None
        except RuntimeError as exc:  # SuperLU's singular factor, or ARPACK
            raise SpectralWindowError(f"no shift-invert at {sigma} for the "
                                      f"window {(lo, hi)}: {exc}") from None
        order = np.argsort(lam, kind="stable")
        lam, v = lam[order], v[:, order]
        n_below = int(np.count_nonzero(lam <= lo))
        missing = ((c_lo > 0 and n_below == 0)
                   or (c_hi < n and not np.any(lam > hi)))
        if not missing:
            break
        if nev >= n // 8:
            raise SpectralWindowError(
                f"inertia counts {c_lo}, {c_hi} at {lo}, {hi} leave a "
                f"bracketing eigenvalue outside the {nev} nearest {sigma}")
        nev, doublings = min(2 * nev, n // 8), doublings + 1
    # the pairs nearest sigma are contiguous, so if the counts hold, lam[0]
    # is eigenvalue c_lo - n_below; keep c_lo - 1 to c_hi, as eigh does
    start = max(n_below - 1, 0)
    keep = slice(start, n_below + c_hi - c_lo + 1)
    return (lam[keep], v[:, keep], c_lo - n_below + start,
            {"sigma": sigma, "nev": nev, "doublings": doublings})


def _parity_block(op: DiscreteOperator, entries, sign):
    """The even (``sign`` +1) or odd (-1) block of a real form R that
    commutes with J, folded from its entry list ``entries``.

    In the basis (e_k +- e_{N-1-k})/sqrt(2), k < m = N//2, plus the centre
    e_m in the even block when N is odd, R is diag(R11 + R12 J, R11 - R12 J)
    with R11 = R[:m, :m] and (R12 J)[k, l] = R[k, N-1-l]: an entry R[k, c]
    lands on block column c, or N-1-c when c >= N - m.  The block is
    Fortran ordered, so eigh can overwrite it without a copy.
    """
    n, m = op.dim, op.dim // 2
    centre = sign > 0 and n > 2 * m
    block = checked_zeros((m + centre,) * 2, order="F")
    k, c, r = entries
    left, right = (k < m) & (c < m), (k < m) & (c >= n - m)
    block[k[left], c[left]] = r[left]
    block[k[right], n - 1 - c[right]] += sign * r[right]
    if centre:  # the centre column and row, the off-centre part scaled
        mid, row = (k < m) & (c == m), (k == m) & (c <= m)
        block[k[mid], m] = np.sqrt(2.0) * r[mid]
        block[m, c[row]] = np.where(c[row] < m, np.sqrt(2.0), 1.0) * r[row]
    return block


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


def weight_dx_s(grid: GridSpec, power):
    """The nx x nx factor (1 + Dx^2)^(power/2), from the 1D Dirichlet Dx^2
    eigenbasis; :func:`~magstark.grid.apply_x` applies the 2D weight
    kron(I_ny, factor).  Callers check their own s: power -s smooths the
    limiting-absorption probe, power s grows the trace-class chain."""
    lam, u = np.linalg.eigh(d2_op(grid.nx, grid.hx))
    return (u * (1.0 + lam) ** (power / 2.0)) @ u.T


def decay_weight(grid: GridSpec, j, delta):
    """Diagonal k_j = <x>^(-j(1+delta)) <y>^(-j(1/2+delta)), delta > 0."""
    if not delta > 0:
        raise ConfigurationError(f"delta must be positive, got {delta}")
    xf, yf = grid.meshes()
    return ((1.0 + xf * xf) ** (-j * (1.0 + delta) / 2.0)
            * (1.0 + yf * yf) ** (-j * (0.5 + delta) / 2.0))


LOCALIZATION_THRESHOLD = 0.99


def interior_mask(grid: GridSpec, margin):
    """The grid points of the centered box of relative size (1 - 2 margin)
    per axis, as a boolean grid vector."""
    if not 0.0 < margin < 0.5:
        raise ConfigurationError(f"margin must lie in (0, 0.5), got {margin}")
    xf, yf = grid.meshes()
    return ((np.abs(xf) <= (1.0 - 2.0 * margin) * grid.lx + 1e-12)
            & (np.abs(yf) <= (1.0 - 2.0 * margin) * grid.ly + 1e-12))

