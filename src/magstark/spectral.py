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
  of M.  Any other input takes the complex solve, of M itself.
* Parity split.  When the real form R also commutes bitwise with the flat
  reversal J = P_x P_y, as it does for every eps = 0 operator with a
  potential even in x and y, R is block diagonal in the +-1 eigenspaces of
  J.  On the first N//2 indices the even block is R11 + R12 J and the odd
  block R11 - R12 J (the even one bordered by the centre row and column,
  scaled by sqrt(2), when N is odd), so two eigensolves of order about N/2
  replace one of order N at about a quarter of the flops.  Both checks read
  the stencil in O(N), and R or its blocks are written from its entry list,
  built once per solve.  :func:`weighted_spectrum` writes, solves and
  reduces one block at a time for a caller that reads each eigenvector
  only through one weighted density, so it holds one block and its ``evd``
  workspace (3 n_b^2 doubles for blocks of order n_b) where
  :func:`eigendecompose` holds about 4 n_b^2.
* Window.  ``window=(lo, hi)`` computes only the k eigenpairs in (lo, hi].
  A function supported in [lo, hi] vanishes on every other eigenvalue, so
  its f(M) and (weighted) traces are unchanged.  Stencil inertia counts
  certify the pairs (:func:`_windowed`), which one of two paths solves,
  chosen from N and the counts alone.  Above N = 512 a window of at most
  N/16 pairs takes shift-invert Lanczos (ARPACK ``eigsh``) on the sparse
  unsplit real form, at most 7 entries per row, and holds no N x N array.
  Any other window takes one index-subset eigh of the dense real form: 8
  N^2 bytes plus 8 N (k + 2) for eigenvectors, not 16 N^2.  The
  certificate names the path as ``solver``.

A full solve uses LAPACK's ``evd``; a dense window the default driver
``evr``, which has a subset.

The eigenvectors are kept in the real factor they were solved in: the
parity-block vectors (ceil(N/2) rows, with the +-1 parity of each column),
phi for the unsplit real form, and U itself only for the complex solve.
Every reader works in that factor; none builds the complex U from it.
Weighted densities w @ |U|^2 come from ``weighted_density``, compressions
U* diag(w) U from ``compress``, and phi itself from ``real_eigenvectors``.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, SpectralWindowError
from .grid import DiscreteOperator, GridSpec, checked_zeros, d2_op

# A window of at most N/16 pairs is solved sparse above this order.  On 2
# cores a 4-pair window costs about the same both ways at N = 361 to 441
# and 0.6 times as much sparse at N = 729, where dense catches up near
# 0.07 N pairs.
SPARSE_DIM_MIN = 512
SPARSE_PAD = 2  # Lanczos pairs asked for beyond the window and its neighbours


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues of a Hermitian matrix M, and its eigenvectors in
    the factor the solve produced.

    A complex ``factor`` is U itself.  A real one is phi, the eigenvectors of
    the real form (N rows), or, with ``parity`` set, the parity-block vectors
    (ceil(N/2) rows; an odd column is zero on the centre row of odd N) with
    the +-1 parity of each column.  A windowed solve holds only the
    eigenpairs with eigenvalue in (lo, hi], and its ``certificate`` holds the
    window, its inertia counts, the bracketing eigenvalues and the solver
    path, "dense" or "sparse" (with its ``sigma``, ``nev`` and ``doublings``).
    """

    eigenvalues: np.ndarray
    factor: np.ndarray
    source: DiscreteOperator
    parity: np.ndarray | None = None
    certificate: dict | None = None

    @property
    def dim(self):
        return self.eigenvalues.size

    @property
    def path(self):
        """The solve behind the factor: "complex", "real" or "real_parity"."""
        if np.iscomplexobj(self.factor):
            return "complex"
        return "real" if self.parity is None else "real_parity"

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
        the flat reversal J (:func:`_folded_weight`).  The squares are taken
        one grid row at a time (:func:`_row_density`).
        """
        a, grid = self.factor, self.source.grid
        if not np.iscomplexobj(a):
            w = _folded_weight(w, grid, self.parity is not None)
        return _row_density(w, a, grid.nx)

    def compress(self, w):
        """U* diag(w) U over the pairs held, for a real weight vector w on
        the grid, in the stored factor: with U = (phi + i P_y phi)/sqrt(2)
        it is phi^T diag(w_s) phi + i phi^T diag(w_a) P_y phi, where w_s and
        w_a are the y-even and y-odd parts of w, exact for any real w."""
        phi, w = self.real_eigenvectors(), np.asarray(w, dtype=float)
        if phi is None:
            return (self.factor.conj().T * w) @ self.factor
        py = self.source.flip_y(np.arange(w.size))
        return 0.5 * (phi.T @ ((w + w[py])[:, None] * phi)
                      + 1j * (phi.T @ ((w - w[py])[:, None] * phi[py])))

    def solver_info(self):
        """The solver path, the order of each eigh call (N, or the two
        parity blocks), N, the number of eigenpairs held, the bytes of the
        stored factor, and for a full solve the bytes of its largest dense
        array and of that solve's ``evd`` workspace, or the window
        certificate, for a report."""
        n, m = self.source.dim, self.source.dim // 2
        blocks = [n] if self.parity is None else [n - m, m]
        return {"path": self.path, "blocks": blocks, "n": n,
                "pairs": self.dim, "factor_bytes": self.factor.nbytes,
                **(self.certificate or _evd_bytes(self.path, blocks[0]))}

    def health_info(self):
        """:meth:`solver_info` with both health defects of the pairs held."""
        return {**self.solver_info(),
                "reconstruction_defect": self.reconstruction_defect(),
                "orthonormality_defect": self.orthonormality_defect()}

    def reconstruction_defect(self):
        """max|A F - F diag(lam)|, the eigen-residual of the pairs held in
        the stored factor, A applied by ``stencil_apply``.

        A is M and F = U for a complex factor, else F = phi and A the real
        form R = Re M - (Im M) P_y = Re M + P_y Im M (T-symmetry makes Im M
        anticommute with P_y), so R phi = Re(M phi) + P_y Im(M phi).
        """
        f, lam, grid = self.real_eigenvectors(), self.eigenvalues, self.source.grid
        mf = self.source.stencil_apply(self.factor if f is None else f)
        if f is None:
            return float(np.max(np.abs(mf - self.factor * lam), initial=0.0))
        e = mf.real - f * lam
        e.reshape(grid.ny, grid.nx, -1)[::-1] += mf.imag.reshape(
            grid.ny, grid.nx, -1)
        return float(np.max(np.abs(e), initial=0.0))

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
    """Hermitian eigendecomposition, or with ``window=(lo, hi)`` its
    certified eigenpairs in (lo, hi] (:func:`_windowed`).

    A full solve of a T-symmetric operator (``op.is_t_symmetric()``) runs
    on its real form and keeps its eigenvectors in that real factor.  When
    the real form commutes with the flat reversal, its two parity blocks
    are solved instead, and their vectors are merged into one array of
    ceil(N/2) rows in ascending eigenvalue order.
    """
    if window is not None:
        return _windowed(op, *window)
    entries = _parity_entries(op)
    if entries is None:
        return _unsplit(op)
    n, m = op.dim, op.dim // 2
    # both blocks are written before either solve: a block written after
    # the first solve has freed its workspace comes from the heap, not a
    # fresh mmap (glibc raises its mmap threshold on that free), which
    # raised lemma7's and lap-probe's max RSS by about 0.9 MB
    even = _parity_block(op, entries, 1.0)
    odd = _parity_block(op, entries, -1.0)
    del entries
    lam_e, a = _evd(even)
    del even
    lam_o, b = _evd(odd)
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
    return SpectralDecomposition(lam[order], v, op, parity=parity[order])


def weighted_spectrum(op: DiscreteOperator, w):
    """The ascending eigenvalues of a full solve, w @ |U|^2 for a real
    weight vector w on the grid, and the record of the solve
    (:meth:`SpectralDecomposition.solver_info`), holding no eigenvector.

    On the parity path each block is written, solved and reduced before the
    next is written, so one block and its ``evd`` workspace are held at a
    time, and ``factor_bytes`` is 0.  The eigenvalues are those of
    :func:`eigendecompose`, and the densities its ``weighted_density(w)``
    to round-off; any other path is exactly those two calls.
    """
    entries = _parity_entries(op)
    if entries is None:
        dec = _unsplit(op)
        return dec.eigenvalues, dec.weighted_density(w), dec.solver_info()
    n, m = op.dim, op.dim // 2
    w, lams, dens = _folded_weight(w, op.grid, parity=True), [], []
    for sign in (1.0, -1.0):
        lam, v = _evd(_parity_block(op, entries, sign))
        lams.append(lam)  # an odd block has no centre row
        dens.append(_row_density(w[:v.shape[0]], v, op.grid.nx))
        del v
    lam = np.concatenate(lams)
    order = np.argsort(lam, kind="stable")
    return (lam[order], np.concatenate(dens)[order],
            {"path": "real_parity", "blocks": [n - m, m], "n": n, "pairs": n,
             "factor_bytes": 0, **_evd_bytes("real_parity", n - m)})


def _unsplit(op: DiscreteOperator):
    """The full solve of M, or of its real form when op is T-symmetric."""
    return SpectralDecomposition(*_evd(op.dense(real=op.is_t_symmetric())), op)


def _evd(a):
    """eigh of a, which it may overwrite, by LAPACK's divide and conquer."""
    return scipy.linalg.eigh(a, overwrite_a=True, driver="evd")


def _evd_bytes(path, order):
    """The bytes of the largest dense array a full solve on ``path`` writes,
    of the given order, and of LAPACK's ``evd`` workspace for it: work,
    rwork (complex only) and the 4-byte iwork, from the driver's lwork
    query."""
    from scipy.linalg import lapack
    if path == "complex":
        work, iwork, rwork, _ = lapack.zheevd_lwork(order)
        dense, ws = 16 * order ** 2, 16 * int(work.real) + 8 * int(rwork)
    else:
        work, iwork, _ = lapack.dsyevd_lwork(order)
        dense, ws = 8 * order ** 2, 8 * int(work)
    return {"dense_bytes": dense, "workspace_bytes": ws + 4 * int(iwork)}


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
    so a column sums in the same order in eigh's Fortran-ordered vectors
    as in the merged parity-block factor."""
    w = np.asarray(w, dtype=float)
    out = np.zeros(a.shape[1])
    for k in range(0, a.shape[0], nx):
        out += w[k:k + nx] @ (np.abs(a[k:k + nx], order="C") ** 2)
    return out


def _windowed(op: DiscreteOperator, lo, hi):
    """The eigenpairs in (lo, hi], certified by the stencil's inertia counts
    c_lo, c_hi at lo and hi.

    Above SPARSE_DIM_MIN, a window of at most N/16 pairs is solved by
    :func:`_shift_invert` on the sparse real form, or M; any other by one
    eigh of the dense one for the pairs c_lo - 1 to c_hi.  Either way the
    window must hold c_hi - c_lo eigenvalues, and each bracketing pair that
    exists must be returned and lie at or below lo or above hi, else
    :class:`SpectralWindowError`.
    """
    if not lo < hi:
        raise ConfigurationError(f"window needs lo < hi, got {(lo, hi)}")
    n, real = op.dim, op.is_t_symmetric()
    try:
        c_lo, c_hi = (int(c) for c in op.inertia_counts((lo, hi)))
    except np.linalg.LinAlgError:  # an end is an eigenvalue of a leading block
        raise SpectralWindowError(f"no inertia count at a window end of "
                                  f"{(lo, hi)}; move it off the spectrum") from None
    if n > SPARSE_DIM_MIN and 16 * (c_hi - c_lo) <= n:
        solver = "sparse"
        lam, v, first, record = _shift_invert(op, real, lo, hi, c_lo, c_hi)
    else:
        solver, first, record = "dense", max(c_lo - 1, 0), {}
        lam, v = scipy.linalg.eigh(op.dense(real=real),
                                   subset_by_index=(first, min(c_hi, n - 1)),
                                   overwrite_a=True)
    # lam[i] is eigenvalue first + i if the counts hold
    below, above = lam[:c_lo - first], lam[c_hi - first:]
    if (first < 0 or below.size != (c_lo > 0) or above.size != (c_hi < n)
            or np.count_nonzero((lam > lo) & (lam <= hi)) != c_hi - c_lo
            or np.any(below > lo) or np.any(above <= hi)):
        raise SpectralWindowError(f"inertia counts {c_lo}, {c_hi} at {lo}, "
                                  f"{hi} disagree with the eigenvalues {lam}")
    k = slice(c_lo - first, c_hi - first)
    cert = {"window": [lo, hi], "counts": [c_lo, c_hi],
            "bracket": [float(b[0]) if b.size else None for b in (below, above)],
            "solver": solver, **record}
    return SpectralDecomposition(lam[k], v[:, k].copy(), op, certificate=cert)


def _shift_invert(op: DiscreteOperator, real, lo, hi, c_lo, c_hi):
    """Ascending eigenpairs c_lo - 1 to c_hi (those that exist) of the
    sparse real form, or of M (``op.csc``), the index ``first`` of the
    first and the solve's record {sigma, nev, doublings}, from shift-invert
    Lanczos (ARPACK eigsh) at sigma = (lo + hi)/2, or for c_lo = 0 at max(lo,
    the Gershgorin floor ``op.gershgorin_bounds()[0]``), below the lowest
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
    n, a = op.dim, op.csc(real=real)
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


def _parity_entries(op: DiscreteOperator):
    """``op.coo(real=True)``, the entry list of the real form, when op is
    T-symmetric and its real form commutes bitwise with the flat reversal
    J, else None.  J maps the sorted positions onto themselves in reverse
    order, so it commutes when the values read the same reversed."""
    if not op.is_t_symmetric():
        return None
    entries = op.coo(real=True)
    return entries if np.array_equal(entries[2], entries[2][::-1]) else None


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


@dataclass(frozen=True)
class WeightSpec:
    """Exponents for the <Dx>^-s and power-decay k_j weights."""

    s: float = 0.75
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


def interior_mask(grid: GridSpec, margin):
    """The grid points of the centered box of relative size (1 - 2 margin)
    per axis, as a boolean grid vector."""
    if not 0.0 < margin < 0.5:
        raise ConfigurationError(f"margin must lie in (0, 0.5), got {margin}")
    xf, yf = grid.meshes()
    return ((np.abs(xf) <= (1.0 - 2.0 * margin) * grid.lx + 1e-12)
            & (np.abs(yf) <= (1.0 - 2.0 * margin) * grid.ly + 1e-12))


def localization_scores(dec: SpectralDecomposition, margin):
    """Interior-box mass fraction of every eigenvector, in the box of
    :func:`interior_mask`: wall-hugging truncation artifacts score low,
    gaussian-decaying physical states score near 1."""
    return dec.weighted_density(interior_mask(dec.source.grid, margin))


def localized_spectrum(dec: SpectralDecomposition, margin=0.05):
    """Ascending eigenvalues whose eigenvectors carry more than
    LOCALIZATION_THRESHOLD of their mass in the interior box: the discrete
    proxy for sigma(Q)."""
    return dec.eigenvalues[localization_scores(dec, margin)
                           > LOCALIZATION_THRESHOLD]
