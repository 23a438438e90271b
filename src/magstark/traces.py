"""Trace/nuclear/Frobenius norms, shifted resolvents, norm-bound probes, and
:class:`ProbeReport`, the one report of every eps or delta sweep.

Nuclear norms are full singular value decompositions (numpy's, so every
dense kernel here runs on numpy's one OpenBLAS thread pool), since they
read every singular value; the desk scale of the grids keeps that exact
and deterministic, so probe reports can gate on tight ratios instead of
stochastic estimates.  The operator norm reads one value, so it takes the
top eigenvalue of a Gram matrix from a values-only eigensolve instead.  The
resolvent sign convention is (z - M)^(-1) everywhere.  Its residual check
applies M as the 5-point stencil it is
(:meth:`DiscreteOperator.stencil_apply`), in O(N^2) where a dense product
would cost O(N^3).
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, NearSingularityError
from .grid import DiscreteOperator, apply_x
from .spectral import decay_weight, weight_dx_s

RESIDUAL_TOL = 1e-8


def nuclear_norm(m):
    """Sum of singular values (trace norm), from LAPACK gesdd without
    vectors; nan for a non-finite m, which never reaches LAPACK."""
    return (float(np.sum(np.linalg.svd(m, compute_uv=False)))
            if np.isfinite(m).all() else float("nan"))


def frobenius_norm(m):
    return float(np.linalg.norm(m, "fro"))


def operator_norm(m):
    """Largest singular value (spectral norm) of a dense m; it serves
    :func:`~magstark.mourre.gap_cutoff_norm`'s k x N factor.

    sigma_max^2 is the top eigenvalue of the Gram matrix of m's smaller
    side (Golub & Van Loan, Matrix Computations, 8.6), read from a
    values-only eigensolve (LAPACK evd), whose tridiagonal reduction costs
    less than the bidiagonal reduction of an SVD.  sigma_max keeps full
    relative accuracy; the Gram matrix squares the scale of m, so entries
    must stay well inside 1e+-150.
    """
    m = np.asarray(m)
    if not m.size:
        return 0.0
    gram = m.conj().T @ m if m.shape[0] >= m.shape[1] else m @ m.conj().T
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


def column_block_max(f, grid):
    """max |f(s)| over the column slices s of nx columns that tile the N grid
    points; np.max, unlike a running max(), keeps a NaN of any block."""
    return float(np.max([np.max(np.abs(f(slice(j, j + grid.nx))))
                         for j in range(0, grid.n_points, grid.nx)]))


def resolvent(op: DiscreteOperator, z):
    """(z - M)^(-1) by one direct solve of z - M, written from ``op.coo()``
    and dropped once solved, against I as a strided view of one unit
    vector.  A z on the spectrum (an exactly singular z - M) or too near it
    (a stencil residual over RESIDUAL_TOL, checked nx columns at a time)
    raises :class:`NearSingularityError`.
    """
    z = complex(z)
    n = op.dim
    eye = sliding_window_view(np.eye(1, 2 * n - 1, n - 1, dtype=complex)[0],
                              n)[::-1]
    try:
        r = np.linalg.solve(op.dense(z), eye)
    except np.linalg.LinAlgError as exc:
        raise NearSingularityError(
            f"z = {z} is an eigenvalue of M: z - M is singular") from exc
    defect = column_block_max(
        lambda s: z * r[:, s] - op.stencil_apply(r[:, s]) - eye[:, s], op.grid)
    if not defect <= RESIDUAL_TOL:  # a NaN defect fails too
        raise NearSingularityError(
            f"resolvent solve at z = {z} left residual {defect:.3g} > {RESIDUAL_TOL}")
    return r


def checked_sweep(name, values, least, floor=0.0, increasing=False):
    """values as floats, refused unless there are at least ``least`` of them,
    each positive and above ``floor`` (a NaN floor refuses none), strictly
    decreasing (or increasing)."""
    v = tuple(float(x) for x in values)
    s = v[::-1] if increasing else v
    if (len(v) < least or not all(a > b for a, b in zip(s, s[1:]))
            or not all(x > 0 and not x <= floor for x in v)):
        raise ConfigurationError(
            f"{name} must hold at least {({2: 'two', 3: 'three'})[least]} "
            f"values, {'in' if increasing else 'de'}creasing and above "
            f"{floor:.3g}, got {v}")
    return v


@dataclass(frozen=True)
class ProbeSpec:
    """Complex probe points; delta_list is the Im-halving sweep applied to z.

    The second point z' stays fixed through the sweep, keeping one resolvent
    in the level-counting regime so the scaled product stays flat; sweeping
    both imaginary parts at desk-scale level spacing drives the product
    through a transition region instead.  The spread of one product is 1
    whatever it is, so the sweep needs two deltas or more.
    """

    z: complex
    z_prime: complex
    delta_list: tuple = (0.5, 0.25, 0.125)

    def __post_init__(self):
        if self.z.imag == 0.0 or self.z_prime.imag == 0.0:
            raise ConfigurationError("probe points must have nonzero imaginary part")
        checked_sweep("delta_list", self.delta_list, 2)


@dataclass(frozen=True)
class ProbeReport:
    """Norms measured along a parameter sweep, the log-log fit of norm
    against parameter where one was made, and the solves behind them."""

    params: tuple
    norms: tuple
    slope: float | None = None
    intercept: float | None = None
    r2: float | None = None
    residual_bound: float | None = None  # largest certified solve bound
    eigensolve: tuple = ()  # health_info() of each windowed solve

    @property
    def plateau_ratio(self):
        """norm at the smallest parameter over norm at twice that parameter."""
        return self.norms[-1] / self.norms[-2]

    @property
    def sweep_growth(self):
        """Total growth of the norm across the sweep."""
        return self.norms[-1] / self.norms[0]

    @property
    def spread(self):
        """max/min of the norms; bounded spread is the pass signal."""
        lo = min(self.norms)
        if lo == 0.0:
            return float("inf") if max(self.norms) > 0 else 1.0
        return max(self.norms) / lo


def tracebound_sweep(h: DiscreteOperator, v_diag, probe: ProbeSpec):
    """|Im z||Im z'| ||(z-H)^-1 V (z'-H)^-1||_tr along the Im-halving sweep;
    no resolvent outlives the product it enters."""
    products = []
    for d in probe.delta_list:
        z = complex(probe.z.real, d * np.sign(probe.z.imag))
        rv = resolvent(h, z)
        rv *= v_diag  # (z-H)^-1 V
        rv = rv @ resolvent(h, probe.z_prime)
        products.append(abs(z.imag) * abs(probe.z_prime.imag)
                        * nuclear_norm(rv))
    return ProbeReport(tuple(probe.delta_list), tuple(products))


def weighted_resolvent_norms(h0: DiscreteOperator, delta):
    """Weighted resolvent norms: hs1 = ||k1 (H0+i)^-1||_HS, tr2 = ||k2 (H0+i)^-2||_tr.

    k_j = decay_weight(grid, j, delta), built first: delta <= 0 is refused
    unsolved.  (-i - H0)^-1 = -(H0+i)^-1, and neither norm sees the sign.
    """
    k1 = decay_weight(h0.grid, 1, delta)
    k2 = decay_weight(h0.grid, 2, delta)
    r = resolvent(h0, -1j)
    hs1 = frobenius_norm(k1[:, None] * r)
    r = r @ r
    r *= k2[:, None]
    return {"hs1": hs1, "tr2": nuclear_norm(r)}


def resolvent_chain_tracenorm(q: DiscreteOperator, dxv_diag, n, s, delta, z):
    """Trace norm of <Dx>^s dxV [(z-Q)^-1 X]^n <Dx>^s.

    Requires n >= 2 and 1/2 < s < min(1/2 + delta/4, 1); z must keep a gap to
    the spectrum.  <Dx>^s acts on x only, so it is applied one grid row at a
    time from both sides.
    """
    if n < 2:
        raise ConfigurationError(f"n must be >= 2, got {n}")
    s_hi = min(0.5 + delta / 4.0, 1.0)
    if not 0.5 < s < s_hi:
        raise ConfigurationError(f"s must lie in (1/2, min(1/2 + delta/4, 1))"
                                 f" with delta > 0, got s={s}, delta={delta}")
    ws = weight_dx_s(q.grid, s)
    m = resolvent(q, z)
    m *= q.grid.meshes()[0]  # (z-Q)^-1 X
    m = np.linalg.matrix_power(m, n)
    m *= dxv_diag[:, None]
    m = apply_x(q.grid, ws, m)
    m = apply_x(q.grid, ws.T, m.T).T
    return nuclear_norm(m)
