"""Trace/nuclear/Frobenius norms, shifted resolvents, and norm-bound probes.

Nuclear norms are computed from full singular value decompositions, since
they read every singular value; the desk scale of the grids keeps that exact
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
import scipy.linalg

from .errors import ConfigurationError, NearSingularityError
from .grid import DiscreteOperator, apply_x
from .spectral import WeightSpec, decay_weight, weight_dx_s

RESIDUAL_TOL = 1e-8


def nuclear_norm(m):
    """Sum of singular values (trace norm)."""
    return float(np.sum(scipy.linalg.svdvals(m)))


def frobenius_norm(m):
    return float(np.linalg.norm(m, "fro"))


def operator_norm(m):
    """Largest singular value (spectral norm).

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


def resolvent(op: DiscreteOperator, z):
    """(z - M)^(-1) by direct solve of z - M, written straight from the
    stencil, with a residual check.

    A z on the spectrum (an exactly singular z - M) or too near it (a
    residual over RESIDUAL_TOL) raises :class:`NearSingularityError`.
    """
    z = complex(z)
    n = op.dim
    a = op.dense(z)
    try:
        r = np.linalg.solve(a, np.eye(n, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise NearSingularityError(
            f"z = {z} is an eigenvalue of M: z - M is singular") from exc
    res = z * r - op.stencil_apply(r)
    res[np.diag_indices(n)] -= 1.0
    defect = float(np.max(np.abs(res)))
    if not defect <= RESIDUAL_TOL:  # a NaN defect fails too
        raise NearSingularityError(
            f"resolvent solve at z = {z} left residual {defect:.3g} > {RESIDUAL_TOL}")
    return r


@dataclass(frozen=True)
class ProbeSpec:
    """Complex probe points; delta_list is the Im-halving sweep applied to z.

    The second point z' stays fixed through the sweep, keeping one resolvent
    in the level-counting regime so the scaled product stays flat; sweeping
    both imaginary parts at desk-scale level spacing drives the product
    through a transition region instead.
    """

    z: complex
    z_prime: complex
    delta_list: tuple = (0.5, 0.25, 0.125)

    def __post_init__(self):
        if self.z.imag == 0.0 or self.z_prime.imag == 0.0:
            raise ConfigurationError("probe points must have nonzero imaginary part")
        d = self.delta_list
        if any(not x > 0 for x in d) or any(d[i] <= d[i + 1] for i in range(len(d) - 1)):
            raise ConfigurationError(
                f"delta_list must be decreasing and positive, got {d}")


@dataclass(frozen=True)
class TraceBoundReport:
    """|Im z||Im z'| * ||(z-H)^-1 V (z'-H)^-1||_tr along the halving sweep."""

    deltas: tuple
    products: tuple

    @property
    def spread(self):
        """max/min of the scaled products; bounded spread is the pass signal."""
        lo = min(self.products)
        if lo == 0.0:
            return float("inf") if max(self.products) > 0 else 1.0
        return max(self.products) / lo


def sandwich_trace_norm(h: DiscreteOperator, v_diag, z, z_prime):
    """||(z-H)^-1 V (z'-H)^-1||_tr for one pair of probe points."""
    rz = resolvent(h, z)
    rzp = resolvent(h, z_prime)
    return nuclear_norm((rz * v_diag) @ rzp)


def tracebound_sweep(h: DiscreteOperator, v_diag, probe: ProbeSpec):
    """Scaled trace norms of the sandwiched resolvent along the Im-halving sweep."""
    products = []
    for d in probe.delta_list:
        z = complex(probe.z.real, d * np.sign(probe.z.imag))
        tn = sandwich_trace_norm(h, v_diag, z, probe.z_prime)
        products.append(abs(z.imag) * abs(probe.z_prime.imag) * tn)
    return TraceBoundReport(tuple(probe.delta_list), tuple(products))


def weighted_resolvent_norms(h0: DiscreteOperator, w: WeightSpec):
    """Weighted resolvent norms: hs1 = ||k1 (H0+i)^-1||_HS, tr2 = ||k2 (H0+i)^-2||_tr.

    (-i - H0)^-1 = -(H0+i)^-1, and neither norm sees the sign.
    """
    r = resolvent(h0, -1j)
    k1 = decay_weight(h0.grid, 1, w.delta)
    k2 = decay_weight(h0.grid, 2, w.delta)
    hs1 = frobenius_norm(k1[:, None] * r)
    tr2 = nuclear_norm(k2[:, None] * (r @ r))
    return {"hs1": hs1, "tr2": tr2}


def resolvent_chain_tracenorm(q: DiscreteOperator, dxv_diag, n, w: WeightSpec, z):
    """Trace norm of <Dx>^s dxV [(z-Q)^-1 X]^n <Dx>^s.

    Requires n >= 2 and 1/2 < s < min(1/2 + delta/4, 1); z must keep a gap to
    the spectrum.  <Dx>^s acts on x only, so it is applied one grid row at a
    time from both sides.
    """
    if n < 2:
        raise ConfigurationError(f"n must be >= 2, got {n}")
    s_hi = min(0.5 + w.delta / 4.0, 1.0)
    if not 0.5 < w.s < s_hi:
        raise ConfigurationError(
            f"s must lie in (1/2, {s_hi}) for delta={w.delta}, got {w.s}")
    ws = weight_dx_s(q.grid, w, power=w.s)
    rz = resolvent(q, z)
    xf, _ = q.grid.meshes()
    block = rz * xf  # (z-Q)^-1 X
    m = np.linalg.matrix_power(block, n)
    left = apply_x(q.grid, ws, dxv_diag[:, None] * m)
    return nuclear_norm(apply_x(q.grid, ws.T, left.T).T)
