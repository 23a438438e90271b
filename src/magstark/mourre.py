"""Commutator positivity, gap-cutoff norms and weighted-resolvent probes.

The commutator entering the positivity bound is the multiplication operator
eps + dxV (the value of [d/dx, H] in the continuum algebra).  The raw matrix
commutator cannot serve here: in finite dimension tr(P [D, H] P) = 0 exactly
for any spectral projector P of H, so its compression is never positive; the
Dirichlet corner terms carry the compensating negative weight.  The
multiplication form is the quantity the positivity statement actually
controls.

The limiting-absorption probe needs no eigendecomposition of H: each
delta's weighted-resolvent norm comes from one sparse LU of z - H and a
Lanczos top eigenvalue, every solve certified by its stencil residual.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConfigurationError, MagstarkError, NearSingularityError,
                     SpectralWindowError)
from .grid import DiscreteOperator, GridSpec, apply_x
from .hamiltonian import FieldParams, assemble
from .spectral import (BumpFunction, SpectralDecomposition, WeightSpec,
                       eigendecompose, weight_dx_s)
from .ssf import fit_loglog
from .traces import RESIDUAL_TOL, operator_norm


@dataclass(frozen=True)
class ProbeReport:
    """Parameter sweep with measured norms and derived ratios."""

    params: tuple
    norms: tuple
    slope: float | None = None
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


def mourre_gap_bound(dec: SpectralDecomposition, a, b, fields: FieldParams,
                     dxv):
    """Smallest eigenvalue of the commutator compressed to the [a, b] states.

    The compression uses the multiplication operator eps + dxV; for V = 0 the
    bound equals eps exactly, and a potential clamped to sup|dxV| <= eps/2
    keeps it above eps/2.
    """
    if not a < b:
        raise ConfigurationError(f"need a < b, got a={a}, b={b}")
    sel = (dec.eigenvalues > a) & (dec.eigenvalues <= b)
    if not np.any(sel):
        warnings.warn(f"no eigenvalues in ({a}, {b}]; returning +inf sentinel")
        return float("inf")
    if not sel.all():  # compress only the selected pairs
        dec = replace(dec, eigenvalues=dec.eigenvalues[sel],
                      factor=dec.factor[:, sel])
    compressed = dec.compress(fields.eps + np.asarray(dxv, dtype=float))
    return float(np.linalg.eigvalsh(compressed)[0])


def gap_cutoff_norm(dec: SpectralDecomposition, chi: BumpFunction):
    """Operator norm of chi(H) <x>^-2 from ``dec``, the eigenpairs of H in
    supp chi (or more)."""
    xf, _ = dec.source.grid.meshes()
    wx = 1.0 / (1.0 + xf * xf)
    # chi(H) <x>^-2 = U_k [chi(lam_k) U_k* <x>^-2] and U_k has orthonormal
    # columns, so the k x N factor in brackets has the same operator norm.
    # U_k = Y phi_k with Y = (I + i P_y)/sqrt(2) unitary, and <x>^-2
    # commutes with P_y, so phi_k stands in for U_k.
    return operator_norm(chi(dec.eigenvalues)[:, None]
                         * (dec.factor.T * wx))


def gap_cutoff_sweep(grid: GridSpec, b, v, chi: BumpFunction, eps_list,
                     q_localized, margin=0.2) -> ProbeReport:
    """gap_cutoff_norm over an eps sweep, for a cutoff clear of localized
    sigma(Q) by margin; no log-log slope or r2 at a zero norm."""
    lo, hi = chi.support
    q_localized = np.asarray(q_localized, dtype=float)
    inside = (q_localized > lo - margin) & (q_localized < hi + margin)
    if np.any(inside):
        raise SpectralWindowError(
            f"cutoff support [{lo:.4g}, {hi:.4g}] is within {margin} of "
            f"localized Q eigenvalue(s) {q_localized[inside][:4]}")
    eps_list = tuple(float(e) for e in eps_list)
    norms, infos = [], []
    for e in eps_list:
        dec = eigendecompose(assemble(grid, FieldParams(b=b, eps=e), v),
                             window=chi.support)
        norms.append(gap_cutoff_norm(dec, chi))
        infos.append(dec.health_info())
    norms, infos = tuple(norms), tuple(infos)
    if min(norms) == 0.0:
        return ProbeReport(eps_list, norms, eigensolve=infos)
    slope, _, r2 = fit_loglog(eps_list, norms)
    return ProbeReport(eps_list, norms, slope=slope, r2=r2, eigensolve=infos)


def lap_probe(h: DiscreteOperator, lam, w: WeightSpec,
              delta_list) -> ProbeReport:
    """Norms ||<Dx>^-s (H - lam - i delta)^-1 <Dx>^-s|| along a delta sweep.

    Per delta, z - H (z = lam + i delta) is factored once by SuperLU
    (``splu`` of :meth:`~magstark.grid.DiscreteOperator.csc`), and the norm
    of A = W (z - H)^-1 W, W = <Dx>^-s = kron(I, w1d), is the square root of
    the top eigenvalue of A*A from Lanczos (ARPACK ``eigsh``, k = 1), whose
    products apply W, a solve, W^2, an adjoint solve and W: O(N) memory.

    H is Hermitian, so ||(z - H)^-1|| <= 1/delta, and a solve y is within
    ||r|| / (delta ||y||) of the exact one relative to ||y||, r its residual
    applied by ``stencil_apply``.  A delta under 4 eps_mach ||z - H|| /
    RESIDUAL_TOL (||z - H|| by Gershgorin) is a :class:`ConfigurationError`;
    a bound over RESIDUAL_TOL, a NaN bound or a singular factor raises
    :class:`NearSingularityError`; the report keeps the largest bound as
    ``residual_bound``.  Lanczos without convergence, or a Ritz pair with
    ||A*A v - theta v|| > RESIDUAL_TOL theta, raises :class:`MagstarkError`.
    """
    from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator,
                                     eigsh, splu)
    deltas = tuple(float(d) for d in delta_list)
    # Gershgorin: sigma(H) lies in [lo, hi], so ||H - lam|| <= g
    lo, hi = h.gershgorin_bounds()
    g = max(lam - lo, hi - lam)
    floor = 4 * np.finfo(float).eps * (g + max((0, *deltas))) / RESIDUAL_TOL
    if len(deltas) < 2 or deltas[-1] < floor or any(
            not a > b for a, b in zip(deltas, deltas[1:])):
        raise ConfigurationError(f"delta_list must hold at least two values, "
                                 f"decreasing and >= {floor:.3g}, got {deltas}")
    grid, n, w1d = h.grid, h.dim, weight_dx_s(h.grid, w)
    w2 = w1d @ w1d
    norms, bounds = [], []
    for delta in deltas:
        z = lam + 1j * delta
        try:
            lu = splu(h.csc(z))
        except RuntimeError as exc:  # SuperLU's exactly singular factor
            raise NearSingularityError(f"singular z - H at z = {z}") from exc

        def solve(b, zt, trans):
            y = lu.solve(b, trans=trans)
            r = zt * y - h.stencil_apply(y) - b
            bound = float(np.linalg.norm(r) / (delta * np.linalg.norm(y)))
            if not bound <= RESIDUAL_TOL:  # a NaN bound fails too
                raise NearSingularityError(f"forward-error bound {bound:.3g}"
                                           f" > {RESIDUAL_TOL} at z = {z}")
            bounds.append(bound)
            return y

        def gram(x):  # A*A x
            y = solve(apply_x(grid, w1d, x.reshape(n, 1)), z, "N")
            y = solve(apply_x(grid, w2, y), z.conjugate(), "H")
            return apply_x(grid, w1d, y)

        try:
            theta, v = eigsh(LinearOperator((n, n), gram, dtype=complex), 1,
                             which="LA", v0=np.ones(n), tol=0)
        except ArpackNoConvergence:
            raise MagstarkError(f"Lanczos for the norm at z = {z} did not "
                                f"converge") from None
        ritz = float(np.linalg.norm(gram(v) - theta[0] * v))
        if not ritz <= RESIDUAL_TOL * theta[0]:
            raise MagstarkError(f"Ritz residual {ritz:.3g} of the norm at "
                                f"z = {z} exceeds {RESIDUAL_TOL} theta")
        norms.append(float(np.sqrt(theta[0])))
    return ProbeReport(deltas, tuple(norms), residual_bound=max(bounds))
