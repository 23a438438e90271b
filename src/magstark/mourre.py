"""Commutator positivity, gap-cutoff norms and weighted-resolvent probes.

The commutator entering the positivity bound is the multiplication operator
eps + dxV (the value of [d/dx, H] in the continuum algebra).  The raw matrix
commutator cannot serve here: in finite dimension tr(P [D, H] P) = 0 exactly
for any spectral projector P of H, so its compression is never positive; the
Dirichlet corner terms carry the compensating negative weight.  The
multiplication form is the quantity the positivity statement actually
controls.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, NearSingularityError,
                     SpectralWindowError)
from .grid import GridSpec, apply_x
from .hamiltonian import FieldParams, assemble
from .potentials import PotentialSpec, eval_potential
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
    residual_bound: float | None = None  # certified resolvent residual

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
    u = dec.eigenvectors[:, sel]
    weights = fields.eps + np.asarray(dxv, dtype=float)
    compressed = (u.conj().T * weights) @ u
    return float(np.linalg.eigvalsh(compressed)[0])


def gap_cutoff_norm(grid: GridSpec, fields: FieldParams, spec: PotentialSpec,
                chi: BumpFunction, q_localized, margin=0.2):
    """Operator norm of chi(H) <x>^-2 for a cutoff clear of localized sigma(Q)."""
    v = eval_potential(spec, grid).v
    lo, hi = chi.support
    q_localized = np.asarray(q_localized, dtype=float)
    if q_localized.size:
        inside = (q_localized > lo - margin) & (q_localized < hi + margin)
        if np.any(inside):
            raise SpectralWindowError(
                f"cutoff support [{lo:.4g}, {hi:.4g}] is within {margin} of "
                f"localized Q eigenvalue(s) {q_localized[inside][:4]}")
    dec = eigendecompose(assemble(grid, fields, v), window=(lo, hi))
    xf, _ = grid.meshes()
    wx = 1.0 / (1.0 + xf * xf)
    # chi(H) <x>^-2 = U_k [chi(lam_k) U_k* <x>^-2] and U_k has orthonormal
    # columns, so the k x N factor in brackets has the same operator norm
    u = dec.eigenvectors
    return operator_norm(chi(dec.eigenvalues)[:, None] * (u.conj().T * wx))


def gap_cutoff_sweep(grid: GridSpec, b, spec: PotentialSpec, chi: BumpFunction,
                 eps_list, q_localized, margin=0.2) -> ProbeReport:
    """gap_cutoff_norm over an eps sweep; no log-log slope or r2 at a zero norm."""
    eps_list = tuple(float(e) for e in eps_list)
    norms = tuple(
        gap_cutoff_norm(grid, FieldParams(b=b, eps=e), spec, chi,
                    q_localized=q_localized, margin=margin)
        for e in eps_list)
    if min(norms) == 0.0:
        return ProbeReport(eps_list, norms)
    slope, _, r2 = fit_loglog(eps_list, norms)
    return ProbeReport(eps_list, norms, slope=slope, r2=r2)


def lap_probe(dec: SpectralDecomposition, lam, w: WeightSpec,
              delta_list) -> ProbeReport:
    """Norms ||<Dx>^-s (H - lam - i delta)^-1 <Dx>^-s|| along a delta sweep.

    Every resolvent is read from the full eigendecomposition ``dec`` of H:
    with G = <Dx>^-s U and d = 1/(z - lam_k), the weighted resolvent at
    z = lam + i delta is G diag(d) G*, so the sweep costs one product per
    delta and no solve.  A certificate stands in for the residual check of
    :func:`~magstark.traces.resolvent`: with E = H U - U diag(lam_k) and
    O = U*U - I, (z - H) U diag(d) U* - I = (UU* - I) - E diag(d) U*, whose
    Frobenius norm (a bound on its largest entry) is at most
    ||E||_F max|d| ||U||_2 + ||O||_F, since U is square (so UU* - I has the
    Frobenius norm of O) and ||U||_2^2 <= 1 + ||O||_F.  A bound
    over RESIDUAL_TOL raises :class:`NearSingularityError`; the report keeps
    the largest bound of the sweep as ``residual_bound``.
    """
    deltas = tuple(float(d) for d in delta_list)
    if len(deltas) < 2 or any(d < 1e-6 for d in deltas) or any(
            deltas[i] <= deltas[i + 1] for i in range(len(deltas) - 1)):
        raise ConfigurationError(
            f"delta_list must hold at least two values, decreasing and "
            f">= 1e-6, got {deltas}")
    if dec.window is not None:
        raise ConfigurationError(
            f"lap_probe needs the full eigendecomposition of H, got the "
            f"window {dec.window}")
    h, u, ev = dec.source, dec.eigenvectors, dec.eigenvalues
    e_fro = np.linalg.norm(h.stencil_apply(u) - u * ev)
    gram = u.conj().T @ u
    gram[np.diag_indices(dec.dim)] -= 1.0
    o_fro = np.linalg.norm(gram)
    u_norm = np.sqrt(1.0 + o_fro)
    g = apply_x(h.grid, weight_dx_s(h.grid, w), u)  # <Dx>^-s U
    g_adj = g.conj().T
    norms, bounds = [], []
    for delta in deltas:
        z = lam + 1j * delta
        d = 1.0 / (z - ev)
        bound = float(e_fro * np.max(np.abs(d)) * u_norm + o_fro)
        if bound > RESIDUAL_TOL:
            raise NearSingularityError(
                f"eigenbasis resolvent at z = {z} has residual bound "
                f"{bound:.3g} > {RESIDUAL_TOL}")
        bounds.append(bound)
        norms.append(operator_norm((g * d) @ g_adj))
    return ProbeReport(deltas, tuple(norms), residual_bound=max(bounds))
