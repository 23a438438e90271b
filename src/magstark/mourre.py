"""Commutator positivity, gap-cutoff norms and weighted-resolvent probes.

The commutator entering the positivity bound is the multiplication operator
eps + dxV (the value of [d/dx, H] in the continuum algebra).  The raw matrix
commutator cannot serve here: in finite dimension tr(P [D, H] P) = 0 exactly
for any spectral projector P of H, so its compression is never positive; the
Dirichlet corner terms carry the compensating negative weight.  The
multiplication form is the quantity the positivity statement actually
controls.

The limiting-absorption probe reads every weighted resolvent of its delta
sweep from one eigendecomposition of H, in the real eigenvector factor
whenever H has a real form, and each norm from a Gram eigensolve
(:func:`~magstark.traces.operator_norm`).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, NearSingularityError,
                     SpectralWindowError)
from .grid import GridSpec, apply_x
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
    compressed = dec.compress(fields.eps + np.asarray(dxv, dtype=float))
    return float(np.linalg.eigvalsh(compressed[np.ix_(sel, sel)])[0])


def gap_cutoff_norm(grid: GridSpec, fields: FieldParams, v, chi: BumpFunction):
    """Operator norm of chi(H) <x>^-2 for H with the sampled potential v,
    from the eigenpairs of H in supp chi."""
    dec = eigendecompose(assemble(grid, fields, v), window=chi.support)
    xf, _ = grid.meshes()
    wx = 1.0 / (1.0 + xf * xf)
    # chi(H) <x>^-2 = U_k [chi(lam_k) U_k* <x>^-2] and U_k has orthonormal
    # columns, so the k x N factor in brackets has the same operator norm.
    # For a real factor U_k = Y phi_k with Y = (I + i P_y)/sqrt(2) unitary,
    # and <x>^-2 commutes with P_y, so phi_k stands in for U_k.
    f = dec.factor if dec.path == "complex" else dec.real_eigenvectors()
    return operator_norm(chi(dec.eigenvalues)[:, None] * (f.conj().T * wx))


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
    norms = tuple(gap_cutoff_norm(grid, FieldParams(b=b, eps=e), v, chi)
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
    z = lam + i delta is G diag(d) G*, so the sweep costs one product and
    one operator norm per delta and no solve.

    A real factor keeps the sweep real: U = (phi + i P_y phi)/sqrt(2) = Y phi
    with Y = (I + i P_y)/sqrt(2) unitary, and <Dx>^-s = kron(I, w1d)
    commutes with P_y, so G = Y (<Dx>^-s phi) and the weighted resolvent is
    Y [G diag(d) G^T] Y* with G = <Dx>^-s phi real: the bracket has the
    same norm and is formed by one real product.

    A certificate stands in for the residual check of
    :func:`~magstark.traces.resolvent`, in the factor F the sweep uses (U,
    or phi with the real form R = Y* H Y in place of H): with
    E = H F - F diag(lam_k) (:meth:`SpectralDecomposition.residual`) and
    O = F*F - I,
    (z - H) F diag(d) F* - I = (FF* - I) - E diag(d) F*, whose Frobenius
    norm (a bound on its largest entry) is at most
    ||E||_F max|d| ||F||_2 + ||O||_F, since F is square (so FF* - I has the
    Frobenius norm of O) and ||F||_2^2 <= 1 + ||O||_F.  A bound
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
    ev, grid = dec.eigenvalues, dec.source.grid
    f, e = dec.residual()
    e_fro = np.linalg.norm(e)
    del e
    gram = f.conj().T @ f
    gram[np.diag_indices(dec.dim)] -= 1.0
    o_fro = np.linalg.norm(gram)
    del gram
    f_norm = np.sqrt(1.0 + o_fro)
    g = apply_x(grid, weight_dx_s(grid, w), f)  # <Dx>^-s F
    norms, bounds = [], []
    for delta in deltas:
        z = lam + 1j * delta
        d = 1.0 / (z - ev)
        bound = float(e_fro * np.max(np.abs(d)) * f_norm + o_fro)
        if not bound <= RESIDUAL_TOL:  # a NaN bound fails too
            raise NearSingularityError(
                f"eigenbasis resolvent at z = {z} has residual bound "
                f"{bound:.3g} > {RESIDUAL_TOL}")
        bounds.append(bound)
        norms.append(operator_norm(_sandwich(g, d)))
    return ProbeReport(deltas, tuple(norms), residual_bound=max(bounds))


def _sandwich(g, d):
    """G diag(d) G* for a complex d.

    For a real G it is one real product: diag(d) G^T, read as real numbers,
    interleaves the columns of diag(Re d) G^T and diag(Im d) G^T, so G times
    it holds G diag(d) G^T in the same interleaved layout.
    """
    if np.iscomplexobj(g):
        return (g * d) @ g.conj().T
    b = np.multiply(d[:, None], g.T, order="C")
    return (g @ b.view(float)).view(complex)
