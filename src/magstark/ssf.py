"""Spectral shift function experiments.

The central identity equates the trace difference tr(f(H) - f(H0)) with the
commutator-side trace -(1/eps) tr(dxV f(H)).  Both sides are computed from
eigenvalue sums (never from perturbation determinants): the identity check
compares them, and the eps-scaling sweep samples the commutator side, which
needs one eigensolve per eps and has unipolar weights.  Every eps sweep,
this one and ``lemma7``'s gap-cutoff norms, is one :func:`eps_sweep`.  On a
truncated domain the raw trace difference also samples wall states whose
contributions do not pair between H and H0; the optional wall cutoff
reweights the traces with a plateau function vanishing in a collar at the
walls, which is the discrete counterpart of the compactly supported
commutator localizer used to prove the identity and removes exactly the
Dirichlet-wall corner terms.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, GapNotFoundError, GeometryError,
                     SpectralWindowError)
from .grid import DiscreteOperator, GridSpec
from .hamiltonian import FieldParams, assemble
from .potentials import PotentialSpec, eval_potential
from .spectral import (BumpFunction, eigendecompose, trace_function,
                       weighted_trace_function)
from .traces import ProbeReport, checked_sweep, column_block_max, resolvent


@dataclass(frozen=True)
class TraceFormulaReport:
    """Both sides of the trace identity and their unrounded difference."""

    lhs: float
    rhs: float
    residual: float
    h: float
    eigensolve: dict  # health_info() of the windowed solves of H and H0

    @property
    def relative_residual(self):
        return abs(self.residual) / max(abs(self.lhs), 1e-8)


@dataclass(frozen=True)
class TruncationReport:
    """(radius, |tr f(H_R) - tr f(H)|, weighted difference) rows of the
    cutoff-radius study, and the windowed solves behind them."""

    rows: list
    eigensolve: dict  # health_info() of the solve of H, and of each H_R


def wall_cutoff_weights(grid: GridSpec, collar):
    """Separable plateau weights: 1 on the bulk, 0 within ~`collar` of a wall."""
    if not 0.0 < collar < min(grid.lx, grid.ly):
        raise ConfigurationError(
            f"collar must lie in (0, min(lx, ly)), got {collar}")
    edge = 0.25 * min(grid.hx, grid.hy)
    cx = BumpFunction(0.0, grid.lx - edge, plateau=(grid.lx - collar) / (grid.lx - edge))
    cy = BumpFunction(0.0, grid.ly - edge, plateau=(grid.ly - collar) / (grid.ly - edge))
    xf, yf = grid.meshes()
    return cx(xf) * cy(yf)


def _check_window(grid, f: BumpFunction):
    """Refuse an f supported above the energy range the mesh can represent,
    oscillations up to ~sqrt(2)/h: 2/h^2."""
    lo, hi = f.support
    h = max(grid.hx, grid.hy)
    cap = 2.0 / (h * h)
    if hi > cap:
        raise SpectralWindowError(
            f"test function support [{lo:.3g}, {hi:.3g}] exceeds the resolved "
            f"spectral window (~{cap:.3g} at this mesh)")


def trace_identity_check(grid: GridSpec, fields: FieldParams, spec: PotentialSpec,
                   f: BumpFunction, wall_cutoff=None) -> TraceFormulaReport:
    """Evaluate tr(f(H) - f(H0)) against -(1/eps) tr(dxV f(H)).

    With ``wall_cutoff`` set to a collar width, both traces are localized by
    the plateau weight from :func:`wall_cutoff_weights`; the default is the
    plain traces of the identity.
    """
    if not fields.eps > 0:
        raise ConfigurationError("trace-formula experiments require eps > 0")
    _check_window(grid, f)
    if wall_cutoff is None:
        chi = np.ones(grid.n_points)
    else:
        chi = wall_cutoff_weights(grid, wall_cutoff)
    fieldsV = eval_potential(spec, grid)
    dech = eigendecompose(assemble(grid, fields, fieldsV.v), window=f.support)
    dech0 = eigendecompose(assemble(grid, fields, np.zeros(grid.n_points)),
                           window=f.support)
    lhs = (weighted_trace_function(dech, chi, f)
           - weighted_trace_function(dech0, chi, f))
    rhs = -(1.0 / fields.eps) * weighted_trace_function(
        dech, chi * fieldsV.dxv, f)
    return TraceFormulaReport(lhs, rhs, lhs - rhs, h=max(grid.hx, grid.hy),
                              eigensolve={"h": dech.health_info(),
                                          "h0": dech0.health_info()})


def truncation_convergence(grid: GridSpec, fields: FieldParams,
                           spec: PotentialSpec, f: BumpFunction,
                           radii) -> TruncationReport:
    """Cutoff-radius study of tr f(H_R) -> tr f(H) and the weighted analogue,
    over two or more increasing radii R; each chi_R is 1 on r <= R and 0
    outside 2R."""
    radii = checked_sweep("radii", radii, 2, increasing=True)
    rmax = radii[-1]
    if rmax > min(grid.lx, grid.ly) / 2.0:
        raise GeometryError(
            f"largest radius {rmax} exceeds min(lx, ly)/2 = "
            f"{min(grid.lx, grid.ly) / 2.0}; cutoff would touch the walls")
    xf, yf = grid.meshes()
    r = np.hypot(xf, yf)
    fieldsV = eval_potential(spec, grid)
    dech = eigendecompose(assemble(grid, fields, fieldsV.v), window=f.support)
    tr_full = trace_function(dech, f)
    w_full = weighted_trace_function(dech, fieldsV.dxv, f)
    rows, infos = [], []
    for radius in radii:
        prof = BumpFunction(0.0, 2.0 * radius, plateau=0.5)
        chi_r = prof(r)
        dchi_r = np.zeros_like(chi_r)
        pos = r > 0
        dchi_r[pos] = prof.derivative(r[pos]) * (xf[pos] / r[pos])
        dec_r = eigendecompose(assemble(grid, fields, chi_r * fieldsV.v),
                               window=f.support)
        col1 = abs(trace_function(dec_r, f) - tr_full)
        wgt = dchi_r * fieldsV.v + chi_r * fieldsV.dxv
        col2 = abs(weighted_trace_function(dec_r, wgt, f) - w_full)
        rows.append((radius, col1, col2))
        infos.append(dec_r.health_info())
    return TruncationReport(rows, {"h": dech.health_info(), "h_r": infos})


def sigma_q_gap_window(localized, margin):
    """Lowest interval keeping >= margin distance to every localized Q level,
    given those levels ascending.

    The search runs inside the hull of the localized spectrum and returns the
    first admissible gap (for the free Landau operator that is the window
    between the two lowest level clusters), so reports are reproducible.
    """
    if not margin > 0:
        raise ConfigurationError(f"margin must be positive, got {margin}")
    vals = np.asarray(localized, dtype=float)
    if vals.size < 2:
        raise GapNotFoundError("fewer than two localized eigenvalues; "
                               "no interior gap exists")
    gaps = np.diff(vals)
    admissible = np.nonzero(gaps > 2.0 * margin)[0]
    if admissible.size == 0:
        raise GapNotFoundError(
            f"no gap admits margin {margin}; largest available margin is "
            f"{gaps.max() / 2.0:.6g}")
    k = int(admissible[0])
    return float(vals[k] + margin), float(vals[k + 1] - margin)


def eps_sweep(grid: GridSpec, b, v, support, eps_list, value) -> ProbeReport:
    """|value(eps, dec)| over a sweep of H(b, eps) with potential v, dec the
    solve on the window ``support``, and its log-log fit against eps.

    eps_list must hold three or more positive, strictly decreasing values
    (:func:`~magstark.traces.checked_sweep`): a log-log fit through two
    points has r2 = 1 whatever they are.  No fit is made when some value is
    below 1e-13; slope, intercept and r2 are None then.
    """
    eps_list = checked_sweep("eps_list", eps_list, 3)
    norms, infos = [], []
    for eps in eps_list:
        dec = eigendecompose(assemble(grid, FieldParams(b=b, eps=eps), v),
                             window=support)
        norms.append(abs(value(eps, dec)))
        infos.append(dec.health_info())
    fit = ((None,) * 3 if any(n < 1e-13 for n in norms)
           else fit_loglog(eps_list, norms))
    return ProbeReport(eps_list, tuple(norms), *fit, eigensolve=tuple(infos))


def epsilon_scaling(grid: GridSpec, b, spec: PotentialSpec, f: BumpFunction,
                    eps_list) -> ProbeReport:
    """|<xi', f>| over an eps sweep and its log-log fit (:func:`eps_sweep`).

    Each sample is the commutator side ``-(1/eps) tr(dxV f(H))`` of the
    identity, which the identity proves equal to the trace difference (the
    definition; :func:`trace_identity_check` computes both) and which is far
    less sensitive to the discrete level sampling.
    """
    fieldsV = eval_potential(spec, grid)
    return eps_sweep(grid, b, fieldsV.v, f.support, eps_list, lambda eps, dec:
                     -(1.0 / eps) * weighted_trace_function(dec, fieldsV.dxv, f))


def fit_loglog(xs, ys):
    """Least-squares slope/intercept/r2 of log y against log x."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    a = np.vstack([np.ones_like(lx), lx]).T
    coef, *_ = np.linalg.lstsq(a, ly, rcond=None)
    yhat = a @ coef
    ss_res = float(np.sum((ly - yhat) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[1]), float(coef[0]), r2


def resolvent_expansion_check(q: DiscreteOperator, h: DiscreteOperator,
                              eps, z, orders):
    """Max-norm residual of the finite resolvent expansion, one per order n.

    (z-H)^-1 = sum_{k<n} eps^k [(z-Q)^-1 X]^k (z-Q)^-1
               + eps^n [(z-Q)^-1 X]^n (z-H)^-1
    holds exactly for H = Q + eps X, so the residual only measures solver
    round-off.  Both resolvents are solved once and shared by every order,
    and one ascending pass over n carries the partial sum, its next term and
    [(z-Q)^-1 X]^n (z-H)^-1, so order n costs two products over order n-1.
    """
    for n in orders:
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
    rh = resolvent(h, z)
    term = resolvent(q, z)  # eps^(n-1) [(z-Q)^-1 X]^(n-1) (z-Q)^-1
    block = term * q.grid.meshes()[0]  # (z-Q)^-1 X
    top = max(orders, default=0)
    at = {}
    total = np.zeros_like(term)
    tail = rh  # [(z-Q)^-1 X]^n (z-H)^-1, once advanced
    for n in range(1, top + 1):
        total += term
        tail = block @ tail
        if n in orders:
            at[n] = column_block_max(lambda s: rh[:, s] - total[:, s]
                                     - (eps ** n) * tail[:, s], q.grid)
        if n < top:
            term = eps * (block @ term)
    return [at[n] for n in orders]
