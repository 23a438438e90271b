"""Spectral shift function experiments.

The central identity equates the trace difference tr(f(H) - f(H0)) with the
commutator-side trace -(1/eps) tr(dxV f(H)).  Both sides are computed from
eigenvalue sums (never from perturbation determinants): the identity check
compares them, and the eps-scaling sweep samples the commutator side, which
needs one eigensolve per eps and has unipolar weights.  On a truncated
domain the raw trace difference also samples wall states whose contributions
do not pair between H and H0; the optional wall cutoff reweights the traces
with a plateau function vanishing in a collar at the walls, which is the
discrete counterpart of the compactly supported commutator localizer used to
prove the identity and removes exactly the Dirichlet-wall corner terms.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, GapNotFoundError, GeometryError,
                     SpectralWindowError)
from .grid import DiscreteOperator, GridSpec
from .hamiltonian import FieldParams, assemble
from .potentials import PotentialSpec, eval_potential
from .spectral import (BumpFunction, SpectralDecomposition, eigendecompose,
                       localized_spectrum, trace_function,
                       weighted_trace_function)
from .traces import resolvent


@dataclass(frozen=True)
class TraceFormulaReport:
    """Both sides of the trace identity and their unrounded difference."""

    lhs: float
    rhs: float
    residual: float
    h: float

    @property
    def relative_residual(self):
        return abs(self.residual) / max(abs(self.lhs), 1e-8)


@dataclass(frozen=True)
class ScalingReport:
    """Log-log fit of |<xi', f>| against the electric strength sweep."""

    samples: tuple              # (eps, value) pairs, eps decreasing
    slope: float | None
    intercept: float | None
    r2: float | None
    underflow: bool
    target: float


@dataclass(frozen=True)
class TruncationSpec:
    """Increasing cutoff radii; each chi_R is 1 on r <= R and 0 outside 2R."""

    radii: tuple

    def __post_init__(self):
        r = tuple(float(v) for v in self.radii)
        if any(v <= 0 for v in r) or any(r[i] >= r[i + 1] for i in range(len(r) - 1)):
            raise ConfigurationError(f"radii must be positive increasing, got {r}")
        object.__setattr__(self, "radii", r)

    def profile(self, radius):
        """Radial plateau profile for one cutoff radius."""
        return BumpFunction(0.0, 2.0 * radius, plateau=0.5)


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


def resolved_window(grid: GridSpec):
    """Energy range the mesh can represent: oscillations up to ~sqrt(2)/h."""
    h = max(grid.hx, grid.hy)
    return 2.0 / (h * h)


def _check_window(grid, f: BumpFunction):
    lo, hi = f.support
    cap = resolved_window(grid)
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
    fieldsV = eval_potential(spec, grid)
    dech = eigendecompose(assemble(grid, fields, fieldsV.v), window=f.support)
    dech0 = eigendecompose(assemble(grid, fields, np.zeros(grid.n_points)),
                           window=f.support)
    if wall_cutoff is None:
        chi = np.ones(grid.n_points)
    else:
        chi = wall_cutoff_weights(grid, wall_cutoff)
    lhs = (weighted_trace_function(dech, chi, f)
           - weighted_trace_function(dech0, chi, f))
    rhs = -(1.0 / fields.eps) * weighted_trace_function(
        dech, chi * fieldsV.dxv, f)
    return TraceFormulaReport(lhs, rhs, lhs - rhs, h=max(grid.hx, grid.hy))


def truncation_convergence(grid: GridSpec, fields: FieldParams,
                           spec: PotentialSpec, f: BumpFunction,
                           trunc: TruncationSpec):
    """Cutoff-radius study of tr f(H_R) -> tr f(H) and the weighted analogue."""
    rmax = trunc.radii[-1]
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
    rows = []
    for radius in trunc.radii:
        prof = trunc.profile(radius)
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
    return rows


def sigma_q_gap_window(decQ: SpectralDecomposition, margin):
    """Lowest interval keeping >= margin distance to every localized Q level.

    The search runs inside the hull of the localized spectrum and returns the
    first admissible gap (for the free Landau operator that is the window
    between the two lowest level clusters), so reports are reproducible.
    """
    if not margin > 0:
        raise ConfigurationError(f"margin must be positive, got {margin}")
    vals = localized_spectrum(decQ)
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


def epsilon_scaling(grid: GridSpec, b, spec: PotentialSpec, f: BumpFunction,
                    eps_list, wall_cutoff=None) -> ScalingReport:
    """Sample |<xi', f>| over an eps sweep and fit the log-log slope.

    Each sample is the commutator side ``-(1/eps) tr(dxV f(H))`` of the
    identity, which the identity proves equal to the trace difference (the
    definition; :func:`trace_identity_check` computes both) and which is far
    less sensitive to the discrete level sampling.
    """
    eps_list = tuple(float(e) for e in eps_list)
    if any(e <= 0 for e in eps_list) or any(
            eps_list[i] <= eps_list[i + 1] for i in range(len(eps_list) - 1)):
        raise ConfigurationError(
            f"eps_list must be positive decreasing, got {eps_list}")
    fieldsV = eval_potential(spec, grid)
    chi = (np.ones(grid.n_points) if wall_cutoff is None
           else wall_cutoff_weights(grid, wall_cutoff))
    samples = []
    for eps in eps_list:
        dech = eigendecompose(assemble(grid, FieldParams(b=b, eps=eps),
                                       fieldsV.v), window=f.support)
        val = -(1.0 / eps) * weighted_trace_function(
            dech, chi * fieldsV.dxv, f)
        samples.append((eps, abs(val)))
    target = float(spec.decay_n - 2)
    if any(v < 1e-13 for _, v in samples):
        return ScalingReport(tuple(samples), None, None, None, True, target)
    slope, intercept, r2 = fit_loglog([e for e, _ in samples],
                                      [v for _, v in samples])
    return ScalingReport(tuple(samples), slope, intercept, r2, False, target)


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
    rq = resolvent(q, z)
    rh = resolvent(h, z)
    xf, _ = q.grid.meshes()
    block = rq * xf  # (z-Q)^-1 X
    top = max(orders, default=0)
    at = {}
    total = np.zeros_like(rq)
    term = rq  # eps^(n-1) [(z-Q)^-1 X]^(n-1) (z-Q)^-1
    tail = rh  # [(z-Q)^-1 X]^n (z-H)^-1, once advanced
    for n in range(1, top + 1):
        total += term
        tail = block @ tail
        if n in orders:
            at[n] = float(np.max(np.abs(rh - total - (eps ** n) * tail)))
        if n < top:
            term = eps * (block @ term)
    return [at[n] for n in orders]
