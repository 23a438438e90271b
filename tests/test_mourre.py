from dataclasses import replace

import numpy as np
import pytest

from magstark.errors import (ConfigurationError, MagstarkError,
                             NearSingularityError, SpectralWindowError)
from magstark.grid import make_grid
from magstark.hamiltonian import FieldParams, assemble
from magstark.mourre import (gap_cutoff_norm, gap_cutoff_sweep, lap_probe,
                             mourre_gap_bound)
from magstark.potentials import PotentialSpec, clamp_amplitude, eval_potential
from magstark.spectral import (LOCALIZATION_THRESHOLD, BumpFunction,
                               eigendecompose, interior_mask, weight_dx_s,
                               weighted_spectrum)
from magstark.traces import RESIDUAL_TOL
from oracles import embed_x

GRID = make_grid(6, 6, 31, 31)
NO_V = np.zeros(GRID.n_points)
FIELDS = FieldParams(b=1.0, eps=0.5)


def test_mourre_bound_zero_potential_equals_eps():
    dec = eigendecompose(assemble(GRID, FIELDS, NO_V), window=(1.6, 2.4))
    bound = mourre_gap_bound(dec, FIELDS, np.zeros(GRID.n_points))
    assert abs(bound - FIELDS.eps) <= 1e-12


def test_mourre_bound_shift_by_constant():
    dec = eigendecompose(assemble(GRID, FIELDS, NO_V), window=(1.6, 2.4))
    dxv = np.zeros(GRID.n_points)
    b0 = mourre_gap_bound(dec, FIELDS, dxv)
    b1 = mourre_gap_bound(dec, FIELDS, dxv + 0.3)
    assert np.isclose(b1 - b0, 0.3, atol=1e-12)


def test_mourre_bound_clamped_potential():
    spec = clamp_amplitude(PotentialSpec("gaussian", amplitude=0.4, width=1.5),
                           FIELDS.eps / 2.0)
    pv = eval_potential(spec, GRID)
    dec = eigendecompose(assemble(GRID, FIELDS, pv.v), window=(1.6, 2.4))
    bound = mourre_gap_bound(dec, FIELDS, pv.dxv)
    assert bound >= FIELDS.eps / 2.0 - 0.02 * FIELDS.eps


def test_mourre_bound_can_go_negative_for_strong_potential():
    spec = PotentialSpec("gaussian", amplitude=-2.0, width=1.5)
    pv = eval_potential(spec, GRID)
    fields = FieldParams(b=1.0, eps=0.1)
    dec = eigendecompose(assemble(GRID, fields, pv.v), window=(0.5, 1.5))
    bound = mourre_gap_bound(dec, fields, pv.dxv)
    assert np.isfinite(bound)
    assert bound < fields.eps  # recorded, not asserted positive


def test_mourre_empty_projector_sentinel():
    # below the spectrum both window paths hold no pair: dense at 21 x 21
    # (N = 441), sparse at 31 x 31 (N = 961)
    for n, solver in ((21, "dense"), (31, "sparse")):
        g = make_grid(6, 6, n, n)
        op = assemble(g, FIELDS, np.zeros(g.n_points))
        lo = op.gershgorin_bounds()[0]
        dec = eigendecompose(op, window=(lo - 5.0, lo - 4.0))
        assert dec.dim == 0 and dec.certificate["solver"] == solver
        with pytest.warns(UserWarning, match="no eigenvalues in"):
            bound = mourre_gap_bound(dec, FIELDS, np.zeros(g.n_points))
        assert bound == float("inf")


def _gap_slot_chi(lam, lo=1.2, hi=2.8, plateau=0.5):
    """Cutoff centered in the widest eigenvalue-free slot of the window."""
    pts = np.concatenate([[lo], lam[(lam > lo) & (lam < hi)], [hi]])
    gaps = np.diff(pts)
    k = int(np.argmax(gaps))
    return BumpFunction(0.5 * (pts[k] + pts[k + 1]), 0.4 * gaps[k],
                        plateau=plateau)


def test_gap_cutoff_norm_vanishes_on_spectrum_free_cutoff():
    # with supp chi avoiding every eigenvalue, chi(Q0) is exactly zero
    g = make_grid(6, 6, 41, 41)
    v0 = np.zeros(g.n_points)
    chi = _gap_slot_chi(weighted_spectrum(assemble(g, FieldParams(b=1.0), v0),
                                          v0)[0])
    dec = eigendecompose(assemble(g, FieldParams(b=1.0, eps=0.0), v0),
                         window=chi.support)
    assert gap_cutoff_norm(dec, chi) <= 1e-6


def test_gap_cutoff_support_overlap_error():
    g = make_grid(6, 6, 31, 31)
    chi = BumpFunction(1.0, 0.1, plateau=0.5)  # sits on the Landau cluster
    with pytest.raises(SpectralWindowError, match="within"):
        gap_cutoff_sweep(g, 1.0, np.zeros(g.n_points), chi, (0.1, 0.05),
                         q_localized=np.array([1.0, 3.0]))


def test_lap_probe_validation():
    h = assemble(GRID, FIELDS, NO_V)
    with pytest.raises(ConfigurationError, match="delta_list"):
        lap_probe(h, 2.0, 0.75, (0.1, 0.2))
    # <Dx>^-s smooths only for 1/2 < s < 1
    for s in (0.4, 0.5, 1.0, float("nan")):
        with pytest.raises(ConfigurationError, match="s must lie"):
            lap_probe(h, 2.0, s, (0.5, 0.25))


@pytest.mark.parametrize("target", [10.0, 40.0, 100.0])
def test_lap_probe_delta_floor_follows_the_operator(target, monkeypatch):
    # the floor is 4 eps_mach g / RESIDUAL_TOL, g >= ||z - H|| by Gershgorin;
    # round-off reads as a bound of 0.5-1.5 eps_mach g / delta at 25^2 to
    # 41^2, so a delta at the floor passes, and one under it (1e-6 here
    # failed the bound near eigenvalues 40 and 100) is refused unfactored
    import scipy.sparse.linalg
    h = assemble(GRID, FIELDS, NO_V)
    m = h.dense()
    ev = np.linalg.eigvalsh(m)
    lam = float(ev[np.argmin(np.abs(ev - target))])
    radii = np.abs(m).sum(axis=1) - np.abs(m.diagonal())
    g = np.max(np.abs(lam - h.diag) + radii) + 0.5
    assert g >= np.max(np.abs(ev - lam)) + 0.5
    floor = 4 * np.finfo(float).eps * g / RESIDUAL_TOL
    rep = lap_probe(h, lam, 0.75, (0.5, 1.001 * floor))
    assert 0.0 < rep.residual_bound <= RESIDUAL_TOL
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda a: pytest.fail("factored"))
    for low in (0.999 * floor, 1e-6):
        with pytest.raises(ConfigurationError, match="delta_list"):
            lap_probe(h, lam, 0.75, (0.5, low))


def test_lap_probe_blows_up_at_localized_eigenvalue():
    # negative control: a deep attractive well pins a localized level; the
    # weighted resolvent grows like 1/delta there (2x per halving, >= 5x
    # across the sweep)
    spec = PotentialSpec("gaussian", amplitude=-2.0, width=1.5)
    fields = FieldParams(b=1.0, eps=0.1)
    h = assemble(GRID, fields, eval_potential(spec, GRID).v)
    dec = eigendecompose(h)  # eps > 0: the unsplit full solve
    lam = dec.eigenvalues
    scores = dec.weighted_density(interior_mask(GRID, 0.05))
    lam0 = float(lam[scores > LOCALIZATION_THRESHOLD][0])
    deltas = tuple(2.0 ** (-k) for k in range(1, 9))
    rep = lap_probe(h, lam0, 0.75, deltas)
    assert rep.sweep_growth >= 5.0
    assert rep.norms[-1] / rep.norms[-2] >= 1.8


def test_lap_probe_plateau_off_spectrum():
    # at a spectrum-free lambda the norms saturate once delta resolves the gap
    h = assemble(GRID, FIELDS, NO_V)
    lam = eigendecompose(h, window=(1.5, 2.5)).eigenvalues
    pts = np.concatenate([[1.5], lam[lam < 2.5], [2.5]])
    gaps = np.diff(pts)
    k = int(np.argmax(gaps))
    lam0 = 0.5 * (pts[k] + pts[k + 1])
    deltas = tuple(2.0 ** (-j) for j in range(1, 9))
    rep = lap_probe(h, lam0, 0.75, deltas)
    assert rep.plateau_ratio <= 1.15


def _direct_norms(h, lam, s, deltas):
    """||W (z - H)^-1 W|| from one dense solve against W, without the
    residual-checked resolvent, and a dense 2-norm."""
    g = h.grid
    wmat = embed_x(g, weight_dx_s(g, -s))
    eye = np.eye(g.n_points)
    return [np.linalg.norm(wmat @ np.linalg.solve(
        (lam + 1j * d) * eye - h.dense(), wmat.astype(complex)), 2)
        for d in deltas]


def test_lap_probe_matches_direct_solve():
    spec = clamp_amplitude(PotentialSpec("gaussian", amplitude=0.3, width=1.5),
                           0.05)
    g = make_grid(6, 6, 21, 21)
    h = assemble(g, FieldParams(b=1.0, eps=0.1), eval_potential(spec, g).v)
    deltas = (0.5, 0.125, 0.03125)
    rep = lap_probe(h, 2.1, 0.75, deltas)
    for norm, expected in zip(rep.norms, _direct_norms(h, 2.1, 0.75, deltas)):
        assert abs(norm - expected) <= 1e-12 * expected


@pytest.mark.parametrize("eps,y0,path", [
    (0.1, 0.0, "real"), (0.0, 0.0, "real_parity"), (0.1, 0.7, "complex")])
def test_lap_probe_matches_direct_solve_on_every_factor(eps, y0, path):
    # the three operators the eigensolves tell apart: eps > 0 (real form,
    # which the streamed full solve refuses), eps = 0 (parity split), and a
    # V that is not even in y, which every eigensolve refuses; the probe
    # factors the complex z - H the same way for each
    g = make_grid(6, 6, 17, 15)
    xf, yf = g.meshes()
    v = 0.2 * np.exp(-(xf * xf + (yf - y0) ** 2) / 2.0)
    h = assemble(g, FieldParams(b=1.0, eps=eps), v)
    if path == "real_parity":
        assert weighted_spectrum(h, v)[2]["path"] == path
    else:
        refusal = "J = P_x P_y" if path == "real" else "T = K P_y"
        with pytest.raises(ConfigurationError, match=refusal):
            weighted_spectrum(h, v)
    deltas = (0.5, 0.125, 0.03125)
    rep = lap_probe(h, 2.1, 0.75, deltas)
    assert 0.0 < rep.residual_bound <= 1e-10
    for norm, expected in zip(rep.norms, _direct_norms(h, 2.1, 0.75, deltas)):
        assert abs(norm - expected) <= 1e-12 * expected


PEAK_MB = 2.0


def test_lap_probe_peak_allocation():
    # the sweep holds the stencil, one sparse LU and the Lanczos basis, all
    # O(N): 0.37 MiB at 25^2, against 20.9 MiB when it read an
    # eigendecomposition of H (and held its factor besides)
    import tracemalloc
    g = make_grid(6, 6, 25, 25)
    spec = clamp_amplitude(PotentialSpec("gaussian", amplitude=0.3, width=1.5),
                           0.05)
    h = assemble(g, FieldParams(b=1.0, eps=0.1), eval_potential(spec, g).v)
    deltas = tuple(2.0 ** (-k) for k in range(1, 9))
    lap_probe(h, 2.1, 0.75, deltas[:2])  # imports untraced
    tracemalloc.start()
    try:
        lap_probe(h, 2.1, 0.75, deltas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_MB * 2 ** 20


class _Defective:
    """A SuperLU factor whose solves come back scaled by 1 + defect."""

    def __init__(self, lu, defect):
        self.lu, self.defect = lu, defect

    def solve(self, b, trans="N"):
        return self.lu.solve(b, trans=trans) * (1.0 + self.defect)


def _probe_with_defect(defect, monkeypatch):
    """lap_probe at 31^2 with every solve scaled by 1 + defect."""
    import scipy.sparse.linalg
    splu = scipy.sparse.linalg.splu
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda a: _Defective(splu(a), defect))
    return lap_probe(assemble(GRID, FIELDS, NO_V), 2.0, 0.75,
                     (0.5, 0.25))


def test_lap_probe_rejects_a_solve_defect(monkeypatch):
    # a relative solve error of 1e-6 reads as a bound of about
    # 1e-6 ||z - H|| / delta, far over RESIDUAL_TOL; 1e-12 stays under it
    assert 0.0 < _probe_with_defect(1e-12, monkeypatch).residual_bound <= 1e-8
    with pytest.raises(NearSingularityError, match="forward-error bound"):
        _probe_with_defect(1e-6, monkeypatch)


def test_lap_probe_rejects_a_nan_residual_bound(monkeypatch):
    with np.errstate(invalid="ignore"), \
            pytest.raises(NearSingularityError, match="bound nan"):
        _probe_with_defect(np.nan, monkeypatch)


def test_lap_probe_rejects_a_singular_factor():
    # a NaN in H leaves SuperLU no pivot
    h = assemble(GRID, FIELDS, NO_V)
    diag = h.diag.copy()
    diag[3] = np.nan
    with pytest.raises(NearSingularityError, match="singular"):
        lap_probe(replace(h, diag=diag), 2.0, 0.75, (0.5, 0.25))


def test_lap_probe_rejects_a_wrong_ritz_value(monkeypatch):
    import scipy.sparse.linalg
    eigsh = scipy.sparse.linalg.eigsh

    def off(*args, **kwargs):
        theta, v = eigsh(*args, **kwargs)
        return theta * (1.0 + 1e-6), v

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", off)
    with pytest.raises(MagstarkError, match="Ritz residual"):
        lap_probe(assemble(GRID, FIELDS, NO_V), 2.0, 0.75,
                  (0.5, 0.25))
