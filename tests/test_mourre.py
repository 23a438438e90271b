from dataclasses import replace

import numpy as np
import pytest

from magstark.errors import (ConfigurationError, NearSingularityError,
                             SpectralWindowError)
from magstark.grid import make_grid
from magstark.hamiltonian import FieldParams, assemble
from magstark.mourre import (gap_cutoff_norm, gap_cutoff_sweep, lap_probe,
                             mourre_gap_bound)
from magstark.potentials import PotentialSpec, clamp_amplitude, eval_potential
from magstark.spectral import (BumpFunction, WeightSpec, eigendecompose,
                               localized_spectrum, weight_dx_s)
from oracles import embed_x

GRID = make_grid(6, 6, 31, 31)
NO_V = np.zeros(GRID.n_points)
FIELDS = FieldParams(b=1.0, eps=0.5)


def test_mourre_bound_zero_potential_equals_eps():
    dec = eigendecompose(assemble(GRID, FIELDS, NO_V))
    bound = mourre_gap_bound(dec, 1.6, 2.4, FIELDS, np.zeros(GRID.n_points))
    assert abs(bound - FIELDS.eps) <= 1e-12


def test_mourre_bound_shift_by_constant():
    dec = eigendecompose(assemble(GRID, FIELDS, NO_V))
    dxv = np.zeros(GRID.n_points)
    b0 = mourre_gap_bound(dec, 1.6, 2.4, FIELDS, dxv)
    b1 = mourre_gap_bound(dec, 1.6, 2.4, FIELDS, dxv + 0.3)
    assert np.isclose(b1 - b0, 0.3, atol=1e-12)


def test_mourre_bound_clamped_potential():
    spec = clamp_amplitude(PotentialSpec("gaussian", amplitude=0.4, width=1.5),
                           FIELDS.eps / 2.0)
    pv = eval_potential(spec, GRID)
    dec = eigendecompose(assemble(GRID, FIELDS, pv.v))
    bound = mourre_gap_bound(dec, 1.6, 2.4, FIELDS, pv.dxv)
    assert bound >= FIELDS.eps / 2.0 - 0.02 * FIELDS.eps


def test_mourre_bound_can_go_negative_for_strong_potential():
    spec = PotentialSpec("gaussian", amplitude=-2.0, width=1.5)
    pv = eval_potential(spec, GRID)
    fields = FieldParams(b=1.0, eps=0.1)
    dec = eigendecompose(assemble(GRID, fields, pv.v))
    bound = mourre_gap_bound(dec, 0.5, 1.5, fields, pv.dxv)
    assert np.isfinite(bound)
    assert bound < fields.eps  # recorded, not asserted positive


def test_mourre_empty_projector_sentinel():
    dec = eigendecompose(assemble(GRID, FIELDS, NO_V))
    lo = float(dec.eigenvalues[0])
    with pytest.warns(UserWarning, match="no eigenvalues"):
        bound = mourre_gap_bound(dec, lo - 5.0, lo - 4.0, FIELDS,
                                 np.zeros(GRID.n_points))
    assert bound == float("inf")


def _gap_slot_chi(dec, lo=1.2, hi=2.8, plateau=0.5):
    """Cutoff centered in the widest eigenvalue-free slot of the window."""
    lam = dec.eigenvalues
    pts = np.concatenate([[lo], lam[(lam > lo) & (lam < hi)], [hi]])
    gaps = np.diff(pts)
    k = int(np.argmax(gaps))
    return BumpFunction(0.5 * (pts[k] + pts[k + 1]), 0.4 * gaps[k],
                        plateau=plateau)


def test_gap_cutoff_norm_vanishes_on_spectrum_free_cutoff():
    # with supp chi avoiding every eigenvalue, chi(Q0) is exactly zero
    g = make_grid(6, 6, 41, 41)
    v0 = np.zeros(g.n_points)
    chi = _gap_slot_chi(eigendecompose(assemble(g, FieldParams(b=1.0), v0)))
    assert gap_cutoff_norm(g, FieldParams(b=1.0, eps=0.0), v0, chi) <= 1e-6


def test_gap_cutoff_support_overlap_error():
    g = make_grid(6, 6, 31, 31)
    chi = BumpFunction(1.0, 0.1, plateau=0.5)  # sits on the Landau cluster
    with pytest.raises(SpectralWindowError, match="within"):
        gap_cutoff_sweep(g, 1.0, np.zeros(g.n_points), chi, (0.1, 0.05),
                         q_localized=np.array([1.0, 3.0]))


def test_lap_probe_validation():
    h = assemble(GRID, FIELDS, NO_V)
    with pytest.raises(ConfigurationError, match="delta_list"):
        lap_probe(eigendecompose(h), 2.0, WeightSpec(s=0.75), (0.1, 0.2))


def test_lap_probe_blows_up_at_localized_eigenvalue():
    # negative control: a deep attractive well pins a localized level; the
    # weighted resolvent grows like 1/delta there (2x per halving, >= 5x
    # across the sweep)
    spec = PotentialSpec("gaussian", amplitude=-2.0, width=1.5)
    fields = FieldParams(b=1.0, eps=0.1)
    h = assemble(GRID, fields, eval_potential(spec, GRID).v)
    dec = eigendecompose(h)
    loc = localized_spectrum(dec, margin=0.05)
    lam0 = float(loc[0])
    deltas = tuple(2.0 ** (-k) for k in range(1, 9))
    rep = lap_probe(dec, lam0, WeightSpec(s=0.75), deltas)
    assert rep.sweep_growth >= 5.0
    assert rep.norms[-1] / rep.norms[-2] >= 1.8


def test_lap_probe_plateau_off_spectrum():
    # at a spectrum-free lambda the norms saturate once delta resolves the gap
    h = assemble(GRID, FIELDS, NO_V)
    dec = eigendecompose(h)
    lam = dec.eigenvalues
    win = (lam > 1.5) & (lam < 2.5)
    pts = np.concatenate([[1.5], lam[win], [2.5]])
    gaps = np.diff(pts)
    k = int(np.argmax(gaps))
    lam0 = 0.5 * (pts[k] + pts[k + 1])
    deltas = tuple(2.0 ** (-j) for j in range(1, 9))
    rep = lap_probe(dec, lam0, WeightSpec(s=0.75), deltas)
    assert rep.plateau_ratio <= 1.15



def test_lap_probe_matches_direct_solve():
    # oracle: ||W (z - H)^-1 W|| from one solve against W, without the
    # residual-checked resolvent
    spec = clamp_amplitude(PotentialSpec("gaussian", amplitude=0.3, width=1.5),
                           0.05)
    g = make_grid(6, 6, 21, 21)
    h = assemble(g, FieldParams(b=1.0, eps=0.1), eval_potential(spec, g).v)
    w = WeightSpec(s=0.75)
    wmat = embed_x(g, weight_dx_s(g, w))
    deltas = (0.5, 0.125, 0.03125)
    rep = lap_probe(eigendecompose(h), 2.1, w, deltas)
    eye = np.eye(g.n_points)
    for d, norm in zip(deltas, rep.norms):
        r = np.linalg.solve((2.1 + 1j * d) * eye - h.dense(), wmat.astype(complex))
        expected = np.linalg.norm(wmat @ r, 2)
        assert abs(norm - expected) <= 1e-12 * expected


@pytest.mark.parametrize("eps,y0,path", [
    (0.1, 0.0, "real"), (0.0, 0.0, "real_parity"), (0.1, 0.7, "complex")])
def test_lap_probe_matches_direct_solve_on_every_factor(eps, y0, path):
    # eps > 0 sweeps the real form phi, eps = 0 scatters phi from the parity
    # blocks, and a V that is not even in y keeps the complex U
    g = make_grid(6, 6, 17, 15)
    xf, yf = g.meshes()
    v = 0.2 * np.exp(-(xf * xf + (yf - y0) ** 2) / 2.0)
    h = assemble(g, FieldParams(b=1.0, eps=eps), v)
    dec = eigendecompose(h)
    assert dec.path == path
    w = WeightSpec(s=0.75)
    wmat = embed_x(g, weight_dx_s(g, w))
    deltas = (0.5, 0.125, 0.03125)
    rep = lap_probe(dec, 2.1, w, deltas)
    assert 0.0 < rep.residual_bound <= 1e-10
    eye = np.eye(g.n_points)
    for d, norm in zip(deltas, rep.norms):
        r = np.linalg.solve((2.1 + 1j * d) * eye - h.dense(), wmat.astype(complex))
        expected = np.linalg.norm(wmat @ r, 2)
        assert abs(norm - expected) <= 1e-12 * expected


PEAK_MB = 24.0


def test_lap_probe_peak_allocation():
    # the sweep holds the real G = <Dx>^-s phi and, per delta, the complex
    # G diag(d) G^T, its conjugate and their Gram matrix: 20.9 MiB at 25^2,
    # against 36.5 MiB when it held the complex U, G and G* and took SVDs
    import tracemalloc
    g = make_grid(6, 6, 25, 25)
    spec = clamp_amplitude(PotentialSpec("gaussian", amplitude=0.3, width=1.5),
                           0.05)
    dec = eigendecompose(assemble(g, FieldParams(b=1.0, eps=0.1),
                                  eval_potential(spec, g).v))
    assert dec.path == "real"
    deltas = tuple(2.0 ** (-k) for k in range(1, 9))
    tracemalloc.start()
    try:
        lap_probe(dec, 2.1, WeightSpec(s=0.75), deltas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_MB * 2 ** 20


def test_lap_probe_certificate_fails_at_an_eigenvalue():
    # at an exact eigenvalue with delta = 1e-6, max|d| = 1e6 lifts the
    # residual bound of the eigenbasis resolvent over RESIDUAL_TOL
    h = assemble(GRID, FIELDS, NO_V)
    dec = eigendecompose(h)
    lam0 = float(dec.eigenvalues[40])
    with pytest.raises(NearSingularityError, match="residual bound"):
        lap_probe(dec, lam0, WeightSpec(s=0.75), (0.5, 1e-6))
    rep = lap_probe(dec, lam0, WeightSpec(s=0.75), (0.5, 0.25))
    assert 0.0 < rep.residual_bound <= 1e-8


def test_lap_probe_rejects_a_windowed_decomposition():
    dec = eigendecompose(assemble(GRID, FIELDS, NO_V), window=(1.5, 2.5))
    with pytest.raises(ConfigurationError, match="full eigendecomposition"):
        lap_probe(dec, 2.0, WeightSpec(s=0.75), (0.5, 0.25))


def test_lap_probe_rejects_a_nan_residual_bound():
    dec = eigendecompose(assemble(GRID, FIELDS, NO_V))
    lam = dec.eigenvalues.copy()
    lam[3] = np.nan
    with np.errstate(invalid="ignore"), \
            pytest.raises(NearSingularityError, match="residual bound"):
        lap_probe(replace(dec, eigenvalues=lam), 2.0, WeightSpec(s=0.75),
                  (0.5, 0.25))
