"""The real-form, parity-split and windowed eigensolves against references.

The reference is a plain complex ``scipy.linalg.eigh`` of the assembled
matrix, the path every operator took before the K P_y real form existed.
The parity split of an eps = 0 operator is checked against the unsplit
order-N eigh of its real form, the divide-and-conquer driver of every full
solve against the default one, and the densities read from the stored real
factor against the complex eigenvectors built from it.  A window's inertia
counts are checked against dense eigenvalue counts, and its pairs against
the by-value solve of ``oracles.windowed_by_value``.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magstark.errors import (CapacityError, ConfigurationError,
                             SpectralWindowError)
from magstark.grid import DiscreteOperator, make_grid
from magstark.hamiltonian import FieldParams, assemble
from magstark.mourre import gap_cutoff_norm, mourre_gap_bound
from magstark.potentials import FAMILIES, PotentialSpec, eval_potential
from magstark.spectral import (BumpFunction, SpectralDecomposition,
                               _commutes_with_reversal, _parity_blocks,
                               _real_form, eigendecompose, localization_scores,
                               localized_spectrum, trace_function,
                               weighted_trace_function)
from magstark.ssf import wall_cutoff_weights
from magstark.traces import operator_norm
from oracles import (apply_function, commutes_with_reversal, eigenvectors,
                     is_t_symmetric, parity_blocks, real_form,
                     windowed_by_value)

GAUSS = PotentialSpec("gaussian", amplitude=0.5, width=2.0)
FIELDS = FieldParams(b=1.0, eps=0.5)
F = BumpFunction(2.0, 0.8)


def _reference(op):
    lam, u = scipy.linalg.eigh(op.dense())
    return SpectralDecomposition(lam, u, op)


@pytest.fixture
def eigh_inputs(monkeypatch):
    """Record whether each eigensolve received a complex matrix."""
    seen = []
    orig = scipy.linalg.eigh

    def spy(a, *args, **kwargs):
        seen.append(np.iscomplexobj(a))
        return orig(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    return seen


@pytest.fixture
def eigh_orders(monkeypatch):
    """Record the order of the matrix each eigensolve received."""
    seen = []
    orig = scipy.linalg.eigh

    def spy(a, *args, **kwargs):
        seen.append(a.shape[0])
        return orig(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    return seen


def _norm(dec):
    return float(np.max(np.abs(dec.eigenvalues)))


def _unsplit(op, window=None):
    """One order-N eigh of the real form Re M - (Im M) P_y, mapped back to M."""
    nx, ny = op.grid.nx, op.grid.ny
    py = np.arange(op.dim).reshape(ny, nx)[::-1].ravel()
    subset = {} if window is None else {"subset_by_value": window}
    lam, phi = scipy.linalg.eigh(real_form(op.dense(), op.grid), **subset)
    return SpectralDecomposition(lam, (phi + 1j * phi[py]) / np.sqrt(2.0), op,
                                 window)


@pytest.mark.parametrize("n", [31, 41])
def test_real_form_matches_complex_reference(n, eigh_inputs):
    g = make_grid(6, 6, n, n)
    op = assemble(g, FIELDS, eval_potential(GAUSS, g).v)
    ref = _reference(op)
    eigh_inputs.clear()
    dec = eigendecompose(op)
    assert eigh_inputs == [False]
    assert np.max(np.abs(dec.eigenvalues - ref.eigenvalues)) <= 1e-12 * _norm(ref)
    lam = ref.eigenvalues
    gap = np.minimum(np.diff(lam, prepend=-np.inf), np.diff(lam, append=np.inf))
    simple = gap > 1e-3
    assert np.count_nonzero(simple) > n * n // 2
    dens = np.abs(eigenvectors(dec)[:, simple]) ** 2
    ref_dens = np.abs(eigenvectors(ref)[:, simple]) ** 2
    assert np.max(np.abs(dens - ref_dens)) <= 1e-10
    assert dec.orthonormality_defect() <= 1e-10
    assert dec.reconstruction_defect() <= 1e-12 * n * n * _norm(ref)


@pytest.mark.parametrize("n", [31, 41])
def test_windowed_traces_match_full_complex(n):
    g = make_grid(6, 6, n, n)
    op = assemble(g, FIELDS, eval_potential(GAUSS, g).v)
    ref = _reference(op)
    dec = eigendecompose(op, window=F.support)
    lo, hi = F.support
    assert np.all((dec.eigenvalues > lo) & (dec.eigenvalues <= hi))
    assert dec.dim == np.count_nonzero((ref.eigenvalues > lo)
                                       & (ref.eigenvalues <= hi))
    assert abs(trace_function(dec, F) - trace_function(ref, F)) <= 1e-11
    for w in (wall_cutoff_weights(g, 2.0), eval_potential(GAUSS, g).dxv):
        assert abs(weighted_trace_function(dec, w, F)
                   - weighted_trace_function(ref, w, F)) <= 1e-11
    assert dec.reconstruction_defect() <= 1e-12 * _norm(ref)
    assert dec.orthonormality_defect() <= 1e-12


def _gauss(g, y_odd):
    """The sampled gaussian, plus a term odd in y that breaks T = K P_y."""
    return eval_potential(GAUSS, g).v + y_odd * g.meshes()[1]


Y_ODD_CASES = [pytest.param(31, 0.0, id="31"), pytest.param(41, 0.0, id="41"),
               pytest.param(31, 0.3, id="31-y_odd")]


@pytest.mark.parametrize("n,y_odd", Y_ODD_CASES)
def test_windowed_mourre_bound_matches_full_complex(n, y_odd):
    # the reference bound is read through the complex U of a full eigh
    g = make_grid(6, 6, n, n)
    op = assemble(g, FIELDS, _gauss(g, y_odd))
    dxv = eval_potential(GAUSS, g).dxv
    full = mourre_gap_bound(_reference(op), 1.6, 2.4, FIELDS, dxv)
    dec = eigendecompose(op, window=(1.6, 2.4))
    assert dec.path == ("complex" if y_odd else "real")
    win = mourre_gap_bound(dec, 1.6, 2.4, FIELDS, dxv)
    assert abs(win - full) <= 1e-12


@pytest.mark.parametrize("n,y_odd", Y_ODD_CASES)
def test_gap_cutoff_norm_matches_full_svd(n, y_odd):
    g = make_grid(6, 6, n, n)
    chi = BumpFunction(2.0, 0.3, plateau=0.5)
    v = _gauss(g, y_odd)
    ref = _reference(assemble(g, FIELDS, v))
    xf, _ = g.meshes()
    full = operator_norm(apply_function(ref, chi) / (1.0 + xf * xf)[None, :])
    assert full > 0.01
    val = gap_cutoff_norm(g, FIELDS, v, chi)
    assert abs(val - full) <= 1e-10 * full


@pytest.mark.parametrize("path", ["real_parity", "real", "complex"])
@pytest.mark.parametrize("windowed", [False, True])
def test_compress_matches_the_dense_compression(path, windowed):
    # a window is solved unsplit, so an eps = 0 window takes the real path
    g = make_grid(6, 6, 15, 13)
    eps = 0.0 if path == "real_parity" else 0.5
    op = assemble(g, FieldParams(b=1.0, eps=eps),
                  _gauss(g, 0.3 if path == "complex" else 0.0))
    dec = eigendecompose(op, window=F.support if windowed else None)
    assert dec.path == ("real" if windowed and path == "real_parity" else path)
    assert 0 < dec.dim
    # a weight with no symmetry in y
    w = np.random.default_rng(7).standard_normal(op.dim)
    u = eigenvectors(dec)
    ref = (u.conj().T * w) @ u
    assert np.max(np.abs(dec.compress(w) - ref)) <= 1e-12


def test_windowed_reconstruction_defect_is_the_eigen_residual():
    g = make_grid(6, 6, 21, 21)
    op = assemble(g, FIELDS, eval_potential(GAUSS, g).v)
    dec = eigendecompose(op, window=(0.5, 3.5))
    assert 0 < dec.dim < op.dim
    # a rank-k reconstruction sits ~|M| away from M; the residual does not
    assert dec.reconstruction_defect() <= 1e-12 * _norm(_reference(op))
    shifted = SpectralDecomposition(dec.eigenvalues + 1e-3,
                                    eigenvectors(dec), op, dec.window)
    expected = 1e-3 * np.max(np.abs(eigenvectors(dec)))
    assert abs(shifted.reconstruction_defect() - expected) <= 1e-10


def test_empty_window():
    g = make_grid(6, 6, 21, 21)
    op = assemble(g, FIELDS, eval_potential(GAUSS, g).v)
    dec = eigendecompose(op, window=(-50.0, -40.0))
    assert dec.dim == 0 and eigenvectors(dec).shape == (op.dim, 0)
    assert trace_function(dec, F) == 0.0
    assert dec.reconstruction_defect() == 0.0


def test_window_must_be_ordered():
    g = make_grid(6, 6, 21, 21)
    with pytest.raises(ConfigurationError, match="window"):
        eigendecompose(assemble(g, FIELDS, eval_potential(GAUSS, g).v),
                       window=(2.0, 1.0))


def test_complex_fallback_for_y_odd_term(eigh_inputs):
    g = make_grid(6, 6, 21, 21)
    h = assemble(g, FIELDS, eval_potential(GAUSS, g).v)
    _, yf = g.meshes()
    op = replace(h, diag=h.diag + 0.3 * yf)
    assert h.is_t_symmetric() and not op.is_t_symmetric()
    eigh_inputs.clear()
    dec = eigendecompose(op)
    assert eigh_inputs == [True]
    ref = np.linalg.eigvalsh(op.dense())
    assert np.max(np.abs(dec.eigenvalues - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert dec.reconstruction_defect() <= 1e-10 * np.max(np.abs(ref))


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(8, 13), ny=st.integers(8, 13),
       eps=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
       family=st.sampled_from(FAMILIES), amplitude=st.floats(-2.0, 2.0),
       term=st.sampled_from([None, "y_odd", "x_odd"]),
       scale=st.floats(0.01, 1.0))
def test_stencil_checks_and_builders_match_the_dense_oracles(
        nx, ny, eps, family, amplitude, term, scale):
    # the O(N) symmetry checks give the dense verdicts, and the real form
    # and its parity blocks are the dense ones byte for byte
    g = make_grid(6, 6, nx, ny)
    spec = PotentialSpec(family, amplitude=amplitude, width=2.0)
    op = assemble(g, FieldParams(b=1.3, eps=eps), eval_potential(spec, g).v)
    xf, yf = g.meshes()
    if term is not None:
        odd = yf if term == "y_odd" else xf * np.exp(-yf * yf)
        op = replace(op, diag=op.diag + scale * odd)
    m = op.dense()
    assert op.is_t_symmetric() == is_t_symmetric(m, g)
    if not op.is_t_symmetric():
        return
    r = real_form(m, g)
    assert _real_form(op).tobytes() == r.tobytes()
    assert _commutes_with_reversal(op) == commutes_with_reversal(r)
    if commutes_with_reversal(r):
        for got, ref in zip(_parity_blocks(op), parity_blocks(r)):
            assert got.flags.f_contiguous
            assert got.tobytes() == ref.tobytes()


@settings(max_examples=30, deadline=None)
@given(nx=st.integers(8, 13), ny=st.integers(8, 13),
       lx=st.floats(1.0, 8.0), ly=st.floats(1.0, 8.0),
       b=st.floats(0.2, 2.0), eps=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
       family=st.sampled_from(FAMILIES), amplitude=st.floats(-2.0, 2.0),
       width=st.floats(0.5, 4.0))
def test_real_form_property(nx, ny, lx, ly, b, eps, family, amplitude, width):
    g = make_grid(lx, ly, nx, ny)
    spec = PotentialSpec(family, amplitude=amplitude, width=width)
    op = assemble(g, FieldParams(b=b, eps=eps), eval_potential(spec, g).v)
    assert op.is_t_symmetric()
    ref = np.linalg.eigvalsh(op.dense())
    scale = np.max(np.abs(ref))
    dec = eigendecompose(op)
    assert np.max(np.abs(dec.eigenvalues - ref)) <= 1e-12 * scale
    assert dec.orthonormality_defect() <= 1e-12
    assert dec.reconstruction_defect() <= 1e-12 * op.dim * scale
    # a window keeps exactly the full solve's eigenvalues in (lo, hi]; its
    # ends sit in the widest level spacing of each half, clear of round-off
    half = op.dim // 2
    i = int(np.argmax(np.diff(ref[:half])))
    k = half + int(np.argmax(np.diff(ref[half:])))
    lo, hi = 0.5 * (ref[i] + ref[i + 1]), 0.5 * (ref[k] + ref[k + 1])
    win = eigendecompose(op, window=(lo, hi))
    inside = dec.eigenvalues[(dec.eigenvalues > lo) & (dec.eigenvalues <= hi)]
    assert win.dim == inside.size
    assert np.max(np.abs(win.eigenvalues - inside)) <= 1e-12 * scale


@pytest.mark.parametrize("n", [31, 41])
@pytest.mark.parametrize("family", FAMILIES)
def test_parity_split_matches_unsplit_real_form(n, family, eigh_orders):
    g = make_grid(6, 6, n, n)
    spec = PotentialSpec(family, amplitude=0.5, width=2.0)
    op = assemble(g, FieldParams(b=1.0), eval_potential(spec, g).v)
    ref = _unsplit(op)
    eigh_orders.clear()
    dec = eigendecompose(op)
    halves = [(n * n + 1) // 2, n * n // 2]
    assert eigh_orders == halves
    assert dec.path == "real_parity"
    assert dec.solver_info()["blocks"] == halves
    scale = _norm(ref)
    assert np.max(np.abs(dec.eigenvalues - ref.eigenvalues)) <= 1e-12 * scale
    lam = ref.eigenvalues
    gap = np.minimum(np.diff(lam, prepend=-np.inf), np.diff(lam, append=np.inf))
    simple = gap > 1e-3
    assert np.count_nonzero(simple) > n
    dens = np.abs(eigenvectors(dec)[:, simple]) ** 2
    ref_dens = np.abs(eigenvectors(ref)[:, simple]) ** 2
    assert np.max(np.abs(dens - ref_dens)) <= 1e-10
    assert dec.orthonormality_defect() <= 1e-10
    assert dec.reconstruction_defect() <= 1e-12 * n * n * scale
    # a window is solved unsplit, with its inertia certificate
    win = eigendecompose(op, window=F.support)
    assert win.path == "real"
    assert abs(trace_function(win, F) - trace_function(ref, F)) <= 1e-11
    for w in (wall_cutoff_weights(g, 2.0), eval_potential(spec, g).dxv):
        assert abs(weighted_trace_function(win, w, F)
                   - weighted_trace_function(ref, w, F)) <= 1e-11
    loc, ref_loc = localized_spectrum(dec), localized_spectrum(ref)
    assert len(loc) == len(ref_loc) > 0
    assert np.max(np.abs(loc - ref_loc)) <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(nx=st.integers(8, 13), ny=st.integers(8, 13),
       lx=st.floats(1.0, 8.0), ly=st.floats(1.0, 8.0),
       b=st.floats(0.2, 2.0), family=st.sampled_from(FAMILIES),
       amplitude=st.floats(-2.0, 2.0), width=st.floats(0.5, 4.0),
       windowed=st.booleans())
def test_parity_split_property(nx, ny, lx, ly, b, family, amplitude, width,
                               windowed):
    g = make_grid(lx, ly, nx, ny)
    spec = PotentialSpec(family, amplitude=amplitude, width=width)
    op = assemble(g, FieldParams(b=b), eval_potential(spec, g).v)
    ref = _unsplit(op)
    scale = _norm(ref)
    window = None
    if windowed:
        # window ends in the widest level spacing of each half
        lam, half = ref.eigenvalues, op.dim // 2
        i = int(np.argmax(np.diff(lam[:half])))
        k = half + int(np.argmax(np.diff(lam[half:])))
        window = (0.5 * (lam[i] + lam[i + 1]), 0.5 * (lam[k] + lam[k + 1]))
        ref = _unsplit(op, window)
    dec = eigendecompose(op, window=window)
    assert dec.path == ("real" if windowed else "real_parity")
    assert dec.solver_info()["blocks"] == (
        [op.dim] if windowed else [(op.dim + 1) // 2, op.dim // 2])
    assert dec.dim == ref.dim
    assert np.max(np.abs(dec.eigenvalues - ref.eigenvalues),
                  initial=0.0) <= 1e-12 * scale
    assert dec.orthonormality_defect() <= 1e-12
    assert dec.reconstruction_defect() <= 1e-12 * op.dim * scale


def test_parity_split_empty_window():
    g = make_grid(6, 6, 21, 21)
    op = assemble(g, FieldParams(b=1.0), eval_potential(GAUSS, g).v)
    dec = eigendecompose(op, window=(-50.0, -40.0))
    assert dec.path == "real" and dec.certificate["counts"] == [0, 0]
    assert dec.dim == 0 and eigenvectors(dec).shape == (op.dim, 0)


def test_unsplit_for_eps_and_for_a_term_odd_in_x(eigh_orders):
    g = make_grid(6, 6, 21, 21)
    v = eval_potential(GAUSS, g).v
    xf, yf = g.meshes()
    q = assemble(g, FieldParams(b=1.0), v)
    uneven = replace(q, diag=q.diag + 0.3 * np.exp(0.2 * xf) * yf * yf)
    for op in (assemble(g, FIELDS, v), uneven):
        assert op.is_t_symmetric()
        ref = _unsplit(op)
        eigh_orders.clear()
        dec = eigendecompose(op)
        assert eigh_orders == [op.dim]
        assert dec.path == "real" and dec.solver_info()["blocks"] == [op.dim]
        assert np.max(np.abs(dec.eigenvalues - ref.eigenvalues)) \
            <= 1e-12 * _norm(ref)
        assert dec.reconstruction_defect() <= 1e-12 * op.dim * _norm(ref)


def _odd_in_y(op):
    """op plus a diagonal term odd in y, which breaks T = K P_y."""
    _, yf = op.grid.meshes()
    return replace(op, diag=op.diag + 0.3 * yf)


@pytest.fixture
def eigh_kwargs(monkeypatch):
    """Record the keyword arguments of each eigensolve."""
    seen = []
    orig = scipy.linalg.eigh

    def spy(a, *args, **kwargs):
        seen.append(kwargs)
        return orig(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    return seen


@pytest.mark.parametrize("family", FAMILIES)
def test_full_solves_use_evd_and_match_the_default_driver(family, eigh_kwargs,
                                                           monkeypatch):
    g = make_grid(6, 6, 31, 31)
    spec = PotentialSpec(family, amplitude=0.5, width=2.0)
    v = eval_potential(spec, g).v
    h = assemble(g, FIELDS, v)
    ops = {"real_parity": assemble(g, FieldParams(b=1.0), v), "real": h,
           "complex": _odd_in_y(h)}
    spy = scipy.linalg.eigh
    for path, op in ops.items():
        eigh_kwargs.clear()
        dec = eigendecompose(op)
        assert dec.path == path
        # the real forms are solved in a buffer eigh may overwrite
        full = ({"driver": "evd"} if path == "complex"
                else {"overwrite_a": True, "driver": "evd"})
        assert eigh_kwargs == [full] * len(dec.solver_info()["blocks"])
        with monkeypatch.context() as m:
            m.setattr(scipy.linalg, "eigh", lambda a, *args, driver=None,
                      **kw: spy(a, *args, **kw))
            ref = eigendecompose(op)
        scale = _norm(ref)
        assert np.max(np.abs(dec.eigenvalues - ref.eigenvalues)) \
            <= 1e-12 * scale
        lam = ref.eigenvalues
        gap = np.minimum(np.diff(lam, prepend=-np.inf),
                         np.diff(lam, append=np.inf))
        simple = gap > 1e-3
        assert np.count_nonzero(simple) > 31
        dens = np.abs(eigenvectors(dec)[:, simple]) ** 2
        ref_dens = np.abs(eigenvectors(ref)[:, simple]) ** 2
        assert np.max(np.abs(dens - ref_dens)) <= 1e-10
        # a windowed solve keeps the default driver, which has a subset,
        # and asks for the window and its two neighbours by index
        eigh_kwargs.clear()
        c_lo, c_hi = eigendecompose(op, window=F.support).certificate["counts"]
        assert 0 < c_lo < c_hi < op.dim
        assert eigh_kwargs == [{"subset_by_index": (c_lo - 1, c_hi),
                                "overwrite_a": True}]


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(8, 13), ny=st.integers(8, 13),
       path=st.sampled_from(["real_parity", "real", "complex"]),
       family=st.sampled_from(FAMILIES), windowed=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_weighted_density_matches_the_dense_density(nx, ny, path, family,
                                                    windowed, seed):
    g = make_grid(4, 4, nx, ny)
    spec = PotentialSpec(family, amplitude=0.5, width=2.0)
    eps = 0.0 if path == "real_parity" else 0.5
    op = assemble(g, FieldParams(b=1.0, eps=eps), eval_potential(spec, g).v)
    if path == "complex":
        op = _odd_in_y(op)
    dec = eigendecompose(op, window=(1.0, 4.0) if windowed else None)
    assert dec.path == ("real" if windowed and path == "real_parity" else path)
    # weights with no symmetry in x or y
    w = np.random.default_rng(seed).standard_normal(op.dim)
    got, ref = dec.weighted_density(w), w @ np.abs(eigenvectors(dec)) ** 2
    assert got.shape == (dec.dim,)
    assert np.max(np.abs(got - ref), initial=0.0) \
        <= 1e-13 * op.dim * np.max(np.abs(w))


def test_q_spectrum_holds_no_complex_n_by_n_array():
    # assembly included: Q is held as its stencil, not as a dense M
    g = make_grid(6, 6, 41, 41)
    v = eval_potential(GAUSS, g).v
    tracemalloc.start()
    try:
        q = assemble(g, FieldParams(b=1.0), v)
        dec = eigendecompose(q)
        scores = localization_scores(dec, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.path == "real_parity" and scores.shape == (q.dim,)
    # 16 N^2 bytes is one complex N x N array
    assert peak < 16 * q.dim ** 2


def test_a_windowed_solve_holds_only_its_pairs():
    # a windowed eigh returns k columns of an N x N work array; the
    # decomposition must not keep that array alive
    g = make_grid(6, 6, 31, 31)
    h = assemble(g, FIELDS, eval_potential(GAUSS, g).v)
    for op, path in ((h, "real"), (_odd_in_y(h), "complex")):
        tracemalloc.start()
        try:
            dec = eigendecompose(op, window=F.support)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert dec.path == path and 0 < 8 * dec.dim < op.dim
        # an N x N real array alone would be 8 N^2 bytes
        assert held < 4 * op.dim ** 2


def test_each_dense_write_checks_its_own_bytes(monkeypatch):
    # at 21 x 21 (N = 441): M is 3.1 MB, the real form 1.6 MB and each
    # parity block under 0.4 MB
    import magstark.grid
    g = make_grid(6, 6, 21, 21)
    v = eval_potential(GAUSS, g).v
    h, q = assemble(g, FIELDS, v), assemble(g, FieldParams(b=1.0), v)
    monkeypatch.setattr(magstark.grid, "DENSE_BYTES_MAX", 10 ** 6)
    for build in (h.dense, lambda: h.dense(1j), lambda: eigendecompose(h)):
        with pytest.raises(CapacityError, match="dense limit"):
            build()
    assert eigendecompose(q).path == "real_parity"
    monkeypatch.setattr(magstark.grid, "DENSE_BYTES_MAX", 3 * 10 ** 5)
    with pytest.raises(CapacityError, match="dense limit"):
        eigendecompose(q)


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(8, 13), ny=st.integers(8, 13),
       eps=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
       family=st.sampled_from(FAMILIES), amplitude=st.floats(-2.0, 2.0),
       y_odd=st.floats(0.0, 1.0), b=st.floats(0.2, 2.0),
       where=st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=3))
def test_inertia_counts_match_dense_counts(nx, ny, eps, family, amplitude,
                                           y_odd, b, where):
    # lines run along the longer axis: nx < ny, nx > ny and nx == ny all occur
    g = make_grid(6, 6, nx, ny)
    spec = PotentialSpec(family, amplitude=amplitude, width=2.0)
    op = assemble(g, FieldParams(b=b, eps=eps), eval_potential(spec, g).v)
    _, yf = g.meshes()
    op = replace(op, diag=op.diag + y_odd * yf)
    lam = np.linalg.eigvalsh(op.dense())
    shifts = lam[0] + np.array(where) * (lam[-1] - lam[0])
    # a shift within round-off of an eigenvalue has no reliable count
    assume(np.min(np.abs(lam[:, None] - shifts)) > 1e-9 * np.max(np.abs(lam)))
    got = op.inertia_counts(shifts)
    assert got.tolist() == [int(np.count_nonzero(lam <= s)) for s in shifts]


@pytest.mark.parametrize("nx,ny", [(21, 21), (24, 17), (15, 22)])
@pytest.mark.parametrize("kind", ["h", "q", "y_odd"])
@pytest.mark.parametrize("window", [F.support, (1.6, 2.4), (-50.0, 0.5),
                                    (20.0, 1e4)])
def test_windowed_pairs_match_the_by_value_solve(nx, ny, kind, window):
    g = make_grid(6, 6, nx, ny)
    v = eval_potential(GAUSS, g).v
    op = assemble(g, FieldParams(b=1.0, eps=0.0 if kind == "q" else 0.5), v)
    if kind == "y_odd":
        op = _odd_in_y(op)
    ref = windowed_by_value(op, window)
    dec = eigendecompose(op, window=window)
    assert dec.path == ref.path and dec.dim == ref.dim
    assert np.max(np.abs(dec.eigenvalues - ref.eigenvalues),
                  initial=0.0) <= 1e-12
    # the projector onto the window does not see a rotation of its basis
    proj, ref_proj = (d.factor @ d.factor.conj().T for d in (dec, ref))
    assert np.max(np.abs(proj - ref_proj)) <= 1e-12
    c_lo, c_hi = dec.certificate["counts"]
    below, above = dec.certificate["bracket"]
    assert c_hi - c_lo == dec.dim and dec.certificate["window"] == list(window)
    assert (below is None) == (c_lo == 0) and (above is None) == (c_hi == op.dim)
    assert below is None or below <= window[0]
    assert above is None or above > window[1]
    info = dec.solver_info()
    assert info["counts"] == [c_lo, c_hi] and info["pairs"] == dec.dim


def test_a_windowed_solve_peaks_below_one_real_n_by_n_array_and_a_third():
    # the real form is 8 N^2 bytes; a by-value eigh of it adds a second
    # N x N eigenvector array, an index-subset eigh only N (k + 2) columns
    g = make_grid(6, 6, 35, 35)
    h = assemble(g, FIELDS, eval_potential(GAUSS, g).v)
    peaks = []
    for solve in (lambda: eigendecompose(h, window=F.support).eigenvalues,
                  lambda: scipy.linalg.eigh(_real_form(h), overwrite_a=True,
                                            subset_by_value=F.support)[0]):
        tracemalloc.start()
        try:
            lam = solve()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert 0 < lam.size < 50
    assert peaks[0] < 1.3 * 8 * h.dim ** 2 < 1.9 * 8 * h.dim ** 2 < peaks[1]


@pytest.mark.parametrize("off", [(0, 2), (0, -2), (2, 0), (-2, 0), (1, 1),
                                 (-1, -1), (0, 1)])
def test_a_wrong_inertia_count_raises(off, monkeypatch):
    g = make_grid(6, 6, 21, 21)
    h = assemble(g, FIELDS, eval_potential(GAUSS, g).v)
    counts = DiscreteOperator.inertia_counts
    assert 2 <= eigendecompose(h, window=F.support).dim
    monkeypatch.setattr(DiscreteOperator, "inertia_counts",
                        lambda op, s: counts(op, s) + np.array(off))
    with pytest.raises(SpectralWindowError, match="inertia counts"):
        eigendecompose(h, window=F.support)


def test_a_window_end_on_an_eigenvalue_of_a_leading_block_raises():
    # the first Schur complement D_0 - 3 of this diagonal operator is
    # exactly singular, so 3.0 has no inertia count
    op = DiscreteOperator(np.arange(64, dtype=float),
                          np.zeros((8, 7), complex), 0.0, make_grid(1, 1, 8, 8))
    with pytest.raises(SpectralWindowError, match="no inertia count"):
        eigendecompose(op, window=(3.0, 10.5))
    assert eigendecompose(op, window=(3.5, 10.5)).eigenvalues.tolist() == \
        [4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
