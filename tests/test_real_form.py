"""The real-form, parity-split and windowed eigensolves against references.

The reference is the dense complex eigensolve of the assembled matrix M
(``oracles.dense_eigh``).  The streamed parity split of an eps = 0 operator
(``weighted_spectrum``) is checked against the unsplit order-N solve of its
real form (``eigendecompose(op)``, or below 41 x 41 the certified window and
the inertia counts), the divide-and-conquer driver of every full solve
against the default one, and the densities read from the real factor
against the complex eigenvectors built from it.  A window's inertia counts
are checked against dense eigenvalue counts, and its pairs against the
by-value solve of ``oracles.windowed_by_value``.  An operator that does not
commute with T = K P_y is refused by every eigensolve before anything is
written.
"""

import os
import subprocess
import sys
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
from magstark.spectral import (SPARSE_DIM_MIN, SPARSE_PAD, BumpFunction,
                               SpectralDecomposition, _parity_block,
                               _real_form, eigendecompose, interior_mask,
                               trace_function, weighted_spectrum,
                               weighted_trace_function)
from magstark.ssf import wall_cutoff_weights
from magstark.traces import operator_norm
from oracles import (commutes_with_reversal, dense_eigh, eigenvectors,
                     is_t_symmetric, kron_reference, parity_blocks, real_form,
                     windowed_by_value)

GAUSS = PotentialSpec("gaussian", amplitude=0.5, width=2.0)
FIELDS = FieldParams(b=1.0, eps=0.5)
F = BumpFunction(2.0, 0.8)


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


def _refused(op, window):
    """Assert that weighted_spectrum, the full eigendecompose and the
    windowed one each refuse op, which does not commute with T = K P_y,
    with a peak below one real N x N array."""
    solves = (lambda: weighted_spectrum(op, np.ones(op.dim)),
              lambda: eigendecompose(op),
              lambda: eigendecompose(op, window=window))
    assert not op.is_t_symmetric()
    for solve in solves:
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="T = K P_y"):
                solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * op.dim ** 2


def _simple(lam):
    """The eigenvalues at least 1e-3 from both neighbours, whose
    eigenvectors are defined up to a phase."""
    return np.minimum(np.diff(lam, prepend=-np.inf),
                      np.diff(lam, append=np.inf)) > 1e-3


@pytest.mark.parametrize("n", [31, 41])
def test_real_form_matches_complex_reference(n, eigh_inputs):
    g = make_grid(6, 6, n, n)
    op = assemble(g, FIELDS, eval_potential(GAUSS, g).v)
    lam, u = dense_eigh(op)
    scale = float(np.max(np.abs(lam)))
    dec = eigendecompose(op)
    assert eigh_inputs == [False]
    assert np.max(np.abs(dec.eigenvalues - lam)) <= 1e-12 * scale
    simple = _simple(lam)
    assert np.count_nonzero(simple) > n * n // 2
    dens = np.abs(eigenvectors(dec)[:, simple]) ** 2
    assert np.max(np.abs(dens - np.abs(u[:, simple]) ** 2)) <= 1e-10
    assert dec.orthonormality_defect() <= 1e-10
    assert dec.reconstruction_defect() <= 1e-12 * n * n * scale


@pytest.mark.parametrize("n", [31, 41])
def test_windowed_traces_match_full_complex(n):
    g = make_grid(6, 6, n, n)
    op = assemble(g, FIELDS, eval_potential(GAUSS, g).v)
    lam, u = dense_eigh(op)
    dec = eigendecompose(op, window=F.support)
    lo, hi = F.support
    assert np.all((dec.eigenvalues > lo) & (dec.eigenvalues <= hi))
    assert dec.dim == np.count_nonzero((lam > lo) & (lam <= hi))
    assert abs(trace_function(dec, F) - np.sum(F(lam))) <= 1e-11
    for w in (wall_cutoff_weights(g, 2.0), eval_potential(GAUSS, g).dxv):
        assert abs(weighted_trace_function(dec, w, F)
                   - (w @ np.abs(u) ** 2) @ F(lam)) <= 1e-11
    assert dec.reconstruction_defect() <= 1e-12 * np.max(np.abs(lam))
    assert dec.orthonormality_defect() <= 1e-12


def _gauss(g, y_odd):
    """The sampled gaussian, plus a term odd in y that breaks T = K P_y."""
    return eval_potential(GAUSS, g).v + y_odd * g.meshes()[1]


Y_ODD_CASES = [pytest.param(31, 0.0, id="31"), pytest.param(41, 0.0, id="41"),
               pytest.param(31, 0.3, id="31-y_odd")]


@pytest.mark.parametrize("n,y_odd", Y_ODD_CASES)
def test_windowed_mourre_bound_matches_full_complex(n, y_odd):
    # the reference bound compresses eps + dxV to the complex U of M's
    # eigenvalues in (1.6, 2.4]; a y-odd term is refused instead
    g = make_grid(6, 6, n, n)
    op = assemble(g, FIELDS, _gauss(g, y_odd))
    if y_odd:
        return _refused(op, (1.6, 2.4))
    dxv = eval_potential(GAUSS, g).dxv
    lam, u = dense_eigh(op)
    u = u[:, (lam > 1.6) & (lam <= 2.4)]
    full = np.linalg.eigvalsh((u.conj().T * (FIELDS.eps + dxv)) @ u)[0]
    dec = eigendecompose(op, window=(1.6, 2.4))
    win = mourre_gap_bound(dec, FIELDS, dxv)
    assert abs(win - full) <= 1e-12


@pytest.mark.parametrize("n,y_odd", Y_ODD_CASES)
def test_gap_cutoff_norm_matches_full_svd(n, y_odd):
    g = make_grid(6, 6, n, n)
    chi = BumpFunction(2.0, 0.3, plateau=0.5)
    op = assemble(g, FIELDS, _gauss(g, y_odd))
    if y_odd:
        return _refused(op, chi.support)
    lam, u = dense_eigh(op)
    xf, _ = g.meshes()
    chi_h = (u * chi(lam)) @ u.conj().T
    full = operator_norm(chi_h / (1.0 + xf * xf)[None, :])
    assert full > 0.01
    val = gap_cutoff_norm(eigendecompose(op, window=chi.support), chi)
    assert abs(val - full) <= 1e-10 * full


# the operator kinds: "real_parity" an eps = 0 Q, whose real form commutes
# with J, "real" an eps > 0 H and "complex" H plus a y-odd term, refused
@pytest.mark.parametrize("path", ["real_parity", "real", "complex"])
@pytest.mark.parametrize("windowed", [False, True])
def test_compress_matches_the_dense_compression(path, windowed):
    g = make_grid(6, 6, 15, 13)
    eps = 0.0 if path == "real_parity" else 0.5
    op = assemble(g, FieldParams(b=1.0, eps=eps),
                  _gauss(g, 0.3 if path == "complex" else 0.0))
    if path == "complex":
        return _refused(op, F.support)
    dec = eigendecompose(op, window=F.support if windowed else None)
    assert dec.solver_info()["path"] == "real" and 0 < dec.dim
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
    scale = np.max(np.abs(np.linalg.eigvalsh(op.dense())))
    assert dec.reconstruction_defect() <= 1e-12 * scale
    shifted = SpectralDecomposition(dec.eigenvalues + 1e-3, dec.factor, op)
    expected = 1e-3 * np.max(np.abs(dec.factor))
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


def test_a_y_odd_term_is_refused_before_any_write(eigh_inputs, monkeypatch):
    # no eigensolve has a complex path: a term odd in y breaks T = K P_y,
    # and every eigensolve refuses the operator before it writes a matrix,
    # builds an entry list or counts inertia
    g = make_grid(6, 6, 21, 21)
    h = assemble(g, FIELDS, eval_potential(GAUSS, g).v)
    _, yf = g.meshes()
    op = replace(h, diag=h.diag + 0.3 * yf)
    assert h.is_t_symmetric()
    for name in ("coo", "inertia_counts"):
        monkeypatch.setattr(DiscreteOperator, name,
                            lambda *a, _name=name, **k: pytest.fail(_name))
    _refused(op, F.support)
    assert eigh_inputs == []


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
    assert op.dense(real=True).tobytes() == r.tobytes()
    # a full solve reads the rows k <= N//2 of the entry list when r
    # commutes with J, else r itself, written from the same list
    half, dense = _real_form(op)
    assert (half is not None) == commutes_with_reversal(r)
    if half is None:
        assert dense.flags.f_contiguous and dense.tobytes() == r.tobytes()
        return
    assert dense is None and np.all(half[0] <= op.dim // 2)
    for sign, ref in zip((1.0, -1.0), parity_blocks(r)):
        got = _parity_block(op, half, sign)
        assert got.flags.f_contiguous
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kind", ["h", "q", "y_odd"])
def test_the_csc_writer_matches_the_dense_writers_entry_by_entry(kind):
    # one stored entry per position: the 5 of M and z - M, the 7 of the
    # real form, each equal to the Kronecker-sum oracle and its real form
    op, z = _kind(9, 8, kind), 2.1 + 0.3j
    fields = FieldParams(b=1.0, eps=0.0 if kind == "q" else 0.5)
    m = kron_reference(op.grid, fields, eval_potential(GAUSS, op.grid).v)
    if kind == "y_odd":
        m[np.diag_indices_from(m)] += 0.3 * op.grid.meshes()[1]
    pairs = [(op.csc(), m, 5), (op.csc(z), z * np.eye(op.dim) - m, 5)]
    if op.is_t_symmetric():
        pairs.append((op.csc(real=True), real_form(m, op.grid), 7))
    for a, ref, per_row in pairs:
        assert a.format == "csc" and a.has_canonical_format
        assert a.nnz <= per_row * op.dim and a.dtype == ref.dtype
        assert np.array_equal(a.toarray(), ref)


@pytest.mark.parametrize("kind", ["h", "q", "y_odd"])
def test_the_gershgorin_floor_is_the_dense_row_bound(kind):
    # the floor and ceiling are the dense row bounds, and hold the spectrum
    op = _kind(9, 8, kind)
    m = op.dense()
    d = m.diagonal().real
    off = np.abs(m).sum(axis=1) - np.abs(d)
    lo, hi = op.gershgorin_bounds()
    lam = np.linalg.eigvalsh(m)
    assert abs(lo - np.min(d - off)) <= 1e-12 * np.max(np.abs(d))
    assert abs(hi - np.max(d + off)) <= 1e-12 * np.max(np.abs(d))
    assert lo < lam[0] and lam[-1] < hi


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(8, 13), ny=st.integers(8, 13),
       eps=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
       real=st.booleans(), y_odd=st.booleans())
def test_coo_positions_are_unique_sorted_and_closed_under_reversal(
        nx, ny, eps, real, y_odd):
    g = make_grid(6, 6, nx, ny)
    op = assemble(g, FieldParams(b=1.3, eps=eps), eval_potential(GAUSS, g).v)
    op = _odd_in_y(op) if y_odd else op
    k, c, vals = op.coo(real=real)
    key, n = k * op.dim + c, op.dim
    assert k.shape == c.shape == vals.shape
    assert vals.dtype == (float if real else complex)
    assert np.all(np.diff(key) > 0) and key.size <= (7 if real else 5) * n
    # the flat reversal J maps the list onto itself in reverse order
    assert np.array_equal((n - 1 - k)[::-1], k)
    assert np.array_equal((n - 1 - c)[::-1], c)


def test_dense_paths_leave_scipy_sparse_unimported():
    # importing scipy.sparse raises peak RSS, which an experiment that never
    # solves sparse should not pay
    code = (
        "import sys\n"
        "from magstark.grid import make_grid\n"
        "from magstark.hamiltonian import FieldParams, assemble\n"
        "from magstark.spectral import eigendecompose, weighted_spectrum\n"
        "g = make_grid(6, 6, 11, 11)\n"
        "x, y = g.meshes()\n"
        "assemble(g, FieldParams(b=1.0, eps=0.5), 0.0 * x).dense(1j)\n"
        "q = assemble(g, FieldParams(b=1.0), 0.0 * x)\n"
        "eigendecompose(q)\n"
        "assert weighted_spectrum(q, x)[2]['path'] == 'real_parity'\n"
        "print('scipy.sparse' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ,
                         "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


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
    # checked without an order-N solve: the stencil's inertia counts place
    # the split spectrum throughout, and the certified window of the
    # unsplit real form holds the same pairs in supp F
    g = make_grid(6, 6, n, n)
    spec = PotentialSpec(family, amplitude=0.5, width=2.0)
    op = assemble(g, FieldParams(b=1.0), eval_potential(spec, g).v)
    inside = interior_mask(g, 0.05)
    lam, scores, info = weighted_spectrum(op, inside)
    halves = [(n * n + 1) // 2, n * n // 2]
    assert eigh_orders == halves
    assert info["path"] == "real_parity" and info["blocks"] == halves
    scale = float(np.max(np.abs(lam)))
    # 40 or so level spacings spread over the spectrum, each wide enough
    # that its midpoint has a reliable count
    wide = np.nonzero(np.diff(lam) > 1e-6 * scale)[0]
    at = wide[::max(1, wide.size // 40)]
    shifts = 0.5 * (lam[at] + lam[at + 1])
    assert op.inertia_counts(shifts).tolist() == (at + 1).tolist()
    win = eigendecompose(op, window=F.support)
    assert win.solver_info()["path"] == "real"
    lo, hi = F.support
    in_f = (lam > lo) & (lam <= hi)
    assert win.dim == np.count_nonzero(in_f) > 0
    assert np.max(np.abs(win.eigenvalues - lam[in_f])) <= 1e-12 * scale
    simple = _simple(lam)[in_f]
    assert np.max(np.abs(win.weighted_density(inside) - scores[in_f])[simple],
                  initial=0.0) <= 1e-10
    assert abs(trace_function(win, F) - np.sum(F(lam))) <= 1e-11
    assert abs(weighted_trace_function(win, inside, F)
               - scores @ F(lam)) <= 1e-11


def _unsplit_oracle(op):
    """Eigenvalues and w -> w @ |U|^2 from scipy's eigh of the dense real
    form oracle, with U = (phi + i P_y phi)/sqrt(2)."""
    lam, phi = scipy.linalg.eigh(real_form(op.dense(), op.grid))
    py = op.flip_y(np.arange(op.dim))
    return lam, lambda w: w @ (0.5 * (phi ** 2 + phi[py] ** 2))


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
    ref, density = _unsplit_oracle(op)
    scale = float(np.max(np.abs(ref)))
    if windowed:
        # a window is solved unsplit; its ends sit in the widest level
        # spacing of each half
        half = op.dim // 2
        i = int(np.argmax(np.diff(ref[:half])))
        k = half + int(np.argmax(np.diff(ref[half:])))
        lo, hi = 0.5 * (ref[i] + ref[i + 1]), 0.5 * (ref[k] + ref[k + 1])
        dec = eigendecompose(op, window=(lo, hi))
        assert dec.solver_info()["blocks"] == [op.dim]
        inside = ref[(ref > lo) & (ref <= hi)]
        assert dec.dim == inside.size
        assert np.max(np.abs(dec.eigenvalues - inside),
                      initial=0.0) <= 1e-12 * scale
        assert dec.orthonormality_defect() <= 1e-12
        assert dec.reconstruction_defect() <= 1e-12 * op.dim * scale
        return
    w = np.random.default_rng(op.dim).standard_normal(op.dim)
    lam, dens, info = weighted_spectrum(op, w)
    assert info["path"] == "real_parity"
    assert info["blocks"] == [(op.dim + 1) // 2, op.dim // 2]
    assert np.max(np.abs(lam - ref)) <= 1e-12 * scale
    simple = _simple(ref)
    assert np.max(np.abs(dens - density(w))[simple], initial=0.0) \
        <= 1e-12 * op.dim * np.max(np.abs(w))


def test_parity_split_empty_window():
    g = make_grid(6, 6, 21, 21)
    op = assemble(g, FieldParams(b=1.0), eval_potential(GAUSS, g).v)
    dec = eigendecompose(op, window=(-50.0, -40.0))
    assert dec.solver_info()["path"] == "real"
    assert dec.certificate["counts"] == [0, 0]
    assert dec.dim == 0 and eigenvectors(dec).shape == (op.dim, 0)


def test_unsplit_for_eps_and_for_a_term_odd_in_x(eigh_orders):
    # a real form that does not commute with J is solved once at order N,
    # by weighted_spectrum as by eigendecompose
    g = make_grid(6, 6, 21, 21)
    v = eval_potential(GAUSS, g).v
    xf, yf = g.meshes()
    q = assemble(g, FieldParams(b=1.0), v)
    uneven = replace(q, diag=q.diag + 0.3 * np.exp(0.2 * xf) * yf * yf)
    for op in (assemble(g, FIELDS, v), uneven):
        assert op.is_t_symmetric()
        ref = np.linalg.eigvalsh(op.dense())
        scale = float(np.max(np.abs(ref)))
        eigh_orders.clear()
        dec = eigendecompose(op)
        lam, _, info = weighted_spectrum(op, v)
        assert eigh_orders == [op.dim, op.dim]
        assert info == dec.solver_info()
        assert info["path"] == "real" and info["blocks"] == [op.dim]
        assert lam.tobytes() == dec.eigenvalues.tobytes()
        assert np.max(np.abs(dec.eigenvalues - ref)) <= 1e-12 * scale
        assert dec.reconstruction_defect() <= 1e-12 * op.dim * scale


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


@pytest.fixture
def eigsh_calls(monkeypatch):
    """Record the order k and keyword arguments of each sparse eigsh."""
    import scipy.sparse.linalg
    seen = []
    orig = scipy.sparse.linalg.eigsh

    def spy(a, k, **kwargs):
        seen.append((k, kwargs))
        return orig(a, k, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    return seen


def _ops_by_path(nx, ny, family):
    """The operator kinds: "real_parity" an eps = 0 Q, whose real form
    commutes with J, "real" an eps > 0 H, and "complex" H plus a y-odd
    term, which every eigensolve refuses."""
    g = make_grid(6, 6, nx, ny)
    v = eval_potential(PotentialSpec(family, amplitude=0.5, width=2.0), g).v
    h = assemble(g, FIELDS, v)
    return {"real_parity": assemble(g, FieldParams(b=1.0), v), "real": h,
            "complex": _odd_in_y(h)}


@pytest.mark.parametrize("family", FAMILIES)
def test_full_solves_use_evd_and_match_the_default_driver(family, eigh_kwargs,
                                                           eigsh_calls,
                                                           monkeypatch):
    small = _ops_by_path(21, 21, family)
    spy = scipy.linalg.eigh
    for path, op in _ops_by_path(31, 31, family).items():
        if path == "complex":
            _refused(op, F.support)
            assert eigh_kwargs == [] and eigsh_calls == []
            continue
        eigh_kwargs.clear()
        dec = eigendecompose(op)
        w = interior_mask(op.grid, 0.05)
        lam, dens, info = weighted_spectrum(op, w)
        assert info["path"] == path
        # every solve and block is solved in a fresh buffer eigh may
        # overwrite
        full = {"overwrite_a": True, "driver": "evd"}
        assert eigh_kwargs == [full] * (1 + len(info["blocks"]))
        with monkeypatch.context() as m:
            m.setattr(scipy.linalg, "eigh", lambda a, *args, driver=None,
                      **kw: spy(a, *args, **kw))
            ref = eigendecompose(op)
            ref_lam, ref_dens, _ = weighted_spectrum(op, w)
        scale = float(np.max(np.abs(ref.eigenvalues)))
        for got in (dec.eigenvalues, lam, ref_lam):
            assert np.max(np.abs(got - ref.eigenvalues)) <= 1e-12 * scale
        simple = _simple(ref.eigenvalues)
        assert np.count_nonzero(simple) > 31
        dens_u = np.abs(eigenvectors(dec)[:, simple]) ** 2
        ref_u = np.abs(eigenvectors(ref)[:, simple]) ** 2
        assert np.max(np.abs(dens_u - ref_u)) <= 1e-10
        assert np.max(np.abs(dens - ref_dens)[simple]) <= 1e-10
        # at N = 441 a windowed solve keeps the default driver, which has a
        # subset, and asks for the window and its two neighbours by index
        eigh_kwargs.clear()
        dec = eigendecompose(small[path], window=F.support)
        c_lo, c_hi = dec.certificate["counts"]
        assert 0 < c_lo < c_hi < small[path].dim <= SPARSE_DIM_MIN
        assert dec.certificate["solver"] == "dense" and eigsh_calls == []
        assert eigh_kwargs == [{"subset_by_index": (c_lo - 1, c_hi),
                                "overwrite_a": True}]
        # at N = 961 it is one shift-invert eigsh at the window midpoint,
        # for the window, its two neighbours and the pad, and no dense eigh
        eigh_kwargs.clear()
        dec = eigendecompose(op, window=F.support)
        c_lo, c_hi = dec.certificate["counts"]
        assert 0 < c_lo < c_hi < op.dim and dec.certificate["solver"] == "sparse"
        assert eigh_kwargs == [] and len(eigsh_calls) == 1
        k, kw = eigsh_calls.pop()
        assert k == c_hi - c_lo + 2 + SPARSE_PAD
        assert sorted(kw) == ["sigma", "tol", "v0", "which"]
        assert kw["sigma"] == 0.5 * sum(F.support) and kw["which"] == "LM"
        assert kw["tol"] == 0 and np.array_equal(kw["v0"], np.ones(op.dim))


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
    window = (1.0, 4.0) if windowed else None
    if path == "complex":
        with pytest.raises(ConfigurationError, match="T = K P_y"):
            eigendecompose(_odd_in_y(op), window=window)
        return
    dec = eigendecompose(op, window=window)
    # weights with no symmetry in x or y
    w = np.random.default_rng(seed).standard_normal(op.dim)
    got, ref = dec.weighted_density(w), w @ np.abs(eigenvectors(dec)) ** 2
    assert got.shape == (dec.dim,)
    assert np.max(np.abs(got - ref), initial=0.0) \
        <= 1e-13 * op.dim * np.max(np.abs(w))


@pytest.mark.parametrize("nx,ny", [(13, 13), (12, 14), (15, 10)])
@pytest.mark.parametrize("path", ["real_parity", "real", "complex"])
def test_weighted_spectrum_matches_the_decomposition(nx, ny, path):
    # odd N = 169 and even N = 168, 150; the parity path reduces each block
    # before writing the next, the unsplit one is eigendecompose's solve
    op = _ops_by_path(nx, ny, "gaussian")[path]
    if path == "complex":
        return _refused(op, F.support)
    dec = eigendecompose(op)
    rng = np.random.default_rng(nx * ny)
    for w in (interior_mask(op.grid, 0.05), rng.standard_normal(op.dim)):
        lam, dens, info = weighted_spectrum(op, w)
        scale = float(np.max(np.abs(dec.eigenvalues)))
        assert np.max(np.abs(lam - dec.eigenvalues)) <= 1e-12 * scale
        ref = dec.weighted_density(w)
        assert np.max(np.abs(dens - ref)) <= 1e-12 * np.max(np.abs(w))
        assert info["path"] == path
        if path == "real":
            assert lam.tobytes() == dec.eigenvalues.tobytes()
            assert info == dec.solver_info()
        else:
            m = op.dim // 2
            assert info == {"path": path, "blocks": [op.dim - m, m],
                            "n": op.dim, "pairs": op.dim, "factor_bytes": 0,
                            "dense_bytes": 8 * (op.dim - m) ** 2,
                            "workspace_bytes": _evd_bytes(op.dim - m)}


def _evd_bytes(n):
    """dsyevd's workspace for order n with eigenvectors: 1 + 6n + 2n^2
    doubles and 3 + 5n 4-byte integers (LAPACK Users' Guide, 3rd ed.)."""
    return 8 * (1 + 6 * n + 2 * n ** 2) + 4 * (3 + 5 * n)


def test_the_streamed_q_spectrum_holds_one_block_and_its_workspace():
    # at 41 x 41 the even block has order n_b = 841: the streamed solve
    # holds it, evd's workspace and the 5802 rows k <= N//2 of the 11599
    # entry list entries (24 bytes each), which are all the odd block's
    # write reads, plus at most 64 KiB of vectors of order N.  Holding the
    # whole list through the even solve would exceed that budget
    g = make_grid(6, 6, 41, 41)
    q = assemble(g, FieldParams(b=1.0), eval_potential(GAUSS, g).v)
    inside = interior_mask(g, 0.05)
    weighted_spectrum(q, inside)  # lazy imports untraced
    tracemalloc.start()
    try:
        weighted_spectrum(q, inside)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = q.coo(real=True)[0]
    half, full = (24 * np.count_nonzero(rows <= q.dim // 2), 24 * rows.size)
    assert (half, full) == (24 * 5802, 24 * 11599)
    held = 8 * 841 ** 2 + _evd_bytes(841)
    budget = held + half + 64 * 1024
    assert peak <= budget < held + full


def test_q_spectrum_holds_no_complex_n_by_n_array():
    # assembly included: Q is held as its stencil, not as a dense M
    g = make_grid(6, 6, 41, 41)
    v = eval_potential(GAUSS, g).v
    tracemalloc.start()
    try:
        q = assemble(g, FieldParams(b=1.0), v)
        lam, scores, info = weighted_spectrum(q, interior_mask(g, 0.05))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info["path"] == "real_parity" and scores.shape == (q.dim,)
    # 16 N^2 bytes is one complex N x N array
    assert peak < 16 * q.dim ** 2


def test_a_windowed_solve_holds_only_its_pairs():
    # a windowed eigh returns k columns of an N x N work array; the
    # decomposition must not keep that array alive
    g = make_grid(6, 6, 31, 31)
    v = eval_potential(GAUSS, g).v
    for op in (assemble(g, FIELDS, v), assemble(g, FieldParams(b=1.0), v)):
        tracemalloc.start()
        try:
            dec = eigendecompose(op, window=F.support)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0 < 8 * dec.dim < op.dim
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
    for build in (h.dense, lambda: h.dense(1j), lambda: eigendecompose(h),
                  lambda: eigendecompose(q), lambda: weighted_spectrum(h, v)):
        with pytest.raises(CapacityError, match="dense limit"):
            build()
    assert weighted_spectrum(q, v)[2]["path"] == "real_parity"
    monkeypatch.setattr(magstark.grid, "DENSE_BYTES_MAX", 3 * 10 ** 5)
    # the streamed path is refused at its first block, before it is written:
    # what it traces is building the entry list, under one 221 x 221 block
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="dense limit"):
            weighted_spectrum(q, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 221 ** 2


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


def _kind(nx, ny, kind):
    g = make_grid(6, 6, nx, ny)
    v = eval_potential(GAUSS, g).v
    op = assemble(g, FieldParams(b=1.0, eps=0.0 if kind == "q" else 0.5), v)
    return _odd_in_y(op) if kind == "y_odd" else op


# 25 x 25, 31 x 21 and 23 x 29 (N = 625, 651, 667) solve every window but
# (20, 1e4) sparse, the other sizes dense; both paths are held to 1e-12,
# where the sparse eigenvalues measured at most 3.0e-14 off at (-50, 0.5),
# shifted at its Gershgorin floor (1.5e-13 when shifted at its midpoint),
# and 2.3e-14 elsewhere, and the sparse projectors at most 1e-14
@pytest.mark.parametrize("nx,ny", [(21, 21), (24, 17), (15, 22), (25, 25),
                                   (31, 21), (23, 29)])
@pytest.mark.parametrize("kind", ["h", "q", "y_odd"])
@pytest.mark.parametrize("window", [F.support, (1.6, 2.4), (-50.0, 0.5),
                                    (20.0, 1e4)])
def test_windowed_pairs_match_the_by_value_solve(nx, ny, kind, window):
    op = _kind(nx, ny, kind)
    if kind == "y_odd":
        return _refused(op, window)
    ref = windowed_by_value(op, window)
    dec = eigendecompose(op, window=window)
    assert dec.dim == ref.dim
    sparse = op.dim > SPARSE_DIM_MIN and 16 * dec.dim <= op.dim
    assert dec.certificate["solver"] == ("sparse" if sparse else "dense")
    assert sparse == (op.dim > SPARSE_DIM_MIN and window != (20.0, 1e4))
    assert np.max(np.abs(dec.eigenvalues - ref.eigenvalues),
                  initial=0.0) <= 1e-12
    # the projector onto the window does not see a rotation of its basis
    proj, ref_proj = (d.factor @ d.factor.T for d in (dec, ref))
    assert np.max(np.abs(proj - ref_proj)) <= 1e-12
    c_lo, c_hi = dec.certificate["counts"]
    below, above = dec.certificate["bracket"]
    assert c_hi - c_lo == dec.dim and dec.certificate["window"] == list(window)
    assert (below is None) == (c_lo == 0) and (above is None) == (c_hi == op.dim)
    assert below is None or below <= window[0]
    assert above is None or above > window[1]
    info = dec.solver_info()
    assert info["counts"] == [c_lo, c_hi] and info["pairs"] == dec.dim


def test_a_windowed_solve_peaks_below_one_real_n_by_n_array_and_a_third(
        monkeypatch):
    # on the dense path the real form is 8 N^2 bytes; a by-value eigh of it
    # adds a second N x N eigenvector array, an index-subset eigh only
    # N (k + 2) columns
    import magstark.spectral
    monkeypatch.setattr(magstark.spectral, "SPARSE_DIM_MIN", 10 ** 9)
    g = make_grid(6, 6, 35, 35)
    h = assemble(g, FIELDS, eval_potential(GAUSS, g).v)
    peaks = []
    for solve in (lambda: eigendecompose(h, window=F.support).eigenvalues,
                  lambda: scipy.linalg.eigh(h.dense(real=True),
                                            overwrite_a=True,
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


def test_a_sparse_window_peaks_below_one_eighth_of_the_real_form(monkeypatch):
    # the sparse path holds the 7-per-row stencil, its LU factors and the
    # Lanczos basis, so the dense byte limit no longer bounds a window
    import magstark.grid
    g = make_grid(6, 6, 35, 35)
    h = assemble(g, FIELDS, eval_potential(GAUSS, g).v)
    eigendecompose(h, window=F.support)  # scipy.sparse imported untraced
    tracemalloc.start()
    try:
        dec = eigendecompose(h, window=F.support)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.certificate["solver"] == "sparse" and 0 < dec.dim < 50
    assert peak < 8 * h.dim ** 2 / 8
    monkeypatch.setattr(magstark.grid, "DENSE_BYTES_MAX", 8 * h.dim ** 2 - 1)
    assert eigendecompose(h, window=F.support).dim == dec.dim
    with pytest.raises(CapacityError, match="dense limit"):
        eigendecompose(h)


@pytest.mark.parametrize("kind", ["h", "y_odd"])
@pytest.mark.parametrize("off", [(0, 2), (0, -2), (2, 0), (-2, 0), (0, 1)])
def test_a_wrong_inertia_count_raises_on_the_sparse_path(kind, off,
                                                         monkeypatch):
    # the in-window count catches a wrong difference c_hi - c_lo; a y-odd
    # operator is refused before its counts are read
    op = _kind(25, 25, kind)
    counts = DiscreteOperator.inertia_counts
    if kind == "h":
        dec = eigendecompose(op, window=F.support)
        assert dec.certificate["solver"] == "sparse" and 2 <= dec.dim
    monkeypatch.setattr(DiscreteOperator, "inertia_counts",
                        lambda op, s: counts(op, s) + np.array(off))
    error = SpectralWindowError if kind == "h" else ConfigurationError
    with pytest.raises(error, match="inertia counts|T = K P_y"):
        eigendecompose(op, window=F.support)


@pytest.mark.parametrize("window,off", [((-50.0, 0.5), (1, 1)),
                                        ((-50.0, 0.5), (-1, 0))])
def test_a_count_past_a_spectrum_end_raises_on_the_sparse_path(window, off,
                                                               monkeypatch):
    # c_lo = 0 is exact here: a count of 1 below -50 leaves a bracketing
    # pair that no widening finds, and c_lo = -1 one below lo too many
    op = _kind(25, 25, "h")
    counts = DiscreteOperator.inertia_counts
    assert eigendecompose(op, window=window).certificate["counts"][0] == 0
    monkeypatch.setattr(DiscreteOperator, "inertia_counts",
                        lambda op, s: counts(op, s) + np.array(off))
    with pytest.raises(SpectralWindowError, match="inertia counts"):
        eigendecompose(op, window=window)


def _even_in_y(rows, centre=None):
    """The diagonal operator whose grid rows are ``rows``, the row
    ``centre`` if given, and ``rows`` mirrored: it commutes with T = K P_y,
    each centre value is a simple eigenvalue and each other one a double
    eigenvalue, which a single-vector Lanczos run finds only once."""
    rows = np.asarray(rows, dtype=float)
    mid = np.reshape([] if centre is None else centre, (-1, rows.shape[1]))
    d = np.concatenate([rows, mid, rows[::-1]])
    ny, nx = d.shape
    return DiscreteOperator(d.ravel(), np.zeros((ny, nx - 1), complex), 0.0,
                            make_grid(1, 1, nx, ny))


# six grid rows of 48 values far above the spectrum the tests below read,
# mirrored about a centre row (N = 624)
FAR = 100.0 + np.arange(288.0).reshape(6, 48)


def test_a_far_neighbour_widens_the_sparse_solve(eigsh_calls):
    # a diagonal operator (N = 624) with 1.0 alone in (0, 1.9] and the 39
    # values 2.0, 2.1, ..., 5.8 all nearer the midpoint 0.95 than the lower
    # neighbour -4.0: k doubles from 5 until that neighbour is returned,
    # the last step clamped to N/8 = 78
    centre = np.concatenate([[-4.0, 1.0], 2.0 + 0.1 * np.arange(39),
                             1000.0 + np.arange(7)])
    dec = eigendecompose(_even_in_y(FAR, centre), window=(0.0, 1.9))
    assert [k for k, _ in eigsh_calls] == [5, 10, 20, 40, 78]
    assert dec.certificate["solver"] == "sparse"
    assert dec.certificate["counts"] == [1, 2]
    # the certificate records the shift, the final k and the doublings
    assert {k: dec.certificate[k] for k in ("sigma", "nev", "doublings")} \
        == {"sigma": 0.95, "nev": 78, "doublings": 4}
    assert np.max(np.abs(dec.eigenvalues - [1.0])) <= 1e-12
    assert np.max(np.abs(np.subtract(dec.certificate["bracket"],
                                     [-4.0, 2.0]))) <= 1e-12


def test_no_convergence_raises_on_the_sparse_path(monkeypatch):
    import scipy.sparse.linalg

    def stalled(a, k, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("stalled", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
    with pytest.raises(SpectralWindowError, match="did not converge"):
        eigendecompose(_kind(25, 25, "h"), window=F.support)


def test_a_shift_on_an_eigenvalue_raises_on_the_sparse_path():
    # the midpoint 4.0 of (2.5, 5.5) is an eigenvalue of this diagonal
    # operator (N = 624), so SuperLU finds D - 4 exactly singular
    op = _even_in_y(FAR, np.arange(48.0))
    with pytest.raises(SpectralWindowError, match="no shift-invert"):
        eigendecompose(op, window=(2.5, 5.5))
    dec = eigendecompose(op, window=(2.5, 5.6))
    assert dec.certificate["solver"] == "sparse"
    assert np.max(np.abs(dec.eigenvalues - [3.0, 4.0, 5.0])) <= 1e-12
    assert np.max(np.abs(np.subtract(dec.certificate["bracket"],
                                     [2.0, 6.0]))) <= 1e-12


def test_a_window_end_on_an_eigenvalue_of_a_leading_block_raises():
    # the first Schur complement D_0 - 3 of this diagonal operator is
    # exactly singular, so 3.0 has no inertia count
    op = _even_in_y(np.arange(32.0).reshape(4, 8))
    with pytest.raises(SpectralWindowError, match="no inertia count"):
        eigendecompose(op, window=(3.0, 10.5))
    assert eigendecompose(op, window=(3.5, 10.5)).eigenvalues.tolist() == \
        np.repeat([4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0], 2).tolist()
