import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from magstark.errors import ConfigurationError, NearSingularityError
from magstark.grid import DiscreteOperator, make_grid
from magstark.hamiltonian import FieldParams, assemble
from magstark.potentials import PotentialSpec, eval_potential
from magstark.ssf import resolvent_expansion_check
from magstark.traces import (weighted_resolvent_norms, frobenius_norm,
                             nuclear_norm, operator_norm, tracebound_sweep,
                             resolvent_chain_tracenorm, resolvent)


def _random(n, seed, complex_=True):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    if complex_:
        m = m + 1j * rng.standard_normal((n, n))
    return m


def test_nuclear_norm_rank_one():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    v = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    m = np.outer(u, v.conj())
    assert np.isclose(nuclear_norm(m), np.linalg.norm(u) * np.linalg.norm(v),
                      rtol=1e-10)


def test_nuclear_norm_psd_equals_trace():
    a = _random(25, 1)
    m = a @ a.conj().T
    assert np.isclose(nuclear_norm(m), np.trace(m).real, rtol=1e-10)


def test_nuclear_norm_unitary_invariance():
    m = _random(30, 2)
    w, _ = np.linalg.qr(_random(30, 3))
    w2, _ = np.linalg.qr(_random(30, 4))
    assert np.isclose(nuclear_norm(w @ m @ w2), nuclear_norm(m), rtol=1e-8)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("complex_", [True, False])
def test_nuclear_norm_of_a_non_finite_matrix_is_nan(bad, complex_, monkeypatch):
    # nan, as the finite gates expect, and LAPACK never sees the matrix
    m = _random(6, 1, complex_)
    m[2, 3] = bad
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: pytest.fail("LAPACK called"))
    assert np.isnan(nuclear_norm(m))


@pytest.mark.parametrize("complex_", [True, False])
@pytest.mark.parametrize("shape,rank", [((7, 7), 7), ((9, 5), 5), ((5, 9), 5),
                                        ((8, 8), 3), ((6, 6), 0)])
def test_nuclear_norm_matches_scipy_svdvals(shape, rank, complex_):
    # full rank, tall, wide, rank-deficient and all-zero; the same gesdd
    # (no vectors) on numpy's LAPACK as scipy.linalg.svdvals on scipy's
    rng = np.random.default_rng(rank)

    def draw(s):
        a = rng.standard_normal(s)
        return a + 1j * rng.standard_normal(s) if complex_ else a

    m = draw((shape[0], rank)) @ draw((rank, shape[1]))
    expected = float(np.sum(scipy.linalg.svdvals(m)))
    assert abs(nuclear_norm(m) - expected) <= 1e-12 * expected
    assert nuclear_norm(m) == 0.0 if rank == 0 else nuclear_norm(m) > 0.0


def test_norm_inequalities():
    m = _random(40, 5)
    tn, fn = nuclear_norm(m), frobenius_norm(m)
    assert tn >= fn >= tn / np.sqrt(40) - 1e-12
    assert abs(np.trace(m)) <= tn + 1e-12


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(0, 12), cols=st.integers(0, 12),
       rank=st.integers(0, 12), complex_=st.booleans(),
       layout=st.sampled_from(["C", "F", "reversed"]),
       scale=st.sampled_from([1e-30, 1.0, 1e30]), seed=st.integers(0, 2 ** 16))
def test_operator_norm_matches_the_top_singular_value(rows, cols, rank,
                                                      complex_, layout,
                                                      scale, seed):
    # tall, wide and square; real and complex; full rank, rank-deficient,
    # all-zero (rank 0) and empty; any memory layout
    rng = np.random.default_rng(seed)
    k = min(rank, rows, cols)

    def draw(shape):
        a = rng.standard_normal(shape)
        return a + 1j * rng.standard_normal(shape) if complex_ else a

    m = scale * (draw((rows, k)) @ draw((k, cols)))
    if layout == "F":
        m = np.asfortranarray(m)
    elif layout == "reversed":
        m = m[::-1, ::-1]
    sv = scipy.linalg.svdvals(m)
    expected = float(sv[0]) if sv.size else 0.0
    got = operator_norm(m)
    assert abs(got - expected) <= 1e-12 * expected
    if k == 0:
        assert got == 0.0


GRID = make_grid(6, 6, 21, 21)
FIELDS = FieldParams(b=1.0, eps=0.5)
SEP3 = PotentialSpec("separable_power", amplitude=1.0, decay_n=3,
                     decay_delta=0.5)


def test_resolvent_norm_and_identity():
    h = assemble(GRID, FIELDS, np.zeros(GRID.n_points))
    r_i = resolvent(h, 1j)
    assert operator_norm(r_i) <= 1.0 + 1e-9
    z, zp = 1.0 + 0.5j, 2.0 - 0.25j
    rz, rzp = resolvent(h, z), resolvent(h, zp)
    defect = rz - rzp - (zp - z) * (rz @ rzp)
    assert np.max(np.abs(defect)) <= 1e-8


def test_resolvent_diagonal():
    g = make_grid(1, 1, 8, 8)
    d = np.arange(64, dtype=float)
    op = DiscreteOperator(d, np.zeros((8, 7), complex), 0.0, g)
    r = resolvent(op, 100.0 + 0j)
    assert np.allclose(np.diag(r), 1.0 / (100.0 - d), rtol=1e-12)


def test_resolvent_near_singularity():
    g = make_grid(1, 1, 8, 8)
    d = np.arange(64, dtype=float)
    op = DiscreteOperator(d, np.zeros((8, 7), complex), 0.0, g)
    with pytest.raises(NearSingularityError, match="eigenvalue"):
        resolvent(op, 3.0 + 1e-10 * 0j)


def test_resolvent_raises_at_an_eigenvalue_of_an_assembled_operator():
    # z - H is numerically singular but not exactly so: the stencil residual
    # check catches the solve
    h = assemble(GRID, FIELDS, np.zeros(GRID.n_points))
    lam = np.linalg.eigvalsh(h.dense())[30]
    with pytest.raises(NearSingularityError):
        resolvent(h, complex(lam))


def test_tracebound_sweep_zero_potential():
    h = assemble(GRID, FIELDS, np.zeros(GRID.n_points))
    rep = tracebound_sweep(h, np.zeros(GRID.n_points), 2.0, 0.25,
                           (0.5, 0.25, 0.125))
    assert all(p == 0.0 for p in rep.norms)


def test_sandwich_norm_adjoint_symmetry():
    # ||R_z V R_z'||_tr is the norm of the adjoint R_conj(z') V R_conj(z),
    # and T = K P_y, which commutes with H and with V (even in y), maps
    # that to R_z' V R_z: swapping Im z and Im z' keeps the product
    h = assemble(GRID, FIELDS, eval_potential(SEP3, GRID).v)
    v = eval_potential(SEP3, GRID).v
    a = tracebound_sweep(h, v, 2.1, 0.3, (0.4, 0.2))
    b = tracebound_sweep(h, v, 2.1, 0.4, (0.3, 0.15))
    assert np.isclose(a.norms[0], b.norms[0], rtol=1e-8)


def test_tracebound_sweep_deterministic():
    h = assemble(GRID, FIELDS, eval_potential(SEP3, GRID).v)
    v = eval_potential(SEP3, GRID).v
    r1 = tracebound_sweep(h, v, 2.0, 0.25, (0.5, 0.25, 0.125))
    r2 = tracebound_sweep(h, v, 2.0, 0.25, (0.5, 0.25, 0.125))
    assert r1.norms == r2.norms and r1.params == (0.5, 0.25, 0.125)


def test_tracebound_sweep_refuses_before_any_solve(monkeypatch):
    import magstark.traces as traces
    monkeypatch.setattr(traces, "resolvent",
                        lambda *a: pytest.fail("a resolvent was solved"))
    h = assemble(GRID, FIELDS, np.zeros(GRID.n_points))
    v = np.zeros(GRID.n_points)
    with pytest.raises(ConfigurationError, match="im_zp must be nonzero"):
        tracebound_sweep(h, v, 2.0, 0.0, (0.5, 0.25))
    with pytest.raises(ConfigurationError, match="decreasing"):
        tracebound_sweep(h, v, 2.0, 0.25, (0.25, 0.5))
    # the spread of one product is 1 whatever it is
    with pytest.raises(ConfigurationError, match="at least two"):
        tracebound_sweep(h, v, 2.0, 0.25, (0.5,))


def test_weighted_resolvent_norms_monotone_in_delta():
    h0 = assemble(GRID, FIELDS, np.zeros(GRID.n_points))
    r1 = weighted_resolvent_norms(h0, 0.5)
    r2 = weighted_resolvent_norms(h0, 1.0)
    assert r2["hs1"] < r1["hs1"]
    assert r2["tr2"] < r1["tr2"]


def test_weighted_norm_hs1_frobenius_identity():
    # hs1^2 = tr((H0 - i)^-1 k1^2 (H0 + i)^-1)
    from magstark.spectral import decay_weight
    h0 = assemble(GRID, FIELDS, np.zeros(GRID.n_points))
    res = weighted_resolvent_norms(h0, 0.5)
    n = GRID.n_points
    k1 = decay_weight(GRID, 1, 0.5)
    rplus = np.linalg.solve(h0.dense() + 1j * np.eye(n), np.eye(n, dtype=complex))
    rminus = np.linalg.solve(h0.dense() - 1j * np.eye(n), np.eye(n, dtype=complex))
    tr = np.trace(rminus @ np.diag(k1 ** 2) @ rplus)
    assert np.isclose(res["hs1"], np.sqrt(tr.real), rtol=1e-8)


def test_chain_tracenorm_zero_derivative():
    q = assemble(GRID, FieldParams(b=1.0), eval_potential(SEP3, GRID).v)
    val = resolvent_chain_tracenorm(q, np.zeros(GRID.n_points), 2, 0.6, 0.5,
                                    2.0 + 1.0j)
    assert val == 0.0


def test_chain_tracenorm_validation():
    q = assemble(GRID, FieldParams(b=1.0), eval_potential(SEP3, GRID).v)
    dxv = eval_potential(SEP3, GRID).dxv
    with pytest.raises(ConfigurationError, match="n must be"):
        resolvent_chain_tracenorm(q, dxv, 1, 0.6, 0.5, 2.0 + 1.0j)
    with pytest.raises(ConfigurationError, match="s must lie"):
        resolvent_chain_tracenorm(q, dxv, 2, 0.9, 0.5, 2.0 + 1.0j)
    # delta <= 0 leaves (1/2, min(1/2 + delta/4, 1)) empty
    with pytest.raises(ConfigurationError, match="s must lie"):
        resolvent_chain_tracenorm(q, dxv, 2, 0.6, 0.0, 2.0 + 1.0j)


def test_chain_tracenorm_continuity_in_z():
    q = assemble(GRID, FieldParams(b=1.0), eval_potential(SEP3, GRID).v)
    dxv = eval_potential(SEP3, GRID).dxv
    a = resolvent_chain_tracenorm(q, dxv, 2, 0.6, 0.5, 2.0 + 1.0j)
    b = resolvent_chain_tracenorm(q, dxv, 2, 0.6, 0.5, 2.0 + 1.01j)
    assert np.isfinite(a) and a > 0
    assert abs(a - b) / a <= 0.2


def test_resolvent_rejects_a_nan_residual():
    # NaN > RESIDUAL_TOL is False, so the check must read not defect <= tol;
    # a NaN on the diagonal reaches every column block of the residual
    g = make_grid(1, 1, 8, 8)
    for k in (5, 63):
        d = np.arange(64, dtype=float)
        d[k] = np.nan
        op = DiscreteOperator(d, np.zeros((8, 7), complex), 0.0, g)
        with pytest.raises(NearSingularityError):
            resolvent(op, 100.5 + 1j)


def test_resolvent_rejects_a_nan_in_the_last_column_block(monkeypatch):
    # a NaN in one column of the solution reaches only the last block of nx
    # columns of the residual; a running max() over the blocks would lose it
    g = make_grid(1, 1, 8, 8)
    op = DiscreteOperator(np.arange(64, dtype=float),
                          np.zeros((8, 7), complex), 0.0, g)
    exact = np.diag(1.0 / (100.5 + 1j - op.diag))
    exact[0, 63] = np.nan
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: exact.copy())
    with pytest.raises(NearSingularityError, match="nan"):
        resolvent(op, 100.5 + 1j)


def test_resolvent_is_bitwise_the_dense_solve():
    g = make_grid(6, 6, 13, 13)
    h = assemble(g, FIELDS, eval_potential(SEP3, g).v)
    eye = np.eye(h.dim, dtype=complex)
    for z in (2.0 + 0.5j, -1j, 1.3 - 0.2j):
        assert np.array_equal(resolvent(h, z),
                              np.linalg.solve(h.dense(z), eye))


def _peak(fn):
    """Traced peak allocation of fn(), in complex N x N arrays at GRID
    (16 N^2 bytes); LAPACK's own copies inside a solve are not traced."""
    fn()
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * GRID.n_points ** 2)


_PV = eval_potential(SEP3, GRID)
_H = assemble(GRID, FIELDS, _PV.v)
_Q = assemble(GRID, FieldParams(b=1.0), _PV.v)
_H0 = assemble(GRID, FIELDS, np.zeros(GRID.n_points))

# (traced call, bound); the parent code held 5.0, 6.0, 6.2, 5.0 and 8.0
BUDGETS = {
    # z - M and the solution
    "resolvent": (lambda: resolvent(_H, 2.0 + 0.5j), 2.1),
    # the scaled (z-H)^-1 V, and (z'-H)^-1 while it is solved
    "tracebound_sweep": (lambda: tracebound_sweep(
        _H, _PV.v, 2.0, 0.25, (0.5, 0.25, 0.125)), 3.1),
    # the chain, and the copy its SVD takes
    "resolvent_chain_tracenorm": (lambda: resolvent_chain_tracenorm(
        _Q, _PV.dxv, 2, 0.6, 0.5, 2.0 + 1.0j), 2.2),
    "weighted_resolvent_norms": (lambda: weighted_resolvent_norms(_H0, 0.5),
                                 2.2),
    # (z-H)^-1, (z-Q)^-1 X, the partial sum, its next term, the tail and
    # the product that advances one of the last two
    "resolvent_expansion_check": (lambda: resolvent_expansion_check(
        _Q, _H, 0.5, 2.0 + 0.5j, (1, 2, 3)), 6.1),
}


@pytest.mark.parametrize("name", BUDGETS)
def test_resolvent_paths_hold_only_what_they_still_read(name):
    call, bound = BUDGETS[name]
    assert _peak(call) <= bound
