import tracemalloc

import numpy as np
import pytest

from magstark.grid import make_grid
from magstark.errors import CapacityError, ConfigurationError
from magstark.hamiltonian import FieldParams, assemble
from magstark.potentials import PotentialSpec, eval_potential
from magstark.spectral import LOCALIZATION_THRESHOLD, weighted_spectrum
from magstark.spectral import interior_mask as box_mask
from magstark.traces import resolvent
from oracles import commutator_dx, interior_mask, kron_reference, partial_x

GRID = make_grid(6, 6, 25, 25)
NO_V = np.zeros(GRID.n_points)
GAUSS = PotentialSpec("gaussian", amplitude=0.5, width=2.0)
GAUSS_V = eval_potential(GAUSS, GRID).v
FAMILIES = ["zero", "separable_power", "gaussian", "compact_bump"]


def test_field_params_validation():
    with pytest.raises(ConfigurationError, match="b"):
        FieldParams(b=0.0)
    with pytest.raises(ConfigurationError, match="eps"):
        FieldParams(b=1.0, eps=-0.1)


def test_assemble_capacity_checked_before_allocation():
    # 81 x 81 points: assembly holds O(N) stencil coefficients, and the
    # resolvent refuses its 6561^2 complex z - M (689 MB) before allocating
    g = make_grid(6, 6, 81, 81)
    v = np.zeros(g.n_points)
    tracemalloc.start()
    try:
        h = assemble(g, FieldParams(b=1.0), v)
        with pytest.raises(CapacityError, match="dense limit"):
            resolvent(h, 1j)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("shape", [(21, 35), (41, 21)])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("eps", [0.0, 0.5])
def test_assemble_matches_kron_reference_bitwise(shape, family, eps):
    # the direct stencil write reproduces the Kronecker-product sum bit for
    # bit, signed zeros included
    g = make_grid(6, 6, *shape)
    fields = FieldParams(b=1.3, eps=eps)
    v = eval_potential(PotentialSpec(family, amplitude=0.7, width=2.5), g).v
    # dense() is Fortran ordered, and a view needs rows in memory order; the
    # bit patterns are compared, since a float == treats -0.0 as 0.0
    m = np.ascontiguousarray(assemble(g, fields, v).dense())
    assert np.array_equal(m.view(np.uint64),
                          kron_reference(g, fields, v).view(np.uint64))


@pytest.mark.parametrize("shape", [(21, 35), (41, 21)])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("eps", [0.0, 0.5])
def test_stencil_apply_matches_dense_product(shape, family, eps):
    g = make_grid(6, 6, *shape)
    v = eval_potential(PotentialSpec(family, amplitude=0.7, width=2.5), g).v
    op = assemble(g, FieldParams(b=1.3, eps=eps), v)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((g.n_points, 5)) + 1j * rng.standard_normal(
        (g.n_points, 5))
    m = op.dense()
    for block in (x, x.real.copy()):
        assert np.max(np.abs(op.stencil_apply(block) - m @ block)) <= (
            1e-14 * np.max(np.abs(m)) * np.max(np.abs(block)))


def test_assembled_operators_exactly_hermitian():
    fields = FieldParams(b=1.0, eps=0.5)
    for op in (assemble(GRID, fields, NO_V),
               assemble(GRID, FieldParams(b=1.0), GAUSS_V),
               assemble(GRID, fields, GAUSS_V)):
        m = op.dense()
        assert np.array_equal(m, m.conj().T)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("eps", [0.5, 0.0])
def test_assembled_operators_exactly_t_symmetric(family, eps):
    # every family is even in y, so conj(M) == P_y M P_y holds bitwise
    g = make_grid(6, 6, 21, 35)
    fields = FieldParams(b=1.3, eps=eps)
    v = eval_potential(PotentialSpec(family, amplitude=0.7, width=2.5), g).v
    for op in (assemble(g, fields, np.zeros(g.n_points)),
               assemble(g, FieldParams(b=1.3), v), assemble(g, fields, v)):
        assert op.is_t_symmetric()


def test_eps_linearity():
    h1 = assemble(GRID, FieldParams(b=1.0, eps=1.0), NO_V)
    h0 = assemble(GRID, FieldParams(b=1.0, eps=0.0), NO_V)
    x = np.diag(GRID.meshes()[0])
    assert np.array_equal(h1.dense() - x, h0.dense())


def test_zero_potential_collapses():
    fields = FieldParams(b=1.0, eps=0.5)
    v = eval_potential(PotentialSpec("zero"), GRID).v
    assert np.array_equal(assemble(GRID, fields, v).dense(),
                          assemble(GRID, fields, NO_V).dense())


def test_q_minus_q0_is_potential_diagonal():
    fields = FieldParams(b=1.0)
    diff = (assemble(GRID, fields, GAUSS_V).dense()
            - assemble(GRID, fields, NO_V).dense())
    off = diff - np.diag(np.diag(diff))
    assert np.max(np.abs(off)) == 0.0
    assert np.allclose(np.diag(diff).real, GAUSS_V, rtol=0, atol=1e-13)


def test_h_minus_q_is_stark_term():
    fields = FieldParams(b=1.0, eps=0.7)
    h = assemble(GRID, fields, GAUSS_V)
    q = assemble(GRID, FieldParams(b=1.0), GAUSS_V)
    xf, _ = GRID.meshes()
    diff = h.dense() - q.dense()
    off = diff - np.diag(np.diag(diff))
    assert np.max(np.abs(off)) == 0.0
    assert np.allclose(np.diag(diff).real, 0.7 * xf, rtol=0, atol=1e-12)


def _localized(op):
    """The localized spectrum, from the streamed full solve the experiments
    run: the eigenvalues scoring above LOCALIZATION_THRESHOLD in the 0.05
    interior box."""
    lam, scores, _ = weighted_spectrum(op, box_mask(op.grid, 0.05))
    return lam[scores > LOCALIZATION_THRESHOLD]


def test_landau_level_small_grid():
    # b=1 free Landau operator: lowest localized cluster sits near 1.0
    g = make_grid(6, 6, 41, 41)
    loc = _localized(assemble(g, FieldParams(b=1.0), np.zeros(g.n_points)))
    assert len(loc) >= 2
    lowest = np.sort(loc)[:2]
    assert np.all(np.abs(lowest - 1.0) < 0.05)


def test_attractive_gaussian_pulls_below_landau():
    g = make_grid(6, 6, 31, 31)
    well = PotentialSpec("gaussian", amplitude=-0.4, width=2.0)
    loc = _localized(assemble(g, FieldParams(b=1.0),
                              eval_potential(well, g).v))
    assert len(loc) >= 1
    assert np.min(loc) < 0.95


def test_commutator_zero_potential_interior_is_averaging():
    # [d/dx, H0] interior rows equal eps times the averaging stencil exactly;
    # the kinetic part contributes only x-wall corner entries
    fields = FieldParams(b=1.0, eps=0.5)
    comm = commutator_dx(assemble(GRID, fields, NO_V))
    avg = np.zeros((GRID.nx, GRID.nx))
    idx = np.arange(GRID.nx - 1)
    avg[idx, idx + 1] = 0.5
    avg[idx + 1, idx] = 0.5
    expected = 0.5 * np.kron(np.eye(GRID.ny), avg)
    mask = interior_mask(GRID, band=1)
    diff = np.abs(comm - expected)[np.ix_(mask, mask)]
    assert np.max(diff) < 1e-12


def test_commutator_trace_vanishes_random():
    # trace of a commutator of finite matrices is zero to round-off
    rng = np.random.default_rng(3)
    n = 160
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = m + m.conj().T
    d = np.diag(rng.standard_normal(n))
    stencil = np.zeros((n, n))
    idx = np.arange(n - 1)
    stencil[idx, idx + 1] = 1.0
    stencil[idx + 1, idx] = -1.0
    a = d @ stencil
    val = abs(np.trace(a @ m - m @ a))
    assert val <= 1e-10 * n * np.max(np.abs(m))


def test_commutator_general_potential_second_order():
    # interior action approaches (eps + dxV) u at observed order >= 1.8
    fields = FieldParams(b=1.0, eps=0.5)
    errs = []
    for nx in (31, 61):
        g = make_grid(6, 6, nx, nx)
        pv = eval_potential(GAUSS, g)
        comm = commutator_dx(assemble(g, fields, pv.v))
        xf, yf = g.meshes()
        u = np.exp(-(xf ** 2 + yf ** 2) / 2.0)
        target = (0.5 + pv.dxv) * u
        mask = interior_mask(g, band=2)
        errs.append(np.max(np.abs((comm @ u - target)[mask])))
    order = np.log(errs[0] / errs[1]) / np.log(2.0)
    assert order > 1.8


def test_partial_x_is_antihermitian():
    d = partial_x(GRID)
    assert np.max(np.abs(d + d.conj().T)) == 0.0


@pytest.mark.parametrize("b,eps", [(np.inf, 0.0), (np.nan, 0.0),
                                   (1.0, np.nan), (1.0, np.inf)])
def test_field_params_reject_non_finite_strengths(b, eps):
    with pytest.raises(ConfigurationError, match="finite"):
        FieldParams(b=b, eps=eps)


def test_assemble_rejects_non_finite_coefficients():
    # (b y)^2 overflows at b = 1e200; a NaN potential poisons the diagonal
    v = GAUSS_V.copy()
    v[7] = np.nan
    for fields, pot in ((FieldParams(b=1e200), NO_V), (FieldParams(b=1.0), v)):
        with np.errstate(over="ignore"), \
                pytest.raises(ConfigurationError, match="non-finite"):
            assemble(GRID, fields, pot)
