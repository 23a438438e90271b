import numpy as np
import pytest

from magstark.errors import ConfigurationError
from magstark.grid import apply_x, d2_op, make_grid
from oracles import d1_op, embed_x, interior_mask


def test_make_grid_spacings():
    g = make_grid(10, 10, 21, 21)
    assert g.hx == 1.0 and g.hy == 1.0
    g = make_grid(12, 12, 49, 49)
    assert g.hx == 0.5 and g.hy == 0.5
    assert g.n_points == 49 * 49


@pytest.mark.parametrize("kwargs,field", [
    (dict(lx=1, ly=1, nx=3, ny=3), "nx"),
    (dict(lx=1, ly=1, nx=21, ny=4), "ny"),
    (dict(lx=-1, ly=1, nx=21, ny=21), "lx"),
    (dict(lx=1, ly=0, nx=21, ny=21), "ly"),
])
def test_make_grid_rejects(kwargs, field):
    with pytest.raises(ConfigurationError, match=field):
        make_grid(**kwargs)


def test_flat_index_convention():
    # point (i, j) -> j*nx + i, x fastest
    g = make_grid(2, 3, 9, 11)
    xf, yf = g.meshes()
    i, j = 4, 7
    k = j * g.nx + i
    assert xf[k] == g.x[i]
    assert yf[k] == g.y[j]


@pytest.mark.parametrize("ny", [8, 17, 35, 40])
def test_y_grid_exactly_odd(ny):
    g = make_grid(6, 6, 9, ny)
    assert np.array_equal(g.y, -g.y[::-1])
    assert g.y[0] == -6.0 and g.y[-1] == 6.0


@pytest.mark.parametrize("nx", [8, 17, 35, 40, 41, 61])
def test_x_grid_exactly_odd(nx):
    g = make_grid(6, 6, nx, 9)
    assert np.array_equal(g.x, -g.x[::-1])
    assert g.x[0] == -6.0 and g.x[-1] == 6.0


def test_d1_exactly_hermitian():
    m = d1_op(8, 0.5)
    assert np.max(np.abs(m - m.conj().T)) == 0.0


def test_d1_constant_vector_interior_zero():
    m = d1_op(32, 0.25)
    out = m @ np.ones(32)
    assert np.allclose(out[1:-1], 0.0, atol=1e-14)


def test_d1_sine_derivative_second_order():
    # oracle: D = -i d/dx, so D sin(kx) = -i k cos(kx); error should be O(h^2)
    k, l = 1.3, 4.0
    errs = []
    for n in (101, 201):
        x = np.linspace(-l, l, n)
        h = x[1] - x[0]
        out = d1_op(n, h) @ np.sin(k * x)
        target = -1j * k * np.cos(k * x)
        errs.append(np.max(np.abs(out[2:-2] - target[2:-2])))
    order = np.log(errs[0] / errs[1]) / np.log(2.0)
    assert order > 1.9


def test_d2_closed_form_eigenvalues():
    n, h = 24, 0.3
    lam = np.sort(np.linalg.eigvalsh(d2_op(n, h)))
    j = np.arange(1, n + 1)
    expected = np.sort((2.0 - 2.0 * np.cos(j * np.pi / (n + 1))) / h ** 2)
    assert np.allclose(lam, expected, rtol=1e-12)


def test_d2_lowest_eigenvalue_continuum_limit():
    l = 1.0
    n = 400
    h = 2 * l / (n - 1)
    lam0 = np.linalg.eigvalsh(d2_op(n, h))[0]
    assert abs(lam0 - (np.pi / (2 * l)) ** 2) / (np.pi / (2 * l)) ** 2 < 0.01


def test_d2_on_quadratic_is_minus_two():
    # operator is -d^2/dx^2; the 3-point stencil is exact on x^2
    n, h = 20, 0.5
    x = np.linspace(0, (n - 1) * h, n)
    out = d2_op(n, h) @ (x ** 2)
    assert np.allclose(out[1:-1], -2.0, atol=1e-10)


def test_apply_x_matches_the_kron_embedding():
    g = make_grid(3, 3, 12, 10)
    rng = np.random.default_rng(5)
    m1d = rng.standard_normal((g.nx, g.nx))
    a = rng.standard_normal((g.n_points, g.n_points)) + 1j
    full = embed_x(g, m1d)
    assert np.allclose(apply_x(g, m1d, a), full @ a, rtol=0, atol=1e-13)
    assert np.allclose(apply_x(g, m1d.T, a.T).T, a @ full, rtol=0, atol=1e-13)


def test_product_rule_commutator_is_averaging():
    # [d1 (x) I, X] = -i * averaging stencil, an exact matrix identity
    g = make_grid(3, 3, 12, 10)
    d = embed_x(g, d1_op(g.nx, g.hx))
    x = np.diag(g.meshes()[0])
    comm = d @ x - x @ d
    avg = np.zeros((g.nx, g.nx))
    idx = np.arange(g.nx - 1)
    avg[idx, idx + 1] = 0.5
    avg[idx + 1, idx] = 0.5
    expected = -1j * embed_x(g, avg)
    assert np.max(np.abs(comm - expected)) < 1e-14


def test_product_rule_converges_to_identity():
    # applied to a smooth localized vector, i[d1, X] u -> u at O(h^2)
    errs = []
    for nx in (41, 81):
        g = make_grid(5, 5, nx, 9)
        xf, yf = g.meshes()
        u = np.exp(-xf ** 2 - yf ** 2)
        d = embed_x(g, d1_op(g.nx, g.hx))
        x = np.diag(xf)
        out = 1j * (d @ (x @ u) - x @ (d @ u))
        mask = interior_mask(g, band=2)
        errs.append(np.max(np.abs(out[mask] - u[mask])))
    order = np.log(errs[0] / errs[1]) / np.log(2.0)
    assert order > 1.9
