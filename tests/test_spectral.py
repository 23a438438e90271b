from dataclasses import replace

import numpy as np
import pytest

from magstark.errors import ConfigurationError
from magstark.grid import DiscreteOperator, d2_op, make_grid
from magstark.hamiltonian import FieldParams, assemble
from magstark.potentials import PotentialSpec, eval_potential
from magstark.spectral import (BumpFunction, decay_weight,
                               eigendecompose, trace_function, weight_dx_s,
                               weighted_spectrum)
from oracles import (apply_function, embed_x, localization_scores,
                     localized_spectrum)

GRID = make_grid(4, 4, 17, 17)
GRID8 = make_grid(1, 1, 8, 8)


def _random_stencil(seed, path="complex", nx=8, ny=8):
    """A stencil operator with random coefficients of the kind ``path``.

    Every eigensolve needs conj(M) == P_y M P_y (diag even in y, xhop of row
    ny-1-j the conjugate of row j), which a "complex" operator breaks; the
    parity split of ``weighted_spectrum`` ("real_parity") also needs the
    real form to commute with P_x P_y (diag and xhop even in x as well).
    """
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((ny, nx))
    xhop = (rng.standard_normal((ny, nx - 1))
            + 1j * rng.standard_normal((ny, nx - 1)))
    if path != "complex":
        d, xhop = d + d[::-1], xhop + xhop[::-1].conj()
    if path == "real_parity":
        d, xhop = d + d[:, ::-1], xhop + xhop[:, ::-1]
    return DiscreteOperator(d.ravel(), xhop, float(rng.standard_normal()),
                            make_grid(1, 1, nx, ny))


def test_eigendecompose_diagonal():
    # a diagonal even in y is its own real form; one that is not is refused
    rng = np.random.default_rng(0)
    d = rng.standard_normal((4, 8))
    d = np.concatenate([d, d[::-1]]).ravel()
    op = DiscreteOperator(d, np.zeros((8, 7), complex), 0.0, GRID8)
    dec = eigendecompose(op)
    assert np.array_equal(dec.eigenvalues, np.sort(d))
    with pytest.raises(ConfigurationError, match="T = K P_y"):
        eigendecompose(replace(op, diag=rng.standard_normal(64)))


def test_eigendecompose_defects_random():
    for path in ("complex", "real", "real_parity"):
        for nx, ny in ((8, 8), (9, 11)):
            op = _random_stencil(1, path, nx, ny)
            if path == "complex":
                with pytest.raises(ConfigurationError, match="T = K P_y"):
                    eigendecompose(op)
                continue
            assert weighted_spectrum(op, np.ones(op.dim))[2]["path"] == path
            dec = eigendecompose(op)
            scale = np.max(np.abs(dec.eigenvalues))
            assert dec.reconstruction_defect() <= 1e-13 * op.dim * scale
            assert dec.orthonormality_defect() <= 1e-12
            # a wrong eigenvalue shows in the residual
            lam = dec.eigenvalues.copy()
            lam[3] += 1e-3
            assert replace(dec, eigenvalues=lam).reconstruction_defect() > 1e-4


def test_bump_function_shape():
    f = BumpFunction(2.0, 0.8)
    assert f(2.0) == 1.0
    assert f(2.8) == 0.0 and f(1.2) == 0.0 and f(5.0) == 0.0
    assert 0.0 < f(2.5) < 1.0
    lo, hi = f.support
    assert (lo, hi) == (1.2, 2.8)


def test_bump_plateau():
    chi = BumpFunction(1.5, 0.4, plateau=0.5)
    ts = np.linspace(1.31, 1.69, 21)
    assert np.all(chi(ts) == 1.0)
    assert chi(1.5 + 0.41) == 0.0
    assert 0.0 < chi(1.5 + 0.3) < 1.0


@pytest.mark.parametrize("plateau", [0.0, 0.5])
def test_bump_derivative_matches_finite_difference(plateau):
    f = BumpFunction(0.3, 1.1, plateau=plateau)
    t = np.linspace(-1.2, 1.8, 401)
    step = 1e-6
    fd = (f(t + step) - f(t - step)) / (2 * step)
    assert np.max(np.abs(fd - f.derivative(t))) < 1e-5


def test_bump_validation():
    with pytest.raises(ConfigurationError, match="halfwidth"):
        BumpFunction(0.0, 0.0)
    with pytest.raises(ConfigurationError, match="plateau"):
        BumpFunction(0.0, 1.0, plateau=1.0)


def test_apply_function_identities():
    dec = eigendecompose(_random_stencil(2, "real"))
    f = BumpFunction(0.0, 1.5)
    m = apply_function(dec, f)
    assert np.isclose(trace_function(dec, f), np.trace(m).real, atol=1e-10)
    a = dec.source.dense()
    comm = m @ a - a @ m
    assert np.max(np.abs(comm)) <= 1e-8 * np.max(np.abs(a))
    # function vanishing on the whole spectrum gives the zero matrix
    lo = float(dec.eigenvalues[0])
    g = BumpFunction(lo - 10.0, 1.0)
    assert np.max(np.abs(apply_function(dec, g))) == 0.0


def test_apply_function_algebra_morphism():
    dec = eigendecompose(_random_stencil(4, "real"))
    f = BumpFunction(0.0, 2.0)
    g = BumpFunction(0.5, 1.5)
    lhs = apply_function(dec, f) @ apply_function(dec, g)
    rhs = apply_function(dec, lambda t: f(t) * g(t))
    assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_weight_dx_s_bounds():
    m = embed_x(GRID, weight_dx_s(GRID, -0.75))
    sv = np.linalg.svd(m, compute_uv=False)
    lam_max = np.linalg.eigvalsh(d2_op(GRID.nx, GRID.hx))[-1]
    assert sv[0] <= 1.0 + 1e-12
    assert sv[-1] >= (1.0 + lam_max) ** (-0.75 / 2.0) - 1e-12
    # power=0 gives the identity
    ident = embed_x(GRID, weight_dx_s(GRID, 0.0))
    assert np.max(np.abs(ident - np.eye(GRID.n_points))) <= 1e-12


def test_weight_dx_s_commutes_with_y_multiplication():
    m = embed_x(GRID, weight_dx_s(GRID, -0.6))
    _, yf = GRID.meshes()
    ymul = np.diag(np.cos(yf))
    comm = m @ ymul - ymul @ m
    assert np.max(np.abs(comm)) <= 1e-10


@pytest.mark.parametrize("delta", [0.0, -0.5, float("nan")])
def test_decay_weight_refuses_a_nonpositive_delta(delta):
    with pytest.raises(ConfigurationError, match="delta must be positive"):
        decay_weight(GRID, 1, delta)


def test_position_and_decay_weights():
    xf, yf = GRID.meshes()
    k1 = decay_weight(GRID, 1, 0.5)
    expected = (1 + xf ** 2) ** (-0.75) * (1 + yf ** 2) ** (-0.5)
    assert np.allclose(k1, expected, rtol=1e-14)


def test_localized_spectrum_margin_monotone():
    g = make_grid(6, 6, 31, 31)
    well = PotentialSpec("gaussian", amplitude=-0.6, width=2.0)
    dec = eigendecompose(assemble(g, FieldParams(b=1.0),
                                  eval_potential(well, g).v))
    tight = localized_spectrum(dec, margin=0.3)
    loose = localized_spectrum(dec, margin=0.05)
    assert len(tight) <= len(loose)
    # every tightly localized eigenvalue also appears in the loose list
    for v in tight:
        assert np.min(np.abs(loose - v)) < 1e-12
    with pytest.raises(ConfigurationError, match="margin"):
        localization_scores(dec, 0.6)
