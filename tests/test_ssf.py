import numpy as np
import pytest

from magstark.errors import (ConfigurationError, GapNotFoundError,
                             GeometryError, SpectralWindowError)
from magstark.grid import make_grid
from magstark.hamiltonian import FieldParams, assemble
from magstark.potentials import PotentialSpec, eval_potential
from magstark.spectral import (LOCALIZATION_THRESHOLD, BumpFunction,
                               eigendecompose, interior_mask, trace_function,
                               weighted_spectrum)
from magstark.ssf import (epsilon_scaling, resolvent_expansion_check,
                          sigma_q_gap_window, trace_identity_check,
                          truncation_convergence, wall_cutoff_weights)
from oracles import commutator_trace_zero, xi_prime_mollified

ZERO = PotentialSpec("zero")
GAUSS = PotentialSpec("gaussian", amplitude=0.5, width=2.0)
F = BumpFunction(2.0, 0.8)


class _ScaledBump:
    """c * f for the linearity checks; keeps the support attribute."""

    def __init__(self, f, c):
        self.f, self.c = f, c
        self.support = f.support

    def __call__(self, t):
        return self.c * self.f(t)


def test_zero_potential_identity_exact():
    g = make_grid(6, 6, 21, 21)
    rep = trace_identity_check(g, FieldParams(1.0, 0.5), ZERO, F)
    assert rep.lhs == 0.0 and rep.rhs == 0.0
    assert abs(rep.residual) <= 1e-12 * g.n_points


def test_linearity_in_f():
    g = make_grid(6, 6, 21, 21)
    rep1 = trace_identity_check(g, FieldParams(1.0, 0.5), GAUSS, F)
    rep2 = trace_identity_check(g, FieldParams(1.0, 0.5), GAUSS, _ScaledBump(F, 2.0))
    assert rep2.lhs == 2.0 * rep1.lhs
    assert rep2.rhs == 2.0 * rep1.rhs
    assert rep2.residual == 2.0 * rep1.residual


def test_requires_positive_eps():
    g = make_grid(6, 6, 21, 21)
    with pytest.raises(ConfigurationError, match="eps"):
        trace_identity_check(g, FieldParams(1.0, 0.0), GAUSS, F)


def test_window_check():
    g = make_grid(6, 6, 21, 21)  # h = 0.6, resolved window ~ 5.6
    with pytest.raises(SpectralWindowError, match="resolved"):
        trace_identity_check(g, FieldParams(1.0, 0.5), GAUSS, BumpFunction(9.0, 1.0))


def test_identity_with_wall_cutoff_reference():
    # frozen reference: l=6, nx=61, gaussian (0.5, 2.0), f(2.0, 0.8), collar 2;
    # the wall-localized traces agree to a few percent at this resolution
    g = make_grid(6, 6, 61, 61)
    rep = trace_identity_check(g, FieldParams(1.0, 0.5), GAUSS, F, wall_cutoff=2.0)
    assert abs(rep.lhs) > 0.05
    assert rep.relative_residual <= 0.2


def test_wall_cutoff_weights_shape():
    g = make_grid(6, 6, 41, 41)
    chi = wall_cutoff_weights(g, collar=2.0)
    xf, yf = g.meshes()
    bulk = (np.abs(xf) <= 3.5) & (np.abs(yf) <= 3.5)
    assert np.all(chi[bulk] == 1.0)
    wall = (np.abs(xf) >= 5.9) | (np.abs(yf) >= 5.9)
    assert np.max(chi[wall]) < 1e-10
    with pytest.raises(ConfigurationError, match="collar"):
        wall_cutoff_weights(g, collar=7.0)


def test_commutator_trace_zero():
    g = make_grid(6, 6, 21, 21)
    re, im = commutator_trace_zero(g, FieldParams(1.0, 0.5), GAUSS, F)
    h = assemble(g, FieldParams(1.0, 0.5), eval_potential(GAUSS, g).v)
    scale = 1e-10 * g.n_points * np.max(np.abs(h.dense()))
    assert abs(re) <= scale and abs(im) <= scale


def test_truncation_compact_support_collapses():
    # potential supported inside the smallest radius: chi_R V = V exactly
    g = make_grid(12, 12, 33, 33)
    bump = PotentialSpec("compact_bump", amplitude=0.5, width=2.5)
    tab = truncation_convergence(g, FieldParams(1.0, 0.5), bump, F,
                                 (3.0, 4.5, 6.0)).rows
    for _, c1, c2 in tab:
        assert c1 <= 1e-10 and c2 <= 1e-10


def test_truncation_zero_potential():
    g = make_grid(12, 12, 33, 33)
    tab = truncation_convergence(g, FieldParams(1.0, 0.5), ZERO, F,
                                 (3.0, 4.5, 6.0)).rows
    for _, c1, c2 in tab:
        assert c1 == 0.0 and c2 == 0.0


def test_truncation_gaussian_monotone():
    g = make_grid(12, 12, 41, 41)
    tab = truncation_convergence(g, FieldParams(1.0, 0.5), GAUSS, F,
                                 (3.0, 4.5, 6.0)).rows
    c1 = [row[1] for row in tab]
    c2 = [row[2] for row in tab]
    assert c1[0] > c1[1] > c1[2]
    assert c2[0] > c2[1] > c2[2]


def test_truncation_geometry_error():
    g = make_grid(8, 8, 21, 21)
    with pytest.raises(GeometryError, match="radius"):
        truncation_convergence(g, FieldParams(1.0, 0.5), GAUSS, F,
                               (3.0, 6.0))


def test_xi_prime_zero_potential():
    g = make_grid(6, 6, 21, 21)
    dec = eigendecompose(assemble(g, FieldParams(1.0, 0.5), np.zeros(g.n_points)))
    lam = np.linspace(0, 3, 200)
    curve = xi_prime_mollified(dec, dec, lam, eta=0.1)
    assert np.max(np.abs(curve)) == 0.0


def test_xi_prime_total_integral_vanishes():
    g = make_grid(6, 6, 31, 31)
    fields = FieldParams(1.0, 0.5)
    decH = eigendecompose(assemble(g, fields, eval_potential(GAUSS, g).v))
    decH0 = eigendecompose(assemble(g, fields, np.zeros(g.n_points)))
    eta = 0.1
    lam = np.linspace(float(decH.eigenvalues[0]) - 8 * eta,
                      float(decH.eigenvalues[-1]) + 8 * eta, 60001)
    total = float(np.trapezoid(xi_prime_mollified(decH, decH0, lam, eta), lam))
    assert abs(total) <= 1e-8


def test_xi_prime_integral_approximates_trace_difference():
    # quadrature oracle at the reference configuration; the mollified pairing
    # reproduces the raw eigenvalue-sum lhs within the measured 15% at
    # eta = spacing/2
    g = make_grid(6, 6, 61, 61)
    fields = FieldParams(1.0, 0.5)
    decH = eigendecompose(assemble(g, fields, eval_potential(GAUSS, g).v))
    decH0 = eigendecompose(assemble(g, fields, np.zeros(g.n_points)))
    lam_win = decH.eigenvalues[(decH.eigenvalues > 1.2) & (decH.eigenvalues < 2.8)]
    eta = 0.5 * float(np.median(np.diff(lam_win)))
    lam = np.linspace(1.2 - 8 * eta, 2.8 + 8 * eta, 4001)
    curve = xi_prime_mollified(decH, decH0, lam, eta)
    integral = float(np.trapezoid(F(lam) * curve, lam))
    lhs = trace_function(decH, F) - trace_function(decH0, F)
    assert abs(integral - lhs) / abs(lhs) <= 0.15


def _localized_q(g, v):
    """Q's localized spectrum, from the streamed full solve."""
    lam, scores, _ = weighted_spectrum(assemble(g, FieldParams(1.0), v),
                                       interior_mask(g, 0.05))
    return lam[scores > LOCALIZATION_THRESHOLD]


def test_gap_window_first_landau_gap():
    g = make_grid(6, 6, 41, 41)
    loc = _localized_q(g, np.zeros(g.n_points))
    a, b = sigma_q_gap_window(loc, margin=0.4)
    assert a <= 1.6 and b >= 2.4
    with pytest.raises(GapNotFoundError, match="margin"):
        sigma_q_gap_window(loc, margin=1.2)
    with pytest.raises(GapNotFoundError, match="fewer than two"):
        sigma_q_gap_window(loc[:1], margin=0.4)


def test_gap_window_shrinks_with_attractive_potential():
    g = make_grid(6, 6, 41, 41)
    a0, b0 = sigma_q_gap_window(_localized_q(g, np.zeros(g.n_points)),
                                margin=0.3)
    well = PotentialSpec("gaussian", amplitude=-0.5, width=2.0)
    a1, b1 = sigma_q_gap_window(_localized_q(g, eval_potential(well, g).v),
                                margin=0.3)
    assert (b1 - a1) < (b0 - a0)


def test_epsilon_scaling_zero_potential_underflow():
    g = make_grid(6, 6, 21, 21)
    rep = epsilon_scaling(g, 1.0, ZERO, F, (0.4, 0.2, 0.1))
    assert rep.slope is None and rep.intercept is None and rep.r2 is None


def test_epsilon_scaling_slope_invariant_under_f_rescale():
    g = make_grid(8, 2.4, 33, 9)
    spec = PotentialSpec("separable_power", amplitude=1.0, decay_n=3,
                         decay_delta=0.5)
    f = BumpFunction(2.0, 0.5)
    rep1 = epsilon_scaling(g, 1.0, spec, f, (0.4, 0.2, 0.1))
    rep2 = epsilon_scaling(g, 1.0, spec, _ScaledBump(f, 3.0), (0.4, 0.2, 0.1))
    assert np.isclose(rep1.slope, rep2.slope, rtol=1e-9)
    assert rep1.r2 == pytest.approx(rep2.r2, rel=1e-9)


def test_epsilon_scaling_validation():
    g = make_grid(6, 6, 21, 21)
    with pytest.raises(ConfigurationError, match="decreasing"):
        epsilon_scaling(g, 1.0, GAUSS, F, (0.2, 0.1, 0.15))
    # a log-log fit through two points has r2 = 1 whatever they are
    with pytest.raises(ConfigurationError, match="at least three"):
        epsilon_scaling(g, 1.0, GAUSS, F, (0.2, 0.1))


def test_resolvent_expansion_exact():
    g = make_grid(6, 6, 31, 31)
    spec = GAUSS
    q = assemble(g, FieldParams(1.0), eval_potential(spec, g).v)
    h = assemble(g, FieldParams(1.0, 0.3), eval_potential(spec, g).v)
    r1, r2, r3 = resolvent_expansion_check(q, h, 0.3, 2.0 + 0.5j, (1, 2, 3))
    # n = 1 is the second resolvent identity
    assert r1 <= 1e-10
    assert r2 <= 1e-8 and r3 <= 1e-8


def test_resolvent_expansion_serves_every_order_from_one_pass(monkeypatch):
    # orders come back in the order asked, from one ascending pass that
    # takes no matrix power
    g = make_grid(6, 6, 15, 15)
    q = assemble(g, FieldParams(1.0), eval_potential(GAUSS, g).v)
    h = assemble(g, FieldParams(1.0, 0.3), eval_potential(GAUSS, g).v)
    r1, r2, r3 = resolvent_expansion_check(q, h, 0.3, 2.0 + 0.5j, (1, 2, 3))

    def no_power(*a, **k):
        raise AssertionError("matrix_power called")

    monkeypatch.setattr(np.linalg, "matrix_power", no_power)
    assert resolvent_expansion_check(q, h, 0.3, 2.0 + 0.5j,
                                     (3, 1, 3)) == [r3, r1, r3]


def test_resolvent_expansion_eps_zero():
    g = make_grid(6, 6, 21, 21)
    q = assemble(g, FieldParams(1.0), eval_potential(GAUSS, g).v)
    h = assemble(g, FieldParams(1.0, 0.0), eval_potential(GAUSS, g).v)
    assert max(resolvent_expansion_check(q, h, 0.0, 2.0 + 0.5j, (3,))) <= 1e-10
