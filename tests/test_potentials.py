from dataclasses import replace

import numpy as np
import pytest

from magstark import potentials
from magstark.errors import ConfigurationError, DecayCertificateError
from magstark.grid import make_grid
from magstark.potentials import (FAMILIES, PotentialSpec, certify_decay,
                                 clamp_amplitude, d_x, d_xx, eval_potential,
                                 evaluate, sup_dx)

GRID = make_grid(8, 8, 33, 33)


def test_zero_family():
    spec = PotentialSpec("zero")
    fields = eval_potential(spec, GRID)
    assert not fields.v.any() and not fields.dxv.any()


def test_separable_power_normalization():
    spec = PotentialSpec("separable_power", amplitude=1.0, decay_n=3,
                         decay_delta=0.5)
    assert evaluate(spec, 0.0, 0.0) == 1.0
    # matches the closed form (1+x^2)^(-(3.5)/2) (1+y^2)^(-(2.5)/2)
    v = evaluate(spec, 2.0, 1.0)
    assert np.isclose(v, 5.0 ** (-1.75) * 2.0 ** (-1.25), rtol=1e-12)


def test_gaussian_derivative_value():
    # dxV(2, 0) = -0.5 e^-1 for a = 0.5, sigma = 2
    spec = PotentialSpec("gaussian", amplitude=0.5, width=2.0)
    assert np.isclose(d_x(spec, 2.0, 0.0), -0.5 * np.exp(-1.0), rtol=1e-12)
    assert np.isclose(d_x(spec, 2.0, 0.0), -0.18393972058572117, rtol=1e-12)


@pytest.mark.parametrize("family,kwargs", [
    ("separable_power", dict(decay_n=3, decay_delta=0.5)),
    ("gaussian", dict(width=2.0)),
    ("compact_bump", dict(width=3.0)),
])
def test_closed_forms_match_finite_differences(family, kwargs):
    spec = PotentialSpec(family, amplitude=0.7, **kwargs)
    rng = np.random.default_rng(7)
    x = rng.uniform(-6, 6, size=100)
    y = rng.uniform(-6, 6, size=100)
    step = 1e-4
    fd1 = (evaluate(spec, x + step, y) - evaluate(spec, x - step, y)) / (2 * step)
    assert np.max(np.abs(fd1 - d_x(spec, x, y))) < 1e-6
    fd2 = (d_x(spec, x + step, y) - d_x(spec, x - step, y)) / (2 * step)
    assert np.max(np.abs(fd2 - d_xx(spec, x, y))) < 1e-6


def test_amplitude_scaling_exact():
    spec1 = PotentialSpec("gaussian", amplitude=0.5, width=1.5)
    spec2 = PotentialSpec("gaussian", amplitude=1.0, width=1.5)
    xf, yf = GRID.meshes()
    assert np.array_equal(2.0 * evaluate(spec1, xf, yf), evaluate(spec2, xf, yf))
    assert np.array_equal(2.0 * d_x(spec1, xf, yf), d_x(spec2, xf, yf))
    assert np.array_equal(2.0 * d_xx(spec1, xf, yf), d_xx(spec2, xf, yf))


@pytest.mark.parametrize("family,kwargs", [
    ("separable_power", dict(decay_n=2, decay_delta=0.5)),
    ("gaussian", dict(width=2.0)),
])
def test_reflection_symmetry(family, kwargs):
    spec = PotentialSpec(family, amplitude=1.0, **kwargs)
    xf, yf = GRID.meshes()
    v = evaluate(spec, xf, yf)
    assert np.array_equal(v, evaluate(spec, -xf, yf))
    assert np.array_equal(v, evaluate(spec, xf, -yf))


def test_compact_bump_support():
    spec = PotentialSpec("compact_bump", amplitude=2.0, width=1.5)
    assert evaluate(spec, 0.0, 0.0) == 2.0
    assert evaluate(spec, 1.5, 0.0) == 0.0
    assert evaluate(spec, 4.0, 3.0) == 0.0
    assert d_x(spec, 2.0, 0.0) == 0.0
    # smooth at the support edge: values decay to zero from inside
    assert abs(evaluate(spec, 1.499, 0.0)) < 1e-200


def test_certificates_pass_for_shipped_families():
    for spec in (PotentialSpec("separable_power", amplitude=1.0, decay_n=3,
                               decay_delta=0.5),
                 PotentialSpec("gaussian", amplitude=0.5, width=2.0,
                               decay_n=6, decay_delta=0.5),
                 PotentialSpec("compact_bump", amplitude=1.0, width=2.0,
                               decay_n=4, decay_delta=0.5)):
        for convention in ("short_range", "stark_order"):
            rep = certify_decay(spec, GRID, convention=convention)
            assert rep.passed, (spec.family, convention, rep.ratios, rep.bounds)


def test_separable_fails_against_faster_envelope():
    spec = PotentialSpec("separable_power", amplitude=1.0, decay_n=3,
                         decay_delta=0.5)
    rep = certify_decay(spec, GRID, convention="stark_order", n=5)
    assert not rep.passed


def test_subnormal_amplitude_is_certified_like_amplitude_one():
    # a subnormal amplitude used to fail the short-range certificate on
    # rounding alone ("observed 4.44659e-323 > declared 2.47033e-323")
    tiny = PotentialSpec("separable_power", amplitude=5e-324)
    # eval_potential raises DecayCertificateError unless it passes
    eval_potential(tiny, make_grid(1, 1, 8, 8))
    for family in FAMILIES:
        unit = PotentialSpec(family, amplitude=1.0, decay_n=3, width=2.0)
        for n in (None, 5):
            for convention in ("short_range", "stark_order"):
                ref = certify_decay(unit, GRID, convention=convention, n=n)
                for amplitude in (5e-324, -1e-310, 1e-300, -3.0):
                    rep = certify_decay(replace(unit, amplitude=amplitude),
                                        GRID, convention=convention, n=n)
                    assert rep.failed == ref.failed
                    assert rep.passed == ref.passed


def test_eval_potential_raises_on_violation(monkeypatch):
    spec = PotentialSpec("gaussian", amplitude=0.5, width=2.0)
    monkeypatch.setattr(potentials, "declared_constant",
                        lambda *a, **k: 1e-12)
    with pytest.raises(DecayCertificateError, match="worst grid point"):
        eval_potential(spec, GRID)


def test_clamp_amplitude():
    spec = PotentialSpec("gaussian", amplitude=3.0, width=1.5)
    clamped = clamp_amplitude(spec, 0.25)
    assert sup_dx(clamped) <= 0.25 + 1e-12
    xf, yf = GRID.meshes()
    assert np.max(np.abs(d_x(clamped, xf, yf))) <= 0.25
    # already-small potentials are untouched
    small = PotentialSpec("gaussian", amplitude=0.01, width=1.5)
    assert clamp_amplitude(small, 0.25) is small


def test_spec_validation():
    with pytest.raises(ConfigurationError, match="family"):
        PotentialSpec("coulomb")
    with pytest.raises(ConfigurationError, match="decay_n"):
        PotentialSpec("gaussian", decay_n=1)
    with pytest.raises(ConfigurationError, match="decay_delta"):
        PotentialSpec("gaussian", decay_delta=0.0)
