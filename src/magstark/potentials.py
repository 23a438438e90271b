"""Analytic potential families with exact x-derivatives and decay certificates.

Each family carries closed-form first and second x-derivatives (no numerical
differentiation) and a declared envelope constant proving the power-law decay
it claims.  Two envelope conventions are used:

* ``short_range``: |V| <= C (1+|x|)^(-2-delta) (1+|y|)^(-1-delta), the
  admission test for trace-formula experiments (applied to V and dxV);
* ``stark_order``: |dx^a V| <= C (1+|x|)^(-n-delta-a) (1+|y|)^(-2-delta),
  parametrized by n, the class for which the O(eps^(n-2)) estimate holds;
  ``scaling`` and ``lemma7`` record its verdict in their results, but do
  not gate on it.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DecayCertificateError
from .grid import GridSpec

FAMILIES = ("zero", "separable_power", "gaussian", "compact_bump")


@dataclass(frozen=True)
class PotentialSpec:
    """Family name, amplitude, decay exponents (n, delta) and width parameter.

    width is the gaussian scale sigma (V = a exp(-(x^2+y^2)/sigma^2)) or the
    support radius of the compact bump; it is ignored by the other families.
    """

    family: str
    amplitude: float = 1.0
    decay_n: int = 2
    decay_delta: float = 0.5
    width: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(
                f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.decay_n < 2:
            raise ConfigurationError(f"decay_n must be >= 2, got {self.decay_n}")
        if not self.decay_delta > 0:
            raise ConfigurationError(
                f"decay_delta must be positive, got {self.decay_delta}")
        if self.family in ("gaussian", "compact_bump") and not self.width > 0:
            raise ConfigurationError(f"width must be positive, got {self.width}")


def evaluate(spec: PotentialSpec, x, y):
    """Potential values V(x, y); x, y broadcastable arrays."""
    a = spec.amplitude
    if spec.family == "zero":
        return np.zeros(np.broadcast(x, y).shape)
    if spec.family == "separable_power":
        p = spec.decay_n + spec.decay_delta
        q = 2.0 + spec.decay_delta
        return a * (1.0 + x * x) ** (-p / 2) * (1.0 + y * y) ** (-q / 2)
    if spec.family == "gaussian":
        s2 = spec.width ** 2
        return a * np.exp(-(x * x + y * y) / s2)
    # compact_bump: C-infinity, support r < width
    s = (x * x + y * y) / spec.width ** 2
    return a * _bump(s)


def d_x(spec: PotentialSpec, x, y):
    """Exact first x-derivative of the potential."""
    a = spec.amplitude
    if spec.family == "zero":
        return np.zeros(np.broadcast(x, y).shape)
    if spec.family == "separable_power":
        p = spec.decay_n + spec.decay_delta
        q = 2.0 + spec.decay_delta
        u1 = -p * x * (1.0 + x * x) ** (-p / 2 - 1)
        return a * u1 * (1.0 + y * y) ** (-q / 2)
    if spec.family == "gaussian":
        s2 = spec.width ** 2
        return -2.0 * x / s2 * evaluate(spec, x, y)
    w2 = spec.width ** 2
    s = (x * x + y * y) / w2
    return a * _bump(s, 1) * (2.0 * x / w2)


def d_xx(spec: PotentialSpec, x, y):
    """Exact second x-derivative of the potential."""
    a = spec.amplitude
    if spec.family == "zero":
        return np.zeros(np.broadcast(x, y).shape)
    if spec.family == "separable_power":
        p = spec.decay_n + spec.decay_delta
        q = 2.0 + spec.decay_delta
        u2 = (-p * (1.0 + x * x) ** (-p / 2 - 1)
              + p * (p + 2) * x * x * (1.0 + x * x) ** (-p / 2 - 2))
        return a * u2 * (1.0 + y * y) ** (-q / 2)
    if spec.family == "gaussian":
        s2 = spec.width ** 2
        return (-2.0 / s2 + 4.0 * x * x / s2 ** 2) * evaluate(spec, x, y)
    w2 = spec.width ** 2
    s = (x * x + y * y) / w2
    return a * (_bump(s, 2) * (2.0 * x / w2) ** 2 + _bump(s, 1) * (2.0 / w2))


def _bump(s, order=0):
    """exp(1 - 1/(1-s)) for s < 1, zero beyond (C-infinity in s), or its
    derivative of the given order (1 or 2) in s."""
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    inside = s < 1.0
    u = 1.0 - s[inside]
    g = np.exp(1.0 - 1.0 / u)
    out[inside] = (g, -g / u ** 2, g * (1.0 / u ** 4 - 2.0 / u ** 3))[order]
    return out


def _gauss_sup(m, sigma):
    """Exact sup over t >= 0 of (1+t)^m exp(-t^2/sigma^2)."""
    if m <= 0:
        return 1.0
    t = (-1.0 + np.sqrt(1.0 + 2.0 * m * sigma ** 2)) / 2.0
    return (1.0 + t) ** m * np.exp(-t * t / sigma ** 2)


def declared_constant(spec: PotentialSpec, alpha, mx, my):
    """Proven bound C with |dx^alpha V| <= C (1+|x|)^-mx (1+|y|)^-my.

    The bound is valid whenever the family genuinely decays at least that
    fast; the certificate check against a faster envelope than declared is
    expected to fail at sampling time.
    """
    a = abs(spec.amplitude)
    if spec.family == "zero":
        return 0.0
    if spec.family == "separable_power":
        p = spec.decay_n + spec.decay_delta
        k = {0: 1.0, 1: p, 2: p * (p + 3.0)}[alpha]
        return a * k * 2.0 ** ((p + alpha) / 2) * 2.0 ** ((2.0 + spec.decay_delta) / 2)
    if spec.family == "gaussian":
        sg = spec.width
        gy = _gauss_sup(my, sg)
        if alpha == 0:
            gx = _gauss_sup(mx, sg)
        elif alpha == 1:
            gx = (2.0 / sg ** 2) * _gauss_sup(mx + 1, sg)
        else:
            gx = (2.0 / sg ** 2) * _gauss_sup(mx, sg) \
                + (4.0 / sg ** 4) * _gauss_sup(mx + 2, sg)
        return a * gx * gy
    # compact_bump profile bounds: sup|g'| = 4/e, sup|g''| <= 256e^-3 + 54e^-2
    w = spec.width
    k = {0: 1.0,
         1: 8.0 / (w * np.e),
         2: (4.0 * (256.0 * np.exp(-3.0) + 54.0 * np.exp(-2.0))
             + 8.0 / np.e) / w ** 2}[alpha]
    return a * k * (1.0 + w) ** (mx + my)


def envelope_powers(spec: PotentialSpec, alpha, convention):
    """Decay exponents (mx, my) for the requested envelope convention."""
    d = spec.decay_delta
    if convention == "short_range":
        return 2.0 + d, 1.0 + d
    if convention == "stark_order":
        return spec.decay_n + d + alpha, 2.0 + d
    raise ConfigurationError(f"unknown envelope convention {convention!r}")


@dataclass(frozen=True)
class CertificateReport:
    """Observed sup of |field| / envelope per derivative order, with verdicts."""

    convention: str
    ratios: tuple          # observed constants, one per derivative order
    bounds: tuple          # declared constants, same order
    worst_points: tuple    # (x, y) attaining each observed ratio
    failed: tuple          # indices of the orders whose ratio exceeds its bound

    @property
    def passed(self):
        return not self.failed


def certify_decay(spec: PotentialSpec, grid: GridSpec, convention="stark_order",
                  orders=(0, 1, 2), n=None):
    """Sample |dx^a V| / envelope over the grid and compare to declared bounds.

    Passing ``n`` overrides the x-envelope exponent (used to demonstrate that
    a family fails against an envelope faster than it declares).  Ratio and
    bound are both linear in |amplitude|, so the verdict is taken at unit
    amplitude and the reported values are scaled back: a tiny or subnormal
    amplitude passes exactly when amplitude 1 does.
    """
    unit = replace(spec, amplitude=1.0)
    scale = abs(spec.amplitude)
    probe = unit if n is None else replace(unit, decay_n=n)
    xf, yf = grid.meshes()
    fields = {0: evaluate, 1: d_x, 2: d_xx}
    ratios, bounds, worst, failed = [], [], [], []
    for i, alpha in enumerate(orders):
        mx, my = envelope_powers(probe, alpha, convention)
        env = (1.0 + np.abs(xf)) ** (-mx) * (1.0 + np.abs(yf)) ** (-my)
        vals = np.abs(fields[alpha](unit, xf, yf)) / env
        k = int(np.argmax(vals))
        bound = float(declared_constant(unit, alpha, mx, my))
        if vals[k] > bound * 1.01:
            failed.append(i)
        ratios.append(scale * float(vals[k]))
        bounds.append(scale * bound)
        worst.append((float(xf[k]), float(yf[k])))
    return CertificateReport(convention, tuple(ratios), tuple(bounds),
                             tuple(worst), tuple(failed))


@dataclass(frozen=True)
class PotentialFields:
    """Sampled V and dxV on the flat grid, short-range certified."""

    v: np.ndarray
    dxv: np.ndarray


def eval_potential(spec: PotentialSpec, grid: GridSpec) -> PotentialFields:
    """Sample V and dxV and enforce the short-range certificate."""
    xf, yf = grid.meshes()
    cert = certify_decay(spec, grid, convention="short_range", orders=(0, 1))
    if not cert.passed:
        bad = cert.failed[0]
        raise DecayCertificateError(
            f"decay certificate violated for derivative order(s) "
            f"{list(cert.failed)}; worst grid point {cert.worst_points[bad]}, "
            f"observed {cert.ratios[bad]:.6g} > declared {cert.bounds[bad]:.6g}")
    return PotentialFields(evaluate(spec, xf, yf), d_x(spec, xf, yf))


def sup_dx(spec: PotentialSpec):
    """Closed-form upper bound for sup |dxV| over the plane."""
    a = abs(spec.amplitude)
    if spec.family == "zero":
        return 0.0
    if spec.family == "separable_power":
        p = spec.decay_n + spec.decay_delta
        t = 1.0 / np.sqrt(p + 1.0)
        return a * p * t * (1.0 + t * t) ** (-(p + 2) / 2)
    if spec.family == "gaussian":
        return a * np.sqrt(2.0) * np.exp(-0.5) / spec.width
    return a * 8.0 / (spec.width * np.e)


def clamp_amplitude(spec: PotentialSpec, bound):
    """Rescale the amplitude so that sup |dxV| <= bound (no-op when already so)."""
    s = sup_dx(spec)
    if s <= bound or s == 0.0:
        return spec
    return replace(spec, amplitude=spec.amplitude * bound / s)
