"""Experiment runner: one table of named experiments, config ingestion, reports.

Every experiment is declared once, as an entry of ``EXPERIMENTS``: its
overrides of the shared reference config ``_BASE``, its runner, and the
results key that ``convergence`` grades (by observed order for exact
identities, by stability between the two finest grids otherwise), if any.

Configs are flat INI files with [grid], [fields], [potential], [function] and
[experiment] sections; a config file only needs the keys it overrides, and
each value is parsed as the type of its default.  A config holds only the
entries its runner reads (an experiment maps a _BASE entry or section to None
to drop it).  The model sections become a grid, fields (eps = 0 when absent),
a potential and a test function (None when absent) for the runner.  Each
run writes a JSON envelope (full config echo, results, per-gate verdicts,
timings) plus a CSV payload with fixed columns.  Floats are printed with
repr's shortest round-trip form so identical configs produce byte-identical
CSV files.

Exit codes: 0 all gates pass, 2 a gate failed, 1 configuration/runtime error.
"""

import argparse
import atexit
import configparser
import copy
import gc
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy

from . import __version__
from .errors import ConfigurationError, MagstarkError, SpectralWindowError
from .grid import make_grid
from .hamiltonian import FieldParams, assemble
from .mourre import checked_s, lap_probe, gap_cutoff_sweep, mourre_gap_bound
from .potentials import (PotentialSpec, certify_decay, clamp_amplitude,
                         eval_potential)
from .spectral import (LOCALIZATION_THRESHOLD, BumpFunction, eigendecompose,
                       interior_mask, weighted_spectrum)
from .ssf import (epsilon_scaling, resolvent_expansion_check,
                  sigma_q_gap_window, trace_identity_check,
                  truncation_convergence)
from .traces import (checked_probe, checked_sweep, weighted_resolvent_norms,
                     tracebound_sweep, resolvent_chain_tracenorm)

# At exit the last cyclic collection would walk the whole numpy/scipy import
# heap; frozen, it is skipped.  Outputs are closed before main() returns.
atexit.register(gc.freeze)

# Reference configuration shared by every experiment; each value can be
# overridden per experiment, from INI or from --set.
_BASE = {
    "grid": {"lx": 6.0, "ly": 6.0, "nx": 41, "ny": 41},
    "fields": {"b": 1.0, "eps": 0.5},
    "potential": {"family": "gaussian", "amplitude": 0.5, "decay_n": 2,
                  "decay_delta": 0.5, "width": 2.0},
}

# Convergence thresholds: an exact observable passes when every level sits at
# EXACT_TOL or below, or when its observed order reaches ORDER_MIN; any other
# observable passes when the two finest grids differ by at most STABILITY_TOL
# relative.
ORDER_MIN = 1.5
EXACT_TOL = 1e-8
STABILITY_TOL = 0.05


class Experiment(NamedTuple):
    """One named experiment: its config, runner and convergence observable."""

    defaults: dict          # section -> overrides of _BASE; None drops
    run: Callable           # (grid, fields, spec, f, experiment section)
    observable: str | None = None   # results key graded by `convergence`
    exact: bool = False     # grade by observed order, not by stability


def _list(name, raw, kind=float):
    """A comma-separated entry, each item parsed as ``kind``."""
    return tuple(_coerce(f"each {name} item", kind(), v)
                 for v in str(raw).split(","))


def _stark_certificate(spec, grid):
    """Verdict of the stark_order decay class, for which the paper's
    O(eps^(n-2)) target holds; recorded in the results, not gated."""
    cert = certify_decay(spec, grid, convention="stark_order")
    return {"convention": cert.convention, "n": spec.decay_n,
            "passed": cert.passed, "failed": list(cert.failed)}


def _run_verify_theorem1(grid, fields, spec, f, e):
    # a collar of 0 means the plain traces; any other is checked
    rep = trace_identity_check(grid, fields, spec, f,
                               wall_cutoff=e["wall_collar"] or None)
    if spec.family == "zero":
        gates = {"zero_residual": (abs(rep.residual), 1e-12 * grid.n_points,
                                   abs(rep.residual) <= 1e-12 * grid.n_points)}
    else:
        tol = e["rel_tol"]
        gates = {"relative_residual": (rep.relative_residual, tol,
                                       rep.relative_residual <= tol)}
    rows = [("lhs", "rhs", "residual", "relative_residual"),
            (rep.lhs, rep.rhs, rep.residual, rep.relative_residual)]
    results = {"lhs": rep.lhs, "rhs": rep.rhs, "residual": rep.residual,
               "relative_residual": rep.relative_residual, "h": rep.h,
               "eigensolve": rep.eigensolve}
    return rows, results, gates


def _run_scaling(grid, fields, spec, f, e):
    rep = epsilon_scaling(grid, fields.b, spec, f,
                          _list("eps_list", e["eps_list"]))
    rows = [("eps", "value")] + list(zip(rep.params, rep.norms))
    underflow = rep.slope is None  # no fit through a sample below 1e-13
    results = {"slope": rep.slope, "intercept": rep.intercept, "r2": rep.r2,
               "underflow": underflow, "target": float(spec.decay_n - 2),
               "decay_certificate": _stark_certificate(spec, grid),
               "eigensolve": {"h": list(rep.eigensolve)}}
    if underflow and spec.family == "zero":
        gates = {"underflow_flagged": (1.0, 1.0, True)}
    elif underflow:
        gates = {"slope_defined": (0.0, 1.0, False)}
    else:
        ok = (e["slope_lo"] <= rep.slope <= e["slope_hi"]
              and rep.r2 >= e["r2_min"])
        gates = {"slope_window": (rep.slope,
                                  (e["slope_lo"], e["slope_hi"]), ok),
                 "r2": (rep.r2, e["r2_min"], rep.r2 >= e["r2_min"])}
    return rows, results, gates


def _run_mourre(grid, fields, spec, f, e):
    used = clamp_amplitude(spec, fields.eps / 2.0)
    pv = eval_potential(used, grid)
    dec = eigendecompose(assemble(grid, fields, pv.v),
                         window=(e["window_lo"], e["window_hi"]))
    bound = mourre_gap_bound(dec, fields, pv.dxv)
    slack = e["rel_slack"] * fields.eps
    if spec.family == "zero":
        name, thr = "bound_equals_eps", fields.eps
        ok = abs(bound - fields.eps) <= slack
    else:
        name, thr = "bound_above_half_eps", fields.eps / 2.0 - slack
        ok = bound >= thr
    results = {"bound": bound, "eps": fields.eps,
               "amplitude": spec.amplitude, "amplitude_used": used.amplitude,
               "eigensolve": {"h": dec.health_info()}}
    # +inf is mourre_gap_bound's sentinel for a window with no eigenvalue,
    # which bounds nothing: run() writes it as null and fails the gate
    if np.isinf(bound):
        results["reason"] = "empty_window"
    rows = [("window_lo", "window_hi", "bound"),
            (e["window_lo"], e["window_hi"], bound)]
    return rows, results, {name: (bound, thr, ok)}


def _widest_slot(lam, lo, hi):
    """Midpoint and width of the widest eigenvalue-free slot inside (lo, hi)."""
    pts = np.concatenate([[lo], lam[(lam > lo) & (lam < hi)], [hi]])
    gaps = np.diff(pts)
    k = int(np.argmax(gaps))
    return float(0.5 * (pts[k] + pts[k + 1])), float(gaps[k])


def _q_spectrum(grid, b, v):
    """Q's ascending eigenvalues, those of its localized levels (interior
    score in the 0.05 box above LOCALIZATION_THRESHOLD) and the solve's
    record, from one streamed full solve."""
    lam, scores, solve = weighted_spectrum(assemble(grid, FieldParams(b), v),
                                           interior_mask(grid, 0.05))
    return lam, lam[scores > LOCALIZATION_THRESHOLD], solve


def _run_lap_probe(grid, fields, spec, f, e):
    # s and the delta list are checked before Q is solved
    s = checked_s(e["s"])
    deltas = checked_sweep("delta_list", [2.0 ** (-k) for k in range(
        int(e["delta_max_exp"]), int(e["delta_min_exp"]) + 1)], 2)
    used = clamp_amplitude(spec, fields.eps / 2.0)
    v = eval_potential(used, grid).v
    h = assemble(grid, fields, v)
    # probe at the middle of the widest eigenvalue-free slot of H inside
    # the first gap of the localized spectrum of Q: H's certified window
    _, loc, solve = _q_spectrum(grid, fields.b, v)
    lo, hi = sigma_q_gap_window(loc, margin=0.3)
    dec = eigendecompose(h, window=(lo, hi))
    lam, _ = _widest_slot(dec.eigenvalues, lo, hi)
    rep = lap_probe(h, lam, s, deltas)
    ok = rep.plateau_ratio <= e["plateau_max"]
    rows = [("delta", "norm")] + list(zip(rep.params, rep.norms))
    results = {"lambda": lam, "plateau_ratio": rep.plateau_ratio,
               "sweep_growth": rep.sweep_growth,
               "amplitude": spec.amplitude, "amplitude_used": used.amplitude,
               "residual_bound": rep.residual_bound, "n": h.dim,
               "solver": "splu_lanczos",
               "eigensolve": {"h": dec.health_info(), "q": solve}}
    return rows, results, {"plateau": (rep.plateau_ratio, e["plateau_max"], ok)}


def _run_lemma7(grid, fields, spec, f, e):
    # eps comes from eps_list, so fields is Q's FieldParams(b); the list is
    # checked before Q is solved
    eps_list = checked_sweep("eps_list", _list("eps_list", e["eps_list"]), 3)
    v = eval_potential(spec, grid).v
    lam, loc, solve = _q_spectrum(grid, fields.b, v)
    # recenter the cutoff in the widest Q-spectrum-free slot nearby, so
    # chi(Q) vanishes exactly at eps = 0
    center, width = _widest_slot(lam, f.center - 0.25, f.center + 0.25)
    chi = BumpFunction(center, min(f.halfwidth, 0.45 * width), f.plateau)
    rep = gap_cutoff_sweep(grid, fields.b, v, chi, eps_list, q_localized=loc,
                           margin=e["sigma_margin"])
    ok = (rep.slope is not None
          and e["slope_lo"] <= rep.slope <= e["slope_hi"])
    rows = [("eps", "norm")] + list(zip(rep.params, rep.norms))
    results = {"slope": rep.slope, "r2": rep.r2,
               "decay_certificate": _stark_certificate(spec, grid),
               "eigensolve": {"q": solve, "h": list(rep.eigensolve)}}
    return rows, results, \
        {"slope_window": (rep.slope, (e["slope_lo"], e["slope_hi"]), ok)}


def _run_prop2(grid, fields, spec, f, e):
    # the probe is checked before H is solved
    im_zp, deltas = checked_probe(e["im_zp"],
                                  _list("delta_list", e["delta_list"]))
    v = eval_potential(spec, grid).v
    h = assemble(grid, fields, v)
    # pin the probe at the most V-coupled level in the bulk window,
    # where the uniform bound is under the most pressure
    dec = eigendecompose(h, window=(1.2, 2.8))
    if not dec.dim:
        raise SpectralWindowError("H has no eigenvalue in (1.2, 2.8] to probe")
    re_z = float(dec.eigenvalues[int(np.argmax(dec.weighted_density(v)))])
    rep = tracebound_sweep(h, v, re_z, im_zp, deltas)
    rows = [("delta", "product")] + list(zip(rep.params, rep.norms))
    results = {"re_z": re_z, "products": list(rep.norms),
               "spread": rep.spread, "eigensolve": {"h": dec.health_info()}}
    # the spread is +inf when a product is 0 beside a nonzero one
    if not np.isfinite(rep.spread):
        results["reason"] = "zero_product"
    ok = rep.spread <= e["spread_max"]
    return rows, results, {"spread": (rep.spread, e["spread_max"], ok)}


def _run_prop4(grid, fields, spec, f, e):
    pv = eval_potential(spec, grid)
    q = assemble(grid, fields, pv.v)
    val = resolvent_chain_tracenorm(q, pv.dxv, int(e["order"]), e["s"],
                                    e["delta"], complex(e["re_z"], e["im_z"]))
    rows = [("order", "trace_norm"), (int(e["order"]), val)]
    # run() fails a non-finite gate value
    return rows, {"trace_norm": val}, {"finite": (val, None, True)}


def _run_appendix(grid, fields, spec, f, e):
    h0 = assemble(grid, fields, np.zeros(grid.n_points))
    res = weighted_resolvent_norms(h0, e["delta"])
    rows = [("hs1", "tr2"), (res["hs1"], res["tr2"])]
    # run() fails a non-finite gate value
    return rows, res, {"finite": ((res["hs1"], res["tr2"]), None, True)}


def _run_spectrum(grid, fields, spec, f, e):
    targets = _list("cluster_targets", e["cluster_targets"])
    tols = _list("cluster_tols", e["cluster_tols"])
    if len(targets) != len(tols):
        raise ConfigurationError(
            f"cluster_targets has {len(targets)} entries but cluster_tols "
            f"has {len(tols)}; give one tolerance per target")
    if len(set(targets)) != len(targets):
        raise ConfigurationError(
            f"cluster_targets repeats a target, got {targets}; each target "
            f"names one gate")
    # the Landau clusters belong to Q, the eps = 0 member of the family
    # each parity block's vectors are dropped once their scores are summed
    lam, scores, solve = weighted_spectrum(
        assemble(grid, fields, eval_potential(spec, grid).v),
        interior_mask(grid, e["margin"]))
    rows = [("eigenvalue", "score", "localized")]
    rows += [(float(t), float(s), int(s > LOCALIZATION_THRESHOLD))
             for t, s in zip(lam, scores)]
    loc = lam[scores > LOCALIZATION_THRESHOLD]
    gates = {}
    for t, tol in zip(targets, tols):
        members = loc[np.abs(loc - t) <= tol]
        ok = members.size >= int(e["cluster_min"])
        gates[f"cluster_{t}"] = (int(members.size), int(e["cluster_min"]), ok)
    return rows, {"n_localized": int(loc.size),
                  "eigensolve": {"q": solve}}, gates


def _run_truncation(grid, fields, spec, f, e):
    rep = truncation_convergence(grid, fields, spec, f,
                                 _list("radii", e["radii"]))
    table = rep.rows
    rows = [("radius", "trace_diff", "weighted_diff")] + table
    c1 = [r[1] for r in table]
    c2 = [r[2] for r in table]
    tol = 1e-10
    ok = all(c1[i + 1] <= c1[i] + tol for i in range(len(c1) - 1)) and \
        all(c2[i + 1] <= c2[i] + tol for i in range(len(c2) - 1))
    return rows, {"table": table, "eigensolve": rep.eigensolve}, \
        {"monotone_decreasing": (c1 + c2, None, ok)}


def _run_expansion(grid, fields, spec, f, e):
    v = eval_potential(spec, grid).v
    q = assemble(grid, FieldParams(fields.b), v)
    h = assemble(grid, fields, v)
    orders = _list("orders", e["orders"], int)
    res = resolvent_expansion_check(q, h, fields.eps,
                                    complex(e["re_z"], e["im_z"]), orders)
    rows = [("order", "residual")]
    rows += zip(orders, res)
    worst = max(res)
    ok = worst <= e["residual_max"]
    return rows, {"worst_residual": worst}, \
        {"residual": (worst, e["residual_max"], ok)}


EXPERIMENTS = {
    "verify-theorem1": Experiment(
        {"grid": {"nx": 61, "ny": 61},
         "function": {"center": 2.0, "halfwidth": 0.8, "plateau": 0.0},
         "experiment": {"wall_collar": 2.0, "rel_tol": 0.35}},
        _run_verify_theorem1, "residual", exact=True),
    "scaling": Experiment(
        {"grid": {"lx": 12.0, "ly": 2.4, "nx": 81, "ny": 17},
         "fields": {"eps": None},
         "potential": {"family": "separable_power", "amplitude": 1.0,
                       "decay_n": 3},
         "function": {"center": 2.0, "halfwidth": 0.5, "plateau": 0.0},
         "experiment": {"eps_list": "0.4,0.283,0.2,0.141,0.1",
                        "slope_lo": 0.5, "slope_hi": 1.5, "r2_min": 0.9}},
        _run_scaling),
    "mourre": Experiment(
        {"experiment": {"window_lo": 1.6, "window_hi": 2.4, "rel_slack": 0.02},
         "potential": {"family": "gaussian", "amplitude": 0.3, "width": 1.5}},
        _run_mourre),
    "lap-probe": Experiment(
        {"fields": {"eps": 0.1},
         "potential": {"family": "gaussian", "amplitude": 0.3, "width": 1.5},
         "experiment": {"s": 0.75, "delta_min_exp": 8, "delta_max_exp": 1,
                        "plateau_max": 1.15}},
        _run_lap_probe),
    "lemma7": Experiment(
        {"grid": {"lx": 12.0, "ly": 6.0, "nx": 61, "ny": 31},
         "fields": {"eps": None},
         "potential": {"family": "separable_power", "amplitude": 0.15,
                       "decay_n": 3},
         "function": {"center": 1.6, "halfwidth": 0.05, "plateau": 0.5},
         "experiment": {"eps_list": "0.2,0.141,0.1,0.071,0.05",
                        "slope_lo": 1.6, "slope_hi": 2.4,
                        "sigma_margin": 0.2}},
        _run_lemma7),
    "prop2": Experiment(
        {"grid": {"nx": 31, "ny": 31},
         "potential": {"family": "separable_power", "amplitude": 1.0,
                       "decay_n": 3},
         "experiment": {"im_zp": 0.25, "delta_list": "0.5,0.25,0.125",
                        "spread_max": 2.0}},
        _run_prop2),
    "prop4": Experiment(
        {"grid": {"nx": 31, "ny": 31},
         "fields": {"eps": None},
         "potential": {"family": "separable_power", "amplitude": 1.0,
                       "decay_n": 3},
         "experiment": {"order": 2, "s": 0.6, "delta": 0.5,
                        "re_z": 2.0, "im_z": 1.0}},
        _run_prop4, "trace_norm"),
    "appendix-norms": Experiment(
        {"grid": {"nx": 31, "ny": 31},
         "fields": {"eps": 0.5},
         "potential": None,
         "experiment": {"delta": 0.5}},
        _run_appendix, "hs1"),
    "spectrum": Experiment(
        {"grid": {"nx": 61, "ny": 61},
         "fields": {"eps": None},
         "potential": {"family": "zero"},
         "experiment": {"margin": 0.05, "cluster_targets": "1.0,3.0",
                        "cluster_tols": "0.05,0.15", "cluster_min": 2}},
        _run_spectrum),
    "truncation": Experiment(
        {"grid": {"lx": 12.0, "ly": 12.0, "nx": 41, "ny": 41},
         "function": {"center": 2.0, "halfwidth": 0.8, "plateau": 0.0},
         "experiment": {"radii": "3.0,4.5,6.0"}},
        _run_truncation),
    "expansion-check": Experiment(
        {"grid": {"nx": 31, "ny": 31},
         "potential": {"family": "gaussian", "amplitude": 0.5, "width": 2.0},
         "fields": {"eps": 0.3},
         "experiment": {"orders": "1,2,3", "re_z": 2.0, "im_z": 0.5,
                        "residual_max": 1e-8}},
        _run_expansion, "worst_residual", exact=True),
}


def default_config(experiment):
    if experiment not in EXPERIMENTS:
        raise ConfigurationError(f"unknown experiment {experiment!r}; "
                                 f"choose from {tuple(EXPERIMENTS)}")
    cfg = copy.deepcopy(_BASE)
    for section, entries in EXPERIMENTS[experiment].defaults.items():
        if entries is None:
            del cfg[section]
            continue
        merged = {**cfg.get(section, {}), **entries}
        cfg[section] = {k: v for k, v in merged.items() if v is not None}
    return cfg


def _coerce(key, default, raw):
    """Parse a config value as the type of its default."""
    kind = type(default)
    if kind is str:
        return str(raw)
    try:
        return kind(raw)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"{key} must be {what}, got {raw!r}")


def load_config(experiment, path=None, overrides=()):
    """Defaults, then INI file, then --set key=value overrides."""
    cfg = default_config(experiment)
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigurationError(f"cannot read config file {path}")
        for section in parser.sections():
            if section not in cfg:
                raise ConfigurationError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in cfg[section]:
                    raise ConfigurationError(
                        f"unknown key {key!r} in section [{section}]")
                cfg[section][key] = _coerce(key, cfg[section][key], raw)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigurationError(
                f"--set expects section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        if section not in cfg or key not in cfg[section]:
            raise ConfigurationError(f"unknown config entry {dotted!r}")
        cfg[section][key] = _coerce(key, cfg[section][key], raw)
    return cfg


def _model(cfg):
    """Validated (grid, fields, potential, test function, experiment section)."""
    p, fn = cfg.get("potential"), cfg.get("function")
    return (make_grid(**cfg["grid"]), FieldParams(**cfg["fields"]),
            PotentialSpec(**p) if p else None,
            BumpFunction(**fn) if fn else None,
            cfg["experiment"])


def write_csv(path, rows):
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _emit(outdir, stem, rows, envelope):
    """Write <stem>.csv and the <stem>.json envelope under outdir, each under
    a temporary name first, so a failed write leaves no half-written file."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = [outdir / f"{stem}.csv", outdir / f"{stem}.json"]
    tmps = [p.with_name(f".{p.name}.tmp") for p in paths]
    try:
        write_csv(tmps[0], rows)
        text = json.dumps(envelope, indent=2, allow_nan=False)
        tmps[1].write_text(text + "\n", encoding="utf-8")
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)


def run(experiment, cfg, outdir):
    """Execute one experiment, write envelope + CSV, return (exit_code, envelope).

    A non-finite value is written as null, with results.reason "non_finite"
    unless the runner set one, and fails its gate if it is a gate value.
    """
    t0 = time.perf_counter()
    rows, results, gates = EXPERIMENTS[experiment].run(*_model(cfg))
    wall = time.perf_counter() - t0
    bad, report = [], {}
    results = _plain(results, bad)
    for name, (val, thr, ok) in gates.items():
        seen = len(bad)
        val = _plain(val, bad)
        ok = bool(ok) and len(bad) == seen
        report[name] = {"value": val, "threshold": _plain(thr, bad), "pass": ok}
    if bad:
        results.setdefault("reason", "non_finite")
    envelope = {
        "experiment": experiment,
        "version": __version__,
        "config": cfg,
        "results": results,
        "gates": report,
        "all_pass": all(g["pass"] for g in report.values()),
        "timings": {"wall_seconds": wall},
        "environment": _environment(),
    }
    _emit(outdir, experiment, rows, envelope)
    return (0 if envelope["all_pass"] else 2), envelope


def _git_sha(git=Path(__file__).resolve().parents[2] / ".git"):
    """The commit checked out in the git directory, read from HEAD and the
    ref it names (a loose ref or a packed-refs entry); None outside one."""
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        ref = head.removeprefix("ref: ")
        if ref == head:
            return head  # a detached HEAD holds the commit itself
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        packed = (git / "packed-refs").read_text(encoding="utf-8").split()
    except OSError:
        return None
    return packed[packed.index(ref) - 1] if ref in packed else None


def _environment():
    """Library versions, their BLAS builds and threads, and the commit; numpy
    and scipy keep one OpenBLAS pool each, and the norms use numpy's alone."""

    def blas(mod):
        b = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": b.get("name"), "version": b.get("version"),
                "config": b.get("openblas configuration")}

    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(np), "scipy_blas": blas(scipy),
            "git_sha": _git_sha(),
            **{k: os.environ.get(k)
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def _plain(v, bad):
    """v in plain JSON types, each non-finite float None and added to bad."""
    if isinstance(v, (np.generic, np.ndarray)):
        v = v.tolist()
    if isinstance(v, dict):
        return {k: _plain(x, bad) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x, bad) for x in v]
    if isinstance(v, float) and not np.isfinite(v):
        bad.append(v)
        return None
    return v


def run_convergence(experiment, cfg, levels, outdir):
    """Re-run an experiment over grid refinements and grade the convergence.

    An exact observable (a residual) is graded on the observed order, or
    reported as "exact" when every level sits at round-off; any other
    observable (a norm) is graded on the relative change between the two
    finest grids.  A non-finite value or order fails, with reason "non_finite".
    """
    if len(levels) < 3:
        raise ConfigurationError(f"need at least 3 levels, got {levels}")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigurationError(
            f"levels must increase strictly, coarsest first, got {levels}")
    exp = EXPERIMENTS.get(experiment)
    if exp is None or exp.observable is None:
        graded = sorted(n for n, x in EXPERIMENTS.items() if x.observable)
        raise ConfigurationError(
            f"experiment {experiment!r} has no convergence observable; "
            f"choose from {graded}")
    name = exp.observable
    ratio = cfg["grid"]["ny"] / cfg["grid"]["nx"]
    values, hs = [], []
    t0 = time.perf_counter()
    for nx in levels:
        c = copy.deepcopy(cfg)
        c["grid"]["nx"] = int(nx)
        c["grid"]["ny"] = max(8, int(round(nx * ratio)))
        grid, *rest = _model(c)
        _, res, _ = exp.run(grid, *rest)
        values.append(abs(res[name]))
        hs.append(grid.hx)
    rows = [("nx", "h", name)] + [(int(n), h, v)
                                  for n, h, v in zip(levels, hs, values)]
    if exp.exact:
        if all(v <= EXACT_TOL for v in values):
            verdict, orders, ok = "exact", [], True
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                orders = (np.log(np.divide(values[:-1], values[1:]))
                          / np.log(np.divide(hs[:-1], hs[1:]))).tolist()
            verdict = f"order>={ORDER_MIN}"
            ok = all(np.isfinite(orders)) and min(orders, default=0.0) >= ORDER_MIN
    else:
        change = abs(values[-1] - values[-2]) / max(abs(values[-2]), 1e-300)
        orders = [change]
        verdict = f"stability<={STABILITY_TOL}"
        ok = change <= STABILITY_TOL
    bad = []
    envelope = {
        "experiment": experiment, "mode": "convergence", "version": __version__,
        "config": cfg, "levels": [int(n) for n in levels],
        "observable": name, "values": _plain(values, bad),
        "orders": _plain(orders, bad), "verdict": verdict,
        "all_pass": bool(ok) and not bad,
        "timings": {"wall_seconds": time.perf_counter() - t0},
        "environment": _environment(),
    }
    if bad:
        envelope["reason"] = "non_finite"
    _emit(outdir, f"{experiment}-convergence", rows, envelope)
    return (0 if envelope["all_pass"] else 2), envelope


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="magstark",
        description="Desk-scale spectral experiments for the 2D magnetic "
                    "Stark operator.")
    parser.add_argument("experiment",
                        help=f"one of {', '.join(EXPERIMENTS)} or 'convergence'")
    parser.add_argument("--config", help="INI config file", default=None)
    parser.add_argument("--set", action="append", default=[], dest="overrides",
                        metavar="SECTION.KEY=VALUE",
                        help="override a single config entry")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--of", default=None,
                        help="(convergence) experiment to refine")
    parser.add_argument("--levels", default="21,31,41",
                        help="(convergence) comma-separated nx levels")
    args = parser.parse_args(argv)
    try:
        if args.experiment == "convergence":
            target = args.of
            if target is None:
                raise ConfigurationError(
                    "convergence requires --of <experiment>")
            cfg = load_config(target, args.config, args.overrides)
            levels = _list("--levels", args.levels, int)
            code, env = run_convergence(target, cfg, levels, args.out)
        else:
            cfg = load_config(args.experiment, args.config, args.overrides)
            code, env = run(args.experiment, cfg, args.out)
    except MagstarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    status = "PASS" if env["all_pass"] else "FAIL"
    print(f"{args.experiment}: {status}")
    return code


if __name__ == "__main__":
    sys.exit(main())
