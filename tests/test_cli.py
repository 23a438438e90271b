import ast
import inspect
import json
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from magstark.cli import (EXPERIMENTS, _git_sha, default_config, load_config,
                          main, run, run_convergence, write_csv)
from magstark.errors import ConfigurationError


def test_default_configs_cover_all_experiments():
    # only the experiments that build a test function take [function]
    readers = {"verify-theorem1", "scaling", "lemma7", "truncation"}
    for name in EXPERIMENTS:
        cfg = default_config(name)
        assert {"grid", "fields", "experiment"} <= set(cfg)
        assert ("function" in cfg) == (name in readers)


def test_write_csv_writes_numpy_floats_as_plain_numbers(tmp_path):
    # np.float64 subclasses float, and its repr is "np.float64(0.5)" under
    # numpy 2; the other numpy floats are written by str
    p = tmp_path / "t.csv"
    write_csv(p, [("a", 3, 1.5, np.float64(0.5), np.float64(np.nan),
                   np.float32(0.25), np.int64(7))])
    assert p.read_text(encoding="utf-8") == "a,3,1.5,0.5,nan,0.25,7\n"


def test_unknown_experiment():
    with pytest.raises(ConfigurationError, match="unknown experiment"):
        default_config("resonances")


def test_load_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[grid]\nnx = 31\nmagic = 7\n")
    with pytest.raises(ConfigurationError, match="magic"):
        load_config("verify-theorem1", str(p))


def test_load_config_rejects_unknown_section(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[plotting]\ncolor = red\n")
    with pytest.raises(ConfigurationError, match="plotting"):
        load_config("verify-theorem1", str(p))


def test_set_overrides():
    cfg = load_config("verify-theorem1", None,
                      ["grid.nx=21", "potential.family=zero"])
    assert cfg["grid"]["nx"] == 21
    assert cfg["potential"]["family"] == "zero"
    with pytest.raises(ConfigurationError, match="unknown config entry"):
        load_config("verify-theorem1", None, ["grid.qq=1"])
    with pytest.raises(ConfigurationError, match="section.key"):
        load_config("verify-theorem1", None, ["nx=21"])


def test_cli_malformed_grid_exits_1(tmp_path, capsys):
    code = main(["verify-theorem1", "--set", "grid.nx=4",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "nx" in capsys.readouterr().err


def test_cli_gate_failure_exits_2(tmp_path, capsys):
    # a coarse grid cannot meet the relative-residual gate
    code = main(["verify-theorem1", "--set", "grid.nx=21", "--set",
                 "grid.ny=21", "--set", "experiment.rel_tol=0.001",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_trace_identity_runner_zero_potential_passes(tmp_path):
    cfg = load_config("verify-theorem1", None,
                      ["grid.nx=21", "grid.ny=21", "potential.family=zero"])
    code, env = run("verify-theorem1", cfg, tmp_path)
    assert code == 0
    assert env["all_pass"]
    data = json.loads((tmp_path / "verify-theorem1.json").read_text())
    assert data["gates"]["zero_residual"]["pass"]
    assert (tmp_path / "verify-theorem1.csv").exists()


def test_expansion_check_passes(tmp_path):
    cfg = load_config("expansion-check", None, ["grid.nx=21", "grid.ny=21"])
    code, env = run("expansion-check", cfg, tmp_path)
    assert code == 0
    assert env["results"]["worst_residual"] <= 1e-8


def test_csv_byte_identical_across_runs(tmp_path):
    cfg = load_config("expansion-check", None, ["grid.nx=21", "grid.ny=21"])
    run("expansion-check", cfg, tmp_path / "a")
    run("expansion-check", cfg, tmp_path / "b")
    a = (tmp_path / "a" / "expansion-check.csv").read_bytes()
    b = (tmp_path / "b" / "expansion-check.csv").read_bytes()
    assert a == b


def test_envelope_echo_reruns_identically(tmp_path):
    cfg = load_config("expansion-check", None, ["grid.nx=21", "grid.ny=21"])
    _, env = run("expansion-check", cfg, tmp_path / "a")
    # the config echo is sufficient to reproduce the payload bit-for-bit
    echoed = json.loads((tmp_path / "a" / "expansion-check.json").read_text())
    run("expansion-check", echoed["config"], tmp_path / "b")
    a = (tmp_path / "a" / "expansion-check.csv").read_bytes()
    b = (tmp_path / "b" / "expansion-check.csv").read_bytes()
    assert a == b


def test_convergence_requires_three_levels(tmp_path):
    cfg = load_config("expansion-check", None, ["grid.nx=21", "grid.ny=21"])
    with pytest.raises(ConfigurationError, match="3 levels"):
        run_convergence("expansion-check", cfg, [21, 31], tmp_path)


def test_convergence_exact_identity(tmp_path):
    cfg = load_config("expansion-check", None, ["grid.nx=21", "grid.ny=21"])
    code, env = run_convergence("expansion-check", cfg, [15, 21, 27], tmp_path)
    assert code == 0
    assert env["verdict"] == "exact"


def test_convergence_cli_two_levels_exit_1(tmp_path, capsys):
    code = main(["convergence", "--of", "expansion-check",
                 "--levels", "15,21", "--out", str(tmp_path)])
    assert code == 1
    assert "levels" in capsys.readouterr().err


def test_cli_main_smoke(tmp_path, capsys):
    code = main(["expansion-check", "--set", "grid.nx=21", "--set",
                 "grid.ny=21", "--out", str(tmp_path)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_truncation_runner(tmp_path):
    cfg = load_config("truncation", None, ["grid.nx=33", "grid.ny=33"])
    code, env = run("truncation", cfg, tmp_path)
    assert code == 0
    rows = (tmp_path / "truncation.csv").read_text().strip().splitlines()
    assert rows[0] == "radius,trace_diff,weighted_diff"
    assert len(rows) == 4


def test_spectrum_runner_small(tmp_path):
    cfg = load_config("spectrum", None,
                      ["grid.nx=41", "grid.ny=41",
                       "experiment.cluster_targets=1.0",
                       "experiment.cluster_tols=0.05"])
    code, env = run("spectrum", cfg, tmp_path)
    assert code == 0
    assert env["results"]["n_localized"] >= 2


@pytest.mark.parametrize("argv,entry", [
    (["scaling", "--set", "experiment.eps_list=0.4,abc"], "eps_list"),
    (["expansion-check", "--set", "experiment.orders=1,x"], "orders"),
    (["convergence", "--of", "prop4", "--levels", "9,x,11"], "--levels"),
    # sweeps too short for their gate to fail: a log-log fit through one or
    # two points has r2 = 1, and one product or radius has nothing to compare
    (["scaling", "--set", "experiment.eps_list=0.2"], "eps_list"),
    (["lemma7", "--set", "experiment.eps_list=0.1"], "eps_list"),
    (["prop2", "--set", "experiment.delta_list=0.5"], "delta_list"),
    (["truncation", "--set", "experiment.radii=3.0"], "radii"),
    # lap-probe's delta list and s, refused before Q is solved at the
    # shipped 41 x 41 grid
    (["lap-probe", "--set", "experiment.delta_max_exp=5",
      "--set", "experiment.delta_min_exp=5"], "delta_list"),
    (["lap-probe", "--set", "experiment.s=0.4"], "s must lie"),
    # a wall collar outside (0, min(lx, ly)); 0 means the plain traces
    (["verify-theorem1", "--set", "experiment.wall_collar=-1.0"],
     "collar must lie"),
    (["verify-theorem1", "--set", "experiment.wall_collar=6.0"],
     "collar must lie")])
def test_malformed_list_entry_exits_1(argv, entry, tmp_path, capsys,
                                      monkeypatch):
    # each is refused before any operator is counted or written
    from magstark.grid import DiscreteOperator
    for name in ("coo", "inertia_counts"):
        monkeypatch.setattr(DiscreteOperator, name, lambda *a, **k:
                            pytest.fail("an operator was solved"))
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and entry in err
    assert not tmp_path.exists() or list(tmp_path.iterdir()) == []


def test_spectrum_rejects_a_target_without_a_tolerance(tmp_path, capsys):
    # a zip over 3 targets and 2 tols would silently drop cluster_5.0
    code = main(["spectrum", "--set", "experiment.cluster_targets=1.0,3.0,5.0",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "cluster_tols" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.json").exists()


def test_spectrum_rejects_a_repeated_target(tmp_path, capsys):
    # gates are keyed by target, so a repeat would silently drop one
    code = main(["spectrum", "--set", "grid.nx=21", "--set", "grid.ny=21",
                 "--set", "experiment.cluster_targets=1.0,1.0",
                 "--set", "experiment.cluster_tols=0.05,0.5",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "repeats" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.json").exists()


@pytest.mark.parametrize("levels", ["27,21,15", "15,15,21"])
def test_convergence_levels_must_increase(levels, tmp_path, capsys):
    # the two finest grids are the last two levels, and a repeated level
    # would divide the order fit by log 1 = 0
    for of in ("appendix-norms", "expansion-check"):
        code = main(["convergence", "--of", of, "--levels", levels,
                     "--out", str(tmp_path)])
        assert code == 1
        assert "increase strictly" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("max_exp,min_exp", [(5, 5), (6, 5)])
def test_lap_probe_needs_two_deltas(max_exp, min_exp, tmp_path, capsys):
    code = main(["lap-probe", "--set", "grid.nx=13", "--set", "grid.ny=13",
                 "--set", f"experiment.delta_max_exp={max_exp}",
                 "--set", f"experiment.delta_min_exp={min_exp}",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "at least two" in capsys.readouterr().err


def test_scaling_records_the_stark_order_certificate(tmp_path):
    cfg = load_config("scaling", None, ["grid.nx=31", "grid.ny=9"])
    _, env = run("scaling", cfg, tmp_path)
    assert env["results"]["decay_certificate"] == {
        "convention": "stark_order", "n": 3, "passed": True, "failed": []}
    assert set(env["gates"]) == {"slope_window", "r2"}


def test_widest_slot_midpoint_and_width():
    from magstark.cli import _widest_slot
    lam = np.array([0.5, 1.0, 1.1, 1.5, 2.0])
    mid, width = _widest_slot(lam, 0.9, 1.6)
    assert mid == pytest.approx(1.3) and width == pytest.approx(0.4)
    assert _widest_slot(lam, 1.2, 1.4) == (pytest.approx(1.3), pytest.approx(0.2))


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_set_default_round_trips_with_default_types(name):
    # every override is parsed as the type of its default
    cfg = default_config(name)
    sets = [f"{s}.{k}={v}" for s, entries in cfg.items() for k, v in entries.items()]
    got = load_config(name, None, sets)
    assert got == cfg
    assert all(type(got[s][k]) is type(v)
               for s, entries in cfg.items() for k, v in entries.items())


@pytest.mark.parametrize("name,dotted", [
    ("spectrum", "experiment.operator"), ("lemma7", "experiment.auto_slot"),
    ("mourre", "experiment.clamp_to_half_eps"),
    ("lap-probe", "experiment.clamp_to_half_eps"),
    ("lap-probe", "experiment.lambda"), ("prop2", "experiment.re_z"),
    ("prop2", "function.center"), ("spectrum", "fields.eps"),
    ("scaling", "fields.eps"), ("lemma7", "fields.eps"),
    ("prop4", "fields.eps"), ("appendix-norms", "potential.family"),
    # appendix-norms reads only delta; scaling's one collar value, 0, meant
    # no cutoff
    ("appendix-norms", "experiment.s"), ("scaling", "experiment.wall_collar")])
def test_removed_entries_are_unknown(name, dotted):
    with pytest.raises(ConfigurationError, match="unknown config entry"):
        load_config(name, None, [f"{dotted}=1"])


def test_every_model_section_is_validated(tmp_path, capsys):
    # spectrum runs Q (eps = 0), so any fields.eps is an unknown entry
    code = main(["spectrum", "--set", "fields.eps=-1", "--out", str(tmp_path)])
    assert code == 1
    assert "eps" in capsys.readouterr().err


def test_convergence_stability_verdict(tmp_path):
    cfg = load_config("appendix-norms")
    code, env = run_convergence("appendix-norms", cfg, [15, 21, 27], tmp_path)
    assert env["observable"] == "hs1"
    assert env["verdict"] == "stability<=0.05"
    assert code == 0 and env["orders"][0] <= 0.05


def test_convergence_rejects_experiment_without_observable(tmp_path):
    cfg = load_config("scaling")
    with pytest.raises(ConfigurationError, match="no convergence observable"):
        run_convergence("scaling", cfg, [21, 31, 41], tmp_path)


# smallest grids at which each experiment runs and its CSV moves with a
# 10% change of a kept entry
_SMALLEST = {"verify-theorem1": (17, 17), "scaling": (31, 9), "mourre": (9, 9),
             "lap-probe": (13, 13), "lemma7": (21, 11), "prop2": (9, 9),
             "appendix-norms": (9, 9), "truncation": (9, 9),
             "expansion-check": (9, 9)}


@pytest.mark.parametrize("name,dotted", [
    ("verify-theorem1", "fields.eps"), ("verify-theorem1", "function.center"),
    ("scaling", "function.center"), ("mourre", "fields.eps"),
    ("lap-probe", "fields.eps"), ("lemma7", "function.center"),
    ("prop2", "fields.eps"), ("appendix-norms", "fields.eps"),
    ("truncation", "fields.eps"), ("truncation", "function.center"),
    ("expansion-check", "fields.eps")])
def test_kept_entries_change_the_csv(name, dotted, tmp_path):
    nx, ny = _SMALLEST[name]
    sets = [f"grid.nx={nx}", f"grid.ny={ny}"]
    section, key = dotted.split(".")
    moved = f"{dotted}={default_config(name)[section][key] * 1.1}"
    csvs = []
    for sub, extra in (("a", []), ("b", [moved])):
        run(name, load_config(name, None, sets + extra), tmp_path / sub)
        csvs.append((tmp_path / sub / f"{name}.csv").read_bytes())
    assert csvs[0] != csvs[1]


def _evd_bytes(n):
    """The bytes of dsyevd's workspace for order n with eigenvectors:
    1 + 6n + 2n^2 doubles and 3 + 5n 4-byte integers (LAPACK Users'
    Guide, 3rd ed.)."""
    return 8 * (1 + 6 * n + 2 * n ** 2) + 4 * (3 + 5 * n)


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("name,nx,ny", [("prop4", 9, 9), ("lemma7", 31, 17)])
def test_envelopes_are_strict_json(name, nx, ny, tmp_path):
    # prop4's finite gate has no threshold; lemma7 at 31 x 17 has a zero
    # norm at eps = 0.2, so its log-log slope is undefined
    run(name, load_config(name, None, [f"grid.nx={nx}", f"grid.ny={ny}"]),
        tmp_path)
    env = json.loads((tmp_path / f"{name}.json").read_text(),
                     parse_constant=_reject_constant)
    if name == "lemma7":
        solves = env["results"]["eigensolve"].pop("h")
        assert env["results"] == {
            "slope": None, "r2": None,
            "decay_certificate": {"convention": "stark_order", "n": 3,
                                  "passed": True, "failed": []},
            "eigensolve": {"q": {"path": "real_parity", "blocks": [264, 263],
                                 "n": 527, "pairs": 527, "factor_bytes": 0,
                                 "dense_bytes": 8 * 264 ** 2,
                                 "workspace_bytes": _evd_bytes(264)}}}
        # one windowed solve of H per eps, sparse at N = 527; the window
        # at eps = 0.2 is empty
        assert len(solves) == 5 and solves[0]["pairs"] == 0
        for rec in solves:
            assert rec["solver"] == "sparse" and rec["path"] == "real"
            assert rec["counts"][1] - rec["counts"][0] == rec["pairs"]


def test_lap_probe_solves_h_only_on_its_certified_window(tmp_path):
    from magstark.grid import make_grid
    from magstark.hamiltonian import FieldParams, assemble
    from magstark.potentials import (PotentialSpec, clamp_amplitude,
                                     eval_potential)
    from magstark.spectral import (LOCALIZATION_THRESHOLD, interior_mask,
                                   weighted_spectrum)
    from magstark.ssf import sigma_q_gap_window
    cfg = load_config("lap-probe", None, ["grid.nx=13", "grid.ny=13"])
    code, env = run("lap-probe", cfg, tmp_path)
    res = env["results"]
    assert code == 0 and res["solver"] == "splu_lanczos" and res["n"] == 169
    assert 0.0 < res["residual_bound"] <= 1e-8
    # the default amplitude 0.3 is clamped to sup|dxV| <= eps/2
    assert res["amplitude"] == 0.3 and 0.0 < res["amplitude_used"] < 0.3
    # Q (eps = 0) takes the streamed parity split, which keeps no factor;
    # H is solved only on the first admissible gap of localized sigma(Q),
    # with its certificate
    h, q = res["eigensolve"]["h"], res["eigensolve"]["q"]
    assert q == {"path": "real_parity", "blocks": [85, 84], "n": 169,
                 "pairs": 169, "factor_bytes": 0,
                 "dense_bytes": 8 * 85 ** 2, "workspace_bytes": _evd_bytes(85)}
    g = make_grid(**cfg["grid"])
    spec = PotentialSpec("gaussian", amplitude=0.3, width=1.5)
    v = eval_potential(clamp_amplitude(spec, 0.05), g).v
    lam, scores, _ = weighted_spectrum(assemble(g, FieldParams(1.0), v),
                                       interior_mask(g, 0.05))
    window = sigma_q_gap_window(lam[scores > LOCALIZATION_THRESHOLD],
                                margin=0.3)
    c_lo, c_hi = h["counts"]
    assert h["window"] == list(window) and h["solver"] == "dense"
    assert h["path"] == "real" and h["pairs"] == c_hi - c_lo > 0
    assert window[0] < res["lambda"] < window[1]


def test_lap_probe_runs_no_eigvalsh_svd_or_full_eigh_of_h(tmp_path,
                                                          monkeypatch):
    # the only eigvalsh calls are the inertia count's 13 x 13 line blocks,
    # and the only eigh of an N x N array is H's index-subset window; no
    # SVD runs from either library
    import scipy.linalg
    seen = []
    for mod, name in ((np.linalg, "eigvalsh"), (scipy.linalg, "svdvals"),
                      (np.linalg, "svd"), (scipy.linalg, "eigh")):
        def spy(a, *args, _orig=getattr(mod, name), _name=name, **kwargs):
            seen.append((_name, np.shape(a), kwargs))
            return _orig(a, *args, **kwargs)
        monkeypatch.setattr(mod, name, spy)
    code, _ = run("lap-probe",
                  load_config("lap-probe", None, ["grid.nx=13", "grid.ny=13"]),
                  tmp_path)
    assert code == 0
    assert {name for name, _, _ in seen} == {"eigvalsh", "eigh"}
    assert all(shape[-1] == 13 for name, shape, _ in seen if name == "eigvalsh")
    full = [kw for name, shape, kw in seen if shape == (169, 169)]
    assert len(full) == 1 and "subset_by_index" in full[0]


def test_trace_norms_run_on_numpy_alone(tmp_path, monkeypatch):
    # every trace norm is numpy's gesdd: with scipy's SVD raising, each
    # experiment exits as before, with the same CSV, one SVD per norm
    import scipy.linalg
    expected = {}
    for name in ("prop2", "prop4", "appendix-norms"):
        expected[name] = main([name, "--set", "grid.nx=9", "--set",
                               "grid.ny=9", "--out", str(tmp_path / "ref")])
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: calls.append(1) or svd(*a, **k))
    monkeypatch.setattr(scipy.linalg, "svdvals",
                        lambda *a, **k: pytest.fail("scipy's SVD ran"))
    for name, svds in (("prop2", 3), ("prop4", 1), ("appendix-norms", 1)):
        calls.clear()
        assert main([name, "--set", "grid.nx=9", "--set", "grid.ny=9",
                     "--out", str(tmp_path)]) == expected[name] == 0
        assert len(calls) == svds
        assert ((tmp_path / f"{name}.csv").read_text()
                == (tmp_path / "ref" / f"{name}.csv").read_text())


def test_lap_probe_exits_1_when_lanczos_does_not_converge(tmp_path,
                                                         monkeypatch, capsys):
    # one restart of a 3-vector Arnoldi basis leaves the norm unconverged
    import scipy.sparse.linalg
    eigsh = scipy.sparse.linalg.eigsh
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", lambda *a, **k: eigsh(
        *a, **{**k, "maxiter": 1, "ncv": 3}))
    code = main(["lap-probe", "--set", "grid.nx=13", "--set", "grid.ny=13",
                 "--out", str(tmp_path)])
    assert code == 1 and "did not converge" in capsys.readouterr().err
    assert not (tmp_path / "lap-probe.csv").exists()


def test_mourre_records_its_clamped_amplitude(tmp_path):
    # sup|dxV| of a gaussian of amplitude 2 and width 1.5 is 1.14 > eps/2
    cfg = load_config("mourre", None, ["grid.nx=15", "grid.ny=15",
                                       "potential.amplitude=2.0"])
    _, env = run("mourre", cfg, tmp_path)
    res = env["results"]
    assert res["amplitude"] == 2.0
    assert res["amplitude_used"] == pytest.approx(
        2.0 * 0.25 / (2.0 * np.sqrt(2.0) * np.exp(-0.5) / 1.5))
    default = load_config("mourre", None, ["grid.nx=15", "grid.ny=15"])
    _, env = run("mourre", default, tmp_path)
    assert env["results"]["amplitude"] == env["results"]["amplitude_used"] == 0.3


def test_spectrum_splits_q_into_two_parity_blocks(tmp_path, monkeypatch):
    import scipy.linalg
    orders = []
    eigh = scipy.linalg.eigh
    monkeypatch.setattr(scipy.linalg, "eigh", lambda a, *args, **kw:
                        orders.append(a.shape[0]) or eigh(a, *args, **kw))
    cfg = load_config("spectrum", None, ["grid.nx=41", "grid.ny=41"])
    _, env = run("spectrum", cfg, tmp_path)
    assert orders == [841, 840]
    # each block's vectors are reduced to their scores and dropped, so no
    # factor is held; the larger block and its workspace are the bytes
    assert env["results"]["eigensolve"] == {
        "q": {"path": "real_parity", "blocks": [841, 840], "n": 1681,
              "pairs": 1681, "factor_bytes": 0, "dense_bytes": 8 * 841 ** 2,
              "workspace_bytes": _evd_bytes(841)}}


# Negative controls: each --set override at a small grid fails exactly its
# gate, beside a config that passes every gate of the same run
GATE_CONTROLS = [
    ("spectrum", 21, 21, "cluster_3.0", ["experiment.cluster_min=2"],
     ["experiment.cluster_min=3"]),
    ("lemma7", 41, 21, "slope_window",
     ["experiment.slope_lo=0.5", "experiment.slope_hi=1.5"],
     ["experiment.slope_lo=1.0", "experiment.slope_hi=1.5"]),
    ("lap-probe", 13, 13, "plateau", [], ["experiment.plateau_max=1.0"]),
    # scaling at 61 x 13 reads slope 0.540, r2 0.618
    ("scaling", 61, 13, "r2", ["experiment.r2_min=0.5"],
     ["experiment.r2_min=0.7"]),
    ("scaling", 61, 13, "slope_window", ["experiment.r2_min=0.5"],
     ["experiment.r2_min=0.5", "experiment.slope_lo=0.6"]),
    # prop2 at 13 x 13 reads spread 1.490
    ("prop2", 13, 13, "spread", [], ["experiment.spread_max=1.4"]),
    # verify-theorem1 at 21 x 21 reads relative residual 0.2415
    ("verify-theorem1", 21, 21, "relative_residual", [],
     ["experiment.rel_tol=0.2"]),
    # mourre at 15 x 15 reads bound 0.4522; rel_slack -0.5 lifts the
    # threshold from 0.24 to 0.5
    ("mourre", 15, 15, "bound_above_half_eps", [],
     ["experiment.rel_slack=-0.5"]),
    # and bound 0.49999999999999845 = eps to round-off with V = 0
    ("mourre", 15, 15, "bound_equals_eps", ["potential.family=zero"],
     ["potential.family=zero", "experiment.rel_slack=-0.01"]),
    # expansion-check at 9 x 9 reads residual 5.07e-15
    ("expansion-check", 9, 9, "residual", [],
     ["experiment.residual_max=1e-16"]),
]
# gates that a control fails beside its own: scaling's slope_window also
# requires r2 >= r2_min
COUPLED = {("scaling", "r2"): {"slope_window"}}


def _control_envelopes(name, nx, ny, passing, failing, tmp_path,
                       patch=lambda: None):
    """The strict-JSON envelopes of a passing run (exit 0) and of a failing
    one (exit 2), the latter after ``patch()``."""
    envs = []
    for sets, code in ((passing, 0), (failing, 2)):
        if code == 2:
            patch()
        argv = [name, "--out", str(tmp_path)]
        for item in [f"grid.nx={nx}", f"grid.ny={ny}", *sets]:
            argv += ["--set", item]
        assert main(argv) == code
        envs.append(json.loads((tmp_path / f"{name}.json").read_text(),
                               parse_constant=_reject_constant))
    ok, bad = envs
    assert ok["all_pass"] is True and bad["all_pass"] is False
    assert all(g["pass"] for g in ok["gates"].values())
    return ok, bad


@pytest.mark.parametrize("name,nx,ny,gate,passing,failing", GATE_CONTROLS)
def test_a_gate_control_fails_only_its_gate(name, nx, ny, gate, passing,
                                            failing, tmp_path):
    ok, bad = _control_envelopes(name, nx, ny, passing, failing, tmp_path)
    assert ({k for k, g in bad["gates"].items() if not g["pass"]}
            == {gate} | COUPLED.get((name, gate), set()))
    # the same run, judged against another threshold
    assert bad["results"] == ok["results"]
    assert bad["gates"][gate]["value"] == ok["gates"][gate]["value"]


# Negative controls on another run, for gates whose threshold no config
# moves: truncation's has none, and verify-theorem1's zero_residual is
# 1e-12 N while V = 0 makes both traces 0 exactly, so its failing run
# rewrites the library's report (``patch``: a cli name and a rewrite of
# its return)
RUN_CONTROLS = [
    # truncation at 21 x 21 reads weighted differences 0.00138 at R = 2.0
    # and 0.00216 at R = 2.1
    ("truncation", 21, 21, "monotone_decreasing", [],
     ["experiment.radii=2.0,2.1"], None),
    ("verify-theorem1", 21, 21, "zero_residual", ["potential.family=zero"],
     ["potential.family=zero"],
     ("trace_identity_check", lambda rep: replace(rep, residual=1e-6))),
]


@pytest.mark.parametrize("name,nx,ny,gate,passing,failing,patch",
                         RUN_CONTROLS)
def test_a_run_control_fails_only_its_gate(name, nx, ny, gate, passing,
                                           failing, patch, tmp_path,
                                           monkeypatch):
    import magstark.cli as cli

    def rewrite():
        if patch is not None:
            target, change = patch
            real = getattr(cli, target)
            monkeypatch.setattr(cli, target,
                                lambda *a, **k: change(real(*a, **k)))

    ok, bad = _control_envelopes(name, nx, ny, passing, failing, tmp_path,
                                 rewrite)
    assert set(bad["gates"]) == set(ok["gates"])
    assert {k for k, g in bad["gates"].items() if not g["pass"]} == {gate}


def test_mourre_empty_window_fails(tmp_path):
    cfg = load_config("mourre", None, [
        "grid.nx=15", "grid.ny=15", "experiment.window_lo=1.6",
        "experiment.window_hi=1.61"])
    with pytest.warns(UserWarning, match="no eigenvalues"):
        code, env = run("mourre", cfg, tmp_path)
    assert code == 2
    data = json.loads((tmp_path / "mourre.json").read_text(),
                      parse_constant=_reject_constant)
    assert data["results"]["reason"] == "empty_window"
    assert data["results"]["bound"] is None
    assert data["gates"]["bound_above_half_eps"] == {
        "value": None, "threshold": pytest.approx(0.24), "pass": False}


def test_prop2_records_its_eigensolve(tmp_path):
    # H (eps = 0.5) does not commute with J, so the full solve that picks
    # re_z is the unsplit real one, and it holds the factor
    _, env = run("prop2", load_config("prop2", None, ["grid.nx=9",
                                                      "grid.ny=9"]), tmp_path)
    assert env["results"]["eigensolve"] == {
        "h": {"path": "real", "blocks": [81], "n": 81, "pairs": 81,
              "factor_bytes": 8 * 81 ** 2, "dense_bytes": 8 * 81 ** 2,
              "workspace_bytes": _evd_bytes(81)}}


def test_prop2_unbounded_spread_fails(tmp_path, monkeypatch):
    import magstark.cli as cli
    from magstark.traces import ProbeReport
    monkeypatch.setattr(cli, "tracebound_sweep", lambda h, v, probe:
                        ProbeReport(probe.delta_list, (0.0, 1.0, 1.0)))
    code, env = run("prop2",
                    load_config("prop2", None, ["grid.nx=9", "grid.ny=9"]),
                    tmp_path)
    assert code == 2
    data = json.loads((tmp_path / "prop2.json").read_text(),
                      parse_constant=_reject_constant)
    assert data["results"]["spread"] is None
    assert data["results"]["reason"] == "zero_product"
    assert data["gates"]["spread"]["pass"] is False


# each runner's library return replaced by a non-finite value
NON_FINITE_CONTROLS = [
    ("prop4", "resolvent_chain_tracenorm", float("inf")),
    ("appendix-norms", "weighted_resolvent_norms",
     {"hs1": float("inf"), "tr2": float("nan")}),
]


@pytest.mark.parametrize("name,target,value", NON_FINITE_CONTROLS)
def test_a_non_finite_gate_value_fails(name, target, value, tmp_path,
                                       monkeypatch, capsys):
    import magstark.cli as cli
    monkeypatch.setattr(cli, target, lambda *a, **k: value)
    code = main([name, "--set", "grid.nx=9", "--set", "grid.ny=9",
                 "--out", str(tmp_path)])
    assert code == 2 and f"{name}: FAIL" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{name}.csv",
                                                          f"{name}.json"]
    data = json.loads((tmp_path / f"{name}.json").read_text(),
                      parse_constant=_reject_constant)
    assert data["gates"]["finite"]["pass"] is False
    assert data["results"]["reason"] == "non_finite"
    assert data["all_pass"] is False and data["experiment"] == name


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_trace_norm_fails_its_gate(bad, tmp_path, monkeypatch):
    # nuclear_norm reads nan for a non-finite matrix, so prop4's finite gate
    # fails with a reason instead of LAPACK raising
    import magstark.traces as traces
    resolvent = traces.resolvent

    def spoiled(*args):
        r = resolvent(*args)
        r[0, 0] = bad
        return r

    monkeypatch.setattr(traces, "resolvent", spoiled)
    cfg = load_config("prop4", None, ["grid.nx=9", "grid.ny=9"])
    with np.errstate(invalid="ignore"):  # inf * 0 in the chain's products
        code, env = run("prop4", cfg, tmp_path)
    assert code == 2 and env["results"]["reason"] == "non_finite"
    assert env["gates"]["finite"] == {"value": None, "threshold": None,
                                      "pass": False}


# gates that no control can flip, and why
UNFLIPPABLE = {
    ("scaling", "underflow_flagged"): "emitted only for V = 0 with a sample "
                                      "under 1e-13, and then it passes",
    ("scaling", "slope_defined"): "emitted only for a sample under 1e-13, "
                                  "which leaves no fit, and then it fails",
}
# controls outside the tables: a run that fails its gate with a reason
REASON_CONTROLS = {("mourre", "bound_above_half_eps"):
                   test_mourre_empty_window_fails,
                   ("prop2", "spread"): test_prop2_unbounded_spread_fails}


def _emitted_gates(runner):
    """A pattern for each gate name the runner can emit: the keys of every
    gate dict it returns (third element), a key held in a local resolved
    through the constants assigned to it, and an f-string key matching any
    text in each field."""
    tree = ast.parse(inspect.getsource(runner))
    consts, dicts = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple)
                         and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                for t, v in pairs:
                    if isinstance(t, ast.Name) and isinstance(v, ast.Constant):
                        consts.setdefault(t.id, []).append(v)
                    if isinstance(t, ast.Name) and isinstance(v, ast.Dict):
                        dicts.setdefault(t.id, []).extend(v.keys)
                    if isinstance(t, ast.Subscript):  # gates[key] = ...
                        dicts.setdefault(t.value.id, []).append(t.slice)
    keys = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Return):
            gates = node.value.elts[2]
            keys += (gates.keys if isinstance(gates, ast.Dict)
                     else dicts[gates.id])
    patterns = set()
    for key in keys:
        for k in consts[key.id] if isinstance(key, ast.Name) else [key]:
            parts = k.values if isinstance(k, ast.JoinedStr) else [k]
            patterns.add("".join(re.escape(p.value) if isinstance(
                p, ast.Constant) else ".+" for p in parts))
    return patterns


def test_every_emitted_gate_has_a_control():
    controlled = ({(c[0], c[3]) for c in GATE_CONTROLS + RUN_CONTROLS}
                  | {(c[0], "finite") for c in NON_FINITE_CONTROLS}
                  | set(REASON_CONTROLS))
    missing, unflippable = set(), set()
    for name, exp in EXPERIMENTS.items():
        patterns = _emitted_gates(exp.run)
        assert patterns, name
        for pattern in patterns:
            if (name, pattern) in UNFLIPPABLE:
                unflippable.add((name, pattern))
            elif not any(n == name and re.fullmatch(pattern, gate)
                         for n, gate in controlled):
                missing.add((name, pattern))
    assert missing == set()
    assert unflippable == set(UNFLIPPABLE)


def test_a_failed_write_leaves_no_file(tmp_path, monkeypatch):
    import magstark.cli as cli
    exp = cli.EXPERIMENTS["prop4"]
    monkeypatch.setitem(cli.EXPERIMENTS, "prop4", exp._replace(
        run=lambda *a: ([("x",), (1.0,)], {"bad": object()}, {})))
    with pytest.raises(TypeError):
        run("prop4", load_config("prop4"), tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name,entry", [
    ("prop4", "fields.b=1e200"), ("spectrum", "fields.b=1e200"),
    ("appendix-norms", "fields.eps=nan"), ("appendix-norms", "fields.eps=inf"),
    ("prop4", "potential.amplitude=nan"),
])
def test_a_non_finite_operator_exits_1(name, entry, tmp_path, capsys):
    # no numpy warning may come ahead of the error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([name, "--set", entry, "--set", "grid.nx=9", "--set",
                     "grid.ny=9", "--out", str(tmp_path)])
    assert code == 1 and "finite" in capsys.readouterr().err
    assert not tmp_path.exists() or list(tmp_path.iterdir()) == []


def test_convergence_fails_a_zero_level_with_a_reason(tmp_path, monkeypatch,
                                                      capsys):
    # an exact observable at 0.0 on one level and above EXACT_TOL on the
    # others has no finite order
    import magstark.cli as cli
    values = iter([1.0, 0.0, 0.5])
    exp = cli.EXPERIMENTS["appendix-norms"]
    monkeypatch.setitem(cli.EXPERIMENTS, "appendix-norms", exp._replace(
        run=lambda *a: ([], {"hs1": next(values)}, {}), exact=True))
    code = main(["convergence", "--of", "appendix-norms", "--levels",
                 "9,11,13", "--out", str(tmp_path)])
    assert code == 2 and "FAIL" in capsys.readouterr().out
    data = json.loads(
        (tmp_path / "appendix-norms-convergence.json").read_text(),
        parse_constant=_reject_constant)
    assert data["orders"] == [None, None] and data["values"] == [1.0, 0.0, 0.5]
    assert data["reason"] == "non_finite" and data["all_pass"] is False


def test_mourre_records_its_certified_window(tmp_path):
    cfg = load_config("mourre", None, ["grid.nx=15", "grid.ny=15"])
    _, env = run("mourre", cfg, tmp_path)
    h = env["results"]["eigensolve"]["h"]
    assert h["path"] == "real" and h["window"] == [1.6, 2.4]
    c_lo, c_hi = h["counts"]
    assert c_hi - c_lo == h["pairs"] > 0
    assert h["bracket"][0] <= 1.6 < 2.4 < h["bracket"][1]
    assert h["factor_bytes"] == 8 * 225 * h["pairs"]
    assert 0 <= h["reconstruction_defect"] <= 1e-12
    assert 0 <= h["orthonormality_defect"] <= 1e-12


@pytest.mark.parametrize("name,nx,ny,solver", [
    ("scaling", 61, 13, "sparse"), ("scaling", 41, 9, "dense"),
    ("truncation", 27, 27, "sparse"), ("truncation", 21, 21, "dense")])
def test_sweeps_record_each_windowed_solve(name, nx, ny, solver, tmp_path):
    # scaling solves H once per eps, truncation H and each H_R; N = 793
    # and 729 take the sparse path, 369 and 441 the dense one
    _, env = run(name, load_config(name, None, [f"grid.nx={nx}",
                                                f"grid.ny={ny}"]), tmp_path)
    solves = env["results"]["eigensolve"]
    if name == "scaling":
        assert sorted(solves) == ["h"] and len(solves["h"]) == 5
        recs = solves["h"]
    else:
        assert sorted(solves) == ["h", "h_r"] and len(solves["h_r"]) == 3
        recs = [solves["h"]] + solves["h_r"]
    f = load_config(name)["function"]
    for rec in recs:
        assert rec["solver"] == solver and rec["n"] == nx * ny
        assert rec["window"] == [f["center"] - f["halfwidth"],
                                 f["center"] + f["halfwidth"]]
        c_lo, c_hi = rec["counts"]
        assert c_hi - c_lo == rec["pairs"] > 0
        assert 0 <= rec["reconstruction_defect"] <= 1e-10
        assert 0 <= rec["orthonormality_defect"] <= 1e-10


def test_envelopes_record_the_environment(tmp_path, monkeypatch):
    import scipy
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    cfg = load_config("prop4", None, ["grid.nx=9", "grid.ny=9"])
    _, env = run("prop4", cfg, tmp_path)
    _, conv = run_convergence("prop4", cfg, [9, 10, 11], tmp_path)
    for rec in (env["environment"], conv["environment"]):
        assert rec["numpy"] == np.__version__
        assert rec["scipy"] == scipy.__version__
        for lib in ("numpy_blas", "scipy_blas"):
            assert sorted(rec[lib]) == ["config", "name", "version"]
        assert rec["OPENBLAS_NUM_THREADS"] == "3"
        assert rec["OMP_NUM_THREADS"] is None
        assert rec["git_sha"] == _git_sha()
    assert "numpy" not in (tmp_path / "prop4.csv").read_text()


SHA = "0123456789abcdef0123456789abcdef01234567"


@pytest.mark.parametrize("layout", ["loose", "packed", "detached", "unborn",
                                    "none"])
def test_git_sha_is_read_from_the_git_directory(layout, tmp_path):
    # a loose ref, a packed-refs entry (beside the header, a peeled line and
    # another branch), a detached HEAD, a branch with no commit yet, and no
    # checkout at all
    git = tmp_path / ".git"
    if layout != "none":
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "HEAD").write_text(SHA + "\n" if layout == "detached"
                                  else "ref: refs/heads/main\n")
    if layout == "loose":
        (git / "refs" / "heads" / "main").write_text(SHA + "\n")
    elif layout == "packed":
        (git / "packed-refs").write_text(
            "# pack-refs with: peeled fully-peeled sorted \n"
            f"{'f' * 40} refs/heads/dev\n{SHA} refs/heads/main\n"
            f"^{'e' * 40}\n")
    assert _git_sha(git) == (None if layout in ("unborn", "none") else SHA)


def test_verify_theorem1_records_both_windowed_solves(tmp_path):
    cfg = load_config("verify-theorem1", None, ["grid.nx=21", "grid.ny=21"])
    _, env = run("verify-theorem1", cfg, tmp_path)
    solves = env["results"]["eigensolve"]
    assert sorted(solves) == ["h", "h0"]
    for rec in solves.values():
        assert rec["path"] == "real" and rec["window"] == [1.2, 2.8]
        c_lo, c_hi = rec["counts"]
        assert c_hi - c_lo == rec["pairs"] > 0
        assert 0 <= rec["reconstruction_defect"] <= 1e-10
        assert 0 <= rec["orthonormality_defect"] <= 1e-10
    rows = (tmp_path / "verify-theorem1.csv").read_text().splitlines()
    assert rows[0] == "lhs,rhs,residual,relative_residual"
