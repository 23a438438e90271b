import json

import numpy as np
import pytest

from magstark.cli import default_config, load_config, main, run, run_convergence
from magstark.errors import ConfigurationError


def test_default_configs_cover_all_experiments():
    from magstark.cli import EXPERIMENTS
    for name in EXPERIMENTS:
        cfg = default_config(name)
        assert {"grid", "fields", "potential", "function", "experiment"} <= set(cfg)


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


def test_widest_slot_midpoint_and_width():
    from magstark.cli import _widest_slot
    lam = np.array([0.5, 1.0, 1.1, 1.5, 2.0])
    mid, width = _widest_slot(lam, 0.9, 1.6)
    assert mid == pytest.approx(1.3) and width == pytest.approx(0.4)
    assert _widest_slot(lam, 1.2, 1.4) == (pytest.approx(1.3), pytest.approx(0.2))
