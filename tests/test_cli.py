import json
import os

import numpy as np
import pytest

from tcmerton.cli import (ConfigError, RunConfig, main, read_field_csv,
                          write_field_csv, write_paths_csv)
from tcmerton.fixed_point import SolverSettings
from tcmerton.grids import Grid
from tcmerton.model import (CRRAUtility, ExponentialDiscount,
                            HyperbolicDiscount, MixedPowerUtility)
from tcmerton.montecarlo import PathEnsemble
from tcmerton.verify import CheckResult, VerificationReport

SMALL_CFG = """
[market]
r = 0.03
mu = 0.09
sigma = 0.2
T = 1.0

[discount]
kind = exponential
rho0 = 0.1

[utility]
kind = crra
gamma = 0.5

[grid]
y_min = -4.0
y_max = 4.0
n_t = 101
n_y = 101

[solver]
tol = 1e-8

[mc]
n_paths = 2000
n_steps = 100
seed = 7
record_stride = 10
"""


@pytest.fixture()
def cfg_file(tmp_path):
    p = tmp_path / "model.cfg"
    p.write_text(SMALL_CFG)
    return str(p)


def test_runconfig_parsing(cfg_file):
    cfg = RunConfig.from_file(cfg_file)
    assert cfg.market.T == 1.0
    assert isinstance(cfg.discount, ExponentialDiscount)
    assert isinstance(cfg.utility, CRRAUtility)
    assert cfg.grid.n_t == 101
    assert cfg.n_paths == 2000
    assert cfg.seed == 7
    assert cfg.solver == SolverSettings()
    assert cfg.antithetic is True and cfg.n_steps == 100


def test_runconfig_solver_keys_left_out_take_the_defaults(tmp_path):
    p = tmp_path / "m.cfg"
    p.write_text(SMALL_CFG.replace("[solver]\ntol = 1e-8",
                                   "[solver]\nmax_iter = 7\n"
                                   "boundary = linearity"))
    cfg = RunConfig.from_file(str(p))
    assert cfg.solver == SolverSettings(max_iter=7, boundary="linearity")


def test_runconfig_hyperbolic_mixed(tmp_path):
    p = tmp_path / "m.cfg"
    p.write_text(SMALL_CFG
                 .replace("kind = exponential\nrho0 = 0.1",
                          "kind = hyperbolic\nalpha = 1.0\nbeta = 2.0")
                 .replace("kind = crra\ngamma = 0.5",
                          "kind = mixed_power\nalpha = 0.5\n"
                          "gamma1 = 0.3\ngamma2 = -1.0"))
    cfg = RunConfig.from_file(str(p))
    assert isinstance(cfg.discount, HyperbolicDiscount)
    assert isinstance(cfg.utility, MixedPowerUtility)


def test_runconfig_rejects_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text(SMALL_CFG.replace("[solver]\ntol = 1e-8",
                                   "[solver]\ntol = 1e-8\nbogus = 1"))
    with pytest.raises(ConfigError):
        RunConfig.from_file(str(p))


def test_runconfig_rejects_duplicate_section(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text(SMALL_CFG + "\n[solver]\ntol = 1e-6\n")
    with pytest.raises(ConfigError):
        RunConfig.from_file(str(p))


def test_runconfig_rejects_unknown_section(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text(SMALL_CFG + "\n[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        RunConfig.from_file(str(p))


def test_runconfig_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig.from_file(str(tmp_path / "nope.cfg"))


def test_field_csv_roundtrip_full_precision(tmp_path):
    g = Grid.regular(1.0, -1.0, 1.0, 5, 7)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((5, 7)) * np.pi
    path = str(tmp_path / "f.csv")
    write_field_csv(path, g, vals, "f")
    t, y, back = read_field_csv(path)
    assert np.array_equal(t, g.t_nodes)
    assert np.array_equal(back, vals)  # %.17g preserves doubles exactly


def test_csv_writers_match_per_element_formatting(tmp_path):
    # reference: one formatted line per element, looping over the table
    rng = np.random.default_rng(1)
    g = Grid.regular(1.0, -1.0, 1.0, 5, 7)
    vals = rng.standard_normal((5, 7)) * 1e-300
    path = tmp_path / "f.csv"
    write_field_csv(str(path), g, vals, "f")
    ref = "t,y,f\n" + "".join(
        "%.17g,%.17g,%.17g\n" % (t, y, vals[i, j])
        for i, t in enumerate(g.t_nodes) for j, y in enumerate(g.y_nodes))
    assert path.read_text() == ref

    ens = PathEnsemble(times=np.linspace(0.0, 1.0, 4),
                       Y=rng.standard_normal((12, 4)),
                       X=np.exp(rng.standard_normal((12, 4))))
    path = tmp_path / "paths.csv"
    write_paths_csv(str(path), ens)
    ref = "path,time,Y,X\n" + "".join(
        "%d,%.17g,%.17g,%.17g\n" % (p, s, ens.Y[p, j], ens.X[p, j])
        for p in range(12) for j, s in enumerate(ens.times))
    assert path.read_text() == ref


def test_cli_solve(cfg_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = main(["solve", "--config", cfg_file, "--out", out])
    assert rc == 0
    for fname in ("rho_bar.csv", "pbar.csv", "strategy.csv", "value.csv",
                  "meta.json"):
        assert os.path.exists(os.path.join(out, fname))
    meta = json.load(open(os.path.join(out, "meta.json")))
    assert meta["iterations"] == 1
    assert meta["residual_sup"] < 1e-10
    t, y, rho = read_field_csv(os.path.join(out, "rho_bar.csv"))
    assert np.max(np.abs(rho - 0.1)) < 1e-10
    header = open(os.path.join(out, "strategy.csv")).readline().strip()
    assert header == "t,y,pbar,pi_star,c_star"
    header = open(os.path.join(out, "value.csv")).readline().strip()
    assert header == "t,x,G,v"


def test_cli_solve_outputs_are_reproducible(cfg_file, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["solve", "--config", cfg_file, "--out", out1]) == 0
    assert main(["solve", "--config", cfg_file, "--out", out2]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    assert "meta.json" in names
    for name in names:
        with open(os.path.join(out1, name), "rb") as a, \
                open(os.path.join(out2, name), "rb") as b:
            assert a.read() == b.read(), name


def test_cli_unknown_boundary_exits_naming_it(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(SMALL_CFG.replace("[solver]\ntol = 1e-8",
                                   "[solver]\ntol = 1e-8\nboundary = expo"))
    rc = main(["solve", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "'expo'" in capsys.readouterr().err


def test_cli_simulate(cfg_file, tmp_path):
    out = str(tmp_path / "out")
    rc = main(["simulate", "--config", cfg_file, "--out", out,
               "--x0", "1.0"])
    assert rc == 0
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["x0"] == 1.0
    assert summary["J_se"] > 0
    assert summary["exit_fraction"] < 0.01
    first = open(os.path.join(out, "paths.csv")).readline().strip()
    assert first == "path,time,Y,X"


def test_cli_simulate_deterministic_given_seed(cfg_file, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    main(["simulate", "--config", cfg_file, "--out", out1, "--x0", "1.0"])
    main(["simulate", "--config", cfg_file, "--out", out2, "--x0", "1.0"])
    a = open(os.path.join(out1, "paths.csv")).read()
    b = open(os.path.join(out2, "paths.csv")).read()
    assert a == b


def test_cli_verify(cfg_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = main(["verify", "--config", cfg_file, "--out", out,
               "--x0", "1.0"])
    assert rc == 0
    report = json.load(open(os.path.join(out, "report.json")))
    assert report["passed"] is True
    printed = capsys.readouterr().out
    assert "overall: PASS" in printed


def test_cli_verify_strict_fails_on_grid_exits(tmp_path, capsys):
    # a y-grid this narrow loses most paths within the horizon
    p = tmp_path / "narrow.cfg"
    p.write_text(SMALL_CFG
                 .replace("y_min = -4.0\ny_max = 4.0", "y_min = -0.5\n"
                          "y_max = 0.5")
                 .replace("n_t = 101\nn_y = 101", "n_t = 41\nn_y = 41")
                 .replace("n_paths = 2000\nn_steps = 100",
                          "n_paths = 200\nn_steps = 50"))
    out = tmp_path / "out"
    argv = ["verify", "--config", str(p), "--out", str(out), "--x0", "1.0"]
    with pytest.warns(UserWarning, match="left the y-grid"):
        rc = main(argv)
    report = json.load(open(out / "report.json"))
    assert rc == (0 if report["passed"] else 1)
    exits = [c["details"]["exit_fraction"] for c in report["checks"]
             if "exit_fraction" in c["details"]]
    assert len(exits) == 4 and max(exits) > 0.01
    capsys.readouterr()
    os.remove(out / "report.json")
    assert main(argv + ["--strict"]) == 2
    captured = capsys.readouterr()
    assert "left the y-grid" in captured.err
    assert "overall:" in captured.out
    assert "WARN" in captured.out
    assert json.load(open(out / "report.json")) == report


def test_cli_verify_exit_code_on_failure(cfg_file, tmp_path, monkeypatch):
    failing = VerificationReport([CheckResult("x", False, 1.0, 0.1)])
    monkeypatch.setattr("tcmerton.cli.full_report",
                        lambda *a, **k: failing)
    rc = main(["verify", "--config", cfg_file,
               "--out", str(tmp_path / "o")])
    assert rc == 1


def test_cli_out_env_var(cfg_file, tmp_path, monkeypatch):
    out = str(tmp_path / "env_out")
    monkeypatch.setenv("TCMERTON_OUT", out)
    rc = main(["solve", "--config", cfg_file])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "meta.json"))


def test_cli_no_output_dir_is_error(cfg_file, monkeypatch, capsys):
    monkeypatch.delenv("TCMERTON_OUT", raising=False)
    rc = main(["solve", "--config", cfg_file])
    assert rc == 2
    assert "output directory" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, named", [
    ("tol = 1e-8", "tol = abc", "[solver] tol"),
    ("r = 0.03\n", "", "[market] r"),
    ("rho0 = 0.1\n", "", "[discount] rho0"),
    ("n_t = 101\n", "", "[grid] n_t"),
    ("tol = 1e-8", "tol = 1e-8\ndamping = 0", "damping"),
])
def test_cli_config_error_exits_2_naming_the_key(tmp_path, capsys, old, new,
                                                 named):
    p = tmp_path / "bad.cfg"
    p.write_text(SMALL_CFG.replace(old, new))
    out = tmp_path / "o"
    rc = main(["solve", "--config", str(p), "--out", str(out)])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_cli_bad_config_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(SMALL_CFG + "\n[mystery]\nx = 1\n")
    rc = main(["solve", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2
