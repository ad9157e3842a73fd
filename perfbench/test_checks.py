"""Tests of the benchmark: every output check holds on real program
output and fails on a deliberately corrupted copy of it; a traced round
reports every per-layer metric that BENCHMARK.json names.

    python3 -m pytest -q perfbench

The outputs come from the real CLI on the benchmark's workloads, made
smaller (coarser grid, fewer paths) so the tests take seconds.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "solve-mixed-hyperbolic": dict(n_t=81, n_y=101),
    "verify-mixed-hyperbolic": dict(n_paths=1000, n_steps=200),
    "verify-crra-exponential": dict(n_paths=1000, n_steps=200),
}
SEED = 3


def small(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **SMALL[name])


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    """name -> (workload, inputs, output dir, exit code) of one real CLI
    run, made once per module."""
    from tcmerton import cli
    made = {}

    def get(name):
        if name not in made:
            wl = small(name)
            inputs = workloads.make_inputs(wl, SEED)
            base = tmp_path_factory.mktemp(name)
            config = base / "config.cfg"
            config.write_text(inputs.config_text())
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(inputs.cli_args(wl, config, base / "out"))
            made[name] = wl, inputs, base / "out", code
        return made[name]
    return get


@pytest.fixture
def copy_of(produced, tmp_path):
    """name -> (workload, inputs, a fresh copy of the output dir)."""
    def get(name):
        wl, inputs, out, _ = produced(name)
        shutil.copytree(out, tmp_path / "out")
        return wl, inputs, tmp_path / "out"
    return get


def verdicts(wl, inputs, out, code=0):
    return {name: ok for name, ok, _ in
            checks.check_outputs(wl, inputs, out, code)}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_check_holds_on_real_output(produced, name):
    wl, inputs, out, code = produced(name)
    assert code == 0
    failed = [(n, d) for n, ok, d in checks.check_outputs(wl, inputs, out,
                                                          code) if not ok]
    assert failed == []


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_checks_when_outputs_are_missing(produced, name, tmp_path):
    wl, inputs, out, code = produced(name)
    full = verdicts(wl, inputs, out, code)
    empty = verdicts(wl, inputs, tmp_path, 2)
    assert list(empty) == list(full)
    assert not any(empty.values())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_cli_exit_check_rejects_nonzero_exit(produced, name):
    wl, inputs, out, _ = produced(name)
    assert not verdicts(wl, inputs, out, 1)["cli_exit"]


# ---------------------------------------------------------------------------
# corruptions, one per check
# ---------------------------------------------------------------------------

def edit_table(path, edit):
    with open(path) as f:
        header = f.readline().strip()
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    edit(data)
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header,
               comments="")


def edit_report(out, edit):
    path = out / "report.json"
    report = json.loads(path.read_text())
    edit({c["name"]: c for c in report["checks"]})
    path.write_text(json.dumps(report))


def rate_range(inputs):
    return checks.hyperbolic_rate_range(inputs.params)


def _rho_out_of_range(out, inputs):
    hi = rate_range(inputs)[1]
    edit_table(out / "rho_bar.csv", lambda d: d.__setitem__((50, 2),
                                                            hi * 1.01))


def _rho_terminal_off(out, inputs):
    hi = rate_range(inputs)[1]
    edit_table(out / "rho_bar.csv", lambda d: d.__setitem__((-3, 2),
                                                            hi * (1 - 1e-6)))


def _pbar_not_decreasing(out, inputs):
    def edit(d):
        d[10, 2], d[11, 2] = d[11, 2], d[10, 2]
    edit_table(out / "pbar.csv", edit)


def _consumption_off(out, inputs):
    edit_table(out / "strategy.csv",
               lambda d: d.__setitem__((500, 4), d[500, 4] * (1 + 1e-8)))


def _terminal_value_off(out, inputs):
    def edit(d):
        last = d[:, 0] == d[:, 0].max()
        d[last, 2] *= 1.01
    edit_table(out / "value.csv", edit)


def _value_not_concave(out, inputs):
    # lowers the secant slope between probes 12 and 13 at t = 0 by the
    # whole gap between v at its ends
    def edit(d):
        j = 12
        d[j, 2] -= (d[j + 1, 1] - d[j, 1]) * (d[j, 3] - d[j + 1, 3])
        d[j + 1:25, 2] -= 2 * (d[j + 1, 1] - d[j, 1]) * (d[j, 3]
                                                         - d[j + 1, 3])
    edit_table(out / "value.csv", edit)


def _probe_out_of_range(out, inputs):
    hi = rate_range(inputs)[1]
    edit_report(out, lambda r: r["operator_cross_validation"]["details"][
        "probes"][1].__setitem__("grid", hi * 1.05))


def _mc_value_off(out, inputs):
    def edit(r):
        d = r["value_consistency"]["details"]
        d["mc_value"] += 10 * d["mc_se"] + 0.01 * abs(d["grid_value"])
    edit_report(out, edit)


def _grid_value_off(out, inputs):
    edit_report(out, lambda r: r["value_consistency"]["details"].__setitem__(
        "grid_value", r["value_consistency"]["details"]["grid_value"] * 1.01))


def _probe_off_rho0(out, inputs):
    rho0 = inputs.params["discount"]["rho0"]
    edit_report(out, lambda r: r["operator_cross_validation"]["details"][
        "probes"][2].__setitem__("mc", rho0 * (1 + 1e-6)))


def _value_csv_removed(out, inputs):
    (out / "value.csv").unlink()


CORRUPTIONS = [
    ("solve-mixed-hyperbolic", "rho_bar_range", _rho_out_of_range),
    ("solve-mixed-hyperbolic", "rho_bar_terminal", _rho_terminal_off),
    ("solve-mixed-hyperbolic", "pbar_positive_decreasing",
     _pbar_not_decreasing),
    ("solve-mixed-hyperbolic", "consumption_foc", _consumption_off),
    ("solve-mixed-hyperbolic", "value_terminal", _terminal_value_off),
    ("solve-mixed-hyperbolic", "value_secant", _value_not_concave),
    ("solve-mixed-hyperbolic", "value_terminal", _value_csv_removed),
    ("verify-mixed-hyperbolic", "probe_rates_in_range",
     _probe_out_of_range),
    ("verify-mixed-hyperbolic", "value_agreement", _mc_value_off),
    ("verify-crra-exponential", "merton_grid_value", _grid_value_off),
    ("verify-crra-exponential", "merton_mc_value", _mc_value_off),
    ("verify-crra-exponential", "probes_read_rho0", _probe_off_rho0),
]


@pytest.mark.parametrize("name,check,corrupt", CORRUPTIONS,
                         ids=["%s-%s" % (c[1], c[2].__name__.strip("_"))
                              for c in CORRUPTIONS])
def test_check_rejects_corrupted_output(copy_of, name, check, corrupt):
    wl, inputs, out = copy_of(name)
    assert verdicts(wl, inputs, out)[check]
    corrupt(out, inputs)
    assert not verdicts(wl, inputs, out)[check]


@pytest.mark.parametrize("name", ["verify-mixed-hyperbolic",
                                  "verify-crra-exponential"])
def test_suite_checks_reject_a_failed_check(copy_of, name):
    wl, inputs, out = copy_of(name)
    for check in checks.SUITE_CHECKS[wl.model]:
        edit_report(out, lambda r: r[check].__setitem__("passed", False))
        assert not verdicts(wl, inputs, out)["suite." + check]
        edit_report(out, lambda r: r[check].__setitem__("passed", True))
    assert all(verdicts(wl, inputs, out).values())


# ---------------------------------------------------------------------------
# traced round
# ---------------------------------------------------------------------------

def per_layer_names():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in bench["per_layer"]}


@pytest.mark.parametrize("name", ["solve-mixed-hyperbolic",
                                  "verify-crra-exponential"])
def test_traced_round_reports_every_layer_metric(name, tmp_path):
    wl = small(name)
    inputs = workloads.make_inputs(wl, SEED)
    config = tmp_path / "config.cfg"
    config.write_text(inputs.config_text())
    request = tmp_path / "request.json"
    request.write_text(json.dumps({
        "spawned_at": time.monotonic(), "config": str(config),
        "argv": inputs.cli_args(wl, config, tmp_path / "out"), "trace": 1,
        "result": str(tmp_path / "result.json"),
        "trace_file": str(tmp_path / "trace.json")}))
    env = {"PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, str(HERE / "one_round.py"),
                    str(request)], check=True, env=env, timeout=120,
                   stdout=subprocess.DEVNULL)
    result = json.loads((tmp_path / "result.json").read_text())
    layers = result["layers"]
    process = {"process.cpu_s", "process.tracing_overhead_s"}
    assert set(layers) | process == per_layer_names()
    assert result["exit_code"] == 0
    assert layers["fixed_point.sweeps"] > 0
    assert layers["pde.banded_solves"] > 0
    if wl.model == "crra":
        assert layers["model.inverse_calls"] == 0
        assert layers["model.inverse_s"] == 0
        assert layers["fixed_point.iterations"] == 1
        assert layers["montecarlo.estimate_J_path_steps"] > 0
    else:
        assert all(v == 0 for k, v in layers.items()
                   if k.startswith("montecarlo."))
        assert layers["cli.bytes_written"] > 0
    spans = json.loads((tmp_path / "trace.json").read_text())["spans"]
    assert [s[0] for s in spans[:2]] == ["cli.cmd_" + wl.command,
                                         "cli.RunConfig.from_file"]
    assert all(-1 <= s[3] < i for i, s in enumerate(spans))
