"""Command-line front end: solve | simulate | verify.

Model and numerics are described by an INI config file; results are
written as CSV tables (floats at full precision, %.17g) and JSON
metadata into an output directory taken from --out, the TCMERTON_OUT
environment variable, or the [outputs] section, in that order.
"""

import argparse
import configparser
import json
import logging
import os
import sys
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from . import pipeline
from .errors import TCMertonError
from .fixed_point import SolverSettings
from .grids import Grid
from .model import (CRRAUtility, ExponentialDiscount, HyperbolicDiscount,
                    MarketModel, MixedPowerUtility,
                    PseudoExponentialDiscount)
from .montecarlo import estimate_J, simulate_wealth
from .strategy import value_function
from .verify import EXIT_FRACTION_LIMIT, full_report

FLOAT_FMT = "%.17g"

_SCHEMA = {
    "market": {"r", "mu", "sigma", "T"},
    "discount": {"kind", "rho0", "alpha", "beta", "weights", "rates"},
    "utility": {"kind", "gamma", "alpha", "gamma1", "gamma2"},
    "grid": {"y_min", "y_max", "n_t", "n_y"},
    "solver": {f.name for f in fields(SolverSettings)},
    "mc": {"n_paths", "n_steps", "seed", "antithetic", "record_stride"},
    "outputs": {"dir"},
}


class ConfigError(TCMertonError):
    pass


def _read(section, key, as_type=float):
    """The value of key in a config section as as_type (float, int, str,
    bool, or tuple for a comma-separated list of floats).

    Raises ConfigError naming [section] key when the key is missing or
    its value does not convert.
    """
    if key not in section:
        raise ConfigError("missing key [%s] %s" % (section.name, key))
    try:
        if as_type is bool:
            return section.getboolean(key)
        if as_type is tuple:
            return tuple(float(v) for v in section[key].split(","))
        return as_type(section[key])
    except ValueError as exc:
        raise ConfigError("[%s] %s: %s" % (section.name, key, exc)) from exc


def _read_fields(section, owner):
    """Every key of a config section, each read as the type of the field
    of the dataclass owner that it names."""
    types = {f.name: f.type for f in fields(owner)}
    return {key: _read(section, key, types[key]) for key in section}


@dataclass
class RunConfig:
    market: MarketModel
    discount: object
    utility: object
    grid: Grid
    solver: SolverSettings = field(default_factory=SolverSettings)
    n_paths: int = 20000
    n_steps: int = 400
    seed: int = 0
    antithetic: bool = True
    record_stride: int = 10
    out_dir: str = None

    @classmethod
    def from_file(cls, path):
        cp = configparser.ConfigParser()
        try:
            read = cp.read(path)
        except configparser.Error as exc:
            raise ConfigError("malformed config file %s: %s"
                              % (path, exc)) from exc
        if not read:
            raise ConfigError("config file not found: %s" % path)
        for section in cp.sections():
            if section not in _SCHEMA:
                raise ConfigError("unknown config section [%s]" % section)
            unknown = set(cp[section]) - {k.lower() for k in _SCHEMA[section]}
            if unknown:
                raise ConfigError("unknown key(s) %s in section [%s]"
                                  % (sorted(unknown), section))
        for required in ("market", "discount", "utility", "grid"):
            if required not in cp:
                raise ConfigError("missing config section [%s]" % required)

        mk = cp["market"]
        market = MarketModel(r=_read(mk, "r"), mu=_read(mk, "mu"),
                             sigma=_read(mk, "sigma"), T=_read(mk, "T"))

        dc = cp["discount"]
        kind = dc.get("kind", "exponential").lower()
        if kind == "exponential":
            discount = ExponentialDiscount(rho0=_read(dc, "rho0"))
        elif kind == "hyperbolic":
            discount = HyperbolicDiscount(alpha=_read(dc, "alpha"),
                                          beta=_read(dc, "beta"))
        elif kind == "pseudo_exponential":
            discount = PseudoExponentialDiscount(
                weights=_read(dc, "weights", tuple),
                rates=_read(dc, "rates", tuple))
        else:
            raise ConfigError("unknown discount kind %r" % kind)

        ut = cp["utility"]
        ukind = ut.get("kind", "crra").lower()
        if ukind == "crra":
            utility = CRRAUtility(gamma=_read(ut, "gamma"))
        elif ukind == "mixed_power":
            utility = MixedPowerUtility(alpha=_read(ut, "alpha"),
                                        gamma1=_read(ut, "gamma1"),
                                        gamma2=_read(ut, "gamma2"))
        else:
            raise ConfigError("unknown utility kind %r" % ukind)

        gr = cp["grid"]
        grid = Grid.regular(market.T, _read(gr, "y_min"),
                            _read(gr, "y_max"), _read(gr, "n_t", int),
                            _read(gr, "n_y", int))

        # keys left out take the defaults of SolverSettings and RunConfig
        kw = {}
        if "solver" in cp:
            kw["solver"] = SolverSettings(
                **_read_fields(cp["solver"], SolverSettings))
        if "mc" in cp:
            kw.update(_read_fields(cp["mc"], cls))
        if "outputs" in cp:
            kw["out_dir"] = cp["outputs"].get("dir")
        return cls(market, discount, utility, grid, **kw)


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

def _write_csv(path, header, columns, fmts=None):
    """Write equal-length columns as CSV rows under the header line;
    each column is formatted with its entry of fmts (FLOAT_FMT when
    fmts is None)."""
    fmts = fmts or [FLOAT_FMT] * len(columns)
    table = np.column_stack([np.ravel(c) for c in columns])
    np.savetxt(path, table, fmt=fmts, delimiter=",", header=header,
               comments="")


def _product(a, b):
    """The two key columns of a table over a x b, row-major."""
    return [np.repeat(a, len(b)), np.tile(b, len(a))]


def write_field_csv(path, grid, values, name):
    _write_csv(path, "t,y," + name,
               _product(grid.t_nodes, grid.y_nodes) + [values])


def read_field_csv(path):
    """Read a t,y,value table back into (t_nodes, y_nodes, values)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    t = np.unique(data[:, 0])
    y = np.unique(data[:, 1])
    vals = data[:, 2].reshape(len(t), len(y))
    return t, y, vals


def write_strategy_csv(path, result):
    g = result.grid
    _write_csv(path, "t,y,pbar,pi_star,c_star",
               _product(g.t_nodes, g.y_nodes)
               + [result.pbar.values, result.strategy.pi,
                  result.strategy.c])


def write_value_csv(path, surface):
    _write_csv(path, "t,x,G,v",
               _product(surface.t, surface.x) + [surface.G, surface.v])


def write_paths_csv(path, ens):
    _write_csv(path, "path,time,Y,X",
               _product(np.arange(ens.n_paths), ens.times) + [ens.Y, ens.X],
               ["%d"] + [FLOAT_FMT] * 3)


def _model_meta(cfg):
    return {
        "market": {"r": cfg.market.r, "mu": cfg.market.mu,
                   "sigma": cfg.market.sigma, "T": cfg.market.T,
                   "theta": cfg.market.theta},
        "discount": repr(cfg.discount),
        "utility": repr(cfg.utility),
        "grid": {"n_t": cfg.grid.n_t, "n_y": cfg.grid.n_y,
                 "y_min": float(cfg.grid.y_nodes[0]),
                 "y_max": float(cfg.grid.y_nodes[-1])},
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _out_dir(args, cfg):
    out = args.out or os.environ.get("TCMERTON_OUT") or cfg.out_dir
    if not out:
        raise ConfigError("no output directory: pass --out, set "
                          "TCMERTON_OUT or add [outputs] dir")
    os.makedirs(out, exist_ok=True)
    return out


def _check_coverage(exit_fraction, strict):
    if exit_fraction > EXIT_FRACTION_LIMIT:
        msg = ("%.1f%% of paths left the y-grid; results may be biased"
               % (100 * exit_fraction))
        if strict:
            raise TCMertonError(msg)
        warnings.warn(msg)


def _solve(cfg):
    return pipeline.solve(cfg.market, cfg.utility, cfg.discount, cfg.grid,
                          settings=cfg.solver)


def cmd_solve(args):
    cfg = RunConfig.from_file(args.config)
    out = _out_dir(args, cfg)
    result = _solve(cfg)
    g = cfg.grid
    write_field_csv(os.path.join(out, "rho_bar.csv"), g,
                    result.rho.values, "rho_bar")
    write_field_csv(os.path.join(out, "pbar.csv"), g,
                    result.pbar.values, "pbar")
    write_strategy_csv(os.path.join(out, "strategy.csv"), result)
    t_probes = g.t_nodes[:: max(1, (g.n_t - 1) // 8)]
    x_lo, x_hi = result.pbar.wealth_range(float(t_probes[-1]))
    for tp in t_probes:
        lo, hi = result.pbar.wealth_range(float(tp))
        x_lo, x_hi = max(x_lo, lo), min(x_hi, hi)
    x_probes = np.geomspace(x_lo * 1.001, x_hi * 0.999, 25)
    surface = value_function(result.rho, result.pbar, t_probes, x_probes)
    write_value_csv(os.path.join(out, "value.csv"), surface)
    meta = _model_meta(cfg)
    meta.update({
        "iterations": result.rho.iterations,
        "residual_sup": result.rho.residual_sup,
        "residual_history": result.rho.residual_history,
        "kappa": result.rho.kappa,
    })
    with open(os.path.join(out, "meta.json"), "w") as f:
        json.dump(meta, f, indent=2)
    print("solve: converged in %d iteration(s), residual %.3e, "
          "outputs in %s" % (result.rho.iterations,
                             result.rho.residual_sup, out))
    return 0


def cmd_simulate(args):
    cfg = RunConfig.from_file(args.config)
    out = _out_dir(args, cfg)
    seed = args.seed if args.seed is not None else cfg.seed
    result = _solve(cfg)
    t0 = args.t0
    x0 = args.x0
    if x0 is None:
        mid = 0.5 * (cfg.grid.y_nodes[0] + cfg.grid.y_nodes[-1])
        x0 = float(result.pbar(t0, mid))
    ens = simulate_wealth(cfg.market, result.rho.phi, result.strategy,
                          result.pbar, x0, t0=t0, n_steps=cfg.n_steps,
                          n_paths=cfg.n_paths, seed=seed,
                          antithetic=cfg.antithetic,
                          record_stride=cfg.record_stride)
    est = estimate_J(cfg.market, cfg.utility, cfg.discount, result.rho.phi,
                     result.strategy, result.pbar, x0, t0=t0,
                     n_steps=cfg.n_steps, n_paths=cfg.n_paths, seed=seed,
                     antithetic=cfg.antithetic)
    _check_coverage(ens.exit_fraction, args.strict)
    write_paths_csv(os.path.join(out, "paths.csv"), ens)
    summary = _model_meta(cfg)
    summary.update({
        "t0": t0, "x0": x0, "seed": seed,
        "n_paths": cfg.n_paths, "n_steps": cfg.n_steps,
        "antithetic": cfg.antithetic,
        "exit_fraction": ens.exit_fraction,
        "J_estimate": est.value, "J_se": est.se,
        "terminal_wealth_mean": float(np.mean(ens.X[:, -1])),
        "terminal_wealth_std": float(np.std(ens.X[:, -1])),
    })
    with open(os.path.join(out, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2)
    print("simulate: J = %.6g +/- %.2g (se), %d paths, outputs in %s"
          % (est.value, est.se, cfg.n_paths, out))
    return 0


def cmd_verify(args):
    cfg = RunConfig.from_file(args.config)
    out = _out_dir(args, cfg)
    seed = args.seed if args.seed is not None else cfg.seed
    result = _solve(cfg)
    report = full_report(result, x0=args.x0, t0=args.t0,
                         n_steps=cfg.n_steps, n_paths=cfg.n_paths,
                         seed=seed + 1000)
    with open(os.path.join(out, "report.json"), "w") as f:
        json.dump(report.to_dict(), f, indent=2)
    for line in report.summary_lines():
        print(line)
    _check_coverage(report.exit_fraction, args.strict)
    return 0 if report.passed else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="tcmerton",
        description="Time-consistent consumption-investment solver")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="enable info-level logging")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
            ("solve", cmd_solve,
             "solve the fixed point and export the strategy surfaces"),
            ("simulate", cmd_simulate,
             "simulate equilibrium wealth paths and the reward"),
            ("verify", cmd_verify,
             "run the verification suite and write report.json")):
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("--config", required=True,
                        help="INI model/numerics configuration")
        sp.add_argument("--out", help="output directory "
                        "(default: $TCMERTON_OUT or [outputs] dir)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the Monte Carlo seed")
        sp.add_argument("--t0", type=float, default=0.0,
                        help="evaluation time (default 0)")
        sp.add_argument("--x0", type=float, default=None,
                        help="initial wealth (default: grid midpoint)")
        sp.add_argument("--strict", action="store_true",
                        help="escalate coverage warnings to errors")
        sp.set_defaults(fn=fn)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO,
                            format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.fn(args)
    except TCMertonError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
