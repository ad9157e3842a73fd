"""Checks of the program's outputs, computed from the generated config
with formulas written here, not with tcmerton code.

Every check is one operation of the benchmark: ``check_outputs``
returns the same list of check names for every round of a workload,
whatever the seed, each with whether it held and a detail string.
"""

import json
import math
import os

import numpy as np

# Reference solve outputs (401 x 101 mixed-power, hyperbolic): G(T, x)
# differs from U(x) by at most 2.5e-4 relative, from the interpolation
# of the log-wealth row and the cubic spline through U0 (both O(dy^2)).
VALUE_TERMINAL_RTOL = 2e-3
# Merton value on a 101 x 101 grid: the delta-family aggregation is
# second order in dt and dy; over seeds 1-30 the error was 1.7e-4 to
# 2.6e-4 relative.
MERTON_GRID_RTOL = 1e-3
# Monte Carlo against the closed form: standard errors plus an allowance
# for the Euler bias at 400 steps.
MERTON_MC_K_SE = 4.0
MERTON_MC_RTOL = 2e-3
SUITE_CHECKS = {
    "mixed": ("first_order_conditions", "hjb_residual", "bounds_suite",
              "wealth_identity", "value_consistency",
              "operator_cross_validation", "subgame_perturbation"),
}
SUITE_CHECKS["crra"] = ("merton_reduction",) + SUITE_CHECKS["mixed"]


class OutputError(Exception):
    """An output file is missing or malformed."""


# ---------------------------------------------------------------------------
# model formulas
# ---------------------------------------------------------------------------

def utility_U(params, x):
    u = params["utility"]
    if u["kind"] == "crra":
        return x ** u["gamma"] / u["gamma"]
    a, g1, g2 = u["alpha"], u["gamma1"], u["gamma2"]
    return a * x ** g1 / g1 + (1 - a) * x ** g2 / g2


def utility_Uprime(params, x):
    u = params["utility"]
    if u["kind"] == "crra":
        return x ** (u["gamma"] - 1.0)
    a, g1, g2 = u["alpha"], u["gamma1"], u["gamma2"]
    return a * x ** (g1 - 1) + (1 - a) * x ** (g2 - 1)


def hyperbolic_rate_range(params):
    """[alpha beta / (1 + beta T), alpha beta]: the range of the
    instantaneous rate alpha beta / (1 + beta (s - t)) over s - t in
    [0, T], which bounds every weighted average of it."""
    d, T = params["discount"], params["market"]["T"]
    ab = d["alpha"] * d["beta"]
    return ab / (1.0 + d["beta"] * T), ab


def merton_value(params, t, x):
    """Closed-form value A(t)^(1-g) x^g / g of the CRRA Merton problem
    with exponential discounting, where A' = nu A - 1 and A(T) = 1."""
    m, g = params["market"], params["utility"]["gamma"]
    rho0 = params["discount"]["rho0"]
    theta = (m["mu"] - m["r"]) / m["sigma"]
    nu = (rho0 - g * m["r"] - g * theta ** 2 / (2.0 * (1.0 - g))) / (1.0 - g)
    A = 1.0 / nu + (1.0 - 1.0 / nu) * math.exp(-nu * (m["T"] - t))
    return A ** (1.0 - g) * x ** g / g


# ---------------------------------------------------------------------------
# reading outputs
# ---------------------------------------------------------------------------

def read_table(path, header, n_rows=None):
    """Columns of a CSV written by the CLI, after checking its header."""
    try:
        with open(path) as f:
            head = f.readline().strip()
            data = np.loadtxt(f, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise OutputError("%s: %s" % (os.path.basename(path), exc)) from exc
    if head != header:
        raise OutputError("%s: header %r, expected %r"
                          % (os.path.basename(path), head, header))
    if data.shape[1] != header.count(",") + 1 or (
            n_rows is not None and data.shape[0] != n_rows):
        raise OutputError("%s: table shape %s" % (os.path.basename(path),
                                                  data.shape))
    return data.T


def read_grid_table(path, header, params):
    """A t,y,... table on the config's grid, reshaped to (n_t, n_y)."""
    g = params["grid"]
    n_t, n_y = g["n_t"], g["n_y"]
    cols = read_table(path, header, n_t * n_y)
    t = cols[0].reshape(n_t, n_y)
    y = cols[1].reshape(n_t, n_y)
    t_ref = np.linspace(0.0, params["market"]["T"], n_t)
    y_ref = np.linspace(g["y_min"], g["y_max"], n_y)
    if (np.max(np.abs(t - t_ref[:, None])) > 1e-12
            or np.max(np.abs(y - y_ref[None, :])) > 1e-12):
        raise OutputError("%s: nodes are not the config's grid"
                          % os.path.basename(path))
    return t_ref, y_ref, [c.reshape(n_t, n_y) for c in cols[2:]]


def read_report(out_dir):
    try:
        with open(os.path.join(out_dir, "report.json")) as f:
            report = json.load(f)
        return {c["name"]: c for c in report["checks"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise OutputError("report.json: %s" % exc) from exc


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _solve_checks(params, out):
    lo, hi = hyperbolic_rate_range(params)
    T = params["market"]["T"]

    def rho_range():
        _, _, (rho,) = read_grid_table(os.path.join(out, "rho_bar.csv"),
                                       "t,y,rho_bar", params)
        slack = 1e-9 * hi
        ok = rho.min() >= lo - slack and rho.max() <= hi + slack
        return ok, "rho_bar in [%.17g, %.17g], range [%.17g, %.17g]" % (
            rho.min(), rho.max(), lo, hi)

    def rho_terminal():
        _, _, (rho,) = read_grid_table(os.path.join(out, "rho_bar.csv"),
                                       "t,y,rho_bar", params)
        err = float(np.max(np.abs(rho[-1] - hi))) / hi
        return err <= 1e-12, "rho_bar(T) - alpha beta: %.3e relative" % err

    def pbar_shape():
        _, _, (pbar,) = read_grid_table(os.path.join(out, "pbar.csv"),
                                        "t,y,pbar", params)
        steps = np.diff(pbar, axis=1)
        ok = pbar.min() > 0 and steps.max() < 0
        return ok, "min pbar %.3e, max y-step %.3e" % (pbar.min(),
                                                      steps.max())

    def consumption_foc():
        _, y, (pbar, _, c) = read_grid_table(
            os.path.join(out, "strategy.csv"), "t,y,pbar,pi_star,c_star",
            params)
        err = float(np.max(np.abs(
            utility_Uprime(params, c * pbar) / np.exp(y)[None, :] - 1.0)))
        return err <= 1e-10, "max |U'(c pbar) / e^y - 1| = %.3e" % err

    def value_surface():
        t, x, G, v = read_table(os.path.join(out, "value.csv"), "t,x,G,v")
        times = np.unique(t)
        if len(t) % len(times):
            raise OutputError("value.csv: ragged (t, x) table")
        shape = (len(times), len(t) // len(times))
        return times, x.reshape(shape), G.reshape(shape), v.reshape(shape)

    def value_terminal():
        times, x, G, _ = value_surface()
        if abs(times[-1] - T) > 1e-12:
            return False, "value.csv has no row at t = T"
        U = utility_U(params, x[-1])
        err = float(np.max(np.abs(G[-1] - U) / np.abs(U)))
        return (err <= VALUE_TERMINAL_RTOL,
                "max |G(T,x) - U(x)| / |U(x)| = %.3e" % err)

    def value_secant():
        # G is increasing and concave in x with G_x = v, so the secant
        # slope between adjacent probes lies between v at the two ends;
        # G and v come from different solves (aggregation, pbar).
        _, x, G, v = value_surface()
        slope = np.diff(G, axis=1) / np.diff(x, axis=1)
        width = v[:, :-1] - v[:, 1:]
        margin = np.minimum(slope - v[:, 1:], v[:, :-1] - slope) / width
        ok = bool(np.all(width > 0)) and float(margin.min()) > 0
        return ok, "smallest secant margin %.3f of the v-gap" % margin.min()

    return [("rho_bar_range", rho_range), ("rho_bar_terminal", rho_terminal),
            ("pbar_positive_decreasing", pbar_shape),
            ("consumption_foc", consumption_foc),
            ("value_terminal", value_terminal),
            ("value_secant", value_secant)]


def _suite_checks(model, out):
    def suite(name):
        def check():
            c = read_report(out).get(name)
            if c is None:
                return False, "missing from report.json"
            return c["passed"] is True, "value %r tolerance %r" % (
                c["value"], c["tolerance"])
        return check
    return [("suite." + name, suite(name)) for name in SUITE_CHECKS[model]]


def _verify_mixed_checks(params, out):
    lo, hi = hyperbolic_rate_range(params)

    def probe_range():
        probes = read_report(out)["operator_cross_validation"]["details"][
            "probes"]
        rates = [p["grid"] for p in probes]
        slack = 1e-9 * hi
        ok = len(rates) > 0 and all(lo - slack <= r <= hi + slack
                                    for r in rates)
        return ok, "probe rates %s, range [%.17g, %.17g]" % (rates, lo, hi)

    def value_agreement():
        d = read_report(out)["value_consistency"]["details"]
        G, mc, se = d["grid_value"], d["mc_value"], d["mc_se"]
        budget = 4.0 * se + 2e-3 * max(1.0, abs(G))
        return abs(G - mc) <= budget, "|%.17g - %.17g| vs budget %.3e" % (
            G, mc, budget)

    return [("probe_rates_in_range", probe_range),
            ("value_agreement", value_agreement)]


def _verify_crra_checks(params, out, x0):
    V = merton_value(params, 0.0, x0)
    rho0 = params["discount"]["rho0"]

    def grid_value():
        G = read_report(out)["value_consistency"]["details"]["grid_value"]
        err = abs(G - V) / abs(V)
        return err <= MERTON_GRID_RTOL, "grid %.17g vs Merton %.17g" % (G, V)

    def mc_value():
        d = read_report(out)["value_consistency"]["details"]
        budget = MERTON_MC_K_SE * d["mc_se"] + MERTON_MC_RTOL * abs(V)
        return (abs(d["mc_value"] - V) <= budget,
                "mc %.17g vs Merton %.17g, budget %.3e"
                % (d["mc_value"], V, budget))

    def probes_rho0():
        probes = read_report(out)["operator_cross_validation"]["details"][
            "probes"]
        err = max((max(abs(p["grid"] - rho0), abs(p["mc"] - rho0))
                   for p in probes), default=math.inf) / rho0
        return err <= 1e-9, "max probe deviation from rho0 %.3e" % err

    return [("merton_grid_value", grid_value), ("merton_mc_value", mc_value),
            ("probes_read_rho0", probes_rho0)]


def check_outputs(workload, inputs, out_dir, exit_code):
    """[(name, passed, detail)] for one round's outputs."""
    params = inputs.params
    checks = [("cli_exit", lambda: (exit_code == 0,
                                    "exit code %r" % (exit_code,)))]
    if workload.command == "solve":
        checks += _solve_checks(params, out_dir)
    else:
        checks += _suite_checks(workload.model, out_dir)
        if workload.model == "mixed":
            checks += _verify_mixed_checks(params, out_dir)
        else:
            checks += _verify_crra_checks(params, out_dir, inputs.x0)
    results = []
    for name, check in checks:
        try:
            ok, detail = check()
        except (OutputError, KeyError, TypeError, IndexError) as exc:
            ok, detail = False, "%s: %s" % (type(exc).__name__, exc)
        results.append((name, bool(ok), detail))
    return results
