"""Verification suite: closed-form reductions, a priori bound
envelopes, stochastic cross-checks and equilibrium optimality tests.

Every check returns a CheckResult with the achieved metric and its
tolerance; full_report collects them into a VerificationReport that can
be rendered as a table or serialized to JSON.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import ModelError
from .grids import deriv_y, deriv_yy
from .model import (CRRAUtility, ExponentialDiscount, elasticity_bounds)
from .montecarlo import estimate_F_mc, estimate_J, mean_se, stream_paths
from .strategy import value_function

# Certified constant in the Gaussian tail bound N(-x) >= C e^{-4 x^2}
# for x >= 0: the ratio N(-x) e^{4 x^2} has an interior minimum of about
# 0.478 near x = 0.12 (and equals 1/2 at x = 0), so C = 0.45 is safe.
# The often-quoted constant 3/4 fails at x = 0 where N(0) = 1/2 < 3/4.
GAUSS_TAIL_C = 0.45

# largest share of Monte Carlo paths that may leave the y-grid before a
# passing check prints WARN and simulate and verify warn (or, with
# --strict, fail)
EXIT_FRACTION_LIMIT = 0.01


def gaussian_tail_ratio(x):
    """N(-x) e^{4 x^2}, the quantity lower-bounded by GAUSS_TAIL_C."""
    x = np.asarray(x, dtype=float)
    return ndtr(-x) * np.exp(4.0 * x ** 2)


# ---------------------------------------------------------------------------
# closed-form constant-elasticity benchmark
# ---------------------------------------------------------------------------

@dataclass
class MertonOracle:
    """Closed-form equilibrium for CRRA utility and exponential
    discounting: the classical constant-fraction solution."""

    market: object
    gamma: float
    rho0: float

    @property
    def nu(self):
        m = self.market
        g = self.gamma
        return (self.rho0 - g * m.r
                - g * m.theta ** 2 / (2.0 * (1.0 - g))) / (1.0 - g)

    def A(self, t):
        """Annuity factor: solves A' = nu A - 1 backward from A(T) = 1."""
        u = self.market.T - np.asarray(t, dtype=float)
        if np.any(u < 0):
            raise ModelError("t beyond the horizon")
        nu = self.nu
        if abs(nu) < 1e-12:
            return 1.0 + u
        return 1.0 / nu + (1.0 - 1.0 / nu) * np.exp(-nu * u)

    def c_star(self, t):
        return 1.0 / self.A(t)

    @property
    def pi_star(self):
        m = self.market
        return m.theta / (m.sigma * (1.0 - self.gamma))

    def V(self, t, x):
        g = self.gamma
        return self.A(t) ** (1.0 - g) * np.asarray(x, dtype=float) ** g / g

    def pbar(self, t, y):
        g = self.gamma
        return self.A(t) * np.exp(np.asarray(y, dtype=float) / (g - 1.0))

    def y_of(self, t, x):
        g = self.gamma
        return (g - 1.0) * np.log(np.asarray(x, dtype=float) / self.A(t))

    def self_check(self, n_steps=2000):
        """RK4 integration of the annuity ODE against the closed form."""
        T = self.market.T
        nu = self.nu
        f = lambda a: nu * a - 1.0
        a = 1.0
        dt = T / n_steps
        worst = 0.0
        for k in range(n_steps):
            t = T - k * dt
            k1 = f(a)
            k2 = f(a - 0.5 * dt * k1)
            k3 = f(a - 0.5 * dt * k2)
            k4 = f(a - dt * k3)
            a = a - dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
            worst = max(worst, abs(a - self.A(t - dt)) / abs(self.A(t - dt)))
        if worst > 1e-10:
            raise ModelError("annuity closed form fails its ODE self-check "
                             "(max rel err %g)" % worst)
        return worst


# ---------------------------------------------------------------------------
# a priori envelopes
# ---------------------------------------------------------------------------

def _iexp(c, u):
    """int_0^u e^{c s} ds, stable near c = 0."""
    cu = c * u
    if abs(cu) < 1e-12:
        return u * (1.0 + 0.5 * cu)
    return math.expm1(cu) / c


def pbar_ratio_bounds(market, discount, r1, t):
    """Envelope [r3(t), r4(t)] for pbar(t, y) / I0(y).

    Built from comparison solutions with exponentially tilted rates;
    the Gaussian-tail constant GAUSS_TAIL_C enters the lower prefactor
    (0.9 = 2 x 0.45) and the upper prefactor is 2.  Both collapse to
    bracket the terminal value 1 at t = T.
    """
    m = market
    beta = 1.0 / r1
    norm = discount.rho_norm(m.T)
    base = beta * (0.5 * m.theta ** 2 + m.r + norm)
    a = m.r + base + 3.5 * beta ** 2 * m.theta ** 2
    g = base + 0.5 * beta ** 2 * m.theta ** 2 - m.r
    t = np.asarray(t, dtype=float)
    u = m.T - t
    r3 = np.array([0.9 * (_iexp(-a, ui) + math.exp(-a * ui))
                   for ui in np.atleast_1d(u)])
    r4 = np.array([2.0 * (_iexp(g, ui) + math.exp(g * ui))
                   for ui in np.atleast_1d(u)])
    if t.ndim == 0:
        return float(r3[0]), float(r4[0])
    return r3, r4


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    tolerance: float
    details: dict = field(default_factory=dict)

    @property
    def status(self):
        """PASS, FAIL, or WARN for a pass read partly off clamped values
        because too many Monte Carlo paths left the y-grid."""
        if not self.passed:
            return "FAIL"
        if self.details.get("exit_fraction", 0.0) > EXIT_FRACTION_LIMIT:
            return "WARN"
        return "PASS"

    def line(self):
        return "%s %-28s value=%.3e tol=%.3e" % (
            self.status, self.name, self.value, self.tolerance)

    def to_dict(self):
        return {"name": self.name, "passed": bool(self.passed),
                "value": float(self.value),
                "tolerance": float(self.tolerance),
                "details": _jsonable(self.details)}


def _max_exit(details):
    """Largest "exit_fraction" among the dicts (0 when none has one):
    the share of Monte Carlo paths that left the y-grid."""
    return max((d.get("exit_fraction", 0.0) for d in details), default=0.0)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


@dataclass
class VerificationReport:
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def summary_lines(self):
        lines = [c.line() for c in self.checks]
        statuses = {c.status for c in self.checks}
        overall = next((s for s in ("FAIL", "WARN") if s in statuses),
                       "PASS")
        lines.append("overall: %s (%d/%d checks passed)" % (
            overall, sum(c.passed for c in self.checks), len(self.checks)))
        return lines

    @property
    def exit_fraction(self):
        """Largest share of Monte Carlo paths that left the y-grid in
        any check (0 without Monte Carlo checks)."""
        return _max_exit(c.details for c in self.checks)

    def to_dict(self):
        return {"passed": bool(self.passed),
                "checks": [c.to_dict() for c in self.checks]}


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_merton_reduction(result, tol_rho=1e-4, tol_pbar=1e-3,
                           tol_pi=1e-3, tol_c=1e-3):
    """CRRA + exponential discounting must collapse to the classical
    constant-fraction solution."""
    if not isinstance(result.utility, CRRAUtility):
        raise ModelError("reduction check requires CRRA utility")
    if not isinstance(result.discount, ExponentialDiscount):
        raise ModelError("reduction check requires exponential discounting")
    oracle = MertonOracle(result.market, result.utility.gamma,
                          result.discount.rho0)
    oracle.self_check()
    g = result.grid
    rho_err = float(np.max(np.abs(result.rho.values - oracle.rho0)))
    pb_ref = oracle.pbar(g.t_nodes[:, None], g.y_nodes[None, :])
    pbar_err = float(np.max(np.abs(result.pbar.values - pb_ref) / pb_ref))
    pi_err = float(np.max(np.abs(result.strategy.pi - oracle.pi_star))
                   / max(abs(oracle.pi_star), 1e-12))
    c_ref = oracle.c_star(g.t_nodes)[:, None]
    c_err = float(np.max(np.abs(result.strategy.c - c_ref) / c_ref))
    details = {"rho_abs_err": rho_err, "pbar_rel_err": pbar_err,
               "pi_rel_err": pi_err, "c_rel_err": c_err,
               "tolerances": {"rho": tol_rho, "pbar": tol_pbar,
                              "pi": tol_pi, "c": tol_c}}
    passed = (rho_err <= tol_rho and pbar_err <= tol_pbar
              and pi_err <= tol_pi and c_err <= tol_c)
    value = max(rho_err / tol_rho, pbar_err / tol_pbar,
                pi_err / tol_pi, c_err / tol_c)
    return CheckResult("merton_reduction", passed, value, 1.0, details)


def check_first_order_conditions(result, tol=1e-8):
    """Construction identities of the feedback controls: marginal
    utility of consumption equals the marginal value e^y, and the risky
    allocation solves the quadratic first-order condition."""
    g = result.grid
    m = result.market
    ey = np.exp(g.y_nodes)[None, :]
    cons = result.strategy.c * result.pbar.values  # consumption level
    foc_c = float(np.max(np.abs(result.utility.Uprime(cons) / ey - 1.0)))
    py = result.pbar.d_dy()
    lhs = result.strategy.pi * m.sigma * result.pbar.values
    scale = np.max(np.abs(py)) * abs(m.theta) + 1e-300
    foc_pi = float(np.max(np.abs(lhs + m.theta * py)) / scale)
    passed = foc_c <= tol and foc_pi <= tol
    return CheckResult("first_order_conditions", passed,
                       max(foc_c, foc_pi), tol,
                       {"consumption": foc_c, "portfolio": foc_pi})


def check_hjb_residual(result, tol=5e-3, trim=2, t_window=(0.02, 0.97)):
    """Normalized residual of the equilibrium value equation.

    In the y-parametrization the aggregated value surface L(t, y)
    (equal to the value at wealth x = pbar(t, y)) must satisfy

      L_t + theta^2/2 L_yy + (rho_bar - r - theta^2/2) L_y + U0(y)
        = RHS(t, y)

    where RHS is the h_t-weighted aggregation; the non-local
    time-inconsistency correction is entirely contained in RHS.  This is
    a genuine consistency check because L and RHS are assembled from the
    delta family, which is never time-stepped under this equation.
    Derivatives are finite differences; the sup is over interior nodes
    and normalized by the largest interior |L_t|.  Interior excludes two
    y-nodes at each edge and thin time layers at both ends (fractions of
    T given by t_window): the row next to the terminal carries a
    first-order startup layer from the just-created delta columns, and
    keeping the window fixed in physical time makes residuals at
    different resolutions comparable for convergence-order studies.
    """
    g = result.grid
    m = result.market
    L = result.rho.G
    L_t = (L[2:] - L[:-2]) / (2 * g.dt)
    mid = slice(1, g.n_t - 1)
    L_y = deriv_y(L, g.dy)[mid]
    L_yy = deriv_yy(L, g.dy)[mid]
    U0 = result.utility.U0(g.y_nodes)[None, :]
    rho = result.rho.values[mid]
    res = (L_t + 0.5 * m.theta ** 2 * L_yy
           + (rho - m.r - 0.5 * m.theta ** 2) * L_y
           + U0 - result.rho.hjb_rhs[mid])
    t_mid = g.t_nodes[1:-1]
    sel = (t_mid >= t_window[0] * g.T) & (t_mid <= t_window[1] * g.T)
    inner = res[sel][:, trim:g.n_y - trim]
    scale = float(np.max(np.abs(L_t[sel][:, trim:g.n_y - trim]))) + 1e-300
    value = float(np.max(np.abs(inner)) / scale)
    return CheckResult("hjb_residual", value <= tol, value, tol,
                       {"scale": scale,
                        "full_sup": float(np.max(np.abs(res[:, trim:g.n_y - trim]))
                                          / scale)})


def check_bounds_suite(result, slack=1e-9, pi_slack=1e-3):
    """All a priori envelopes at once: discount-rate range, the
    pbar / I0 ratio bounds, the consumption-fraction bounds, the risky
    fraction envelope from the elasticity budget kappa, and the
    Gaussian-tail constant underlying the lower prefactor.

    Each envelope is widened by an allowance (pad for the rate range
    and the risky fraction, slack times the bound for the others).  The
    metric is the worst normalized margin: the largest distance of any
    node beyond its widened envelope, in units of that allowance.  It
    is <= 0 exactly when the check passes, and <= -1 when every node
    lies inside its envelope without the allowance.
    """
    g = result.grid
    m = result.market
    u = result.utility
    d = result.discount
    details = {}
    ok = True

    lo, hi = d.rho_bounds(g.T)
    pad = slack * max(1.0, abs(lo), abs(hi))
    r = result.rho.values
    rho_ok = bool(r.min() >= lo - pad and r.max() <= hi + pad)
    details["rho_range"] = {"min": float(r.min()), "max": float(r.max()),
                            "bounds": [lo, hi], "passed": rho_ok}
    ok &= rho_ok
    excess = [(lo - pad - r.min()) / pad, (r.max() - (hi + pad)) / pad]

    r3, r4 = pbar_ratio_bounds(m, d, u.r1, g.t_nodes)
    r3, r4 = r3[:, None], r4[:, None]
    ratio = result.pbar.values / u.I0(g.y_nodes)[None, :]
    low, high = r3 * (1 - slack), r4 * (1 + slack)
    ratio_ok = bool(np.all(ratio >= low) and np.all(ratio <= high))
    details["pbar_ratio"] = {
        "min_margin_low": float(np.min(ratio - r3)),
        "min_margin_high": float(np.min(r4 - ratio)),
        "passed": ratio_ok}
    ok &= ratio_ok
    excess += [np.max((low - ratio) / (slack * r3)),
               np.max((ratio - high) / (slack * r4))]

    c = result.strategy.c
    low, high = (1.0 / r4) * (1 - slack), (1.0 / r3) * (1 + slack)
    c_ok = bool(np.all(c >= low) and np.all(c <= high))
    details["consumption_fraction"] = {
        "min": float(c.min()), "max": float(c.max()), "passed": c_ok}
    ok &= c_ok
    excess += [np.max((low - c) * r4 / slack),
               np.max((c - high) * r3 / slack)]

    r1_t, r2_t = elasticity_bounds(u, result.rho.kappa, g.t_nodes, g.T)
    base = m.theta / m.sigma
    lo_pi = np.minimum(base / r2_t, base / r1_t)[:, None]
    hi_pi = np.maximum(base / r2_t, base / r1_t)[:, None]
    # the envelope degenerates to a point at t = T when r1 = r2, so it
    # needs an allowance for the finite-difference error in pbar_y
    pad_pi = pi_slack * max(1.0, float(np.max(np.abs(hi_pi))))
    pi = result.strategy.pi
    pi_ok = bool(np.all(pi >= lo_pi - pad_pi)
                 and np.all(pi <= hi_pi + pad_pi))
    details["risky_fraction"] = {
        "min": float(pi.min()), "max": float(pi.max()),
        "kappa": float(result.rho.kappa), "passed": pi_ok}
    ok &= pi_ok
    excess += [np.max(lo_pi - pad_pi - pi) / pad_pi,
               np.max(pi - (hi_pi + pad_pi)) / pad_pi]

    xs = np.linspace(0.0, 10.0, 4001)
    gmin = float(np.min(gaussian_tail_ratio(xs)))
    g_ok = gmin >= GAUSS_TAIL_C
    details["gaussian_tail"] = {"min_ratio": gmin,
                                "constant": GAUSS_TAIL_C, "passed": g_ok}
    ok &= g_ok
    excess.append((GAUSS_TAIL_C - gmin) / (slack * GAUSS_TAIL_C))

    return CheckResult("bounds_suite", bool(ok), float(np.max(excess)), 0.0,
                       details)


def wealth_identity_errors(result, x0, t0=0.0, n_steps=1000, n_paths=10000,
                           seed=7, antithetic=True):
    """Per-path sup_s |X_s - pbar(s, Y_s)| / X_s along equilibrium
    paths, computed streaming so full-resolution time sampling needs no
    path storage.  Returns (errors, exit_fraction)."""
    y_nodes = result.grid.y_nodes
    errors = np.zeros(n_paths)

    def accumulate(sl, k, t, y, lx, pi, c):
        if k > 0:
            x = np.exp(lx)
            ref = result.pbar(t, np.clip(y, y_nodes[0], y_nodes[-1]))
            errors[sl] = np.maximum(errors[sl], np.abs(x - ref) / x)

    exited = stream_paths(result.market, result.rho.phi, t0, n_steps,
                          n_paths, seed, antithetic,
                          result.pbar.invert(t0, x0), accumulate, x0,
                          result.strategy.controls)
    return errors, float(np.mean(exited))


def check_wealth_identity(result, x0, t0=0.0, n_steps=1000, n_paths=10000,
                          seed=7, tol=2e-2):
    """Along simulated equilibrium paths, wealth must track
    pbar(s, Y_s); the metric is the median over paths of the per-path
    sup of the relative mismatch."""
    errors, exit_fraction = wealth_identity_errors(
        result, x0, t0=t0, n_steps=n_steps, n_paths=n_paths, seed=seed)
    value = float(np.median(errors))
    return CheckResult("wealth_identity", value <= tol, value, tol,
                       {"exit_fraction": exit_fraction,
                        "p90_err": float(np.quantile(errors, 0.9)),
                        "max_err": float(np.max(errors))})


def check_value_consistency(result, x0, t0=0.0, n_steps=400, n_paths=20000,
                            seed=11, k_se=4.0, tol_abs=None):
    """The aggregated value surface must agree with a direct Monte Carlo
    evaluation of the reward functional under the equilibrium controls."""
    vs = value_function(result.rho, result.pbar, [t0], [x0])
    G_val = float(vs.G[0, 0])
    est = estimate_J(result.market, result.utility, result.discount,
                     result.rho.phi, result.strategy, result.pbar, x0,
                     t0=t0, n_steps=n_steps, n_paths=n_paths, seed=seed)
    diff = abs(G_val - est.value)
    budget = k_se * est.se + (tol_abs if tol_abs is not None
                              else 2e-3 * max(1.0, abs(G_val)))
    return CheckResult("value_consistency", diff <= budget, diff, budget,
                       {"grid_value": G_val, "mc_value": est.value,
                        "mc_se": est.se, "exit_fraction": est.exit_fraction})


def check_operator_cross_validation(result, probes=None, n_steps=400,
                                    n_paths=20000, seed=23, k_se=4.0,
                                    tol_abs=2e-3):
    """Grid values of F at the converged field vs the pathwise
    stochastic representation, at a handful of interior probes."""
    g = result.grid
    if probes is None:
        tq = [0.0, 0.4 * g.T]
        yq = [g.y_nodes[g.n_y // 3], g.y_nodes[2 * g.n_y // 3]]
        probes = [(t, y) for t in tq for y in yq]
    details = []
    ok = True
    worst = 0.0
    for t, y in probes:
        grid_val = float(result.rho(t, y))
        est = estimate_F_mc(result.market, result.utility, result.discount,
                            result.rho.phi, t, y, n_steps=n_steps,
                            n_paths=n_paths, seed=seed)
        diff = abs(grid_val - est.value)
        budget = k_se * est.se + tol_abs
        ok &= diff <= budget
        worst = max(worst, diff / budget)
        details.append({"t": t, "y": y, "grid": grid_val,
                        "mc": est.value, "se": est.se,
                        "exit_fraction": est.exit_fraction,
                        "passed": bool(diff <= budget)})
    return CheckResult("operator_cross_validation", bool(ok), worst, 1.0,
                       {"probes": details,
                        "exit_fraction": _max_exit(details)})


def check_subgame_perturbation(result, x0, t0=0.0, window=0.1,
                               perturbations=None, n_steps=400,
                               n_paths=20000, seed=31, k_se=3.0):
    """No one-shot deviation over a short window after t0 should beat
    the equilibrium controls by more than Monte Carlo noise.

    Uses common random numbers: equilibrium and perturbed rewards are
    differenced path by path before averaging.
    """
    m = result.market
    strat = result.strategy
    t_end = t0 + window
    if perturbations is None:
        mid_pi = float(np.median(strat.pi))
        mid_c = float(np.median(strat.c))
        perturbations = [
            {"pi": mid_pi * 1.5, "c": None},
            {"pi": mid_pi * 0.5, "c": None},
            {"pi": None, "c": mid_c * 1.5},
            {"pi": None, "c": mid_c * 0.5},
            {"pi": mid_pi * 1.25, "c": mid_c * 1.25},
        ]
    kw = dict(t0=t0, n_steps=n_steps, n_paths=n_paths, seed=seed,
              return_per_path=True)
    _, base = estimate_J(m, result.utility, result.discount, result.rho.phi,
                         strat, result.pbar, x0, **kw)
    details = []
    ok = True
    worst = 0.0
    for p in perturbations:
        def controls(t, y, p=p):
            pi, c = strat.controls(t, y)
            if t < t_end:
                if p["pi"] is not None:
                    pi = np.full_like(np.atleast_1d(pi), p["pi"])
                if p["c"] is not None:
                    c = np.full_like(np.atleast_1d(c), p["c"])
            return pi, c
        est, pert = estimate_J(m, result.utility, result.discount,
                               result.rho.phi, strat, result.pbar, x0,
                               controls=controls, **kw)
        # equilibrium minus deviation, pathwise
        mean, se = mean_se(base - pert, antithetic=True)
        passed = mean >= -k_se * se
        ok &= passed
        worst = min(worst, mean / se if se > 0 else 0.0)
        details.append({"perturbation": p, "gain_of_deviation": -mean,
                        "se": se, "exit_fraction": est.exit_fraction,
                        "passed": bool(passed)})
    return CheckResult("subgame_perturbation", bool(ok), -worst, k_se,
                       {"window": window, "cases": details,
                        "exit_fraction": _max_exit(details)})


def full_report(result, x0=None, t0=0.0, n_steps=400, n_paths=20000,
                seed=1234):
    """Run every applicable check on a SolveResult."""
    g = result.grid
    if x0 is None:
        x0 = float(result.pbar(t0, 0.5 * (g.y_nodes[0] + g.y_nodes[-1])))
    checks = [check_first_order_conditions(result),
              check_hjb_residual(result),
              check_bounds_suite(result)]
    if (isinstance(result.utility, CRRAUtility)
            and isinstance(result.discount, ExponentialDiscount)):
        checks.insert(0, check_merton_reduction(result))
    checks += [
        check_wealth_identity(result, x0, t0=t0, n_steps=n_steps,
                              n_paths=min(n_paths, 4000), seed=seed),
        check_value_consistency(result, x0, t0=t0, n_steps=n_steps,
                                n_paths=n_paths, seed=seed + 1),
        check_operator_cross_validation(result, n_steps=n_steps,
                                        n_paths=n_paths, seed=seed + 2),
        check_subgame_perturbation(result, x0, t0=t0, n_steps=n_steps,
                                   n_paths=n_paths, seed=seed + 3),
    ]
    return VerificationReport(checks)
