"""Acceptance gate: end-to-end checks of the full pipeline against
closed forms, stochastic representations and a priori envelopes.

Each test prints one PASS/FAIL summary line (bypassing pytest capture)
so a `pytest tests/test_acceptance.py` run yields a compact scoreboard.
"""

import time

import numpy as np
import pytest

from tcmerton.fixed_point import iterate
from tcmerton.grids import Grid
from tcmerton.model import (CRRAUtility, ExponentialDiscount,
                            HyperbolicDiscount, MarketModel,
                            MixedPowerUtility, elasticity_bounds)
from tcmerton.montecarlo import estimate_J
from tcmerton.pipeline import solve
from tcmerton.strategy import value_function
from tcmerton.verify import (CheckResult, check_bounds_suite,
                             check_hjb_residual, check_merton_reduction,
                             check_operator_cross_validation,
                             check_subgame_perturbation, pbar_ratio_bounds,
                             wealth_identity_errors)

MARKET = MarketModel(r=0.03, mu=0.09, sigma=0.2, T=1.0)
MIXED_UTILITY = dict(alpha=0.5, gamma1=0.3, gamma2=-1.0)
HYPERBOLIC = dict(alpha=1.0, beta=2.0)


def _emit(capsys, name, passed, value, tol, extra=""):
    line = CheckResult(name, passed, value, tol).line()
    if extra:
        line += "  " + extra
    with capsys.disabled():
        print(line, flush=True)


@pytest.fixture(scope="module")
def crra_401():
    t0 = time.perf_counter()
    res = solve(MARKET, CRRAUtility(gamma=0.5),
                ExponentialDiscount(rho0=0.1),
                Grid.regular(MARKET.T, -4, 4, 401, 401))
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def crra_201():
    # the smaller reference configuration (same model as crra_401)
    return solve(MARKET, CRRAUtility(gamma=0.5),
                 ExponentialDiscount(rho0=0.1),
                 Grid.regular(MARKET.T, -4, 4, 201, 201))


@pytest.fixture(scope="module")
def mixed_201():
    return solve(MARKET, MixedPowerUtility(**MIXED_UTILITY),
                 HyperbolicDiscount(**HYPERBOLIC),
                 Grid.regular(MARKET.T, -5, 5, 201, 201))


@pytest.fixture(scope="module")
def mixed_401():
    return solve(MARKET, MixedPowerUtility(**MIXED_UTILITY),
                 HyperbolicDiscount(**HYPERBOLIC),
                 Grid.regular(MARKET.T, -5, 5, 401, 401))


# ---------------------------------------------------------------------------
# 1. constant-rate CRRA reduction against the closed-form solution
# ---------------------------------------------------------------------------

def test_constant_rate_crra_reduction(crra_401, capsys):
    res, elapsed = crra_401
    c = check_merton_reduction(res, tol_rho=1e-10, tol_pbar=1e-3,
                               tol_pi=1e-3, tol_c=1e-3)
    ok = c.passed and elapsed < 60.0
    _emit(capsys, "crra_reduction_401", ok, c.value, 1.0,
          "runtime=%.1fs rho_err=%.1e pi_err=%.1e c_err=%.1e"
          % (elapsed, c.details["rho_abs_err"], c.details["pi_rel_err"],
             c.details["c_rel_err"]))
    assert c.passed, c.details
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. fixed-point convergence of the weighted-rate operator
# ---------------------------------------------------------------------------

def test_fixed_point_convergence(mixed_401, capsys):
    d = HyperbolicDiscount(**HYPERBOLIC)
    rho_crra = iterate(MARKET, CRRAUtility(gamma=0.5), d,
                       Grid.regular(MARKET.T, -4, 4, 201, 201))
    ok = True
    worst_res = 0.0
    for rho in (rho_crra, mixed_401.rho):
        worst_res = max(worst_res, rho.residual_sup)
        ok &= rho.residual_sup <= 1e-8
        lo, hi = d.rho_bounds(rho.grid.T)
        pad = 1e-9 * max(1.0, abs(lo), abs(hi))
        ok &= bool(rho.values.min() >= lo - pad
                   and rho.values.max() <= hi + pad)
    # with constant relative risk aversion the converged rate field
    # cannot depend on y
    flat = float(np.max(np.ptp(rho_crra.values, axis=1)))
    ok &= flat < 1e-4
    _emit(capsys, "fixed_point_convergence", ok, worst_res, 1e-8,
          "crra_y_flatness=%.1e iters=%d/%d"
          % (flat, rho_crra.iterations, mixed_401.rho.iterations))
    assert rho_crra.residual_sup <= 1e-8
    assert mixed_401.rho.residual_sup <= 1e-8
    assert flat < 1e-4
    assert ok


# ---------------------------------------------------------------------------
# 3. wealth tracks the marginal-value inverse along simulated paths
# ---------------------------------------------------------------------------

def test_wealth_identity_and_step_scaling(mixed_201, capsys):
    res = mixed_201
    x0 = float(res.pbar(0.0, 0.0))
    medians = []
    for n_steps in (250, 1000, 4000):
        errs, exit_frac = wealth_identity_errors(
            res, x0, n_steps=n_steps, n_paths=10000, seed=7)
        assert exit_frac < 0.01
        medians.append(float(np.median(errs)))
    # the middle level is dt = 1e-3; halving dt twice should shrink the
    # error like sqrt(dt), i.e. by roughly a factor 2 per level
    ratios = (medians[0] / medians[1], medians[1] / medians[2])
    ok = medians[1] < 2e-2 and all(1.3 <= r <= 3.2 for r in ratios)
    _emit(capsys, "wealth_identity", ok, medians[1], 2e-2,
          "medians=%.2e/%.2e/%.2e ratios=%.2f,%.2f"
          % (*medians, *ratios))
    assert medians[1] < 2e-2
    for r in ratios:
        assert 1.3 <= r <= 3.2, (medians, ratios)


# ---------------------------------------------------------------------------
# 4. aggregated value surface vs Monte Carlo reward; marginal value
# ---------------------------------------------------------------------------

def test_value_agrees_with_simulated_reward(mixed_401, capsys):
    res = mixed_401
    x0 = float(res.pbar(0.0, 0.0))
    vs = value_function(res.rho, res.pbar, [0.0], [x0])
    G0 = float(vs.G[0, 0])
    est = estimate_J(res.market, res.utility, res.discount, res.rho.phi,
                     res.strategy, res.pbar, x0, n_steps=1000,
                     n_paths=100000, seed=11)
    diff = abs(G0 - est.value)
    ok_mc = diff <= 3.0 * est.se

    # finite-difference marginal value must match v = e^y on probes
    # well inside the attainable wealth band
    h = 1e-3
    worst_fd = 0.0
    for t in (0.1, 0.4, 0.7):
        x_lo, x_hi = res.pbar.wealth_range(t)
        lx = np.log(x_lo) + np.array([0.3, 0.45, 0.6]) * np.log(x_hi / x_lo)
        xs = np.exp(lx)
        up = value_function(res.rho, res.pbar, [t], list(xs * (1 + h)))
        dn = value_function(res.rho, res.pbar, [t], list(xs * (1 - h)))
        mid = value_function(res.rho, res.pbar, [t], list(xs))
        fd = (up.G[0] - dn.G[0]) / (2 * h * xs)
        worst_fd = max(worst_fd, float(np.max(np.abs(fd / mid.v[0] - 1.0))))
    ok_fd = worst_fd < 5e-3
    _emit(capsys, "value_consistency", ok_mc and ok_fd, diff,
          3.0 * est.se, "G=%.6f mc=%.6f se=%.1e dGdx_err=%.1e"
          % (G0, est.value, est.se, worst_fd))
    assert ok_mc, (G0, est.value, est.se)
    assert ok_fd, worst_fd


# ---------------------------------------------------------------------------
# 5. equilibrium value-equation residual and its grid contraction
# ---------------------------------------------------------------------------

def test_value_equation_residual_contracts(crra_401, mixed_201, mixed_401, capsys):
    c_fine = check_hjb_residual(mixed_401)
    c_coarse = check_hjb_residual(mixed_201)
    c_crra = check_hjb_residual(crra_401[0])
    ratio = c_coarse.value / c_fine.value
    ok = (c_fine.value < 5e-3 and c_crra.value < 5e-3 and ratio >= 3.0)
    _emit(capsys, "value_equation_residual", ok, c_fine.value, 5e-3,
          "coarse=%.2e contraction=%.2f crra=%.2e"
          % (c_coarse.value, ratio, c_crra.value))
    assert c_fine.value < 5e-3
    assert c_crra.value < 5e-3
    assert ratio >= 3.0, (c_coarse.value, c_fine.value)


# ---------------------------------------------------------------------------
# 6. a priori envelopes hold node-by-node with positive margin
# ---------------------------------------------------------------------------

def _strict_margins_before_horizon(res):
    """Smallest envelope margin over all rows t < T.

    The terminal row is excluded because several envelopes degenerate
    to equalities exactly at the horizon (zero-width risky-fraction
    band when the elasticity bounds coincide, and the weighted rate
    touching its range endpoint); there the node-by-node check with
    slack in check_bounds_suite already covers them.
    """
    g = res.grid
    sel = slice(0, g.n_t - 1)
    t = g.t_nodes[sel]
    m = res.market
    u = res.utility
    d = res.discount
    margins = {}
    lo, hi = d.rho_bounds(g.T)
    r = res.rho.values[sel]
    if hi - lo > 1e-12:
        margins["rho_low"] = float(r.min() - lo)
        margins["rho_high"] = float(hi - r.max())
    r3, r4 = pbar_ratio_bounds(m, d, u.r1, t)
    ratio = res.pbar.values[sel] / u.I0(g.y_nodes)[None, :]
    margins["ratio_low"] = float(np.min(ratio - r3[:, None]))
    margins["ratio_high"] = float(np.min(r4[:, None] - ratio))
    c = res.strategy.c[sel]
    margins["c_low"] = float(np.min(c - (1.0 / r4)[:, None]))
    margins["c_high"] = float(np.min((1.0 / r3)[:, None] - c))
    r1_t, r2_t = elasticity_bounds(u, res.rho.kappa, t, g.T)
    base = m.theta / m.sigma
    lo_pi = np.minimum(base / r2_t, base / r1_t)[:, None]
    hi_pi = np.maximum(base / r2_t, base / r1_t)[:, None]
    pi = res.strategy.pi[sel]
    margins["pi_low"] = float(np.min(pi - lo_pi))
    margins["pi_high"] = float(np.min(hi_pi - pi))
    return margins


def test_bounds_suite_both_references(crra_201, mixed_201, capsys):
    ok = True
    worst = np.inf
    for res in (crra_201, mixed_201):
        c = check_bounds_suite(res)
        ok &= c.passed
        margins = _strict_margins_before_horizon(res)
        worst = min(worst, min(margins.values()))
        ok &= all(v > 0 for v in margins.values())
    _emit(capsys, "bounds_suite", ok, worst, 0.0, "(min margin; must be > 0)")
    for res in (crra_201, mixed_201):
        assert check_bounds_suite(res).passed
        margins = _strict_margins_before_horizon(res)
        assert all(v > 0 for v in margins.values()), margins


# ---------------------------------------------------------------------------
# 7. grid operator vs its pathwise stochastic representation
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_operator_matches_pathwise_estimate(mixed_401, capsys):
    probes = [(0.0, -1.0), (0.0, 1.0), (0.2, 0.0), (0.5, -0.5), (0.5, 0.5)]
    c = check_operator_cross_validation(mixed_401, probes=probes,
                                        n_steps=2000, n_paths=200000,
                                        seed=23, k_se=3.0, tol_abs=0.0)
    zmax = max(abs(p["grid"] - p["mc"]) / p["se"]
               for p in c.details["probes"])
    _emit(capsys, "operator_cross_validation", c.passed, zmax, 3.0,
          "max |grid - mc| / se over %d probes" % len(probes))
    assert c.passed, c.details


# ---------------------------------------------------------------------------
# 8. no short-window deviation beats the equilibrium controls
# ---------------------------------------------------------------------------

def test_no_profitable_short_deviation(mixed_201, capsys):
    res = mixed_201
    x0 = float(res.pbar(0.0, 0.0))
    ok = True
    worst = 0.0
    for window in (0.2, 0.1, 0.05):
        c = check_subgame_perturbation(res, x0, window=window,
                                       n_steps=400, n_paths=20000,
                                       seed=31, k_se=3.0)
        ok &= c.passed
        worst = max(worst, c.value)
    _emit(capsys, "subgame_perturbation", ok, worst, 3.0,
          "max deviation-gain z-score over windows 0.2/0.1/0.05")
    assert ok
