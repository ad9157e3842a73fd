import json
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from tcmerton.errors import ModelError
from tcmerton.grids import Grid
from tcmerton.model import (CRRAUtility, ExponentialDiscount,
                            HyperbolicDiscount, MarketModel,
                            MixedPowerUtility)
from tcmerton.pipeline import solve
from tcmerton.verify import (EXIT_FRACTION_LIMIT, GAUSS_TAIL_C,
                             CheckResult, MertonOracle,
                             VerificationReport, check_bounds_suite,
                             check_first_order_conditions,
                             check_hjb_residual, check_merton_reduction,
                             check_subgame_perturbation,
                             check_value_consistency,
                             check_wealth_identity, full_report,
                             gaussian_tail_ratio, pbar_ratio_bounds)

MARKET = MarketModel(r=0.03, mu=0.09, sigma=0.2, T=1.0)


@pytest.fixture(scope="module")
def crra_result():
    return solve(MARKET, CRRAUtility(gamma=0.5),
                 ExponentialDiscount(rho0=0.1),
                 Grid.regular(MARKET.T, -4, 4, 101, 101))


@pytest.fixture(scope="module")
def mixed_result():
    return solve(MARKET, MixedPowerUtility(alpha=0.5, gamma1=0.3,
                                           gamma2=-1.0),
                 HyperbolicDiscount(alpha=1.0, beta=2.0),
                 Grid.regular(MARKET.T, -5, 5, 101, 101))


# ---------------------------------------------------------------------------
# closed-form oracle
# ---------------------------------------------------------------------------

def test_oracle_self_check():
    assert MertonOracle(MARKET, 0.5, 0.1).self_check() < 1e-10


def test_oracle_annuity_terminal_value():
    orc = MertonOracle(MARKET, 0.5, 0.1)
    assert orc.A(MARKET.T) == pytest.approx(1.0)
    assert orc.c_star(MARKET.T) == pytest.approx(1.0)


def test_oracle_degenerate_nu():
    # choose rho0 so that nu = 0; then A(t) = 1 + (T - t)
    g = 0.5
    rho0 = g * MARKET.r + g * MARKET.theta ** 2 / (2 * (1 - g))
    orc = MertonOracle(MARKET, g, rho0)
    assert abs(orc.nu) < 1e-12
    assert orc.A(0.0) == pytest.approx(2.0)
    assert orc.self_check() < 1e-10


def test_oracle_pbar_invertibility():
    orc = MertonOracle(MARKET, 0.5, 0.1)
    x = np.array([0.3, 1.0, 5.0])
    y = orc.y_of(0.2, x)
    assert np.allclose(orc.pbar(0.2, y), x, rtol=1e-13)


def test_oracle_marginal_value_consistency():
    # V_x computed by finite differences equals e^{y(t, x)}
    orc = MertonOracle(MARKET, 0.5, 0.1)
    x = np.array([0.5, 1.0, 2.0])
    eps = 1e-6
    fd = (orc.V(0.3, x + eps) - orc.V(0.3, x - eps)) / (2 * eps)
    assert np.allclose(fd, np.exp(orc.y_of(0.3, x)), rtol=1e-8)


# ---------------------------------------------------------------------------
# envelopes and constants
# ---------------------------------------------------------------------------

def test_gaussian_tail_constant():
    # the ratio N(-x) e^{4x^2} has minimum about 0.4788 near
    # x = 0.12; the certified constant 0.45 must stay below it, while
    # the naive constant 3/4 already fails at x = 0
    x = np.linspace(0.0, 10.0, 20001)
    ratio = gaussian_tail_ratio(x)
    assert ratio.min() == pytest.approx(0.4788, abs=2e-3)
    assert ratio.min() > GAUSS_TAIL_C
    assert gaussian_tail_ratio(0.0) == pytest.approx(0.5)
    assert gaussian_tail_ratio(0.0) < 0.75


def test_pbar_ratio_bounds_terminal_values():
    d = HyperbolicDiscount(alpha=1.0, beta=2.0)
    r3, r4 = pbar_ratio_bounds(MARKET, d, 0.7, MARKET.T)
    # at the horizon the envelope collapses to the prefactors bracketing
    # the terminal ratio 1
    assert r3 == pytest.approx(0.9)
    assert r4 == pytest.approx(2.0)
    r3_0, r4_0 = pbar_ratio_bounds(MARKET, d, 0.7, 0.0)
    assert r3_0 < r3 and r4_0 > r4  # envelope widens away from T


def test_pbar_ratio_bounds_against_quadrature():
    # independent evaluation of the exponential-tilt integrals
    d = HyperbolicDiscount(alpha=1.0, beta=2.0)
    beta = 1.0 / 0.7
    norm = d.rho_norm(MARKET.T)
    base = beta * (0.5 * MARKET.theta ** 2 + MARKET.r + norm)
    a = MARKET.r + base + 3.5 * beta ** 2 * MARKET.theta ** 2
    gg = base + 0.5 * beta ** 2 * MARKET.theta ** 2 - MARKET.r
    for t in (0.0, 0.4, 0.9):
        u = MARKET.T - t
        ref3 = 0.9 * (quad(lambda s: np.exp(-a * s), 0, u)[0]
                      + np.exp(-a * u))
        ref4 = 2.0 * (quad(lambda s: np.exp(gg * s), 0, u)[0]
                      + np.exp(gg * u))
        r3, r4 = pbar_ratio_bounds(MARKET, d, 0.7, t)
        assert r3 == pytest.approx(ref3, rel=1e-10)
        assert r4 == pytest.approx(ref4, rel=1e-10)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def test_merton_reduction_passes(crra_result):
    c = check_merton_reduction(crra_result)
    assert c.passed
    assert c.details["rho_abs_err"] < 1e-10


def test_merton_reduction_requires_crra(mixed_result):
    with pytest.raises(ModelError):
        check_merton_reduction(mixed_result)


def test_first_order_conditions(crra_result, mixed_result):
    for res in (crra_result, mixed_result):
        c = check_first_order_conditions(res)
        assert c.passed
        assert c.value < 1e-8


def test_hjb_residual(crra_result, mixed_result):
    assert check_hjb_residual(crra_result).value < 1e-4
    c = check_hjb_residual(mixed_result)
    assert c.passed


def test_bounds_suite(crra_result, mixed_result):
    for res in (crra_result, mixed_result):
        c = check_bounds_suite(res)
        assert c.passed, c.details
        assert c.passed == (c.value <= c.tolerance)


def test_bounds_suite_metric_reports_the_excess(crra_result):
    # push one consumption fraction 10% above its upper envelope
    r3, _ = pbar_ratio_bounds(MARKET, crra_result.discount,
                              crra_result.utility.r1, MARKET.T * 0.5)
    c = crra_result.strategy.c.copy()
    n = crra_result.grid.n_t // 2
    c[n, 0] = 1.1 / r3
    broken = SimpleNamespace(**vars(crra_result))
    broken.strategy = SimpleNamespace(c=c, pi=crra_result.strategy.pi)
    chk = check_bounds_suite(broken)
    assert not chk.passed
    assert not chk.details["consumption_fraction"]["passed"]
    assert chk.passed == (chk.value <= chk.tolerance)
    # 10% over a bound whose allowance is slack = 1e-9 of it
    assert chk.value == pytest.approx((0.1 - 1e-9) / 1e-9, rel=1e-6)


def test_wealth_identity(crra_result):
    c = check_wealth_identity(crra_result, x0=1.0, n_steps=200,
                              n_paths=500, seed=3)
    assert c.passed
    assert c.details["exit_fraction"] < 0.01


def test_value_consistency(crra_result):
    c = check_value_consistency(crra_result, x0=1.0, n_steps=200,
                                n_paths=4000, seed=5)
    assert c.passed
    # compare against the closed form as well
    orc = MertonOracle(MARKET, 0.5, 0.1)
    assert c.details["grid_value"] == pytest.approx(orc.V(0.0, 1.0),
                                                    rel=2e-3)


def test_subgame_perturbation(crra_result):
    c = check_subgame_perturbation(crra_result, x0=1.0, n_steps=200,
                                   n_paths=4000, seed=7)
    assert c.passed
    # deviations must actually lose utility, not just break even
    gains = [case["gain_of_deviation"] for case in c.details["cases"]]
    assert max(gains) <= 0.0


def test_full_report_serializes(crra_result):
    rep = full_report(crra_result, x0=1.0, n_steps=100, n_paths=2000,
                      seed=11)
    assert rep.passed
    blob = json.dumps(rep.to_dict())
    parsed = json.loads(blob)
    assert parsed["passed"] is True
    assert len(parsed["checks"]) == 8
    lines = rep.summary_lines()
    assert lines[-1].startswith("overall: PASS")
    assert all(l.startswith(("PASS", "FAIL", "overall")) for l in lines)


def test_check_result_line_format():
    c = CheckResult("demo", False, 1.0, 0.5)
    assert c.line().startswith("FAIL demo")
    rep = VerificationReport([c])
    assert not rep.passed


def test_pass_with_paths_off_the_grid_prints_warn():
    ok = CheckResult("ok", True, 0.0, 1.0)
    exits = CheckResult("mc", True, 0.0, 1.0,
                        {"exit_fraction": EXIT_FRACTION_LIMIT * 2})
    fails = CheckResult("bad", False, 2.0, 1.0, {"exit_fraction": 0.5})
    assert ok.line().startswith("PASS ok")
    assert exits.line().startswith("WARN mc")
    assert fails.line().startswith("FAIL bad")
    assert VerificationReport([ok, exits]).passed
    assert VerificationReport([ok, exits]).summary_lines()[-1] == \
        "overall: WARN (2/2 checks passed)"
    assert VerificationReport([exits, fails]).summary_lines()[-1] == \
        "overall: FAIL (1/2 checks passed)"
