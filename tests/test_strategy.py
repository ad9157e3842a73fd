import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tcmerton.errors import IntegrityError, WealthRangeError
from tcmerton.fixed_point import SolverSettings, iterate
from tcmerton.grids import Grid, ScalarField2D
from tcmerton.model import (CRRAUtility, ExponentialDiscount,
                            HyperbolicDiscount, MarketModel,
                            MixedPowerUtility)
from tcmerton.strategy import (PBarField, compute_pbar, controls_from_pbar,
                               value_function)
from tcmerton.pde import solve_backward
from tcmerton.verify import MertonOracle

MARKET = MarketModel(r=0.03, mu=0.09, sigma=0.2, T=1.0)


@pytest.fixture(scope="module")
def crra_solution():
    u = CRRAUtility(gamma=0.5)
    d = ExponentialDiscount(rho0=0.1)
    g = Grid.regular(MARKET.T, -4, 4, 201, 201)
    rho = iterate(MARKET, u, d, g)
    pbar = compute_pbar(rho, MARKET, u)
    return u, d, g, rho, pbar


def test_pbar_terminal_row_is_inverse_marginal(crra_solution):
    u, d, g, rho, pbar = crra_solution
    assert np.allclose(pbar.values[-1], u.I0(g.y_nodes), rtol=1e-14)


def test_pbar_matches_annuity_closed_form(crra_solution):
    u, d, g, rho, pbar = crra_solution
    oracle = MertonOracle(MARKET, 0.5, 0.1)
    ref = oracle.pbar(g.t_nodes[:, None], g.y_nodes[None, :])
    assert np.max(np.abs(pbar.values - ref) / ref) < 5e-4


def test_pbar_invert_roundtrip(crra_solution):
    _, _, g, _, pbar = crra_solution
    for t in (0.0, 0.37, 1.0):
        y = np.linspace(g.y_nodes[0], g.y_nodes[-1], 57)
        x = pbar(t, y)
        back = pbar.invert(t, x)
        assert np.max(np.abs(back - y)) < 1e-10


@pytest.fixture(scope="module")
def mixed_pbar():
    u = MixedPowerUtility(alpha=0.5, gamma1=0.3, gamma2=-1.0)
    d = HyperbolicDiscount(alpha=1.0, beta=2.0)
    g = Grid.regular(MARKET.T, -5, 5, 41, 41)
    return compute_pbar(iterate(MARKET, u, d, g), MARKET, u)


@given(t=st.floats(0.0, MARKET.T), share=st.floats(0.0, 1.0))
def test_pbar_invert_roundtrips_inside_the_wealth_range(mixed_pbar, t,
                                                        share):
    lo, hi = mixed_pbar.wealth_range(t)
    x = min(max(lo * (hi / lo) ** share, lo), hi)
    y = mixed_pbar.invert(t, x)
    assert abs(mixed_pbar(t, y) - x) <= 1e-12 * x


def test_pbar_invert_out_of_range(crra_solution):
    _, _, g, _, pbar = crra_solution
    lo, hi = pbar.wealth_range(0.0)
    with pytest.raises(WealthRangeError):
        pbar.invert(0.0, hi * 10.0)
    with pytest.raises(WealthRangeError):
        pbar.invert(0.0, lo / 10.0)
    with pytest.raises(WealthRangeError):
        pbar.invert(0.0, -1.0)


def test_pbar_field_integrity_checks():
    g = Grid.regular(1.0, -1.0, 1.0, 5, 7)
    with pytest.raises(IntegrityError):
        PBarField(g, np.zeros((5, 7)))  # not positive
    increasing = np.tile(np.linspace(1.0, 2.0, 7), (5, 1))
    with pytest.raises(IntegrityError):
        PBarField(g, increasing)  # must decrease in y


def test_crra_controls_are_constant_fractions(crra_solution):
    u, d, g, rho, pbar = crra_solution
    strat = controls_from_pbar(pbar, MARKET, u)
    oracle = MertonOracle(MARKET, 0.5, 0.1)
    assert np.max(np.abs(strat.pi - oracle.pi_star)) < 1e-3 * oracle.pi_star
    ref_c = oracle.c_star(g.t_nodes)[:, None]
    assert np.max(np.abs(strat.c - ref_c) / ref_c) < 1e-3


def test_controls_definition_identities(crra_solution):
    u, d, g, rho, pbar = crra_solution
    strat = controls_from_pbar(pbar, MARKET, u)
    # c = I0(y) / pbar by definition
    assert np.allclose(strat.c * pbar.values, u.I0(g.y_nodes)[None, :],
                       rtol=1e-13)
    # pi * sigma * pbar = -theta * pbar_y by definition
    assert np.allclose(strat.pi * MARKET.sigma * pbar.values,
                       -MARKET.theta * pbar.d_dy(), rtol=1e-12)


def test_value_function_matches_closed_form(crra_solution):
    u, d, g, rho, pbar = crra_solution
    oracle = MertonOracle(MARKET, 0.5, 0.1)
    t_probes = [0.0, 0.5]
    x_probes = np.array([0.5, 1.0, 2.0, 4.0])
    vs = value_function(rho, pbar, t_probes, x_probes)
    ref = oracle.V(np.asarray(t_probes)[:, None], x_probes[None, :])
    assert np.max(np.abs(vs.G - ref) / np.abs(ref)) < 1e-3
    ref_v = np.exp(oracle.y_of(np.asarray(t_probes)[:, None],
                               x_probes[None, :]))
    assert np.max(np.abs(vs.v - ref_v) / ref_v) < 1e-3


def test_mixed_power_pbar_sane():
    u = MixedPowerUtility(alpha=0.5, gamma1=0.3, gamma2=-1.0)
    d = HyperbolicDiscount(alpha=1.0, beta=2.0)
    g = Grid.regular(MARKET.T, -5, 5, 101, 101)
    rho = iterate(MARKET, u, d, g)
    pbar = compute_pbar(rho, MARKET, u)
    strat = controls_from_pbar(pbar, MARKET, u)
    assert np.all(pbar.values > 0)
    assert np.all(np.diff(pbar.values, axis=1) < 0)
    assert np.all(strat.c > 0)
    # risky fraction carries the sign of theta and is y-dependent here
    assert np.all(strat.pi > 0)
    assert np.ptp(strat.pi[0]) > 1e-3


def test_pbar_is_solved_under_the_boundary_of_its_rate_field():
    # a linearity-boundary rate field fed to an exp-boundary pbar solve
    # moved pbar by up to 25% on this grid
    u = MixedPowerUtility(alpha=0.5, gamma1=0.3, gamma2=-1.0)
    d = HyperbolicDiscount(alpha=1.0, beta=2.0)
    g = Grid.regular(MARKET.T, -5, 5, 41, 41)
    rho = iterate(MARKET, u, d, g, SolverSettings(boundary="linearity"))
    half_theta2 = 0.5 * MARKET.theta ** 2
    ref = solve_backward(g, half_theta2,
                         drift=half_theta2 + rho.values - MARKET.r,
                         reaction=-MARKET.r, source=lambda t, y: u.I0(y),
                         terminal=u.I0(g.y_nodes), boundary="linearity")
    assert np.array_equal(compute_pbar(rho, MARKET, u).values, ref.values)
