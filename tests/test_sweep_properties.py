"""Invariants of one delta-family sweep under random admissible rate
fields."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tcmerton.errors import IntegrityError
from tcmerton.fixed_point import OperatorWorkspace
from tcmerton.grids import Grid
from tcmerton.model import (CRRAUtility, HyperbolicDiscount, MarketModel,
                            MixedPowerUtility, PseudoExponentialDiscount)

MARKET = MarketModel(r=0.03, mu=0.09, sigma=0.2, T=1.0)
UTILITIES = [CRRAUtility(gamma=0.5),
             MixedPowerUtility(alpha=0.5, gamma1=0.3, gamma2=-1.0)]
DISCOUNTS = [HyperbolicDiscount(alpha=1.0, beta=2.0),
             PseudoExponentialDiscount(weights=(0.3, 0.7),
                                       rates=(0.05, 0.4))]


def edge_flat_field(grid, lo, hi, centre, amp, omega, phase, nu):
    """A rate field in [lo, hi] whose y-variation is confined to the
    inner 60% of the y-range, so it is constant in y on both tails:
    there the deltas are exponential in y, the premise of the exp
    boundary."""
    t = grid.t_nodes[:, None]
    y = grid.y_nodes[None, :]
    half = 0.6 * max(abs(grid.y_nodes[0]), abs(grid.y_nodes[-1]))
    env = np.where(np.abs(y) < half, np.cos(0.5 * np.pi * y / half) ** 2,
                   0.0)
    amp = amp * min(centre, 1.0 - centre)
    shape = centre + amp * env * np.sin(omega * y + phase) * np.cos(nu * t)
    return lo + (hi - lo) * shape


@given(utility=st.sampled_from(UTILITIES),
       discount=st.sampled_from(DISCOUNTS),
       boundary=st.sampled_from(["exp", "linearity"]),
       n_t=st.sampled_from([11, 21, 41]),
       n_y=st.sampled_from([21, 31, 41]),
       centre=st.floats(0.0, 1.0),
       amp=st.floats(0.0, 1.0),
       omega=st.floats(0.0, 3.0),
       phase=st.floats(0.0, 2 * np.pi),
       nu=st.floats(0.0, 3.0))
def test_sweep_keeps_F_in_range_and_aggregates_finite(
        utility, discount, boundary, n_t, n_y, centre, amp, omega, phase,
        nu):
    grid = Grid.regular(MARKET.T, -4.0, 4.0, n_t, n_y)
    lo, hi = discount.rho_bounds(MARKET.T)
    phi = edge_flat_field(grid, lo, hi, centre, amp, omega, phase, nu)
    ws = OperatorWorkspace(MARKET, utility, discount, grid, boundary)
    F, G, hjb_rhs = ws.sweep(phi)
    slack = 1e-9 * max(1.0, abs(lo), abs(hi))
    assert F.min() >= lo - slack and F.max() <= hi + slack
    assert np.all(np.isfinite(G)) and np.all(np.isfinite(hjb_rhs))


@pytest.mark.parametrize("boundary", [
    pytest.param("exp", marks=pytest.mark.xfail(
        strict=True, raises=IntegrityError,
        reason="known defect: a rate field still sloped in y at the "
               "y-edges breaks the exp boundary's premise and delta_y "
               "loses its sign")),
    "linearity",
])
def test_sweep_with_a_field_sloped_at_the_edges(boundary):
    u = CRRAUtility(gamma=0.5)
    d = HyperbolicDiscount(alpha=1.0, beta=2.0)
    grid = Grid.regular(MARKET.T, -4.0, 4.0, 81, 81)
    lo, hi = d.rho_bounds(MARKET.T)
    phi = np.broadcast_to(
        0.5 * (lo + hi) + 0.05 * (hi - lo) * np.sin(grid.y_nodes),
        (grid.n_t, grid.n_y))
    F = OperatorWorkspace(MARKET, u, d, grid, boundary).sweep(phi).F
    assert F.min() >= lo - 1e-9 and F.max() <= hi + 1e-9
