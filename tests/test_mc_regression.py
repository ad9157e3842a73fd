"""Regression pins for the Monte Carlo estimators.

``data/mc_regression.json`` holds the outputs of every estimator on two
small solved models, recorded from the per-estimator Euler loops that
preceded the shared stepping engine in ``tcmerton.montecarlo``.
``estimate_J`` and ``simulate_wealth`` must reproduce them bit for bit;
the estimators whose Y update changed its floating-point grouping
(``estimate_F_mc``, ``estimate_pbar_mc``, ``simulate_Y``) and the
wealth identity must agree to 1e-12 relative or 1e-15 absolute.

``measure`` computes every pinned quantity from the public API only,
so the same function records the data file and checks it.
"""

import json
import os

import numpy as np
import pytest

from tcmerton.grids import Grid
from tcmerton.model import (CRRAUtility, ExponentialDiscount,
                            HyperbolicDiscount, MarketModel,
                            MixedPowerUtility)
from tcmerton.montecarlo import (estimate_F_mc, estimate_J,
                                 estimate_pbar_mc, simulate_Y,
                                 simulate_wealth)
from tcmerton.pipeline import solve
from tcmerton.verify import wealth_identity_errors

MARKET = MarketModel(r=0.03, mu=0.09, sigma=0.2, T=1.0)
DATA = os.path.join(os.path.dirname(__file__), "data", "mc_regression.json")

CASES = {
    # the crra_solution model of test_montecarlo.py
    "crra": (CRRAUtility(gamma=0.5), ExponentialDiscount(rho0=0.1),
             Grid.regular(MARKET.T, -4, 4, 101, 101)),
    "mixed_hyperbolic": (MixedPowerUtility(alpha=0.5, gamma1=0.3,
                                           gamma2=-1.0),
                         HyperbolicDiscount(alpha=1.0, beta=2.0),
                         Grid.regular(MARKET.T, -5, 5, 41, 41)),
}

BIT_EXACT = ("J_per_path", "J_value", "J_se", "J_two_block_slice",
             "J_plain_per_path", "wealth_times", "wealth_Y", "wealth_X")


def measure(case):
    u, d, g = CASES[case]
    res = solve(MARKET, u, d, g)
    phi = res.rho.phi
    out = {}
    est, acc = estimate_J(MARKET, u, d, phi, res.strategy, res.pbar, 1.0,
                          n_steps=40, n_paths=16, seed=5,
                          return_per_path=True)
    out.update(J_per_path=acc, J_value=est.value, J_se=est.se)
    # two generator blocks: the slice straddles the block boundary
    _, acc = estimate_J(MARKET, u, d, phi, res.strategy, res.pbar, 1.0,
                        n_steps=10, n_paths=4100, seed=6,
                        return_per_path=True)
    out["J_two_block_slice"] = acc[4090:4100]
    _, acc = estimate_J(MARKET, u, d, phi, res.strategy, res.pbar, 1.0,
                        n_steps=40, n_paths=15, seed=8, antithetic=False,
                        return_per_path=True)
    out["J_plain_per_path"] = acc
    ens = simulate_wealth(MARKET, phi, res.strategy, res.pbar, 1.0,
                          n_steps=40, n_paths=16, seed=5, record_stride=8)
    out.update(wealth_times=ens.times, wealth_Y=ens.Y, wealth_X=ens.X)
    ens = simulate_Y(MARKET, phi, 0.2, n_steps=40, n_paths=16, seed=5,
                     record_stride=8)
    out["Y_paths"] = ens.Y
    est = estimate_F_mc(MARKET, u, d, phi, 0.1, 0.3, n_steps=40,
                        n_paths=256, seed=7)
    out.update(F_value=est.value, F_se=est.se)
    est = estimate_pbar_mc(MARKET, u, phi, 0.1, 0.3, n_steps=40,
                           n_paths=256, seed=8)
    out.update(pbar_value=est.value, pbar_se=est.se)
    errors, exit_fraction = wealth_identity_errors(res, 1.0, n_steps=40,
                                                   n_paths=64, seed=9)
    out.update(wealth_identity_errors=errors,
               wealth_identity_exit_fraction=exit_fraction)
    return {k: np.asarray(v, dtype=float).tolist() for k, v in out.items()}


@pytest.fixture(scope="module")
def pinned():
    with open(DATA) as f:
        return json.load(f)


@pytest.mark.parametrize("case", sorted(CASES))
def test_estimators_match_recorded_values(case, pinned):
    got = measure(case)
    want = pinned[case]
    assert sorted(got) == sorted(want)
    for key in BIT_EXACT:
        assert np.array_equal(got[key], want[key]), key
    for key in sorted(set(got) - set(BIT_EXACT)):
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12,
                                   atol=1e-15, err_msg=key)
