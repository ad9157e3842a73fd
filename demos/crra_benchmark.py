"""Constant-rate CRRA benchmark.

With exponential discounting and power utility the equilibrium
collapses to the classical constant-fraction solution: a constant
risky share pi = theta / (sigma (1 - gamma)) and a consumption
fraction c(t) = 1 / A(t) given by the annuity factor.  This script
solves the general pipeline on that model and prints the comparison.

Run:  python3 demos/crra_benchmark.py
"""

import numpy as np

from tcmerton import (CRRAUtility, ExponentialDiscount, Grid, MarketModel,
                      MertonOracle, solve)

market = MarketModel(r=0.03, mu=0.09, sigma=0.2, T=1.0)
utility = CRRAUtility(gamma=0.5)
discount = ExponentialDiscount(rho0=0.1)
grid = Grid.regular(market.T, -4.0, 4.0, 201, 201)

print("solving on a %d x %d grid ..." % (grid.n_t, grid.n_y))
res = solve(market, utility, discount, grid)
print("fixed point: %d iteration(s), residual %.2e"
      % (res.rho.iterations, res.rho.residual_sup))

oracle = MertonOracle(market, utility.gamma, discount.rho0)
oracle.self_check()  # RK4 check of the annuity closed form

# the weighted rate must be identically rho0
rho_err = np.max(np.abs(res.rho.values - discount.rho0))
print("sup |rho_bar - rho0| = %.2e" % rho_err)

# constant risky share
pi_err = np.max(np.abs(res.strategy.pi - oracle.pi_star))
print("pi* = %.4f (closed form %.4f), sup err %.2e"
      % (res.strategy.pi.mean(), oracle.pi_star, pi_err))

# consumption fraction against the annuity factor
print("\n   t      c*(t) grid    1/A(t) exact    rel err")
for t in np.linspace(0.0, market.T, 6):
    i = int(round(t / grid.dt))
    c_grid = res.strategy.c[i].mean()
    c_ref = oracle.c_star(t)
    print("  %.2f   %10.6f   %12.6f   %9.2e"
          % (t, c_grid, c_ref, abs(c_grid - c_ref) / c_ref))

# value function at a few wealth levels
print("\n   x      G(0, x) grid     V(0, x) exact")
from tcmerton import value_function
xs = [0.5, 1.0, 2.0, 4.0]
vs = value_function(res.rho, res.pbar, [0.0], xs)
for x, g_val in zip(xs, vs.G[0]):
    print("  %.1f   %12.6f   %14.6f" % (x, g_val, oracle.V(0.0, x)))
