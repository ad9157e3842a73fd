"""End-to-end solve: equilibrium rate field, pbar, controls and the
aggregated value surfaces, bundled for reuse by the verification suite
and the command-line front end."""

from dataclasses import dataclass

import numpy as np

from .fixed_point import RhoField, iterate
from .grids import Grid
from .strategy import PBarField, StrategySurface, compute_pbar, \
    controls_from_pbar


@dataclass
class SolveResult:
    market: object
    utility: object
    discount: object
    grid: Grid
    rho: RhoField
    pbar: PBarField
    strategy: StrategySurface
    G: np.ndarray        # aggregated value surface on the (t, y) grid
    hjb_rhs: np.ndarray  # h_t-weighted aggregation (value-equation source)
    kappa: float


def solve(market, utility, discount, grid, tol=1e-8, max_iter=50,
          damping=1.0, boundary="exp"):
    """Run the full pipeline on one model quadruple."""
    utility.validate()
    discount.validate(market.T)
    rho = iterate(market, utility, discount, grid, tol=tol,
                  max_iter=max_iter, damping=damping, boundary=boundary)
    pbar = compute_pbar(rho, market, utility, boundary=boundary)
    strat = controls_from_pbar(pbar, market, utility)
    return SolveResult(market, utility, discount, grid, rho, pbar, strat,
                       rho.G, rho.hjb_rhs, rho.kappa)
