"""End-to-end solve: equilibrium rate field, pbar and controls, bundled
for reuse by the verification suite and the command-line front end."""

from dataclasses import dataclass

from .fixed_point import RhoField, SolverSettings, iterate
from .grids import Grid
from .strategy import PBarField, StrategySurface, compute_pbar, \
    controls_from_pbar


@dataclass
class SolveResult:
    """One solved model; the aggregated value surface G, its source
    term hjb_rhs and the slope budget kappa live on rho."""

    market: object
    utility: object
    discount: object
    grid: Grid
    rho: RhoField
    pbar: PBarField
    strategy: StrategySurface


def solve(market, utility, discount, grid, settings=SolverSettings()):
    """Run the full pipeline on one model quadruple."""
    utility.validate()
    discount.validate(market.T)
    rho = iterate(market, utility, discount, grid, settings)
    pbar = compute_pbar(rho, market, utility)
    strat = controls_from_pbar(pbar, market, utility)
    return SolveResult(market, utility, discount, grid, rho, pbar, strat)
