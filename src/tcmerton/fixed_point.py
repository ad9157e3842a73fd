"""Fixed-point construction of the equilibrium discount-rate field.

The operator F maps a candidate rate field phi(t, y) to a utility-
weighted average of the instantaneous discount rates rho_h(t, s),
s in [t, T].  The weights involve the y-derivative of the auxiliary
surfaces delta^phi(t, s, y), each solving a backward PDE in t with
terminal data U0 at s.  The equilibrium field rho_bar is the fixed
point phi = F[phi], found by damped Picard iteration.

The whole family {delta^phi(., s, .) : s on the time grid} shares one
tridiagonal factorization structure per time step, so it is marched in
a single backward sweep with all active terminal times batched as
right-hand-side columns.  Every sweep accumulates three integrals over
s on the fly: F[phi], the aggregated value surface G and its
discounting source term.  The sweep that meets the tolerance is run at
the converged field, so its G and source term travel on the RhoField
and no further sweep is needed.  Memory stays O(n_t * n_y).
"""

import logging
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, IntegrityError, ModelError
from .grids import Grid, ScalarField2D, deriv_y
from .pde import BOUNDARIES, BackwardStepper, terminal_log_slopes

logger = logging.getLogger(__name__)


def _is(value, kind):
    """value is an instance of the numbers ABC kind, and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class SolverSettings:
    """Numerical settings of one solve, checked on construction.

    tol, max_iter and damping drive the Picard iteration (see iterate);
    boundary is the boundary rule of every backward PDE solved on the
    way, the delta-family sweeps and pbar, which must agree.  A bad
    value raises ModelError naming the field and the value.
    """

    tol: float = 1e-8
    max_iter: int = 50
    damping: float = 1.0
    boundary: str = "exp"

    def __post_init__(self):
        if not (_is(self.tol, numbers.Real) and 0 < self.tol < math.inf):
            raise ModelError("tol must be finite and positive, got %r"
                             % (self.tol,))
        if not (_is(self.max_iter, numbers.Integral) and self.max_iter >= 1):
            raise ModelError("max_iter must be an integer >= 1, got %r"
                             % (self.max_iter,))
        if not (_is(self.damping, numbers.Real) and 0 < self.damping <= 1):
            raise ModelError("damping must lie in (0, 1], got %r"
                             % (self.damping,))
        if self.boundary not in BOUNDARIES:
            raise ModelError("boundary must be one of %s, got %r"
                             % (", ".join(map(repr, BOUNDARIES)),
                                self.boundary))


class Sweep(NamedTuple):
    """The three aggregates of one delta-family sweep, each (n_t, n_y)."""

    F: np.ndarray        # F[phi]
    G: np.ndarray        # aggregated value surface
    hjb_rhs: np.ndarray  # h_t-weighted aggregation (value-equation source)


class OperatorWorkspace:
    """Precomputed tables shared by repeated applications of F on one
    (market, utility, discount, grid) quadruple."""

    def __init__(self, market, utility, discount, grid: Grid, boundary="exp"):
        if abs(grid.T - market.T) > 1e-12 * max(1.0, market.T):
            raise ModelError("grid horizon %g does not match market T=%g"
                             % (grid.T, market.T))
        self.market = market
        self.utility = utility
        self.discount = discount
        self.grid = grid
        self.boundary = boundary
        t = grid.t_nodes
        tt, ss = np.meshgrid(t, t, indexing="ij")
        ss = np.maximum(ss, tt)  # only the triangle s >= t is ever used
        self.h_tab = np.asarray(discount.h(tt, ss), dtype=float)
        self.ht_tab = np.asarray(discount.dh_dt(tt, ss), dtype=float)
        self.U0 = np.asarray(utility.U0(grid.y_nodes), dtype=float)
        self.q_lo, self.q_hi = terminal_log_slopes(self.U0, grid.dy)

    def sweep(self, phi_values):
        """One backward sweep of the delta family under the rate field
        phi_values (n_t, n_y).

        Returns a Sweep of three (n_t, n_y) arrays: F[phi], the
        aggregated value surface G (the h-weighted integral of the
        deltas) and hjb_rhs (the same integral with h_t weights, the
        source term of the equilibrium value equation).
        """
        g = self.grid
        market = self.market
        n_t, n_y = g.n_t, g.n_y
        dt, dy = g.dt, g.dy
        phi_values = np.asarray(phi_values, dtype=float)
        if phi_values.shape != (n_t, n_y):
            raise ModelError("phi must have shape (n_t, n_y)")
        half_theta2 = 0.5 * market.theta ** 2
        drift = phi_values - market.r - half_theta2
        stepper = BackwardStepper(g, half_theta2, drift,
                                  boundary=self.boundary,
                                  q_lo=self.q_lo, q_hi=self.q_hi)
        F_num, F_den, G, rhs = (np.empty((n_t, n_y)) for _ in range(4))

        def reduce(n, M):
            m = M.shape[0]
            hv = self.h_tab[n, n:]
            htv = self.ht_tab[n, n:]
            if m == 1:
                w = np.zeros(1)
            else:
                w = np.full(m, dt)
                w[0] *= 0.5
                w[-1] *= 0.5
            My = deriv_y(M, dy)
            if np.any(My >= 0):
                raise IntegrityError(
                    "delta_y lost its sign at time index %d; the grid is "
                    "too coarse or the y-range too wide" % n)
            F_num[n] = (w * htv) @ My + htv[-1] * My[-1]
            F_den[n] = (w * hv) @ My + hv[-1] * My[-1]
            G[n] = (w * hv) @ M + hv[-1] * M[-1]
            rhs[n] = (w * htv) @ M + htv[-1] * M[-1]

        M = self.U0[None, :].copy()
        reduce(n_t - 1, M)
        for n in range(n_t - 2, -1, -1):
            new = np.empty((M.shape[0] + 1, n_y))
            new[0] = self.U0
            # the column created one step ago takes its implicit-Euler
            # startup step; established columns run Crank-Nicolson
            new[1] = stepper.step_to(n, M[0], 1.0)
            if M.shape[0] > 1:
                new[2:] = stepper.step_to(n, M[1:], 0.5)
            M = new
            reduce(n, M)

        if np.any(F_den >= 0):
            raise IntegrityError("F denominator must be negative")
        F = F_num / F_den
        lo, hi = self.discount.rho_bounds(g.T)
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        if F.min() < lo - slack or F.max() > hi + slack:
            raise IntegrityError(
                "F[phi] range [%g, %g] leaves the discount-rate range "
                "[%g, %g]" % (F.min(), F.max(), lo, hi))
        return Sweep(F, G, rhs)


@dataclass
class RhoField:
    """Converged equilibrium discount-rate field with iteration metadata
    and the aggregates of the sweep run at it."""

    phi: ScalarField2D
    residual_sup: float
    iterations: int
    residual_history: list
    kappa: float
    G: np.ndarray        # aggregated value surface at phi
    hjb_rhs: np.ndarray  # its value-equation source term
    settings: SolverSettings  # the settings phi was solved under

    @property
    def grid(self):
        return self.phi.grid

    @property
    def values(self):
        return self.phi.values

    def __call__(self, t, y):
        return self.phi(t, y)


def iterate(market, utility, discount, grid, settings=SolverSettings()):
    """Damped Picard iteration phi <- (1-d) phi + d F[phi] from phi = 0,
    with d = settings.damping and the sweeps under settings.boundary.

    Stops when sup|F[phi] - phi| + sup|d/dy (F[phi] - phi)| <= tol.  The
    damping factor is halved (down to 1/8) whenever the residual fails
    to decrease.  Raises ConvergenceError with the residual history on
    exhaustion of max_iter.

    kappa, the Lipschitz budget for the y-slope of rho_bar, is
    max(sup|rho_h|, 2 C0) with C0 = 2 sup|d/dy F[0]|, the slope scale
    of the first sweep inflated by a factor 2.  Overestimating kappa
    only widens the bound envelopes that are checked downstream, so the
    inflation is safe.
    """
    tol, max_iter, damping = settings.tol, settings.max_iter, settings.damping
    ws = OperatorWorkspace(market, utility, discount, grid, settings.boundary)
    rho_norm = discount.rho_norm(grid.T)
    phi = np.zeros((grid.n_t, grid.n_y))
    history = []
    kappa = None
    for it in range(1, max_iter + 2):
        F, G, hjb_rhs = ws.sweep(phi)
        if kappa is None:
            C0_est = 2.0 * float(np.max(np.abs(deriv_y(F, grid.dy))))
            kappa = max(rho_norm, 2.0 * C0_est)
        diff = F - phi
        res = float(np.max(np.abs(diff))
                    + np.max(np.abs(deriv_y(diff, grid.dy))))
        history.append(res)
        logger.info("fixed-point iteration %d: residual %.3e (damping %g)",
                    it - 1, res, damping)
        if res <= tol:
            rho = RhoField(ScalarField2D(grid, phi), res, it - 1,
                           history, kappa, G, hjb_rhs, settings)
            slope = float(np.max(np.abs(deriv_y(phi, grid.dy))))
            if slope > kappa:
                warnings.warn(
                    "equilibrium rate slope %.3g exceeds the budget "
                    "kappa=%.3g; bound envelopes may be unreliable"
                    % (slope, kappa))
            if float(np.max(np.abs(phi))) > rho_norm * (1 + 1e-9) + 1e-12:
                raise IntegrityError(
                    "equilibrium rate exceeds sup|rho_h|=%g" % rho_norm)
            return rho
        if len(history) > 1 and res >= history[-2]:
            damping = max(damping / 2.0, 0.125)
            logger.info("residual did not decrease; damping lowered to %g",
                        damping)
        phi = (1.0 - damping) * phi + damping * F
    raise ConvergenceError(
        "fixed-point iteration did not reach tol=%g in %d iterations "
        "(last residual %.3e)" % (tol, max_iter, history[-1]),
        history=history)
