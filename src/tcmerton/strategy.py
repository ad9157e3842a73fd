"""Equilibrium controls and value surfaces derived from the converged
discount-rate field.

The central object is pbar(t, y), the wealth level supporting log
marginal value y at time t.  It solves a linear backward PDE with
source I0(y) and is strictly positive and strictly decreasing in y;
both properties are enforced on construction.  The feedback controls
are

    pi*(t, y) = -theta pbar_y / (sigma pbar)   (risky fraction)
    c*(t, y)  = I0(y) / pbar                   (consumption per wealth)

and wealth-space quantities are obtained by inverting pbar in y, which
is done in closed form on the log-linear interpolant.
"""

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import IntegrityError, ModelError, WealthRangeError
from .grids import Grid, ScalarField2D, _locate, bilinear, deriv_y
from .pde import solve_backward


@dataclass
class PBarField:
    """Wealth as a function of (t, y = log marginal value)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_t, self.grid.n_y):
            raise IntegrityError("pbar shape does not match grid")
        if not np.all(np.isfinite(v)):
            raise IntegrityError("pbar contains non-finite values")
        bad = np.argwhere(v <= 0)
        if len(bad):
            n, j = bad[0]
            raise IntegrityError(
                "pbar must be positive; first violation at t-index %d, "
                "y-index %d (t=%g, y=%g)" % (n, j, self.grid.t_nodes[n],
                                             self.grid.y_nodes[j]))
        bad = np.argwhere(np.diff(v, axis=1) >= 0)
        if len(bad):
            n, j = bad[0]
            raise IntegrityError(
                "pbar must be strictly decreasing in y; first violation "
                "at t-index %d between y-indices %d and %d" % (n, j, j + 1))
        self.values = v
        self._logp = np.log(v)

    def __call__(self, t, y):
        """Log-linear interpolation (linear in t and y on log pbar)."""
        return np.exp(bilinear(self.grid, self._logp, t, y))

    def d_dy(self):
        return deriv_y(self.values, self.grid.dy)

    def wealth_range(self, t):
        """Wealth interval representable at time t (pbar decreasing)."""
        row = self._row(float(t))
        return float(np.exp(row[-1])), float(np.exp(row[0]))

    def _row(self, t):
        i, wt = _locate(self.grid.t_nodes, float(t))
        return (1.0 - wt) * self._logp[i] + wt * self._logp[i + 1]

    def invert(self, t, x):
        """y such that pbar(t, y) = x, exact on the interpolant.

        Raises WealthRangeError when x is outside the wealth interval
        covered by the grid at time t.
        """
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x)
        if np.any(xv <= 0):
            raise WealthRangeError("wealth must be positive")
        row = self._row(float(t))  # strictly decreasing in y
        lx = np.log(xv)
        if np.any(lx > row[0]) or np.any(lx < row[-1]):
            raise WealthRangeError(
                "wealth %g outside covered range [%g, %g] at t=%g; "
                "widen the y-grid"
                % (float(xv[np.argmax((lx > row[0]) | (lx < row[-1]))]),
                   np.exp(row[-1]), np.exp(row[0]), t))
        j = np.clip(np.searchsorted(-row, -lx, side="right") - 1,
                    0, self.grid.n_y - 2)
        y0 = self.grid.y_nodes[j]
        y = y0 + self.grid.dy * (lx - row[j]) / (row[j + 1] - row[j])
        return float(y[0]) if scalar else y


def compute_pbar(rho, market, utility):
    """Solve the backward PDE for pbar under the rate field of the
    RhoField rho, with the boundary rule rho was solved under."""
    phi = rho.values
    grid = rho.grid
    half_theta2 = 0.5 * market.theta ** 2
    drift = half_theta2 + phi - market.r
    u = solve_backward(grid, half_theta2, drift=drift, reaction=-market.r,
                       source=lambda t, y: utility.I0(y),
                       terminal=utility.I0(grid.y_nodes),
                       boundary=rho.settings.boundary)
    return PBarField(grid, u.values)


@dataclass
class StrategySurface:
    """Feedback controls on the (t, y) grid."""

    grid: Grid
    pi: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        for name, a in (("pi", self.pi), ("c", self.c)):
            if a.shape != (self.grid.n_t, self.grid.n_y):
                raise IntegrityError("%s shape does not match grid" % name)
            if not np.all(np.isfinite(a)):
                raise IntegrityError("%s contains non-finite values" % name)
        if np.any(self.c <= 0):
            raise IntegrityError("consumption fraction must be positive")

    def pi_at(self, t, y):
        return bilinear(self.grid, self.pi, t, y)

    def c_at(self, t, y):
        return bilinear(self.grid, self.c, t, y)

    def controls(self, t, y):
        """(pi, c) at (t, y), the callable the Monte Carlo engine takes."""
        return self.pi_at(t, y), self.c_at(t, y)


def controls_from_pbar(pbar: PBarField, market, utility) -> StrategySurface:
    theta, sigma = market.theta, market.sigma
    py = pbar.d_dy()
    pi = -theta * py / (sigma * pbar.values)
    c = utility.I0(pbar.grid.y_nodes)[None, :] / pbar.values
    if theta != 0 and not np.all(np.sign(pi) == np.sign(theta / sigma)):
        raise IntegrityError("risky fraction must carry the sign of "
                             "theta / sigma")
    return StrategySurface(pbar.grid, pi, c)


@dataclass
class ValueSurface:
    """Equilibrium value and marginal value at wealth probes."""

    t: np.ndarray
    x: np.ndarray
    G: np.ndarray  # (len(t), len(x))
    v: np.ndarray  # marginal value G_x = exp(y(t, x))


def value_function(rho, pbar, t_probes, x_probes):
    """Evaluate the equilibrium value G and marginal value v = e^y at
    the tensor product of t_probes and x_probes, from the value surface
    rho.G aggregated by the sweep at the converged field.
    """
    grid = rho.grid
    t_probes = np.atleast_1d(np.asarray(t_probes, dtype=float))
    x_probes = np.atleast_1d(np.asarray(x_probes, dtype=float))
    if np.any(t_probes < 0) or np.any(t_probes > grid.T):
        raise ModelError("t probes must lie in [0, T]")
    G = np.empty((len(t_probes), len(x_probes)))
    v = np.empty_like(G)
    for i, t in enumerate(t_probes):
        k, wt = _locate(grid.t_nodes, float(t))
        row = (1.0 - wt) * rho.G[k] + wt * rho.G[k + 1]
        spline = CubicSpline(grid.y_nodes, row)
        y = pbar.invert(t, x_probes)
        G[i] = spline(y)
        v[i] = np.exp(y)
    return ValueSurface(t_probes, x_probes, G, v)
