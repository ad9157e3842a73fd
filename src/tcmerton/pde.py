"""Backward-in-time solver for linear parabolic PDEs

    u_t + D u_yy + b(t,y) u_y + c(t,y) u + f(t,y) = 0,   u(T, y) = g(y)

on a truncated y-interval, theta-weighted in time (Crank-Nicolson by
default) with an implicit-Euler startup step.

Boundary treatment: the terminal data of every PDE in this pipeline is
asymptotically a single exponential in y on each tail, so the default
boundary row freezes the local log-slope q of the terminal condition and
replaces u_y, u_yy by the matching discrete exponential symbols.  Pure
exponentials are then exact eigenfunctions of the full discrete
operator, which keeps translation invariance (and hence y-flatness of
derived quantities for CRRA utilities) to machine precision.  A
"linearity" mode (u_yy = 0, upwinded one-sided u_y) is kept for data
without exponential tails.
"""

import numpy as np
from scipy.linalg import solve_banded

from .errors import SolverError
from .grids import Grid, ScalarField2D

# the boundary rules BackwardStepper implements (see the module docstring)
BOUNDARIES = ("exp", "linearity")


def terminal_log_slopes(g, dy):
    """Log-slopes of the terminal data at the two boundaries, or None
    where the data has a zero or a sign change in the edge cells."""
    def slope(a, b):
        if a == 0.0 or b == 0.0 or (a > 0) != (b > 0):
            return None
        return np.log(b / a) / dy
    return slope(g[0], g[1]), slope(g[-2], g[-1])


def _coef_rows(fn, grid):
    """Normalize a coefficient argument (None | scalar | callable(t, y) |
    (n_t, n_y) array) into a row accessor."""
    if fn is None:
        zero = np.zeros(grid.n_y)
        return lambda n: zero
    if np.isscalar(fn):
        row = np.full(grid.n_y, float(fn))
        return lambda n: row
    if isinstance(fn, np.ndarray):
        return lambda n: fn[n]
    return lambda n: np.asarray(fn(grid.t_nodes[n], grid.y_nodes), dtype=float)


class BackwardStepper:
    """Shared machinery for stepping one PDE (or a family of PDEs with
    identical coefficients and different terminal times) backward."""

    def __init__(self, grid: Grid, diffusion, drift=None, reaction=None,
                 source=None, boundary="exp", q_lo=None, q_hi=None):
        if diffusion < 0:
            raise SolverError("diffusion must be >= 0")
        if boundary not in BOUNDARIES:
            raise SolverError("unknown boundary %r; expected one of %s"
                              % (boundary, ", ".join(map(repr, BOUNDARIES))))
        self.grid = grid
        self.D = float(diffusion)
        self.b = _coef_rows(drift, grid)
        self.c = _coef_rows(reaction, grid)
        self.f = _coef_rows(source, grid)
        dy = grid.dy
        self._bc = []
        for q in (q_lo, q_hi):
            if boundary == "exp" and q is not None:
                m1 = np.sinh(q * dy) / dy
                m2 = 2.0 * (np.cosh(q * dy) - 1.0) / dy ** 2
            else:
                m1 = m2 = None  # fall back to the linearity condition
            self._bc.append((m1, m2))

    def _rows(self, n):
        """Tridiagonal rows (lower, diag, upper) of the spatial operator
        L at time index n."""
        g = self.grid
        dy = g.dy
        b = self.b(n)
        c = self.c(n)
        lower = np.empty(g.n_y)
        diag = np.empty(g.n_y)
        upper = np.empty(g.n_y)
        lower[1:-1] = self.D / dy ** 2 - b[1:-1] / (2 * dy)
        diag[1:-1] = -2 * self.D / dy ** 2 + c[1:-1]
        upper[1:-1] = self.D / dy ** 2 + b[1:-1] / (2 * dy)
        # left boundary
        m1, m2 = self._bc[0]
        if m1 is not None:
            lower[0] = 0.0
            upper[0] = 0.0
            diag[0] = self.D * m2 + b[0] * m1 + c[0]
        else:
            lower[0] = 0.0
            upper[0] = b[0] / dy
            diag[0] = c[0] - b[0] / dy
        # right boundary
        m1, m2 = self._bc[1]
        if m1 is not None:
            lower[-1] = 0.0
            upper[-1] = 0.0
            diag[-1] = self.D * m2 + b[-1] * m1 + c[-1]
        else:
            upper[-1] = 0.0
            lower[-1] = -b[-1] / dy
            diag[-1] = c[-1] + b[-1] / dy
        return lower, diag, upper

    def apply_L(self, n, U):
        """L^n applied to U along the last axis; U is (..., n_y)."""
        lower, diag, upper = self._rows(n)
        out = diag * U
        out[..., 1:] += lower[1:] * U[..., :-1]
        out[..., :-1] += upper[:-1] * U[..., 1:]
        return out

    def step_to(self, n, U_next, theta):
        """Advance U from time index n+1 to n with the theta-scheme.

        U_next has shape (..., n_y); theta = 1 is implicit Euler,
        theta = 1/2 is Crank-Nicolson.
        """
        dt = self.grid.dt
        rhs = U_next + dt * theta * self.f(n)
        if theta < 1.0:
            rhs = rhs + dt * (1 - theta) * (self.apply_L(n + 1, U_next)
                                            + self.f(n + 1))
        lower, diag, upper = self._rows(n)
        a = dt * theta
        ab = np.zeros((3, self.grid.n_y))
        ab[0, 1:] = -a * upper[:-1]
        ab[1, :] = 1.0 - a * diag
        ab[2, :-1] = -a * lower[1:]
        flat = np.atleast_2d(rhs.reshape(-1, self.grid.n_y))
        try:
            sol = solve_banded((1, 1), ab, flat.T, overwrite_b=True).T
        except Exception as exc:  # singular matrix from extreme coefficients
            raise SolverError("tridiagonal solve failed at time step %d: %s"
                              % (n, exc), time_index=n) from exc
        if not np.all(np.isfinite(sol)):
            raise SolverError("non-finite solution at time step %d" % n,
                              time_index=n)
        return sol.reshape(U_next.shape)


def solve_backward(grid, diffusion, drift=None, reaction=None, source=None,
                   terminal=None, theta=0.5, startup_steps=1, boundary="exp"):
    """Solve the backward PDE on the grid; returns u as a ScalarField2D
    with u(T, .) = terminal."""
    if callable(terminal):
        g = np.asarray(terminal(grid.y_nodes), dtype=float)
    else:
        g = np.asarray(terminal, dtype=float)
    if g.shape != (grid.n_y,):
        raise SolverError("terminal data must have length n_y")
    q_lo, q_hi = terminal_log_slopes(g, grid.dy)
    stepper = BackwardStepper(grid, diffusion, drift, reaction, source,
                              boundary=boundary, q_lo=q_lo, q_hi=q_hi)
    values = np.empty((grid.n_t, grid.n_y))
    values[-1] = g
    u = g
    for n in range(grid.n_t - 2, -1, -1):
        step_theta = 1.0 if (grid.n_t - 2 - n) < startup_steps else theta
        u = stepper.step_to(n, u, step_theta)
        values[n] = u
    return ScalarField2D(grid, values)
