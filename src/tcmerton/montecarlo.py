"""Monte Carlo companions to the PDE pipeline.

All simulations share one driving process: the log marginal value
Y satisfies

    dY_s = (phi(s, Y_s) - r - theta^2/2) ds - theta dW_s

which for phi = rho_bar is the equilibrium state process, and the
equilibrium wealth path is recovered from the identity X_s =
pbar(s, Y_s).

One engine, ``stream_paths``, takes every Euler step: of Y, and of
log wealth under feedback controls when an initial wealth is given.
It hands the state at each grid time to an accumulator, and every
estimator here (and the wealth identity in ``verify``) is such an
accumulator plus its post-processing.  The engine streams: it holds
only the current state, never full paths.  Brownian increments come in
fixed-size blocks from a counter-keyed generator, so two simulations
with the same seed, path count and step count consume identical
increments (common random numbers) without any storage.  Antithetic
pairing interleaves each draw with its negation; pairs are averaged
before a standard error is formed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .grids import deriv_y, bilinear

_BLOCK = 4096  # paths per generator block; even, so antithetic pairs
               # never straddle a block boundary


def _blocks(n_paths, n_steps, seed, antithetic):
    """Yield (path slice, standard-normal increments) block by block.

    The increments are drawn path by path and handed over step by step,
    as an (n_steps, paths) array whose row k drives step k.
    """
    start = 0
    b = 0
    while start < n_paths:
        m = min(_BLOCK, n_paths - start)
        rng = np.random.default_rng([int(seed), b])
        if antithetic:
            z = rng.standard_normal((m // 2, n_steps))
            dw = np.empty((n_steps, m))
            dw[:, 0::2] = z.T
            dw[:, 1::2] = -z.T
        else:
            dw = rng.standard_normal((m, n_steps)).T
        yield slice(start, start + m), dw
        b += 1
        start += m


def _step(market, t0, n_steps):
    """Euler step size on [t0, T], after checking t0 and n_steps."""
    if not 0 <= t0 < market.T:
        raise ModelError("t0 must lie in [0, T)")
    if int(n_steps) < 1:
        raise ModelError("need at least one time step")
    return (market.T - t0) / int(n_steps)


def _paired(per_path, antithetic):
    """Per-path samples, with antithetic pairs averaged into one."""
    a = np.asarray(per_path, dtype=float)
    return 0.5 * (a[0::2] + a[1::2]) if antithetic else a


def mean_se(per_path, antithetic):
    """Mean and standard error; antithetic pairs are averaged first."""
    a = _paired(per_path, antithetic)
    return float(a.mean()), float(a.std(ddof=1) / np.sqrt(len(a)))


def stream_paths(market, phi, t0, n_steps, n_paths, seed, antithetic, y0,
                 accumulate, x0=None, controls=None):
    """Euler-step Y from y0 under the rate field phi (a ScalarField2D
    or RhoField, or None for the zero field), and log wealth from x0
    under controls(t, y) -> (pi, c) when x0 is given.

    Calls accumulate(sl, k, t, y, lx, pi, c) for the paths sl at every
    grid time k = 0..n_steps.  lx is log wealth (None without x0); pi
    and c are the controls that drive the step out of time t, so they
    are None at k = n_steps and without x0.  Returns the per-path flags
    of the paths that left phi's y-grid at some step.
    """
    if n_paths < 2:
        raise ModelError("need at least 2 paths")
    if antithetic and n_paths % 2:
        raise ModelError("antithetic sampling needs an even path count")
    dt = _step(market, t0, n_steps)
    n_steps, t0 = int(n_steps), float(t0)
    sdt = np.sqrt(dt)
    sigma, theta, r = market.sigma, market.theta, market.r
    if phi is None:
        y_lo, y_hi = -np.inf, np.inf
    else:
        y_lo, y_hi = float(phi.grid.y_nodes[0]), float(phi.grid.y_nodes[-1])
    exited = np.zeros(n_paths, dtype=bool)
    for sl, dw in _blocks(n_paths, n_steps, seed, antithetic):
        y = np.full(sl.stop - sl.start, float(y0))
        lx = None if x0 is None else np.full(len(y), float(np.log(x0)))
        for k in range(n_steps + 1):
            t = t0 + k * dt
            pi = c = None
            if lx is not None and k < n_steps:
                pi, c = controls(t, y)
            accumulate(sl, k, t, y, lx, pi, c)
            if k == n_steps:
                break
            z = sdt * dw[k]
            if lx is not None:
                lx = lx + (r + pi * sigma * theta - c
                           - 0.5 * pi ** 2 * sigma ** 2) * dt + pi * sigma * z
            rate = 0.0 if phi is None else phi(t, y)
            y = y + (rate - r - 0.5 * theta ** 2) * dt - theta * z
            exited[sl] |= (y < y_lo) | (y > y_hi)
    return exited


@dataclass
class PathEnsemble:
    """Recorded state paths with coverage bookkeeping."""

    times: np.ndarray
    Y: np.ndarray              # (n_paths, len(times))
    X: np.ndarray = None       # wealth, present for joint simulations
    exited: np.ndarray = None  # paths that left the y-grid at some step

    @property
    def n_paths(self):
        return self.Y.shape[0]

    @property
    def exit_fraction(self):
        return float(np.mean(self.exited)) if self.exited is not None else 0.0


@dataclass
class MCEstimate:
    value: float
    se: float
    n_paths: int
    exit_fraction: float = 0.0


def _record(market, phi, y0, t0, n_steps, n_paths, seed, antithetic,
            record_stride, x0=None, controls=None):
    """Paths recorded at every record_stride-th grid time and at T."""
    rec = np.union1d(np.arange(0, n_steps + 1, max(int(record_stride), 1)),
                     [n_steps])
    col = {k: j for j, k in enumerate(rec)}
    times = np.empty(len(rec))
    Y = np.empty((n_paths, len(rec)))
    X = None if x0 is None else np.empty_like(Y)

    def accumulate(sl, k, t, y, lx, pi, c):
        j = col.get(k)
        if j is not None:
            times[j] = t
            Y[sl, j] = y
            if X is not None:
                X[sl, j] = np.exp(lx)

    exited = stream_paths(market, phi, t0, n_steps, n_paths, seed,
                          antithetic, y0, accumulate, x0, controls)
    return PathEnsemble(times, Y, X, exited)


def simulate_Y(market, rho, y0, t0=0.0, n_steps=200, n_paths=10000,
               seed=0, antithetic=True, record_stride=1):
    """Paths of the state process started at Y_{t0} = y0."""
    return _record(market, rho, y0, t0, n_steps, n_paths, seed, antithetic,
                   record_stride)


def simulate_wealth(market, rho, strategy, pbar, x0, t0=0.0, n_steps=200,
                    n_paths=10000, seed=0, antithetic=True, record_stride=1,
                    controls=None):
    """Joint paths of (Y, X) under feedback controls.

    X follows a log-Euler step, so wealth stays positive and the
    uninvested no-consumption control (pi = c = 0) compounds at
    exactly e^{r t}.  ``controls`` overrides the strategy surface:
    a callable (t, y_array) -> (pi_array, c_array) with c the
    consumption fraction of wealth.
    """
    return _record(market, rho, pbar.invert(t0, x0), t0, n_steps, n_paths,
                   seed, antithetic, record_stride, x0,
                   controls or strategy.controls)


def estimate_J(market, utility, discount, rho, strategy, pbar, x0, t0=0.0,
               n_steps=200, n_paths=10000, seed=0, antithetic=True,
               controls=None, return_per_path=False):
    """Reward functional J(t0, x0) = E[int h(t0,s) U(c_s X_s) ds
    + h(t0,T) U(X_T)] under the given controls, streamed path by path.

    With return_per_path the per-path accumulators are also returned, so
    two runs with the same seed can be differenced pathwise (common
    random numbers) for a low-variance comparison.
    """
    dt = _step(market, t0, n_steps)
    controls = controls or strategy.controls
    acc = np.zeros(n_paths)

    def accumulate(sl, k, t, y, lx, pi, c):
        if k == n_steps:
            pi, c = controls(t, y)
        w = dt if 0 < k < n_steps else 0.5 * dt
        acc[sl] += w * discount.h(t0, t) * utility.U(c * np.exp(lx))
        if k == n_steps:
            acc[sl] += discount.h(t0, market.T) * utility.U(np.exp(lx))

    exited = stream_paths(market, rho, t0, n_steps, n_paths, seed,
                          antithetic, pbar.invert(t0, x0), accumulate, x0,
                          controls)
    value, se = mean_se(acc, antithetic)
    est = MCEstimate(value, se, n_paths, float(np.mean(exited)))
    return (est, acc) if return_per_path else est


def estimate_F_mc(market, utility, discount, phi, t, y, n_steps=200,
                  n_paths=10000, seed=0, antithetic=True):
    """Pathwise estimate of F[phi](t, y) for cross-validation.

    Uses the stochastic representation of the y-derivative surfaces:
    d/dy delta(t, s, y) = E[U0'(Y_s) exp(int_t^s phi_y(u, Y_u) du)]
    along the phi-drift process, plugged into the ratio of h_t- and
    h-weighted time integrals.  Standard error by the delta method on
    (antithetic-paired) numerator and denominator samples.
    """
    dt = _step(market, t, n_steps)
    phi_y = deriv_y(phi.values, phi.grid.dy)
    logw = np.zeros(n_paths)  # int_t^s phi_y(u, Y_u) du per path
    A = np.zeros(n_paths)     # h_t-weighted integral per path
    B = np.zeros(n_paths)     # h-weighted integral per path

    def accumulate(sl, k, s, yy, lx, pi, c):
        val = utility.U0p(yy) * np.exp(logw[sl])
        w = dt if 0 < k < n_steps else 0.5 * dt
        A[sl] += w * discount.dh_dt(t, s) * val
        B[sl] += w * discount.h(t, s) * val
        if k < n_steps:
            logw[sl] += bilinear(phi.grid, phi_y, s, yy) * dt
        else:
            A[sl] += discount.dh_dt(t, market.T) * val
            B[sl] += discount.h(t, market.T) * val

    exited = stream_paths(market, phi, t, n_steps, n_paths, seed, antithetic,
                          y, accumulate)
    A, B = _paired(A, antithetic), _paired(B, antithetic)
    Fhat = A.mean() / B.mean()
    resid = A - Fhat * B
    se = float(np.std(resid, ddof=1) / (np.sqrt(len(A)) * abs(B.mean())))
    return MCEstimate(float(Fhat), se, n_paths, float(np.mean(exited)))


def estimate_pbar_mc(market, utility, rho, t, y, n_steps=200, n_paths=10000,
                     seed=0, antithetic=True):
    """Feynman-Kac style cross-check of pbar(t, y).

    Evaluates E[int_t^T e^{-r(s-t)} I0(Y_s + theta^2 (s-t)) ds
    + e^{-r(T-t)} I0(Y_T + theta^2 (T-t))] along the equilibrium state
    process.  The deterministic shift theta^2 (s-t) converts the state
    drift into the drift of the pbar equation; the conversion is exact
    when rho_bar is flat in y and a controlled approximation otherwise,
    so this estimator is a cross-check, not the primary solver.
    """
    dt = _step(market, t, n_steps)
    r, theta2, T = market.r, market.theta ** 2, market.T
    acc = np.zeros(n_paths)

    def accumulate(sl, k, s, yy, lx, pi, c):
        w = dt if 0 < k < n_steps else 0.5 * dt
        acc[sl] += w * np.exp(-r * (s - t)) * utility.I0(yy + theta2 * (s - t))
        if k == n_steps:
            acc[sl] += np.exp(-r * (T - t)) * utility.I0(yy + theta2 * (T - t))

    exited = stream_paths(market, rho, t, n_steps, n_paths, seed, antithetic,
                          y, accumulate)
    value, se = mean_se(acc, antithetic)
    return MCEstimate(value, se, n_paths, float(np.mean(exited)))
