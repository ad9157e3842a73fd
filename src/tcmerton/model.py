"""Market, discount and utility inputs, plus the pointwise transforms
derived from them (inverse marginal utility, log-variable forms).

All model objects are immutable after construction and safe to share
across workers.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError

_MAX_EXP = 700.0  # exp() overflows float64 just above this


# ---------------------------------------------------------------------------
# market
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarketModel:
    """Constant-coefficient market: riskless rate r, stock drift mu,
    stock volatility sigma, horizon T."""

    r: float
    mu: float
    sigma: float
    T: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ModelError("sigma must be > 0 (got %r)" % (self.sigma,))
        if not self.T > 0:
            raise ModelError("T must be > 0 (got %r)" % (self.T,))
        if not self.r > 0:
            raise ModelError("r must be > 0 (got %r)" % (self.r,))

    @property
    def theta(self):
        """Market price of risk (mu - r) / sigma, always recomputed."""
        return (self.mu - self.r) / self.sigma


# ---------------------------------------------------------------------------
# discounting
# ---------------------------------------------------------------------------

class DiscountModel:
    """Discount function h(t,s) on D = {0 <= t <= s} with h(t,t) = 1.

    Subclasses provide ``h`` and ``dh_dt`` (partial derivative in the
    first argument); the discount rate is rho_h = (dh/dt) / h.
    """

    def h(self, t, s):
        raise NotImplementedError

    def dh_dt(self, t, s):
        raise NotImplementedError

    def rho(self, t, s):
        """Discount rate rho_h(t,s) = h_t(t,s) / h(t,s)."""
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        if np.any(t < 0) or np.any(s < t):
            raise ModelError("discount rate requires 0 <= t <= s")
        return self.dh_dt(t, s) / self.h(t, s)

    def rho_bounds(self, T):
        """(min, max) of rho_h over D = {0 <= t <= s <= T}."""
        raise NotImplementedError

    def rho_norm(self, T):
        """Sup of |rho_h| over D."""
        lo, hi = self.rho_bounds(T)
        return max(abs(lo), abs(hi))

    def validate(self, T, n=101):
        """Check h(t,t)=1, positivity/boundedness of h and the rho_h
        relation on an n x n sample of D."""
        t = np.linspace(0.0, T, n)
        if np.max(np.abs(self.h(t, t) - 1.0)) > 1e-12:
            raise ModelError("h(t,t) != 1 for %s" % type(self).__name__)
        tt, ss = np.meshgrid(t, t, indexing="ij")
        mask = tt <= ss
        hv = self.h(tt[mask], ss[mask])
        if not np.all(np.isfinite(hv)) or np.min(hv) <= 0:
            raise ModelError("h must be positive and finite on D")
        rv = self.rho(tt[mask], ss[mask])
        rel = self.dh_dt(tt[mask], ss[mask]) / hv
        if np.max(np.abs(rv - rel)) > 1e-12:
            raise ModelError("rho_h relation violated")
        if np.max(np.abs(rv)) > self.rho_norm(T) * (1 + 1e-9) + 1e-12:
            raise ModelError("|rho_h| exceeds its declared sup norm")


@dataclass(frozen=True)
class ExponentialDiscount(DiscountModel):
    """h(t,s) = exp(-rho0 (s - t)); constant discount rate rho0."""

    rho0: float

    def h(self, t, s):
        return np.exp(-self.rho0 * (np.asarray(s, dtype=float) - t))

    def dh_dt(self, t, s):
        return self.rho0 * self.h(t, s)

    def rho_bounds(self, T):
        return (self.rho0, self.rho0)


@dataclass(frozen=True)
class HyperbolicDiscount(DiscountModel):
    """Generalized hyperbolic discounting h(t,s) = (1 + beta (s-t))^(-alpha)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ModelError("hyperbolic discount needs alpha, beta > 0")

    def h(self, t, s):
        tau = np.asarray(s, dtype=float) - t
        return (1.0 + self.beta * tau) ** (-self.alpha)

    def dh_dt(self, t, s):
        tau = np.asarray(s, dtype=float) - t
        return self.alpha * self.beta * (1.0 + self.beta * tau) ** (-self.alpha - 1.0)

    def rho_bounds(self, T):
        # rho_h = alpha beta / (1 + beta (s-t)): decreasing in s - t
        ab = self.alpha * self.beta
        return (ab / (1.0 + self.beta * T), ab)


@dataclass(frozen=True)
class PseudoExponentialDiscount(DiscountModel):
    """Mixture of exponentials h(t,s) = sum_i w_i exp(-rho_i (s-t)),
    weights normalized to sum to one."""

    weights: tuple
    rates: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        r = np.asarray(self.rates, dtype=float)
        if w.shape != r.shape or w.ndim != 1 or w.size == 0:
            raise ModelError("weights and rates must be 1-d of equal length")
        if np.any(w <= 0):
            raise ModelError("pseudo-exponential weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ModelError("pseudo-exponential weights must sum to 1")

    def _wr(self):
        return (np.asarray(self.weights, dtype=float),
                np.asarray(self.rates, dtype=float))

    def h(self, t, s):
        w, r = self._wr()
        tau = np.asarray(s, dtype=float) - t
        return np.exp(-np.multiply.outer(tau, r)) @ w

    def dh_dt(self, t, s):
        w, r = self._wr()
        tau = np.asarray(s, dtype=float) - t
        return np.exp(-np.multiply.outer(tau, r)) @ (w * r)

    def rho_bounds(self, T):
        # rho_h is a mixture-weighted mean of the rates; monotone in s-t,
        # extremes at tau = 0 and tau = T.
        return (float(min(self.rho(0.0, T), self.rho(0.0, 0.0))),
                float(max(self.rho(0.0, T), self.rho(0.0, 0.0))))


# time nodes per axis of the dense (t, s) sample from which
# CallableDiscount estimates its rate range
_CALLABLE_SAMPLE_N = 201


class CallableDiscount(DiscountModel):
    """User-supplied pair (h, dh/dt) of vectorized callables.

    The sup of |rho_h| is estimated by dense sampling of D with a 5%
    safety margin; built-in families should be preferred when a closed
    form exists.
    """

    def __init__(self, h, dh_dt):
        self._h = h
        self._dh_dt = dh_dt

    def h(self, t, s):
        return np.asarray(self._h(t, s), dtype=float)

    def dh_dt(self, t, s):
        return np.asarray(self._dh_dt(t, s), dtype=float)

    def rho_bounds(self, T):
        t = np.linspace(0.0, T, _CALLABLE_SAMPLE_N)
        tt, ss = np.meshgrid(t, t, indexing="ij")
        mask = tt <= ss
        r = self.rho(tt[mask], ss[mask])
        lo, hi = float(np.min(r)), float(np.max(r))
        pad = 0.05 * max(abs(lo), abs(hi))
        return (lo - pad, hi + pad)


# ---------------------------------------------------------------------------
# utility
# ---------------------------------------------------------------------------

class UtilityModel:
    """Utility U on (0, inf) with relative risk aversion in [r1, r2].

    Provides U, U', U'', the inverse marginal utility I = (U')^{-1} and
    the log-variable transforms I0(y) = I(e^y), U0(y) = U(I0(y)),
    U0'(y) = e^y I0'(y).
    """

    r1: float
    r2: float

    def U(self, x):
        raise NotImplementedError

    def Uprime(self, x):
        raise NotImplementedError

    def Uprime2(self, x):
        raise NotImplementedError

    def I(self, w):
        raise NotImplementedError

    @staticmethod
    def _check_positive(x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise ModelError("utility evaluated at x <= 0 (Inada boundary)")
        return x

    @staticmethod
    def _exp_checked(y):
        y = np.asarray(y, dtype=float)
        if np.any(np.abs(y) > _MAX_EXP):
            raise ModelError(
                "exp(y) outside representable range (|y| > %g); "
                "shrink the y-grid or rescale wealth" % _MAX_EXP)
        return np.exp(y)

    # log-variable transforms; subclasses override when closed forms exist

    def I0(self, y):
        """I0(y) = I(e^y), the consumption at log marginal value y."""
        return self.I(self._exp_checked(y))

    def I0p(self, y):
        """d/dy I(e^y) = e^y / U''(I(e^y)); always negative."""
        ey = self._exp_checked(y)
        return ey / self.Uprime2(self.I(ey))

    def U0(self, y):
        return self.U(self.I0(y))

    def U0p(self, y):
        """d/dy U(I0(y)) = e^y I0'(y); always negative.  I0' is written
        out so that e^y is evaluated once."""
        ey = self._exp_checked(y)
        return ey * (ey / self.Uprime2(self.I(ey)))

    def validate(self, n=1000, x_lo=1e-6, x_hi=1e6):
        """Sampled sanity checks: monotonicity, concavity, elasticity in
        [r1, r2], inverse consistency of I."""
        x = np.geomspace(x_lo, x_hi, n)
        up = self.Uprime(x)
        upp = self.Uprime2(x)
        if np.any(up <= 0):
            raise ModelError("U' must be positive")
        if np.any(upp >= 0):
            raise ModelError("U'' must be negative")
        rra = -x * upp / up
        slack = 1e-9 * max(self.r2, 1.0)
        if np.any(rra < self.r1 - slack) or np.any(rra > self.r2 + slack):
            raise ModelError(
                "relative risk aversion leaves [r1, r2]: range [%g, %g] "
                "vs declared [%g, %g]" % (rra.min(), rra.max(), self.r1, self.r2))
        w = np.geomspace(self.Uprime(x_hi), self.Uprime(x_lo), n)
        err = np.abs(self.Uprime(self.I(w)) - w) / w
        if np.max(err) > 1e-10:
            raise ModelError("U'(I(w)) != w (max rel err %g)" % np.max(err))


@dataclass(frozen=True)
class CRRAUtility(UtilityModel):
    """U(x) = x^gamma / gamma with gamma < 1, gamma != 0.

    Relative risk aversion is the constant 1 - gamma, so r1 = r2.
    """

    gamma: float

    def __post_init__(self):
        if self.gamma >= 1 or self.gamma == 0:
            raise ModelError("CRRA requires gamma < 1 and gamma != 0")

    @property
    def r1(self):
        return 1.0 - self.gamma

    @property
    def r2(self):
        return 1.0 - self.gamma

    def U(self, x):
        x = self._check_positive(x)
        return x ** self.gamma / self.gamma

    def Uprime(self, x):
        x = self._check_positive(x)
        return x ** (self.gamma - 1.0)

    def Uprime2(self, x):
        x = self._check_positive(x)
        return (self.gamma - 1.0) * x ** (self.gamma - 2.0)

    def I(self, w):
        w = self._check_positive(w)
        return w ** (1.0 / (self.gamma - 1.0))

    # closed forms in the log variable avoid overflow of exp(y)

    def I0(self, y):
        y = np.asarray(y, dtype=float)
        return np.exp(y / (self.gamma - 1.0))

    def I0p(self, y):
        return self.I0(y) / (self.gamma - 1.0)

    def U0(self, y):
        y = np.asarray(y, dtype=float)
        return np.exp(self.gamma * y / (self.gamma - 1.0)) / self.gamma

    def U0p(self, y):
        y = np.asarray(y, dtype=float)
        return np.exp(self.gamma * y / (self.gamma - 1.0)) / (self.gamma - 1.0)


@dataclass(frozen=True)
class MixedPowerUtility(UtilityModel):
    """U(x) = alpha x^g1 / g1 + (1 - alpha) x^g2 / g2.

    U' has no closed-form inverse; I is computed by bracketed Newton in
    log x with bisection fallback, relative tolerance 1e-12.  The
    elasticity bounds are the extremes of {1 - g1, 1 - g2}: the risk
    aversion is a positive-weight average of the two.
    """

    alpha: float
    gamma1: float
    gamma2: float

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ModelError("mixing weight alpha must be in (0, 1)")
        for g in (self.gamma1, self.gamma2):
            if g >= 1 or g == 0:
                raise ModelError("mixed-power exponents must be < 1 and != 0")

    @property
    def r1(self):
        return min(1.0 - self.gamma1, 1.0 - self.gamma2)

    @property
    def r2(self):
        return max(1.0 - self.gamma1, 1.0 - self.gamma2)

    def U(self, x):
        x = self._check_positive(x)
        a, g1, g2 = self.alpha, self.gamma1, self.gamma2
        return a * x ** g1 / g1 + (1 - a) * x ** g2 / g2

    def Uprime(self, x):
        return self._uprime(self._check_positive(x))

    def Uprime2(self, x):
        return self._uprime2(self._check_positive(x))

    # unchecked U' and U'' for the Newton loop of I, whose x is checked once
    def _uprime(self, x):
        a, g1, g2 = self.alpha, self.gamma1, self.gamma2
        return a * x ** (g1 - 1) + (1 - a) * x ** (g2 - 1)

    def _uprime2(self, x):
        a, g1, g2 = self.alpha, self.gamma1, self.gamma2
        return a * (g1 - 1) * x ** (g1 - 2) + (1 - a) * (g2 - 1) * x ** (g2 - 2)

    def I(self, w):
        w = self._check_positive(w)
        scalar = w.ndim == 0
        lw = np.atleast_1d(np.log(w))
        # initial bracket in z = log x from the single-power asymptotes
        z1, z2 = lw / (self.gamma1 - 1), lw / (self.gamma2 - 1)
        lo = np.minimum(z1, z2) - 2.0
        hi = np.maximum(z1, z2) + 2.0
        # widen until log U'(e^z) brackets lw (U' strictly decreasing in z)
        for _ in range(200):
            bad = np.log(self.Uprime(np.exp(lo))) < lw
            if not np.any(bad):
                break
            lo[bad] -= 2.0
        for _ in range(200):
            bad = np.log(self.Uprime(np.exp(hi))) > lw
            if not np.any(bad):
                break
            hi[bad] += 2.0
        z = 0.5 * (lo + hi)
        for _ in range(200):
            x = self._check_positive(np.exp(z))
            up = self._uprime(x)
            f = np.log(up) - lw
            hi = np.where(f < 0, z, hi)
            lo = np.where(f > 0, z, lo)
            # Newton step on log U'(e^z); df/dz = x U''(x) / U'(x) < 0
            df = x * self._uprime2(x) / up
            zn = z - f / df
            # fall back to bisection when Newton leaves the bracket
            inside = (zn > lo) & (zn < hi)
            zn = np.where(inside, zn, 0.5 * (lo + hi))
            done = np.abs(zn - z) <= 1e-13 * (1.0 + np.abs(zn))
            z = zn
            if np.all(done):
                break
        out = np.exp(z)
        return float(out[0]) if scalar else out


def elasticity_bounds(u: UtilityModel, kappa, t, T):
    """Time-dependent elasticity envelope (r1 e^{-kappa (T-t)},
    r2 e^{kappa (T-t)}) for the marginal value function."""
    if kappa < 0:
        raise ModelError("kappa must be >= 0")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(t > T):
        raise ModelError("t must lie in [0, T]")
    tau = T - t
    return u.r1 * np.exp(-kappa * tau), u.r2 * np.exp(kappa * tau)
