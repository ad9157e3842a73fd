import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tcmerton import pipeline
from tcmerton.errors import ConvergenceError, ModelError
from tcmerton.fixed_point import OperatorWorkspace, SolverSettings, iterate
from tcmerton.grids import Grid, deriv_y
from tcmerton.model import (CRRAUtility, CallableDiscount,
                            ExponentialDiscount, HyperbolicDiscount,
                            MarketModel, MixedPowerUtility,
                            PseudoExponentialDiscount)
from tcmerton.pde import BOUNDARIES

MARKET = MarketModel(r=0.03, mu=0.09, sigma=0.2, T=1.0)


def small_grid(n_t=81, n_y=81, lim=4.0):
    return Grid.regular(MARKET.T, -lim, lim, n_t, n_y)


def flat_rate_oracle(market, gamma, disc, n=2001, tol=1e-13):
    """Independent 1-d fixed-point solver for CRRA utility.

    For constant-elasticity utility the auxiliary surfaces factor as
    U0(y) times a y-independent weight, so the operator reduces to a
    one-dimensional Picard iteration on flat rate functions which can
    be solved by dense quadrature with no PDE at all.
    """
    T = market.T
    s = np.linspace(0, T, n)
    ds = s[1] - s[0]
    q = gamma / (gamma - 1.0)
    phi = np.zeros(n)
    for _ in range(200):
        lam = (0.5 * market.theta ** 2 * q * q
               + (phi - market.r - 0.5 * market.theta ** 2) * q)
        Lam = np.concatenate(
            [[0.0], np.cumsum(0.5 * (lam[1:] + lam[:-1]) * ds)])
        E = np.exp(Lam)
        F = np.empty(n)
        for i in range(n):
            ss = s[i:]
            w = E[i:] / E[i]
            ht = disc.dh_dt(s[i], ss)
            h = disc.h(s[i], ss)
            if len(ss) == 1:
                num, den = ht[-1] * w[-1], h[-1] * w[-1]
            else:
                tw = np.full(len(ss), ds)
                tw[0] *= 0.5
                tw[-1] *= 0.5
                num = np.sum(tw * ht * w) + ht[-1] * w[-1]
                den = np.sum(tw * h * w) + h[-1] * w[-1]
            F[i] = num / den
        if np.max(np.abs(F - phi)) < tol:
            break
        phi = F
    return s, F


def test_sweep_constant_rate_is_exact():
    # with exponential discounting every weighted average of rho_h
    # collapses to rho0, independent of the candidate field
    u = CRRAUtility(gamma=0.5)
    d = ExponentialDiscount(rho0=0.1)
    g = small_grid()
    F0 = OperatorWorkspace(MARKET, u, d, g).sweep(np.zeros((g.n_t, g.n_y))).F
    assert np.max(np.abs(F0 - 0.1)) < 1e-12


def test_iterate_exponential_converges_in_one_iteration():
    u = CRRAUtility(gamma=0.5)
    d = ExponentialDiscount(rho0=0.1)
    rho = iterate(MARKET, u, d, small_grid())
    assert rho.iterations == 1
    assert rho.residual_sup < 1e-12
    assert np.max(np.abs(rho.values - 0.1)) < 1e-12


def test_iterate_unit_discount_zero_iterations():
    # h identically one has rho_h = 0 and the zero start is already the
    # fixed point
    ones = lambda t, s: np.ones_like(np.asarray(s, dtype=float) - t)
    zeros = lambda t, s: np.zeros_like(np.asarray(s, dtype=float) - t)
    d = CallableDiscount(ones, zeros)
    rho = iterate(MARKET, CRRAUtility(gamma=0.5), d, small_grid())
    assert rho.iterations == 0
    assert np.max(np.abs(rho.values)) == 0.0


def test_crra_rate_field_is_flat_in_y():
    u = CRRAUtility(gamma=0.5)
    d = HyperbolicDiscount(alpha=1.0, beta=2.0)
    rho = iterate(MARKET, u, d, small_grid(121, 121))
    spread = np.max(rho.values.max(axis=1) - rho.values.min(axis=1))
    assert spread < 1e-10


@pytest.mark.parametrize("disc", [
    HyperbolicDiscount(alpha=1.0, beta=2.0),
    PseudoExponentialDiscount(weights=(0.3, 0.7), rates=(0.05, 0.4)),
])
def test_crra_rate_matches_one_dimensional_oracle(disc):
    u = CRRAUtility(gamma=0.5)
    g = Grid.regular(MARKET.T, -4, 4, 201, 201)
    rho = iterate(MARKET, u, disc, g)
    s, F = flat_rate_oracle(MARKET, 0.5, disc)
    ref = np.interp(g.t_nodes, s, F)
    assert np.max(np.abs(rho.values[:, g.n_y // 2] - ref)) < 2e-4


def test_rate_field_within_discount_rate_range():
    u = MixedPowerUtility(alpha=0.5, gamma1=0.3, gamma2=-1.0)
    d = HyperbolicDiscount(alpha=1.0, beta=2.0)
    rho = iterate(MARKET, u, d, small_grid(121, 121, lim=5.0))
    lo, hi = d.rho_bounds(MARKET.T)
    assert rho.values.min() >= lo - 1e-9
    assert rho.values.max() <= hi + 1e-9
    assert rho.residual_sup <= 1e-8


def test_residual_history_monotone_after_first():
    u = MixedPowerUtility(alpha=0.5, gamma1=0.3, gamma2=-1.0)
    d = HyperbolicDiscount(alpha=1.0, beta=2.0)
    rho = iterate(MARKET, u, d, small_grid(81, 81, lim=5.0))
    h = rho.residual_history
    assert all(h[i + 1] < h[i] for i in range(len(h) - 1))


def test_convergence_error_carries_history():
    u = MixedPowerUtility(alpha=0.5, gamma1=0.3, gamma2=-1.0)
    d = HyperbolicDiscount(alpha=1.0, beta=2.0)
    with pytest.raises(ConvergenceError) as err:
        iterate(MARKET, u, d, small_grid(81, 81, lim=5.0),
                settings=SolverSettings(max_iter=2))
    assert len(err.value.history) >= 2


def test_iterate_with_damping_still_converges():
    u = CRRAUtility(gamma=0.5)
    d = HyperbolicDiscount(alpha=1.0, beta=2.0)
    rho = iterate(MARKET, u, d, small_grid(),
                  settings=SolverSettings(damping=0.5, max_iter=100))
    assert rho.residual_sup <= 1e-8


def _count_sweeps(monkeypatch):
    sweeps = []
    real_sweep = OperatorWorkspace.sweep
    monkeypatch.setattr(OperatorWorkspace, "sweep",
                        lambda self, *a, **k: sweeps.append(1)
                        or real_sweep(self, *a, **k))
    return sweeps


@pytest.mark.parametrize("kw", [dict(damping=0.0), dict(damping=-0.5),
                                dict(damping=3.0), dict(max_iter=0),
                                dict(tol=0.0), dict(tol=-1e-8),
                                dict(tol=math.inf), dict(tol=math.nan),
                                dict(max_iter=2.5), dict(max_iter=True),
                                dict(damping=math.nan),
                                dict(boundary="expo")])
def test_iterate_rejects_bad_settings_before_sweeping(kw, monkeypatch):
    sweeps = _count_sweeps(monkeypatch)
    u = MixedPowerUtility(alpha=0.5, gamma1=0.3, gamma2=-1.0)
    d = HyperbolicDiscount(alpha=1.0, beta=2.0)
    name, value = next(iter(kw.items()))
    with pytest.raises(ModelError, match=r"^%s .*%s$" % (name, re.escape(
            repr(value)))):
        iterate(MARKET, u, d, small_grid(41, 41, lim=5.0),
                settings=SolverSettings(**kw))
    assert sweeps == []


# any value a field may be given, and values around each field's range
ANY_VALUE = (st.floats() | st.integers() | st.booleans()
             | st.sampled_from(BOUNDARIES) | st.text(max_size=12))
DRAWS = {"tol": st.floats(-1.0, 1.0) | ANY_VALUE,
         "max_iter": st.integers(-3, 60) | ANY_VALUE,
         "damping": st.floats(-0.5, 1.5) | ANY_VALUE,
         "boundary": st.sampled_from(BOUNDARIES) | ANY_VALUE}


@given(st.fixed_dictionaries({}, optional=DRAWS))
def test_solver_settings_build_or_name_the_bad_field(kw):
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    ok = {"tol": lambda v: number(v) and 0 < v < math.inf,
          "max_iter": lambda v: (isinstance(v, int)
                                 and not isinstance(v, bool) and v >= 1),
          "damping": lambda v: number(v) and 0 < v <= 1,
          "boundary": lambda v: isinstance(v, str) and v in BOUNDARIES}
    bad = [f for f in DRAWS if f in kw and not ok[f](kw[f])]
    if not bad:
        settings = SolverSettings(**kw)
        assert all(getattr(settings, f) == kw[f] for f in kw)
        return
    # fields are checked in declaration order: the first bad one is named
    with pytest.raises(ModelError, match="^%s " % bad[0]) as err:
        SolverSettings(**kw)
    assert repr(kw[bad[0]]) in str(err.value)


def test_iterate_kappa():
    g = small_grid()
    u = CRRAUtility(gamma=0.5)
    d = ExponentialDiscount(rho0=0.1)
    # flat F[0] means no slope contribution: kappa = sup |rho_h|
    assert iterate(MARKET, u, d, g).kappa == pytest.approx(0.1)
    um = MixedPowerUtility(alpha=0.5, gamma1=0.3, gamma2=-1.0)
    dh = HyperbolicDiscount(alpha=1.0, beta=2.0)
    assert iterate(MARKET, um, dh, small_grid(81, 81, 5.0)).kappa >= 2.0


def test_delta_family_structure():
    # the sign of delta_y itself is enforced inside every sweep
    u = CRRAUtility(gamma=0.5)
    d = HyperbolicDiscount(alpha=1.0, beta=2.0)
    g = small_grid(21, 41)
    G = OperatorWorkspace(MARKET, u, d, g).sweep(
        np.zeros((g.n_t, g.n_y))).G
    assert np.allclose(G[-1], u.U0(g.y_nodes))  # own-terminal row
    assert np.all(deriv_y(G, g.dy) < 0)


def test_solve_sweeps_once_per_iteration_and_once_more(monkeypatch):
    # one sweep per Picard update plus the sweep that meets tol; the
    # aggregates come from that last sweep, not from an extra one
    sweeps = _count_sweeps(monkeypatch)
    u = MixedPowerUtility(alpha=0.5, gamma1=0.3, gamma2=-1.0)
    d = HyperbolicDiscount(alpha=1.0, beta=2.0)
    res = pipeline.solve(MARKET, u, d, small_grid(41, 41, lim=5.0))
    assert res.rho.iterations > 1
    assert len(sweeps) == res.rho.iterations + 1


def test_rho_carries_the_aggregates_of_its_own_sweep():
    u = MixedPowerUtility(alpha=0.5, gamma1=0.3, gamma2=-1.0)
    d = HyperbolicDiscount(alpha=1.0, beta=2.0)
    g = small_grid(41, 41, lim=5.0)
    rho = iterate(MARKET, u, d, g)
    fresh = OperatorWorkspace(MARKET, u, d, g).sweep(rho.values)
    assert np.array_equal(rho.G, fresh.G)
    assert np.array_equal(rho.hjb_rhs, fresh.hjb_rhs)


def test_workspace_rejects_mismatched_horizon():
    g = Grid.regular(2.0, -4, 4, 11, 11)
    with pytest.raises(ModelError):
        OperatorWorkspace(MARKET, CRRAUtility(gamma=0.5),
                          ExponentialDiscount(rho0=0.1), g)
