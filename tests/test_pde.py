import numpy as np
import pytest

from tcmerton.errors import SolverError
from tcmerton.grids import Grid
from tcmerton.pde import (BackwardStepper, solve_backward,
                          terminal_log_slopes)


def test_terminal_log_slopes():
    y = np.linspace(0, 1, 11)
    dy = y[1] - y[0]
    g = np.exp(2.0 * y)
    lo, hi = terminal_log_slopes(g, dy)
    assert lo == pytest.approx(2.0)
    assert hi == pytest.approx(2.0)
    # sign change in an edge cell disables the exponential row
    g2 = np.linspace(-1, 1, 11)
    lo2, hi2 = terminal_log_slopes(g2, dy)
    assert lo2 is not None and hi2 is not None  # both tails single-signed
    g3 = g2.copy()
    g3[0] = -g3[1]
    assert terminal_log_slopes(g3, dy)[0] is None


def test_exponential_eigenfunction_constant_coefficients():
    """With constant coefficients and exponential terminal data the
    continuous solution is e^{q y + lam (T - t)}, lam = D q^2 + b q + c."""
    D, b, c, q = 0.08, -0.11, -0.05, 1.5
    g = Grid.regular(1.0, -2.0, 2.0, 201, 201)
    u = solve_backward(g, D, drift=b, reaction=c,
                       terminal=np.exp(q * g.y_nodes))
    lam = D * q ** 2 + b * q + c
    ref = np.exp(q * g.y_nodes[None, :] + lam * (g.T - g.t_nodes[:, None]))
    assert np.max(np.abs(u.values - ref) / ref) < 2e-5


def test_exponential_translation_invariance_is_exact():
    # pure exponentials are exact eigenvectors of the discrete operator,
    # so the shift ratio stays machine-exact down to t = 0
    D, b, q = 0.05, 0.2, -1.0
    g = Grid.regular(1.0, -2.0, 2.0, 51, 51)
    u = solve_backward(g, D, drift=b, terminal=np.exp(q * g.y_nodes))
    ratio = u.values[:, 1:] / u.values[:, :-1]
    assert np.max(np.abs(ratio - np.exp(q * g.dy))) < 1e-12


def test_gaussian_heat_kernel():
    """Drift-free diffusion of a Gaussian bump has the closed-form
    widened-Gaussian solution."""
    D = 0.125
    w2 = 0.04  # terminal variance
    g = Grid.regular(0.5, -3.0, 3.0, 401, 401)
    u = solve_backward(g, D, terminal=np.exp(-g.y_nodes ** 2 / (2 * w2)),
                       boundary="linearity")
    tau = g.T - g.t_nodes[:, None]
    var = w2 + 2 * D * tau
    ref = np.sqrt(w2 / var) * np.exp(-g.y_nodes[None, :] ** 2 / (2 * var))
    inner = slice(50, 351)
    err = np.max(np.abs(u.values[:, inner] - ref[:, inner]))
    assert err < 2e-4


def test_source_only():
    # D = b = c = 0 with constant source: u = g + f (T - t), exact
    g = Grid.regular(1.0, -1.0, 1.0, 21, 9)
    u = solve_backward(g, 0.0, source=0.7, terminal=np.full(9, 2.0))
    ref = 2.0 + 0.7 * (g.T - g.t_nodes[:, None])
    assert np.max(np.abs(u.values - ref)) < 1e-12


def test_reaction_only():
    # u_t + c u = 0 => u = g e^{c (T-t)}; time-discretization error only
    c = -0.8
    g = Grid.regular(1.0, -1.0, 1.0, 401, 9)
    u = solve_backward(g, 0.0, reaction=c, terminal=np.full(9, 1.0))
    ref = np.exp(c * (g.T - g.t_nodes[:, None]))
    assert np.max(np.abs(u.values - ref) / ref) < 1e-5


def test_zero_diffusion_allowed_negative_rejected():
    g = Grid.regular(1.0, -1.0, 1.0, 11, 9)
    solve_backward(g, 0.0, terminal=np.ones(9))
    with pytest.raises(SolverError):
        BackwardStepper(g, -0.1)


def test_unknown_boundary_rejected_by_name():
    g = Grid.regular(1.0, -1.0, 1.0, 11, 9)
    with pytest.raises(SolverError, match="'expo'"):
        BackwardStepper(g, 0.1, boundary="expo")


def test_crank_nicolson_second_order_in_time():
    D, b, c, q = 0.08, -0.11, -0.05, 1.2
    errs = []
    for n_t in (26, 51):
        g = Grid.regular(1.0, -1.0, 1.0, n_t, 401)
        u = solve_backward(g, D, drift=b, reaction=c,
                           terminal=np.exp(q * g.y_nodes))
        lam = D * q ** 2 + b * q + c
        ref = np.exp(q * g.y_nodes[None, :]
                     + lam * (g.T - g.t_nodes[:, None]))
        errs.append(np.max(np.abs(u.values - ref) / ref))
    assert errs[0] / errs[1] > 3.0


def test_max_principle_implicit_euler():
    """Drift-free, no source, nonpositive reaction, fully implicit
    stepping: the scheme is monotone, so values stay inside the range
    spanned by the terminal data and zero even for rough data."""
    rng = np.random.default_rng(5)
    g = Grid.regular(0.5, -1.0, 1.0, 101, 81)
    for _ in range(5):
        D = rng.uniform(0.01, 0.2)
        c = -rng.uniform(0.0, 0.5)
        term = rng.uniform(-1.0, 1.0, g.n_y)
        u = solve_backward(g, D, reaction=c, terminal=term,
                           boundary="linearity", theta=1.0,
                           startup_steps=g.n_t)
        assert u.values.min() >= min(term.min(), 0.0) - 1e-9
        assert u.values.max() <= max(term.max(), 0.0) + 1e-9


def test_crank_nicolson_range_on_smooth_data():
    # with smooth single-signed data and moderate drift the default
    # scheme stays within the terminal range up to a small overshoot
    g = Grid.regular(0.5, -1.0, 1.0, 101, 81)
    term = 1.0 + 0.5 * np.cos(2 * np.pi * g.y_nodes / 4.0)
    u = solve_backward(g, 0.1, drift=0.2, reaction=-0.1, terminal=term,
                       boundary="linearity")
    assert u.values.min() >= 0.0
    assert u.values.max() <= term.max() * (1 + 1e-6)


def test_solver_error_carries_time_index():
    g = Grid.regular(1.0, -1.0, 1.0, 11, 9)
    term = np.ones(9)
    # a huge reaction makes (I - dt L) singular/overflowing
    with pytest.raises(SolverError) as err:
        solve_backward(g, 0.0, reaction=1.0 / g.dt, terminal=term * 1e300)
    assert err.value.time_index is not None


def test_terminal_length_check():
    g = Grid.regular(1.0, -1.0, 1.0, 11, 9)
    with pytest.raises(SolverError):
        solve_backward(g, 0.1, terminal=np.ones(7))


def test_multi_rhs_stepping_matches_single():
    # the stepper applied to a stacked family equals column-wise solves
    g = Grid.regular(1.0, -1.0, 1.0, 11, 33)
    st = BackwardStepper(g, 0.1, drift=0.2, reaction=-0.1,
                         q_lo=1.0, q_hi=1.0)
    U = np.vstack([np.exp(g.y_nodes), np.exp(g.y_nodes) * 2.0,
                   np.cosh(g.y_nodes)])
    batch = st.step_to(5, U, 0.5)
    for k in range(3):
        single = st.step_to(5, U[k], 0.5)
        assert np.allclose(batch[k], single, rtol=1e-14, atol=1e-14)
