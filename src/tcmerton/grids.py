"""Tensor grids in (t, y) and scalar fields living on them.

y is the log marginal value log v; fields on the grid hold the discount
rate iterates, the inverse marginal value and related surfaces.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridError, IntegrityError


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid: t_nodes in [0, T], y_nodes in [y_min, y_max]."""

    t_nodes: np.ndarray
    y_nodes: np.ndarray

    def __post_init__(self):
        t, y = self.t_nodes, self.y_nodes
        if t.ndim != 1 or y.ndim != 1:
            raise GridError("t_nodes and y_nodes must be 1-d")
        if len(t) < 3 or len(y) < 5:
            raise GridError("need N_t >= 3 and N_y >= 5")
        if abs(t[0]) > 1e-14:
            raise GridError("t_nodes must start at 0")
        if np.any(np.diff(t) <= 0) or np.any(np.diff(y) <= 0):
            raise GridError("grid nodes must be strictly ascending")
        for arr in (t, y):
            d = np.diff(arr)
            if np.max(np.abs(d - d[0])) > 1e-10 * abs(d[0]):
                raise GridError("grid must be uniform")

    @classmethod
    def regular(cls, T, y_min, y_max, n_t, n_y):
        if y_min >= y_max:
            raise GridError("y_min must be < y_max")
        return cls(np.linspace(0.0, T, n_t), np.linspace(y_min, y_max, n_y))

    @classmethod
    def for_wealth_range(cls, market, utility, x_lo, x_hi, n_t, n_y, pad=2.0):
        """Grid whose y-range covers marginal values for wealth in
        [x_lo, x_hi], widened by 6 theta sqrt(T) Gaussian tails plus a
        safety pad for the annuity factor."""
        if not 0 < x_lo < x_hi:
            raise GridError("need 0 < x_lo < x_hi")
        tails = 6.0 * abs(market.theta) * np.sqrt(market.T) + pad
        y_lo = float(np.log(utility.Uprime(x_hi))) - tails
        y_hi = float(np.log(utility.Uprime(x_lo))) + tails
        return cls.regular(market.T, y_lo, y_hi, n_t, n_y)

    @property
    def T(self):
        return float(self.t_nodes[-1])

    @property
    def n_t(self):
        return len(self.t_nodes)

    @property
    def n_y(self):
        return len(self.y_nodes)

    @property
    def dt(self):
        return float(self.t_nodes[1] - self.t_nodes[0])

    @property
    def dy(self):
        return float(self.y_nodes[1] - self.y_nodes[0])


# five-point finite-difference stencils (rows: offsets 0..4 from the left
# edge; interior row is centered)

_D1_EDGE = np.array([
    [-25.0, 48.0, -36.0, 16.0, -3.0],
    [-3.0, -10.0, 18.0, -6.0, 1.0],
]) / 12.0
_D1_CENTER = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0

_D2_EDGE = np.array([
    [35.0 / 12.0, -26.0 / 3.0, 19.0 / 2.0, -14.0 / 3.0, 11.0 / 12.0],
    [11.0 / 12.0, -5.0 / 3.0, 1.0 / 2.0, 1.0 / 3.0, -1.0 / 12.0],
])
_D2_CENTER = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def _apply_stencil(values, center, edge, h_power, h):
    """Differentiate along the last axis with a 5-point scheme: centered
    stencil at interior nodes, one-sided high-order stencils at the two
    nodes next to each boundary."""
    v = np.asarray(values, dtype=float)
    n = v.shape[-1]
    out = np.empty_like(v)
    acc = center[0] * v[..., 0:n - 4]
    for k in range(1, 5):
        acc = acc + center[k] * v[..., k:n - 4 + k]
    out[..., 2:-2] = acc
    head = v[..., :5]
    tail = v[..., -5:]
    for i in (0, 1):
        out[..., i] = head @ edge[i]
        # mirrored stencil at the right edge; odd-order derivatives flip sign
        sign = -1.0 if h_power == 1 else 1.0
        out[..., n - 1 - i] = sign * (tail[..., ::-1] @ edge[i])
    return out / h ** h_power


def deriv_y(values, dy):
    """First y-derivative, 4th-order interior, one-sided near edges."""
    return _apply_stencil(values, _D1_CENTER, _D1_EDGE, 1, dy)


def deriv_yy(values, dy):
    """Second y-derivative, 4th-order interior, one-sided near edges."""
    return _apply_stencil(values, _D2_CENTER, _D2_EDGE, 2, dy)


@dataclass
class ScalarField2D:
    """Values of a function of (t, y) on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_t, self.grid.n_y):
            raise GridError("field shape %s does not match grid (%d, %d)"
                            % (self.values.shape, self.grid.n_t, self.grid.n_y))
        if not np.all(np.isfinite(self.values)):
            raise IntegrityError("field contains non-finite values")

    @classmethod
    def from_function(cls, grid, f):
        tt, yy = np.meshgrid(grid.t_nodes, grid.y_nodes, indexing="ij")
        return cls(grid, f(tt, yy))

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, np.full((grid.n_t, grid.n_y), float(value)))

    def d_dy(self):
        return ScalarField2D(self.grid, deriv_y(self.values, self.grid.dy))

    def d2_dy2(self):
        return ScalarField2D(self.grid, deriv_yy(self.values, self.grid.dy))

    def __call__(self, t, y):
        """Bilinear interpolation, clamped to the grid box."""
        return bilinear(self.grid, self.values, t, y)


def _locate(nodes, x):
    """Cell index and fractional offset for clamped linear interpolation."""
    lo = nodes[0]
    x = np.minimum(np.maximum(x, lo), nodes[-1])
    h = nodes[1] - lo
    i = np.minimum(np.maximum(((x - lo) / h).astype(np.intp), 0),
                   len(nodes) - 2)
    w = (x - nodes.take(i)) / h
    return i, w


def bilinear(grid, values, t, y):
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    i, wt = _locate(grid.t_nodes, t)
    j, wy = _locate(grid.y_nodes, y)
    # gather the four corners by flat index from the row-major values
    n_y = values.shape[1]
    flat = values.reshape(-1)
    k = i * n_y + j
    v00 = flat.take(k)
    v01 = flat.take(k + 1)
    v10 = flat.take(k + n_y)
    v11 = flat.take(k + n_y + 1)
    my = 1 - wy
    return (1 - wt) * (my * v00 + wy * v01) + wt * (my * v10 + wy * v11)
