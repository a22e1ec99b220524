"""Charging-function pairs (g, h) and the competitive-ratio lower bounds.

Three kinds are provided: the exponential bipartite pair (h identically 0),
the two-segment piecewise-linear general pair, and an optional capped
exponential variant.  All integrals of g and h are evaluated in closed form
per piece.  Every function here takes a float or an ndarray and evaluates
its formula once for all points; a float argument gives a float back.

Values "at 1-minus" are requested through the JUST_BELOW side marker, never
through an epsilon below 1: both piecewise functions jump at 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, fields
from enum import Enum
from typing import Optional

import numpy as np

from .engine import Side
from .errors import ChargingInvalid, OutOfDomain, TooLarge

E_INV = 1.0 / math.e


class ChargingKind(Enum):
    EXPONENTIAL_BIPARTITE = "exp"
    PIECEWISE_GENERAL = "piecewise"
    CAPPED_EXPONENTIAL = "capped"


@dataclass(frozen=True)
class PiecewiseConstants:
    """Breakpoint and slopes of the two-segment linear (g, h) pair."""

    t: float
    kg1: float
    kg2: float
    b: float
    kh1: float
    kh2: float


B2_CONSTANTS = PiecewiseConstants(
    t=0.3, kg1=0.21, kg2=0.1, b=0.46, kh1=0.26, kh2=0.17
)

CAP_OFFSET = 0.0128
CAP_POINT = 1.0 + math.log1p(-CAP_OFFSET)
"""Where the capped g = min(1, e^(x-1) + CAP_OFFSET) reaches its cap."""

MAX_GRID_POINTS = 5001
"""Largest grid axis, a step of 2e-4.  The general bound's qsuf loop takes
O(points^2) time and each further halving of the step quadruples it: at 2e-4
the general bound takes 0.045-0.06 s, 0.037-0.043 s of it in that loop (2
vCPU Xeon, numpy 2.4).  Memory stays O(points) through the row blocks (a
1.0-2.1 MiB tracemalloc peak for the general bound)."""

_ROW_BLOCK = 64
"""Rows per block of the kernels that keep a (rows x theta) matrix.  The
general bound's blocks run on their pruned theta columns only: a larger
block evaluates fewer bounding rows over the whole axis but keeps more
columns.  Of 16-256 rows, its medians were 22.1, 18.1, 15.0, 18.2 and 15.8
ms at step 5e-4 and 72.9, 56.7, 51.1, 51.0 and 47.1 ms at 2e-4.
minimize_psi1 took 7.3-7.4 ms at 64 rows and 7.6-7.9 ms at 32 (2 vCPU Xeon,
medians interleaved in one process)."""

COARSE_STEP = 1e-3
"""Step of the theta grid, and of psi1's tau grid, on which `minimize_psi1`
and `minimize_psi2` search before refining around the grid minimum."""


@dataclass(frozen=True)
class BoundGrid:
    step: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.step) and 0.0 < self.step <= 1.0):
            raise ChargingInvalid(f"grid step must lie in (0, 1], got {self.step}")
        # the bounds take O(points^2) time, quadrupling with each halved step
        intervals = 1.0 / self.step
        if round(intervals) + 1 > MAX_GRID_POINTS:
            raise TooLarge(
                f"grid step {self.step} needs more than {MAX_GRID_POINTS} points"
                f" per axis; the smallest step is {1.0 / (MAX_GRID_POINTS - 1)}"
            )
        # the axis has round(1 / step) intervals: any other step would be
        # replaced by 1 / round(1 / step) without a word
        if not math.isclose(intervals, round(intervals), rel_tol=1e-9):
            ks = {math.floor(intervals), math.ceil(intervals)}
            near = [1.0 / k for k in sorted(ks) if k < MAX_GRID_POINTS]
            raise ChargingInvalid(
                f"grid step {self.step} does not divide [0, 1] into whole steps;"
                f" valid steps near it: {', '.join(map(str, near))}"
            )

    def axis(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, round(1.0 / self.step) + 1)


def _in_unit(x) -> np.ndarray:
    xa = np.asarray(x, dtype=float)
    if not ((xa >= 0.0) & (xa <= 1.0)).all():
        raise OutOfDomain(f"argument {x} outside [0, 1]")
    return xa


def _value(v):
    """A float for a 0-d result, the array otherwise."""
    return float(v) if np.ndim(v) == 0 else v


def _by_row_blocks(n_rows: int, fn) -> np.ndarray:
    """A length-n_rows array filled by fn(rows), one slice of at most
    _ROW_BLOCK rows at a time."""
    out = np.empty(n_rows)
    for start in range(0, n_rows, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        out[rows] = fn(rows)
    return out


def _two_piece(x: np.ndarray, t: float, k1: float, k2: float, b: float = 0.0):
    """k1*x + b up to the breakpoint t, then slope k2 (continuous at t)."""
    return np.where(x <= t, k1 * x + b, k2 * (x - t) + k1 * t + b)


def _two_piece_integral(x: np.ndarray, t: float, k1: float, k2: float, b: float = 0.0):
    """Integral of _two_piece over [0, x]."""
    d = x - t
    return np.where(
        x <= t,
        0.5 * k1 * x**2 + b * x,
        0.5 * k1 * t**2 + b * t + 0.5 * k2 * d**2 + (k1 * t + b) * d,
    )


@dataclass(frozen=True)
class ChargingFunction:
    kind: ChargingKind
    constants: Optional[PiecewiseConstants] = None

    def __post_init__(self):
        if self.kind is ChargingKind.PIECEWISE_GENERAL and self.constants is None:
            object.__setattr__(self, "constants", B2_CONSTANTS)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Where g or h changes formula inside (0, 1): the piecewise pair's t,
        the cap point.  A t outside (0, 1), or NaN, leaves one formula there."""
        if self.kind is ChargingKind.PIECEWISE_GENERAL:
            points = (self.constants.t,)
        else:
            points = (CAP_POINT,) if self.kind is ChargingKind.CAPPED_EXPONENTIAL else ()
        return tuple(x for x in points if 0.0 < x < 1.0)

    # -- evaluation at a float or an array of points ---------------------------
    # side decides the value at x == 1 only: AT gives the jump value there,
    # JUST_BELOW the 1-minus limit.

    def g(self, x, side: Side = Side.AT):
        x = _in_unit(x)
        if self.kind is ChargingKind.PIECEWISE_GENERAL:
            c = self.constants
            v = _two_piece(x, c.t, c.kg1, c.kg2, c.b)
        else:
            v = np.exp(x - 1.0)
            if self.kind is ChargingKind.CAPPED_EXPONENTIAL:
                v = np.minimum(1.0, v + CAP_OFFSET)
        return _value(np.where(x == 1.0, 1.0, v) if side is Side.AT else v)

    def h(self, x, side: Side = Side.AT):
        x = _in_unit(x)
        if self.kind is not ChargingKind.PIECEWISE_GENERAL:
            return _value(np.zeros_like(x))
        c = self.constants
        v = _two_piece(x, c.t, c.kh1, c.kh2)
        return _value(np.where(x == 1.0, 0.0, v) if side is Side.AT else v)

    def phi(self, x, side: Side = Side.AT):
        """Net retained gain 1 - g - h of an active endpoint."""
        return 1.0 - self.g(x, side) - self.h(x, side)

    # -- closed-form integrals ----------------------------------------------

    def g_integral(self, theta):
        """Exact integral of g over [0, theta] (the jump at 1 has measure 0)."""
        theta = _in_unit(theta)
        if self.kind is ChargingKind.PIECEWISE_GENERAL:
            c = self.constants
            return _value(_two_piece_integral(theta, c.t, c.kg1, c.kg2, c.b))
        v = np.exp(theta - 1.0) - E_INV
        if self.kind is ChargingKind.CAPPED_EXPONENTIAL:
            at_cap = math.exp(CAP_POINT - 1.0) - E_INV + CAP_OFFSET * CAP_POINT
            v = np.where(
                theta <= CAP_POINT, v + CAP_OFFSET * theta, at_cap + (theta - CAP_POINT)
            )
        return _value(v)

    def h_integral(self, theta):
        theta = _in_unit(theta)
        if self.kind is not ChargingKind.PIECEWISE_GENERAL:
            return _value(np.zeros_like(theta))
        c = self.constants
        return _value(_two_piece_integral(theta, c.t, c.kh1, c.kh2))

    # -- limit-valued grids (names kept for callers that look them up) -------

    def g_limit_grid(self, xs: np.ndarray) -> np.ndarray:
        """g on a grid, with the 1-minus limit at x == 1."""
        return self.g(xs, Side.JUST_BELOW)

    def h_limit_grid(self, xs: np.ndarray) -> np.ndarray:
        return self.h(xs, Side.JUST_BELOW)


EXPONENTIAL = ChargingFunction(ChargingKind.EXPONENTIAL_BIPARTITE)
PIECEWISE = ChargingFunction(ChargingKind.PIECEWISE_GENERAL, B2_CONSTANTS)
CAPPED = ChargingFunction(ChargingKind.CAPPED_EXPONENTIAL)

_BY_NAME = {ch.kind.value: ch for ch in (EXPONENTIAL, PIECEWISE, CAPPED)}


def by_name(name: str) -> ChargingFunction:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ChargingInvalid(f"unknown charging kind {name!r}") from None


@dataclass(frozen=True)
class PropertyReport:
    g_nondecreasing: bool
    g_one_is_one: bool
    h_nondecreasing: bool
    h_one_is_zero: bool
    h_over_y_nonincreasing: bool
    phi_nonnegative: bool

    @property
    def passed(self) -> bool:
        return all(getattr(self, f.name) for f in fields(self))

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


@functools.cache
def check_properties(
    charging: ChargingFunction, grid: BoundGrid = BoundGrid()
) -> PropertyReport:
    """Verify the required (g, h) properties on a dense grid plus breakpoints.

    Piecewise kinds additionally get exact slope checks.  The report is a
    pure function of two frozen values, so it is computed once for each.
    """
    # sorted, not np.unique: a point listed twice passes every check below,
    # and np.unique would load numpy.ma (about 1.2 MB) into each process
    xs = np.sort(np.concatenate([grid.axis(), charging.breakpoints]))
    tol = 1e-12
    gv = charging.g_limit_grid(xs)
    hv = charging.h_limit_grid(xs)
    g_nondec = bool(
        np.all(np.diff(gv) >= -tol) and charging.g(1.0) >= gv[-1] - tol
    )
    h_nondec = bool(np.all(np.diff(hv) >= -tol))
    pos = xs > 0
    ratio = hv[pos] / xs[pos]
    h_over_y = bool(np.all(np.diff(ratio) <= tol))
    phi_nonneg = bool(np.all(1.0 - gv - hv >= -tol))
    if charging.kind is ChargingKind.PIECEWISE_GENERAL:
        c = charging.constants
        g_nondec = g_nondec and c.kg1 >= 0 and c.kg2 >= 0
        h_nondec = h_nondec and c.kh1 >= 0 and c.kh2 >= 0
        h_over_y = h_over_y and c.kh2 <= c.kh1
    return PropertyReport(
        g_nondecreasing=g_nondec,
        g_one_is_one=abs(charging.g(1.0) - 1.0) < tol,
        h_nondecreasing=h_nondec,
        h_one_is_zero=abs(charging.h(1.0)) < tol,
        h_over_y_nonincreasing=h_over_y,
        phi_nonnegative=phi_nonneg,
    )


# -- bipartite bound ---------------------------------------------------------


def _f_bipartite_matrix(
    y: np.ndarray, charging: ChargingFunction, grid: BoundGrid
) -> np.ndarray:
    thetas = grid.axis()
    ig = charging.g_integral(thetas)
    gy = charging.g_limit_grid(y)
    # f(y) = min over theta of ig + min(1 - g, g(y)); rounding is monotone, so
    # fl(a + min(b, c)) = min(fl(a + b), fl(a + c)) and the minimum splits,
    # bitwise, into the y-free min(ig + 1 - g) and fl(min(ig) + g(y))
    free = (ig + (1.0 - charging.g_limit_grid(thetas))).min()
    # theta = 1 at the jump: 1 - g(1) = 0 is also a legal candidate
    vals_at_one = charging.g_integral(1.0) + np.minimum(0.0, gy)
    return np.minimum(np.minimum(free, ig.min() + gy), vals_at_one)


def ratio_bipartite(
    charging: ChargingFunction, grid: BoundGrid = BoundGrid()
) -> float:
    """Competitive-ratio lower bound: integral of the bipartite f over ranks."""
    if not check_properties(charging).passed:
        raise ChargingInvalid("charging function fails its required properties")
    ys = grid.axis()
    fy = _f_bipartite_matrix(ys, charging, grid)
    return float(np.trapezoid(fy, ys))


# -- general bound -----------------------------------------------------------


def _psi1(theta, tau, ig_theta, h_theta, m_theta, m_tau, out=(None, None)):
    """psi1 from its parts: the integral of g to theta, h(theta), and
    m = min(g(y_u), phi) at theta and at tau, added left to right.  Given
    two buffers of the (theta, tau) shape, every step writes into them."""
    a, b = out
    s = np.subtract(tau, theta, out=a)
    s = np.multiply(s, h_theta, out=a)
    s = np.add(ig_theta, s, out=a)
    s = np.add(s, (1.0 - theta) * m_theta, out=a)
    return np.add(s, np.multiply(theta, m_tau, out=b), out=a)


def psi1(
    y_u: float,
    theta,
    tau,
    charging: ChargingFunction,
    *,
    theta_side: Side = Side.AT,
    tau_side: Side = Side.AT,
):
    """Two-threshold bound term (compensation active between theta and tau)."""
    theta, tau = np.asarray(theta, dtype=float), np.asarray(tau, dtype=float)
    if not np.all((0.0 <= theta) & (theta <= tau) & (tau <= 1.0)):
        raise OutOfDomain(f"need 0 <= theta <= tau <= 1, got {theta}, {tau}")
    if tau_side is Side.AT and np.any(tau == 1.0):
        raise OutOfDomain("tau must stay below 1; pass side JUST_BELOW for 1-minus")
    gy = charging.g(y_u)
    return _value(_psi1(
        theta, tau, charging.g_integral(theta), charging.h(theta, theta_side),
        np.minimum(gy, charging.phi(theta, theta_side)),
        np.minimum(gy, charging.phi(tau, tau_side)),
    ))


def psi2(
    y_u: float,
    theta,
    charging: ChargingFunction,
    *,
    theta_side: Side = Side.AT,
):
    """Single-threshold bound term (no compensation window above theta)."""
    gy = charging.g(y_u)
    return _value(
        charging.g_integral(theta)
        + (1.0 - theta) * charging.h(theta, theta_side)
        + (1.0 - theta) * np.minimum(gy, 1.0 - charging.g(theta, theta_side))
    )


def _f_general_matrix(
    y: np.ndarray, charging: ChargingFunction, grid: BoundGrid
) -> np.ndarray:
    """Vectorized f(y_u) via the (theta, tau) decomposition.

    The tau minimization splits exactly into two candidates: tau = theta
    (constant compensation term plus g(y_u) share) and a suffix minimum of
    tau*h(theta) + theta*phi(tau) over the tau grid.  Both branches clamp
    the compensation at phi(1-minus): (1 - theta)*phi(1-minus) on the
    window, min(phi(1-minus), h) without one.  With the stock piecewise
    constants h never exceeds phi(1-minus), and the clamp never binds.

    The rows of y run in blocks of _ROW_BLOCK, each against only the
    theta columns that can hold one of its row minima.  Every op of `values`
    is nondecreasing in g(y_u) (adds, minimums, and products with xs or
    1 - xs, both >= 0), and so is each rounded result: the row at the
    block's lowest g bounds every column from below, and the minimum of the
    row at its highest g bounds every row minimum from above.  A column
    whose lower bound exceeds that upper bound holds no row minimum, so the
    minima over the kept columns equal those over all columns bitwise (the
    column giving the upper bound is always kept).  On the sorted axis with
    the stock piecewise pair a 64-row block keeps about 22 of 2,001 columns
    at step 5e-4, so the O(len(xs)^2) qsuf loop takes most of the time.
    Memory stays O(len(xs)).
    """
    xs = grid.axis()  # grid point at 1 means the 1-minus limit throughout
    n = len(xs)
    g_lim = charging.g_limit_grid(xs)
    h_lim = charging.h_limit_grid(xs)
    phi_lim = 1.0 - g_lim - h_lim
    ig = charging.g_integral(xs)
    phi_one = float(phi_lim[-1])

    qsuf = np.empty(n)
    for i in range(n):
        q = h_lim[i] * xs[i:] + xs[i] * phi_lim[i:]
        qsuf[i] = q.min()

    rest = 1.0 - xs
    # the y-free columns: the second branch (no compensation window, tau_m = 1)
    # keeps ig + rest * min(phi_one, h_lim) as its base
    table = np.stack([
        xs, xs * h_lim, rest * phi_one, qsuf, phi_lim, rest, ig,
        ig + rest * np.minimum(phi_one, h_lim), 1.0 - g_lim,
    ])

    def values(gy_col: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The bound at rows gy_col (a column) and the theta columns cols."""
        xs, xh, clamp_window, qsuf, phi_lim, rest, ig, base2, one_minus_g = cols
        a, b = np.empty((2, len(gy_col), len(xs)))
        # first branch: compensation window [theta, tau)
        np.multiply(xs, gy_col, out=a)
        np.add(xh, a, out=a)  # tau = theta
        np.multiply(xs, np.minimum(gy_col, phi_one), out=b)
        np.add(clamp_window, b, out=b)  # the clamp at phi(1-minus)
        np.minimum(a, qsuf, out=a)
        np.minimum(a, b, out=a)  # inner
        np.minimum(gy_col, phi_lim, out=b)
        np.multiply(rest, b, out=b)
        np.add(ig, b, out=b)
        np.add(b, a, out=b)
        np.subtract(b, xh, out=b)  # branch1
        # second branch, into the free buffer
        np.minimum(gy_col, one_minus_g, out=a)
        np.multiply(rest, a, out=a)
        np.add(base2, a, out=a)
        np.minimum(b, a, out=b)
        return b

    gy = charging.g_limit_grid(y)

    def block(rows: slice) -> np.ndarray:
        gy_col = gy[rows, None]
        low, high = values(np.array([gy_col.min(0), gy_col.max(0)]), table)
        keep = (low <= high.min()).nonzero()[0]
        return values(gy_col, table[:, keep]).min(axis=1)

    return _by_row_blocks(len(y), block)


def ratio_general(
    charging: ChargingFunction, grid: BoundGrid = BoundGrid()
) -> float:
    """Competitive-ratio lower bound: integral of the general f over ranks."""
    if not check_properties(charging).passed:
        raise ChargingInvalid("charging function fails its required properties")
    ys = grid.axis()
    fy = _f_general_matrix(ys, charging, grid)
    return float(np.trapezoid(fy, ys))


def _grid_argmin(fn) -> tuple[float, float]:
    """(min, argmin) of fn over [0, 1]: fn evaluates a whole array of points,
    once on the `COARSE_STEP` grid and once on a 1e-5 grid around its argmin."""
    xs = np.clip(np.arange(0.0, 1.0 + COARSE_STEP / 2, COARSE_STEP), 0.0, 1.0)
    vals = fn(xs)
    i = int(vals.argmin())
    a = max(0.0, xs[i] - COARSE_STEP)
    b = min(1.0, xs[i] + COARSE_STEP)
    fine = np.clip(np.arange(a, b + 5e-6, 1e-5), 0.0, 1.0)
    fine_vals = fn(fine)
    j = int(fine_vals.argmin())
    if fine_vals[j] < vals[i]:
        return float(fine_vals[j]), float(fine[j])
    return float(vals[i]), float(xs[i])


def minimize_psi2(y_u: float, charging: ChargingFunction) -> tuple[float, float]:
    """Minimum of psi2 over theta (1 treated as the 1-minus limit)."""
    return _grid_argmin(lambda th: psi2(y_u, th, charging, theta_side=Side.JUST_BELOW))


def minimize_psi1(y_u: float, charging: ChargingFunction) -> tuple[float, float]:
    """Minimum of psi1 over theta with tau at its optimum; returns (value, theta).

    Each theta takes the minimum over the coarse tau grid cut to tau >= theta
    (grid points below theta stand in for tau = theta; tau = 1 means the
    1-minus limit).  phi is elementwise, so phi(max(tau, theta)) is
    phi(tau) where tau >= theta and phi(theta) elsewhere: phi runs once on
    the tau grid and once per theta.
    """
    taus = np.clip(np.arange(0.0, 1.0 + COARSE_STEP / 2, COARSE_STEP), 0.0, 1.0)
    side = Side.JUST_BELOW
    gy = charging.g(y_u)
    m_taus = np.minimum(gy, charging.phi(taus, side))
    buf = np.empty((2, _ROW_BLOCK, len(taus)))

    def over_tau(thetas: np.ndarray) -> np.ndarray:
        ig = charging.g_integral(thetas)[:, None]
        h = charging.h(thetas, side)[:, None]
        m = np.minimum(gy, charging.phi(thetas, side))[:, None]
        th = thetas[:, None]

        def block(rows: slice) -> np.ndarray:
            t = th[rows]
            tau, m_tau = buf[:, : len(t)]
            np.maximum(taus, t, out=tau)
            np.copyto(m_tau, m[rows])
            np.copyto(m_tau, m_taus, where=taus >= t)
            psi = _psi1(t, tau, ig[rows], h[rows], m[rows], m_tau, (tau, m_tau))
            return psi.min(axis=1)

        return _by_row_blocks(len(thetas), block)

    return _grid_argmin(over_tau)
