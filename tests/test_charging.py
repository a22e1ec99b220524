import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fomlab import charging as charging_mod
from fomlab.charging import (
    B2_CONSTANTS,
    MAX_GRID_POINTS,
    CAPPED,
    EXPONENTIAL,
    PIECEWISE,
    BoundGrid,
    ChargingFunction,
    ChargingKind,
    PiecewiseConstants,
    by_name,
    check_properties,
    minimize_psi1,
    minimize_psi2,
    psi1,
    psi2,
    ratio_bipartite,
    ratio_general,
)
from fomlab.engine import Side
from fomlab.errors import ChargingInvalid, OutOfDomain, TooLarge

from conftest import traced_peak_mib
from reference_charging import (
    reference_f_bipartite,
    reference_f_general,
    reference_over_tau,
    reference_psi1,
)


def test_exponential_at_zero():
    assert EXPONENTIAL.g(0.0) == pytest.approx(1 / math.e)


def test_piecewise_limit_values():
    assert PIECEWISE.g(1.0, Side.JUST_BELOW) == pytest.approx(0.593)
    assert PIECEWISE.h(1.0, Side.JUST_BELOW) == pytest.approx(0.197)
    assert PIECEWISE.phi(1.0, Side.JUST_BELOW) == pytest.approx(0.21)
    assert PIECEWISE.g(1.0, Side.AT) == 1.0
    assert PIECEWISE.h(1.0, Side.AT) == 0.0


def test_integrals_closed_form():
    assert PIECEWISE.g_integral(1.0) == pytest.approx(0.53805)
    assert PIECEWISE.h_integral(1.0) == pytest.approx(0.10795)
    assert EXPONENTIAL.g_integral(1.0) == pytest.approx(1 - 1 / math.e)
    # closed forms agree with numerical quadrature
    xs = np.linspace(0.0, 1.0, 100001)
    for ch in (EXPONENTIAL, PIECEWISE, CAPPED):
        num = np.trapezoid(ch.g_limit_grid(xs), xs)
        assert ch.g_integral(1.0) == pytest.approx(num, abs=1e-8)


def test_out_of_domain():
    with pytest.raises(OutOfDomain):
        PIECEWISE.g(1.5)


def test_by_name():
    assert by_name("exp") is EXPONENTIAL
    assert by_name("piecewise") is PIECEWISE
    assert by_name("capped") is CAPPED
    with pytest.raises(ChargingInvalid):
        by_name("quadratic")


def test_check_properties_pass():
    for ch in (EXPONENTIAL, PIECEWISE, CAPPED):
        assert check_properties(ch).passed


def test_check_properties_mutated_constants_fail():
    # kh1 = 1.2 drives h(1-) to 0.479, so g + h = 1.072 > 1 and phi < 0
    bad = ChargingFunction(
        ChargingKind.PIECEWISE_GENERAL,
        PiecewiseConstants(t=0.3, kg1=0.21, kg2=0.1, b=0.46, kh1=1.2, kh2=0.17),
    )
    report = check_properties(bad)
    assert not report.phi_nonnegative
    assert not report.passed


def test_check_properties_kh1_slightly_larger_still_passes():
    # kh1 = 0.6 gives h(1-) = 0.299 and phi(1-) = 0.108 >= 0: still legal
    ok = ChargingFunction(
        ChargingKind.PIECEWISE_GENERAL,
        PiecewiseConstants(t=0.3, kg1=0.21, kg2=0.1, b=0.46, kh1=0.6, kh2=0.17),
    )
    report = check_properties(ok)
    assert report.phi_nonnegative
    assert report.passed


def test_grid_validation():
    for step in (0.0, -1e-3, 2.0, math.nan, math.inf):
        with pytest.raises(ChargingInvalid):
            BoundGrid(step=step)
    assert len(BoundGrid(step=1.0).axis()) == 2


def test_grid_step_must_divide_the_unit_interval():
    for step, intervals in [(1.0, 1), (0.1, 10), (1e-2, 100), (2e-3, 500),
                            (1e-3, 1000), (5e-4, 2000), (2e-4, 5000),
                            (1.0 / (MAX_GRID_POINTS - 1), MAX_GRID_POINTS - 1),
                            (1.0 / 3, 3)]:
        assert len(BoundGrid(step=step).axis()) == intervals + 1
    for step, near in [(0.7, "1.0, 0.5"), (0.3, "0.3333333333333333, 0.25"),
                       (3e-4, "0.00030003000300030005, 0.00029994001199760045")]:
        match = f"grid step {step} .* near it: {near}$"
        with pytest.raises(ChargingInvalid, match=match):
            BoundGrid(step=step)


def test_grid_size_limit():
    # the bounds take O(points^2) time: 1e-5 would be 400 times the finest grid's
    for step in (1e-5, 1.9e-4):
        with pytest.raises(TooLarge):
            BoundGrid(step=step)
    assert len(BoundGrid(step=2e-4).axis()) == 5001


def test_f_bipartite_endpoints():
    # crossover: g(y) = 1 - 1/e at y = 1 + ln(1 - 1/e)
    y_star = 1.0 + math.log(1 - 1 / math.e)
    ys = np.array([0.0, 1.0, y_star])
    f = charging_mod._f_bipartite_matrix(ys, EXPONENTIAL, BoundGrid())
    want = [1 / math.e, 1 - 1 / math.e, 1 - 1 / math.e]
    assert f.tolist() == pytest.approx(want, abs=1e-6)


def test_ratio_bipartite_closed_form():
    e = math.e
    closed = (e - 2) / e + (1 - math.log(e - 1)) * (1 - 1 / e)
    assert closed == pytest.approx(0.5541791, abs=1e-6)
    assert ratio_bipartite(EXPONENTIAL) == pytest.approx(closed, abs=1e-3)


def test_ratio_bipartite_capped_improves():
    r_cap = ratio_bipartite(CAPPED)
    assert r_cap == pytest.approx(0.5547, abs=5e-4)
    assert r_cap > ratio_bipartite(EXPONENTIAL)


def test_psi2_at_one_minus_is_g_integral():
    for y_u in (0.0, 0.25, 0.8, 1.0):
        val = psi2(y_u, 1.0, PIECEWISE, theta_side=Side.JUST_BELOW)
        assert val == pytest.approx(0.53805, abs=1e-12)


def test_psi2_stationary_point():
    val, theta = minimize_psi2(1.0, PIECEWISE)
    assert val == pytest.approx(0.5359, abs=5e-4)
    assert theta == pytest.approx(0.273, abs=2e-3)


def test_psi1_stationary_point():
    val, theta = minimize_psi1(1.0, PIECEWISE)
    assert val == pytest.approx(0.5349, abs=5e-4)
    assert theta == pytest.approx(0.127, abs=2e-3)


def test_psi2_second_derivative_pattern():
    # in the g(y_u) < 1 - g(theta) branch (y_u = 0), the curvature in theta
    # is kg1 - 2*kh1 = -0.31 below the breakpoint and kg2 - 2*kh2 = -0.24 above
    def second(theta):
        d = 1e-3
        f = lambda th: psi2(0.0, th, PIECEWISE)
        return (f(theta + d) - 2 * f(theta) + f(theta - d)) / d**2

    assert second(0.15) == pytest.approx(-0.31, abs=1e-6)
    assert second(0.40) == pytest.approx(-0.24, abs=1e-6)


def test_psi1_nonincreasing_in_tau():
    thetas = np.linspace(0.0, 0.95, 20)
    for theta in thetas:
        taus = np.linspace(theta, 1.0, 30)
        vals = [
            psi1(0.9, float(theta), float(tau), PIECEWISE, tau_side=Side.JUST_BELOW)
            for tau in taus
        ]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_psi1_theta_equals_tau_drops_compensation():
    for y_u in (0.2, 0.7):
        for theta in (0.1, 0.3, 0.6):
            got = psi1(y_u, theta, theta, PIECEWISE)
            expected = PIECEWISE.g_integral(theta) + min(
                PIECEWISE.g(y_u), PIECEWISE.phi(theta)
            )
            assert got == pytest.approx(expected, abs=1e-12)


def test_f_general_values():
    f = charging_mod._f_general_matrix(np.array([0.0, 1.0]), PIECEWISE, BoundGrid())
    assert f[0] == pytest.approx(0.46, abs=1e-6)
    assert f[1] >= 0.5349 - 1e-9


def test_f_general_dominates_lemma_bound():
    ys = np.linspace(0.0, 1.0, 201)
    f = charging_mod._f_general_matrix(ys, PIECEWISE, BoundGrid())
    for y, value in zip(ys, f):
        bound = min(PIECEWISE.g(float(y), Side.JUST_BELOW), 0.5349)
        assert value >= bound - 1e-9


def test_phi_one_minus_clamp_never_binds_for_b2():
    # the general bound clamps compensations at phi(1-minus); with the stock
    # constants h stays below it on the whole grid, so the clamp is inert
    xs = BoundGrid(step=2e-3).axis()
    phi_one = PIECEWISE.phi(1.0, Side.JUST_BELOW)
    assert phi_one == pytest.approx(0.21)
    assert (PIECEWISE.h_limit_grid(xs) <= phi_one).all()


def test_ratio_general_bound():
    assert ratio_general(PIECEWISE) > 0.5211


def test_ratio_general_closed_form_cross_check():
    # y* solves g(y*) = 0.5349 on the second linear piece
    c = B2_CONSTANTS
    y_star = c.t + (0.5349 - (c.b + c.kg1 * c.t)) / c.kg2
    assert y_star == pytest.approx(0.419, abs=1e-3)
    lower = PIECEWISE.g_integral(y_star) + (1 - y_star) * 0.5349
    assert lower == pytest.approx(0.5212, abs=5e-4)
    assert ratio_general(PIECEWISE) == pytest.approx(lower, abs=1e-3)


def test_exponential_through_general_bound_not_better():
    grid = BoundGrid(step=2e-3)
    assert ratio_general(EXPONENTIAL, grid) <= ratio_bipartite(EXPONENTIAL, grid) + 1e-9


def test_quadrature_convergence():
    a = ratio_bipartite(EXPONENTIAL, BoundGrid(step=1e-3))
    b = ratio_bipartite(EXPONENTIAL, BoundGrid(step=5e-4))
    assert abs(a - b) < 1e-4
    c = ratio_general(PIECEWISE, BoundGrid(step=1e-3))
    d = ratio_general(PIECEWISE, BoundGrid(step=5e-4))
    assert abs(c - d) < 1e-4


def _pointwise(fn, xs, *args):
    return np.array([fn(float(x), *args) for x in xs])


@pytest.mark.parametrize("ch", [EXPONENTIAL, PIECEWISE, CAPPED])
def test_array_evaluation_matches_pointwise(ch):
    # the breakpoint, the cap crossing and both sides of the jump at 1
    xs = np.concatenate([np.linspace(0.0, 1.0, 401), [B2_CONSTANTS.t, 0.98712]])
    for side in Side:
        for fn in (ch.g, ch.h, ch.phi):
            vals = fn(xs, side)
            assert isinstance(vals, np.ndarray)
            assert np.array_equal(vals, _pointwise(fn, xs, side))
            assert isinstance(fn(0.5, side), float)
    for fn in (ch.g_integral, ch.h_integral):
        assert np.array_equal(fn(xs), _pointwise(fn, xs))
        assert isinstance(fn(0.5), float)
    assert np.array_equal(ch.g_limit_grid(xs), ch.g(xs, Side.JUST_BELOW))
    assert np.array_equal(ch.h_limit_grid(xs), ch.h(xs, Side.JUST_BELOW))


def test_side_only_changes_the_value_at_one():
    xs = np.linspace(0.0, 1.0, 101)
    for ch in (EXPONENTIAL, PIECEWISE, CAPPED):
        at, below = ch.g(xs, Side.AT), ch.g(xs, Side.JUST_BELOW)
        assert np.array_equal(at[:-1], below[:-1])
        assert at[-1] == 1.0
        assert ch.h(xs, Side.AT)[-1] == 0.0
    assert PIECEWISE.h(xs, Side.JUST_BELOW)[-1] == pytest.approx(0.197)


def test_array_out_of_domain():
    for bad in ([0.2, 1.0 + 1e-12], [-1e-12, 0.5], [0.5, math.nan]):
        with pytest.raises(OutOfDomain):
            PIECEWISE.g(np.array(bad))
        with pytest.raises(OutOfDomain):
            PIECEWISE.g_integral(np.array(bad))
    with pytest.raises(OutOfDomain):
        psi1(0.5, np.array([0.2, 0.6]), np.array([0.5, 0.5]), PIECEWISE)
    with pytest.raises(OutOfDomain):
        psi1(0.5, np.array([0.2]), np.array([1.0]), PIECEWISE)


def test_psi_broadcast_matches_pointwise():
    thetas = np.linspace(0.0, 1.0, 41)
    taus = np.linspace(0.0, 1.0, 37)
    below = Side.JUST_BELOW
    for ch in (EXPONENTIAL, PIECEWISE, CAPPED):
        for y_u in (0.0, 0.35, 1.0):
            th, tau = thetas[:, None], np.maximum(taus[None, :], thetas[:, None])
            grid = psi1(y_u, th, tau, ch, theta_side=below, tau_side=below)
            assert grid.shape == (41, 37)
            for i, j in [(0, 0), (5, 30), (20, 36), (40, 36), (13, 2)]:
                one = psi1(y_u, float(th[i, 0]), float(tau[i, j]), ch,
                           theta_side=below, tau_side=below)
                assert isinstance(one, float)
                assert grid[i, j] == one
            row = psi2(y_u, thetas, ch, theta_side=below)
            assert np.array_equal(
                row,
                [psi2(y_u, float(t), ch, theta_side=below) for t in thetas],
            )


# (value, theta) found by the earlier point-by-point sweeps (a coarse theta
# sweep with tau in {theta, (theta+1)/2, 1-}, then a 1e-5 theta sweep, each
# theta with its own coarse-plus-1e-5 tau sweep).
SWEEP_MINIMA = {
    0.0: ((0.46, 0.0), (0.46, 0.0)),
    0.3: ((0.523, 0.0), (0.523, 0.0)),
    0.5: ((0.5349206349260001, 0.12698000000000098),
          (0.5359090909094999, 0.27273000000000075)),
    0.8: ((0.5349206349260001, 0.12698000000000098),
          (0.5359090909094999, 0.27273000000000075)),
    1.0: ((0.5349206349260001, 0.12698000000000098),
          (0.5359090909094999, 0.27273000000000075)),
}


@pytest.mark.parametrize("y_u", sorted(SWEEP_MINIMA))
def test_minimizers_reproduce_pointwise_sweeps(y_u):
    want1, want2 = SWEEP_MINIMA[y_u]
    assert minimize_psi1(y_u, PIECEWISE) == pytest.approx(want1, abs=1e-12)
    assert minimize_psi2(y_u, PIECEWISE) == pytest.approx(want2, abs=1e-12)


def test_minimize_psi1_is_a_lower_envelope():
    # no sampled (theta, tau) pair beats the minimizer by more than the
    # quadratic error of a 1e-5 theta grid
    rng = np.random.default_rng(3)
    below = Side.JUST_BELOW
    for ch in (EXPONENTIAL, PIECEWISE, CAPPED):
        for y_u in (0.1, 0.6, 1.0):
            best, theta = minimize_psi1(y_u, ch)
            th = rng.random(4000)
            tau = th + (1.0 - th) * rng.random(4000)
            vals = psi1(y_u, th, tau, ch, theta_side=below, tau_side=below)
            assert vals.min() >= best - 1e-9
            assert psi1(y_u, theta, 1.0, ch, theta_side=below, tau_side=below) >= best


def test_property_report_dict_order():
    report = check_properties(PIECEWISE).as_dict()
    assert list(report) == [
        "g_nondecreasing",
        "g_one_is_one",
        "h_nondecreasing",
        "h_one_is_zero",
        "h_over_y_nonincreasing",
        "phi_nonnegative",
        "passed",
    ]
    assert all(type(v) is bool for v in report.values())


# -- row-blocked kernels against the whole-matrix references -----------------

ALL_KINDS = (EXPONENTIAL, PIECEWISE, CAPPED)
KERNELS = [
    (charging_mod._f_general_matrix, reference_f_general),
    (charging_mod._f_bipartite_matrix, reference_f_bipartite),
]


def _spanning_rows(size: int) -> np.ndarray:
    """0, 1, then the base-2 radical inverses 1/2, 1/4, 3/4, 1/8, ...: every
    block of a few consecutive rows spans nearly all of [0, 1]."""
    def radical_inverse(i):
        bits = bin(i)[2:]
        return int(bits[::-1], 2) / 2 ** len(bits)

    return np.array([0.0, 1.0] + [radical_inverse(i) for i in range(1, size - 1)])


def _y_rows(grid: BoundGrid) -> list:
    """y arrays of 1 row, one block minus one, one block and one block plus
    one row for each block size (random points with both ends of [0, 1]),
    rows whose every block spans g's whole range, and the whole axis."""
    rng = np.random.default_rng(11)
    ys = []
    for size in (1, 31, 32, 33, 63, 64, 65):
        y = rng.random(size)
        y[0] = 1.0
        if size > 1:
            y[-1] = 0.0
        ys.append(y)
    return ys + [_spanning_rows(200), grid.axis()]


def _by_row_chunks(reference, y, ch, grid):
    """The whole-matrix reference 625 rows at a time (a row does not depend
    on the others): 25 MB per array at the finest step."""
    return np.concatenate(
        [reference(y[i : i + 625], ch, grid) for i in range(0, len(y), 625)]
    )


@pytest.mark.parametrize("step", [1e-2, 1e-3, 5e-4, 2e-4])
@pytest.mark.parametrize("kernel, reference", KERNELS)
def test_blocked_kernels_match_whole_matrix(kernel, reference, step):
    grid = BoundGrid(step)
    for ch in ALL_KINDS:
        for y in _y_rows(grid):
            assert np.array_equal(
                kernel(y, ch, grid), _by_row_chunks(reference, y, ch, grid)
            )


@st.composite
def piecewise_pairs(draw):
    unit = st.floats(0.0, 1.0)
    t = draw(st.floats(0.01, 0.99))
    b, kg1, kg2, kh1 = (draw(unit) for _ in range(4))
    return ChargingFunction(
        ChargingKind.PIECEWISE_GENERAL,
        PiecewiseConstants(t=t, kg1=kg1, kg2=kg2, b=b, kh1=kh1, kh2=kh1 * draw(unit)),
    )


@settings(max_examples=40, deadline=None)
@given(ch=piecewise_pairs(), step=st.sampled_from([1e-2, 2e-3]))
def test_general_kernel_matches_whole_matrix_for_valid_piecewise_pairs(ch, step):
    # both kernels: the bipartite one's split of the theta-minimum holds for
    # any pair, b = 0 (where g(0) = 0) included
    assume(check_properties(ch).passed)
    grid = BoundGrid(step)
    for kernel, reference in KERNELS:
        for y in (_spanning_rows(150), grid.axis()):
            assert np.array_equal(kernel(y, ch, grid), reference(y, ch, grid))


@pytest.mark.parametrize("step", [1e-2, 1e-3, 5e-4])
def test_blocked_ratios_match_whole_matrix(step):
    # every kind through both bounds, as EXPONENTIAL through the general one
    grid = BoundGrid(step)
    ys = grid.axis()
    for ch in ALL_KINDS:
        want_general = float(np.trapezoid(reference_f_general(ys, ch, grid), ys))
        want_bipartite = float(np.trapezoid(reference_f_bipartite(ys, ch, grid), ys))
        assert repr(ratio_general(ch, grid)) == repr(want_general)
        assert repr(ratio_bipartite(ch, grid)) == repr(want_bipartite)


@pytest.mark.parametrize("y_u", [0.0, 0.5, 0.9, 1.0])
def test_blocked_minimize_psi1_matches_whole_matrix(y_u, monkeypatch):
    seen = []
    grid_argmin = charging_mod._grid_argmin

    def spy(fn):
        seen.append(fn)
        return grid_argmin(fn)

    monkeypatch.setattr(charging_mod, "_grid_argmin", spy)
    assert charging_mod.COARSE_STEP == 1e-3  # the step reference_over_tau takes
    rng = np.random.default_rng(5)
    for ch in ALL_KINDS:
        seen.clear()
        got = minimize_psi1(y_u, ch)
        want = grid_argmin(lambda th: reference_over_tau(y_u, th, ch))
        assert repr(got) == repr(want)
        (over_tau,) = seen
        full = np.clip(np.arange(0.0, 1.0 + 5e-4, 1e-3), 0.0, 1.0)
        for thetas in [rng.random(k) for k in (1, 31, 32, 33, 63, 64, 65)] + [
            _spanning_rows(100), full,
        ]:
            assert np.array_equal(
                over_tau(thetas), reference_over_tau(y_u, thetas, ch)
            )


@pytest.mark.parametrize("y_u", [0.0, 0.3, 0.77, 1.0])
def test_psi1_matches_its_one_expression_form(y_u):
    rng = np.random.default_rng(7)
    below = Side.JUST_BELOW
    for ch in ALL_KINDS:
        # random (theta, tau) pairs broadcast from a column and a matrix
        theta = rng.random((9, 1))
        tau = theta + (1.0 - theta) * rng.random((9, 13))
        tau[0, 0], theta[-1, 0] = theta[0, 0], 0.0
        both = {"theta_side": below, "tau_side": below}
        for sides in [{}, {"theta_side": below}, both]:
            got = psi1(y_u, theta, tau, ch, **sides)
            assert got.shape == (9, 13)
            assert np.array_equal(got, reference_psi1(y_u, theta, tau, ch, **sides))
        # tau = 1 asks for the 1-minus limit
        tau[:, -1] = 1.0
        got = psi1(y_u, theta, tau, ch, **both)
        assert np.array_equal(got, reference_psi1(y_u, theta, tau, ch, **both))
        one = psi1(y_u, 0.4, 1.0, ch, **both)
        assert isinstance(one, float)
        assert one == reference_psi1(y_u, 0.4, 1.0, ch, **both)
        with pytest.raises(OutOfDomain, match="theta <= tau"):
            psi1(y_u, np.array([0.2, 0.6]), np.array([0.5, 0.5]), ch, **both)
        with pytest.raises(OutOfDomain, match="JUST_BELOW"):
            psi1(y_u, theta, tau, ch, theta_side=below)


def test_bound_values_pinned():
    assert repr(ratio_general(PIECEWISE, BoundGrid(5e-4))) == "0.5211839337762498"
    assert repr(ratio_bipartite(EXPONENTIAL, BoundGrid(5e-4))) == "0.5541790944026251"


def test_bound_kernels_memory_stays_flat():
    # numpy reports its buffers to tracemalloc; the whole-matrix forms in
    # reference_charging.py peak at about 1,145 / 382 / 47 MiB on these calls,
    # the kernels at about 1.0-2.1 / 0.27 / 1.2 MiB: the bipartite bound
    # keeps no (y x theta) array at all.
    finest = BoundGrid(1.0 / (MAX_GRID_POINTS - 1))
    assert traced_peak_mib(lambda: ratio_general(PIECEWISE, finest)) < 5
    assert traced_peak_mib(lambda: ratio_bipartite(EXPONENTIAL, finest)) < 1
    assert traced_peak_mib(lambda: minimize_psi1(1.0, PIECEWISE)) < 8
