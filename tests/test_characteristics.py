import numpy as np
import pytest

from roughwave.characteristics import (
    ArclengthChart,
    DeterminacyTrapezoid,
    determinacy_domain,
    flow_levels,
    picard_characteristic_oracle,
)
from roughwave.errors import (
    DomainEscapeError,
    EmptyDomainError,
    ParameterError,
)
from roughwave.fields import sample_brownian_1d
from roughwave.grids import Grid1D
from roughwave.mollify import EmbeddedField1D, build_mollifier
from roughwave.smooth import (
    AnalyticField1D,
    AnalyticField2D,
    ConstantField2D,
    FromX,
    Interval,
    Rect,
)


def analytic_speed():
    # smooth, globally Lipschitz, speed bound 0.4
    return AnalyticField2D(
        {(0, 0): lambda x, t: 0.4 * np.sin(x + 0.3 * t)},
    )


def test_constant_speed_is_exact():
    c = ConstantField2D(0.7)
    xs = flow_levels(c, np.array([0.2]), 0.0, 1.5, 64)[:, 0]
    ts = np.linspace(0.0, 1.5, 65)
    assert abs(xs[-1] - (0.2 + 0.7 * 1.5)) <= 1e-12
    assert np.allclose(xs, 0.2 + 0.7 * ts, atol=1e-12)


def test_linear_speed_matches_exponential():
    c = AnalyticField2D({(0, 0): lambda x, t: x + 0.0 * t})
    xs = flow_levels(c, np.array([0.5]), 0.0, 1.0, 200)[:, 0]
    assert abs(xs[-1] - 0.5 * np.e) <= 1e-9


def test_backward_integration_inverts_forward():
    c = analytic_speed()
    fwd = flow_levels(c, np.array([-0.3]), 0.0, 1.0, 400)[:, 0]
    back = flow_levels(c, fwd[-1:], 1.0, 0.0, 400)[:, 0]
    assert abs(back[-1] - (-0.3)) <= 1e-9


def test_flow_semigroup_property():
    c = analytic_speed()
    xs = np.linspace(-1.0, 1.0, 9)
    direct = flow_levels(c, xs, 0.0, 1.2, 600)[-1]
    half = flow_levels(c, xs, 0.0, 0.6, 300)[-1]
    relay = flow_levels(c, half, 0.6, 1.2, 300)[-1]
    assert np.max(np.abs(direct - relay)) <= 1e-9


def test_picard_agrees_with_rk4():
    c = analytic_speed()
    xs = flow_levels(c, np.array([0.1]), 0.0, 1.0, 800)[:, 0]
    pic = picard_characteristic_oracle(c, x0=0.1, t0=0.0, t1=1.0, n_nodes=4097)
    assert abs(pic.xs[-1] - xs[-1]) <= 1e-8
    # update sizes decay geometrically once the iteration settles
    g = pic.gaps[pic.gaps > 0]
    assert np.all(np.diff(g[1:]) < 0.0)
    assert g[-1] <= 1e-12


def test_picard_iteration_limit():
    c = analytic_speed()
    from roughwave.errors import IterationLimitError

    with pytest.raises(IterationLimitError):
        picard_characteristic_oracle(c, 0.1, 0.0, 1.0, n_nodes=65, max_iter=2)


def test_flow_levels_freezes_escaping_walker():
    # unit speed on [-1, 1]: the walker from 0.4 would reach 1.15 on the
    # third step, so it stays at its last interior position 0.9
    c = ConstantField2D(1.0, domain=Rect(Interval(-1.0, 1.0), Interval(-5.0, 5.0)))
    levels = flow_levels(c, np.array([0.4, -0.9]), 0.0, 1.0, 4)
    assert levels.shape == (5, 2)
    assert np.allclose(levels[:, 0], [0.4, 0.65, 0.9, 0.9, 0.9], atol=1e-12)
    assert np.allclose(levels[:, 1], [-0.9, -0.65, -0.4, -0.15, 0.1], atol=1e-12)


def test_flow_levels_per_column_times_match_scalar_calls():
    # one time span per column, as the solver steps per-anchor feet: each
    # column must equal its own scalar-time march
    c = analytic_speed()
    xs = np.linspace(-1.0, 1.0, 7)
    t0 = np.array([0.3, 0.2, 0.1])
    t1 = t0 - 0.1
    block = np.stack([xs, xs + 0.05, xs - 0.05], axis=1)
    got = flow_levels(c, block, t0, t1, 3)
    assert got.shape == (4, 7, 3)
    for col in range(3):
        want = flow_levels(c, block[:, col], t0[col], t1[col], 3)
        np.testing.assert_array_equal(got[:, :, col], want)


def test_picard_detects_escape():
    c = ConstantField2D(1.0, domain=Rect(Interval(-1.0, 1.0), Interval(-5.0, 5.0)))
    with pytest.raises(DomainEscapeError):
        picard_characteristic_oracle(c, x0=0.9, t0=0.0, t1=1.0)


def test_determinacy_trapezoid_shrinks_at_speed_bound():
    c = ConstantField2D(1.0)
    trap = determinacy_domain(c, Interval(-1.0, 1.0), horizon=0.9)
    iv = trap.interval_at(0.5)
    assert iv.lo == pytest.approx(-1.0 + 0.505, abs=1e-12)
    assert iv.hi == pytest.approx(1.0 - 0.505, abs=1e-12)
    # symmetric in time
    iv_neg = trap.interval_at(-0.5)
    assert iv_neg.lo == iv.lo and iv_neg.hi == iv.hi
    assert trap.contains(0.0, 0.9)
    assert not trap.contains(0.9, 0.5)
    with pytest.raises(EmptyDomainError):
        trap.interval_at(1.0)


def test_determinacy_horizon_guard():
    c = ConstantField2D(2.0)
    with pytest.raises(EmptyDomainError):
        determinacy_domain(c, Interval(-1.0, 1.0), horizon=0.6)


def test_zero_speed_never_shrinks():
    c = ConstantField2D(0.0)
    trap = determinacy_domain(c, Interval(-1.0, 1.0), horizon=100.0)
    iv = trap.interval_at(100.0)
    assert iv.width == pytest.approx(2.0, rel=1e-9)


def test_t_independent_speed_bound_matches_all_rows():
    # a lifted smoothed path is sampled on one time row; the same field
    # flagged time-dependent is sampled on 129, and the sup is the same float
    grid = Grid1D.from_bounds(-4.0, 4.0, 1281)
    w = sample_brownian_1d(grid, seed=7)
    emb = EmbeddedField1D(w, build_mollifier(moments=2), 0.1)
    lifted = FromX(emb)
    rows = AnalyticField2D({(0, 0): lambda x, t: emb.values(x)}, t_independent=False)
    base = Interval(-1.5, 1.5)
    one = determinacy_domain(lifted, base, horizon=0.1)
    many = determinacy_domain(rows, base, horizon=0.1)
    assert one.speed_bound == many.speed_bound
    assert one.speed_bound > 0.0


def test_time_dependent_speed_bound_reaches_horizon():
    # 1 + t peaks only at t = horizon, so sampling a single row misses it
    c = AnalyticField2D({(0, 0): lambda x, t: 1.0 + t + 0.0 * x})
    trap = determinacy_domain(c, Interval(-1.0, 1.0), horizon=0.4)
    assert trap.speed_bound == 1.01 * (1.0 + 0.4)


# ------------------------------------------------------------- arclength


def flat_curve():
    return AnalyticField1D(
        [lambda x: np.zeros_like(x), lambda x: np.zeros_like(x)],
        domain=Interval(-3.0, 3.0),
    )


def test_arclength_flat_curve_translates():
    chart = ArclengthChart(flat_curve())
    xs = np.linspace(-1.0, 1.0, 11)
    assert np.allclose(chart.gamma(xs, 0.5, +1), xs - 0.5, atol=1e-12)
    assert np.allclose(chart.gamma(xs, 0.5, -1), xs + 0.5, atol=1e-12)


def test_arclength_unit_slope_line():
    line = AnalyticField1D(
        [lambda x: x, lambda x: np.ones_like(x)],
        domain=Interval(-3.0, 3.0),
    )
    chart = ArclengthChart(line)
    xs = np.linspace(-1.0, 1.0, 11)
    got = chart.gamma(xs, 0.7, +1)
    assert np.allclose(got, xs - 0.7 / np.sqrt(2.0), atol=1e-10)


def test_arclength_round_trip_and_monotone():
    curve = AnalyticField1D(
        [np.sin, np.cos],
        domain=Interval(-3.0, 3.0),
    )
    chart = ArclengthChart(curve)
    xs = np.linspace(-2.5, 2.5, 41)
    assert np.allclose(chart.position(chart.length(xs)), xs, atol=1e-12)
    assert np.all(np.diff(chart.lengths) > 0.0)


def test_arclength_speed_bound_invariant():
    # feet move at most distance t, measured along x
    eps = 0.05
    step = eps / 8
    grid = Grid1D.from_bounds(-4.0, 4.0, int(round(8.0 / step)) + 1)
    w = sample_brownian_1d(grid, seed=21)
    mol = build_mollifier(moments=2)
    curve = EmbeddedField1D(w, mol, eps)
    chart = ArclengthChart(curve)
    xs = np.linspace(-1.0, 1.0, 101)
    t = 0.4
    for sign in (+1, -1):
        feet = chart.gamma(xs, t, sign)
        assert np.all(np.abs(feet - xs) <= t + 1e-12)
    assert np.allclose(chart.gamma(xs, 0.0, +1), xs, atol=1e-12)


def test_arclength_escape_guard():
    chart = ArclengthChart(flat_curve())
    with pytest.raises(DomainEscapeError):
        chart.gamma(np.array([2.9]), 0.5, -1)
    with pytest.raises(DomainEscapeError):
        chart.length(np.array([3.5]))


def test_trapezoid_contains_vectorized():
    trap = DeterminacyTrapezoid(Interval(-1.0, 1.0), speed_bound=1.0)
    xs = np.array([-0.5, 0.0, 0.5, 0.95])
    inside = trap.contains(xs, 0.3)
    assert inside.tolist() == [True, True, True, False]


def test_parameter_guards():
    c = analytic_speed()
    with pytest.raises(ParameterError):
        flow_levels(c, np.array([0.0]), 0.0, 1.0, 0)
    with pytest.raises(ParameterError):
        determinacy_domain(c, Interval(-1.0, 1.0), horizon=-1.0)
    with pytest.raises(ParameterError):
        ArclengthChart(flat_curve(), n_nodes=2)
    chart = ArclengthChart(flat_curve())
    with pytest.raises(ParameterError):
        chart.gamma(np.array([0.0]), 0.1, 2)
