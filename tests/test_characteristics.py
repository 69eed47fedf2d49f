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
from roughwave.smooth import AnalyticField1D, ConstantField1D, Interval


def analytic_speed():
    # smooth, globally Lipschitz, speed bound 0.4
    return AnalyticField1D([lambda x: 0.4 * np.sin(x)])


def unit_speed_on_unit_interval():
    return AnalyticField1D([np.ones_like], domain=Interval(-1.0, 1.0))


def test_constant_speed_is_exact():
    c = ConstantField1D(0.7)
    xs = flow_levels(c, np.array([0.2]), 1.5, 64)[:, 0]
    ts = np.linspace(0.0, 1.5, 65)
    assert abs(xs[-1] - (0.2 + 0.7 * 1.5)) <= 1e-12
    assert np.allclose(xs, 0.2 + 0.7 * ts, atol=1e-12)


def test_linear_speed_matches_exponential():
    c = AnalyticField1D([lambda x: x])
    xs = flow_levels(c, np.array([0.5]), 1.0, 200)[:, 0]
    assert abs(xs[-1] - 0.5 * np.e) <= 1e-9


def test_backward_integration_inverts_forward():
    c = analytic_speed()
    fwd = flow_levels(c, np.array([-0.3]), 1.0, 400)[:, 0]
    back = flow_levels(c, fwd[-1:], -1.0, 400)[:, 0]
    assert abs(back[-1] - (-0.3)) <= 1e-9


def test_flow_semigroup_property():
    c = analytic_speed()
    xs = np.linspace(-1.0, 1.0, 9)
    direct = flow_levels(c, xs, 1.2, 600)[-1]
    half = flow_levels(c, xs, 0.6, 300)[-1]
    relay = flow_levels(c, half, 0.6, 300)[-1]
    assert np.max(np.abs(direct - relay)) <= 1e-9


def test_picard_agrees_with_rk4():
    c = analytic_speed()
    xs = flow_levels(c, np.array([0.1]), 1.0, 800)[:, 0]
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
    c = unit_speed_on_unit_interval()
    levels = flow_levels(c, np.array([0.4, -0.9]), 1.0, 4)
    assert levels.shape == (5, 2)
    assert np.allclose(levels[:, 0], [0.4, 0.65, 0.9, 0.9, 0.9], atol=1e-12)
    assert np.allclose(levels[:, 1], [-0.9, -0.65, -0.4, -0.15, 0.1], atol=1e-12)


def test_picard_detects_escape():
    c = unit_speed_on_unit_interval()
    with pytest.raises(DomainEscapeError):
        picard_characteristic_oracle(c, x0=0.9, t0=0.0, t1=1.0)


def test_determinacy_trapezoid_shrinks_at_speed_bound():
    c = ConstantField1D(1.0)
    trap = determinacy_domain([c], Interval(-1.0, 1.0), horizon=0.9)
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
    c = ConstantField1D(2.0)
    with pytest.raises(EmptyDomainError):
        determinacy_domain([c], Interval(-1.0, 1.0), horizon=0.6)


def test_zero_speed_never_shrinks():
    c = ConstantField1D(0.0)
    trap = determinacy_domain([c], Interval(-1.0, 1.0), horizon=100.0)
    iv = trap.interval_at(100.0)
    assert iv.width == pytest.approx(2.0, rel=1e-9)


def test_determinacy_bound_is_the_largest_speed():
    # one bound for every speed: the largest |c_i|, inflated by 1.01
    speeds = [ConstantField1D(0.5), ConstantField1D(-2.0)]
    trap = determinacy_domain(speeds, Interval(-1.0, 1.0), horizon=0.4)
    assert trap.speed_bound == 1.01 * 2.0


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


def brownian_curve(eps=0.05):
    step = eps / 8
    grid = Grid1D.from_bounds(-4.0, 4.0, int(round(8.0 / step)) + 1)
    return EmbeddedField1D(sample_brownian_1d(grid, seed=21),
                           build_mollifier(moments=2), eps)


def test_arclength_speed_bound_invariant():
    # feet move at most distance t, measured along x
    chart = ArclengthChart(brownian_curve())
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


def test_arclength_window_keeps_a_slice_of_the_full_lattice():
    curve = brownian_curve()
    full = ArclengthChart(curve, n_nodes=2049)
    chart = ArclengthChart(curve, n_nodes=2049, window=Interval(-1.5, 1.5))
    lo = np.flatnonzero(full.xs <= -1.5)[-1]
    hi = np.flatnonzero(full.xs >= 1.5)[0]
    assert np.array_equal(chart.xs, full.xs[lo : hi + 1])
    # the running sum starts at the first kept node: lengths differ by a
    # constant up to rounding
    assert np.allclose(chart.lengths, full.lengths[lo : hi + 1] - full.lengths[lo],
                       rtol=0.0, atol=1e-13)


def test_arclength_window_covering_the_domain_changes_nothing():
    curve = brownian_curve()
    full = ArclengthChart(curve, n_nodes=2049)
    dom = curve.domain
    for window in (dom, Interval(dom.lo - 1.0, dom.hi + 1.0)):
        chart = ArclengthChart(curve, n_nodes=2049, window=window)
        assert np.array_equal(chart.xs, full.xs)
        assert np.array_equal(chart.lengths, full.lengths)


def test_arclength_window_feet_match_the_full_chart():
    curve = brownian_curve()
    probes = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    t = 0.5
    full = ArclengthChart(curve, n_nodes=4097)
    chart = ArclengthChart(curve, n_nodes=4097,
                           window=Interval(probes.min() - t, probes.max() + t))
    assert chart.xs.size < full.xs.size // 2
    # only the running sum's offset differs, so the feet agree to a few
    # rounding units of the full chart's length (19.8 here, 3.6e-15 each)
    tol = 8 * np.spacing(full.lengths[-1])
    for sign in (+1, -1):
        assert np.abs(chart.gamma(probes, t, sign)
                      - full.gamma(probes, t, sign)).max() <= tol


@pytest.mark.parametrize("window", [Interval(0.0, 1e-3), Interval(5.0, 6.0),
                                    Interval(-9.0, -3.0)])
def test_arclength_window_with_fewer_than_three_nodes_is_refused(window):
    # 0.0 is a node of the 7-node lattice on [-3, 3], so [0, 1e-3] keeps
    # two; the others lie beyond the ends and keep one
    with pytest.raises(ParameterError, match="need at least three"):
        ArclengthChart(flat_curve(), n_nodes=7, window=window)


def test_arclength_window_queries_outside_the_kept_stretch_escape():
    # the 7-node lattice on [-3, 3] has the window's ends as nodes
    chart = ArclengthChart(flat_curve(), n_nodes=7, window=Interval(-1.0, 1.0))
    assert chart.xs.tolist() == [-1.0, 0.0, 1.0]
    assert chart.length(np.array([-1.0, 1.0])).tolist() == [0.0, 2.0]
    with pytest.raises(DomainEscapeError):
        chart.length(np.array([1.01]))
    with pytest.raises(DomainEscapeError):
        chart.gamma(np.array([0.8]), 0.5, -1)
    with pytest.raises(DomainEscapeError):
        chart.position(np.array([-0.01]))


def test_trapezoid_contains_vectorized():
    trap = DeterminacyTrapezoid(Interval(-1.0, 1.0), speed_bound=1.0)
    xs = np.array([-0.5, 0.0, 0.5, 0.95])
    inside = trap.contains(xs, 0.3)
    assert inside.tolist() == [True, True, True, False]


def test_parameter_guards():
    c = analytic_speed()
    with pytest.raises(ParameterError):
        flow_levels(c, np.array([0.0]), 1.0, 0)
    for horizon in (-1.0, np.nan, np.inf):
        with pytest.raises(ParameterError):
            determinacy_domain([c], Interval(-1.0, 1.0), horizon=horizon)
    with pytest.raises(ParameterError, match="not finite"):
        determinacy_domain([ConstantField1D(np.nan)], Interval(-1.0, 1.0), horizon=0.5)
    with pytest.raises(ParameterError):
        ArclengthChart(flat_curve(), n_nodes=2)
    chart = ArclengthChart(flat_curve())
    with pytest.raises(ParameterError):
        chart.gamma(np.array([0.0]), 0.1, 2)
