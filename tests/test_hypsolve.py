from collections import Counter

import numpy as np
import pytest

from roughwave.characteristics import ArclengthChart
from roughwave.errors import (
    DomainError,
    IterationLimitError,
    ParameterError,
    ShapeMismatchError,
)
from roughwave import hypsolve
from roughwave.fields import SampledProcess, sample_brownian_1d
from roughwave.grids import Grid1D
from roughwave.hypsolve import (
    HyperbolicProblem,
    geometric_wave_solve,
    gronwall_check,
    halving_error_estimate,
    solve_system,
    transport_t_only,
    wave_to_system,
)
from roughwave.mollify import EmbeddedField1D, build_mollifier
from roughwave.smooth import (
    AnalyticField1D,
    AnalyticField2D,
    ConstantField1D,
    ConstantField2D,
    Interval,
    running_trapezoid,
)

SIN = AnalyticField1D([np.sin, np.cos])
ZERO_1D = ConstantField1D(0.0)


def single(speed, coupling=None, forcing=None, data=SIN):
    return HyperbolicProblem(
        speeds=[speed],
        coupling=[[coupling]],
        forcing=[forcing],
        data=[data],
    )


def test_problem_validation():
    with pytest.raises(ParameterError):
        HyperbolicProblem(speeds=[], coupling=[], forcing=[], data=[])
    with pytest.raises(ShapeMismatchError):
        HyperbolicProblem(
            speeds=[ZERO_1D], coupling=[[None, None]], forcing=[None], data=[SIN]
        )
    with pytest.raises(ShapeMismatchError):
        HyperbolicProblem(speeds=[ZERO_1D], coupling=[[None]], forcing=[], data=[SIN])


def test_constant_speed_transport_is_exact():
    prob = single(ConstantField1D(0.8))
    sol = solve_system(prob, Interval(-4.0, 4.0), horizon=0.5, dt=0.01)
    xs, got = sol.on_level(0, 0.5)
    assert np.max(np.abs(got - np.sin(xs - 0.8 * 0.5))) <= 1e-12
    assert sol.audit_gap <= 1e-9
    assert sol.gaps[-1] <= 1e-10


def test_forced_transport_manufactured_solution():
    # u(x,t) = sin(x - 0.8 t) + t^2 needs forcing g = 2t (linear: trapezoid-exact)
    g = AnalyticField2D(lambda x, t: 2.0 * t + 0.0 * x)
    prob = single(ConstantField1D(0.8), forcing=g)
    sol = solve_system(prob, Interval(-4.0, 4.0), horizon=0.5, dt=0.01)
    xs, got = sol.on_level(0, 0.5)
    want = np.sin(xs - 0.4) + 0.25
    assert np.max(np.abs(got - want)) <= 1e-10


def test_static_forcing_without_coupling():
    # a time-independent forcing is the row's only right-hand side: its one
    # shared column must reach every anchor level
    prob = single(ConstantField1D(0.8), forcing=ConstantField2D(2.0))
    sol = solve_system(prob, Interval(-4.0, 4.0), horizon=0.5, dt=0.01)
    xs, got = sol.on_level(0, 0.5)
    assert np.max(np.abs(got - (np.sin(xs - 0.4) + 1.0))) <= 1e-10


def test_exponential_ode_matches_discrete_fixed_point():
    # speed 0, u' = u, u(0) = 1: the trapezoid fixed point is
    # ((2 + dt) / (2 - dt))^k exactly, and e^t up to O(t dt^2)
    dt = 0.005
    prob = single(ZERO_1D, coupling=ConstantField2D(1.0), data=ConstantField1D(1.0))
    sol = solve_system(prob, Interval(-1.0, 1.0), horizon=1.0, dt=dt, tol=1e-13)
    _, got = sol.on_level(0, 1.0)
    k = len(sol.t_nodes) - 1
    discrete = ((2.0 + dt) / (2.0 - dt)) ** k
    assert np.max(np.abs(got - discrete)) <= 1e-9
    assert abs(got[0] - np.e) <= 3.0 * np.e * dt**2 / 12.0


def test_exponential_ode_tight_tolerance():
    dt = 0.001
    prob = single(ZERO_1D, coupling=ConstantField2D(1.0), data=ConstantField1D(1.0))
    sol = solve_system(
        prob, Interval(-1.0, 1.0), horizon=1.0, dt=dt, tol=1e-13, x_step=0.25
    )
    _, got = sol.on_level(0, 1.0)
    assert np.max(np.abs(got - np.e)) <= 1e-6


def test_oscillator_coupling():
    # u' = v, v' = -u with (u, v)(0) = (1, 0): u = cos t, v = -sin t
    one = ConstantField2D(1.0)
    neg = ConstantField2D(-1.0)
    prob = HyperbolicProblem(
        speeds=[ZERO_1D, ZERO_1D],
        coupling=[[None, one], [neg, None]],
        forcing=[None, None],
        data=[ConstantField1D(1.0), ConstantField1D(0.0)],
    )
    sol = solve_system(prob, Interval(-1.0, 1.0), horizon=1.0, dt=0.01)
    _, u = sol.on_level(0, 1.0)
    _, v = sol.on_level(1, 1.0)
    assert np.max(np.abs(u - np.cos(1.0))) <= 2e-5
    assert np.max(np.abs(v + np.sin(1.0))) <= 2e-5


def test_iteration_limit_raises():
    prob = single(ZERO_1D, coupling=ConstantField2D(5.0), data=ConstantField1D(1.0))
    with pytest.raises(IterationLimitError):
        solve_system(prob, Interval(-1.0, 1.0), horizon=1.0, dt=0.05, max_iter=3)


def test_solve_system_refuses_a_speed_that_varies_in_t(monkeypatch):
    # u_t + (0.5 + 0.25 sin t) u_x = 0, alone and as the wave speed, is
    # outside the problem class: a speed must be a Field1D, and one of
    # (x, t) is refused before any feet are computed
    lam = AnalyticField2D(lambda x, t: 0.5 + 0.25 * np.sin(t) + 0.0 * x)

    def no_feet(*args):
        raise AssertionError("feet computed for a refused speed")

    monkeypatch.setattr(hypsolve, "_feet_blocks", no_feet)
    for build in (single, bump_wave):
        with pytest.raises(ParameterError, match="must be a Field1D"):
            solve_system(build(lam), Interval(-3.0, 3.0), horizon=0.5, dt=0.01)


@pytest.mark.parametrize("kw", [
    {"coupling": SIN},
    {"coupling": 0.5},
    {"forcing": SIN},
    {"data": ConstantField2D(1.0)},
    {"data": None},
], ids=["coupling-1d", "coupling-number", "forcing-1d", "data-2d", "data-none"])
def test_problem_refuses_entries_of_the_wrong_type(kw):
    # a Field1D coupling once got a TypeError inside _along_feet, after
    # the feet were built
    with pytest.raises(ParameterError, match="must be a Field"):
        single(ConstantField1D(0.5), **kw)


@pytest.mark.parametrize("name", ["u0", "u0_slope", "u1"])
def test_wave_to_system_refuses_data_that_are_not_fields_of_x(name):
    # a Field2D u0_slope or u1 once raised AttributeError from the
    # data-domain intersection
    data = {"u0": SIN, "u0_slope": AnalyticField1D([np.cos]), "u1": ZERO_1D}
    data[name] = ConstantField2D(1.0)
    with pytest.raises(ParameterError, match=f"{name} must be a Field1D"):
        wave_to_system(ConstantField1D(1.0), **data)


@pytest.mark.parametrize("kw", [
    {"x_step": -0.1},
    {"x_step": 0.0},
    {"x_step": np.inf},
    {"x_step": np.nan},
    {"dt": np.nan},
    {"horizon": np.nan},
], ids=["x-step-negative", "x-step-zero", "x-step-inf", "x-step-nan", "dt-nan",
        "horizon-nan"])
def test_solve_system_rejects_meaningless_steps(kw):
    args = dict(horizon=0.5, dt=0.05) | kw
    with pytest.raises(ParameterError):
        solve_system(single(ConstantField1D(0.5)), Interval(-1.0, 1.0), **args)


def test_rough_speed_gets_capped_steps():
    eps = 0.05
    step = eps / 8
    grid = Grid1D.from_bounds(-4.0, 4.0, int(round(8.0 / step)) + 1)
    w = sample_brownian_1d(grid, seed=11)
    mol = build_mollifier(moments=2)
    speed = EmbeddedField1D(w, mol, eps)
    assert np.isfinite(speed.scale)
    dt = 0.02
    n = hypsolve._substeps(speed, dt)
    # step no coarser than scale/16
    assert dt / n <= speed.scale / 16.0 + 1e-15


def test_solution_queries_respect_trust_region():
    prob = single(ConstantField1D(1.0))
    sol = solve_system(prob, Interval(-2.0, 2.0), horizon=1.0, dt=0.01)
    with pytest.raises(DomainError):
        sol.values(0, np.array([1.9]), np.array([0.5]))
    # interior bilinear query matches the exact solution
    got = sol.values(0, np.array([0.3]), np.array([0.25]))
    assert abs(got[0] - np.sin(0.3 - 0.25)) <= 1e-4


def test_solution_query_refuses_a_time_per_point():
    # one lattice level per query: a float or a one-entry array
    sol = solve_system(single(ConstantField1D(1.0)), Interval(-2.0, 2.0),
                       horizon=0.5, dt=0.05)
    xs = np.linspace(-0.5, 0.5, 7)
    want = sol.values(0, xs, 0.25)
    np.testing.assert_array_equal(sol.values(0, xs, np.array([0.25])), want)
    with pytest.raises(ParameterError, match=r"shape \(7,\)"):
        sol.values(0, xs, np.full_like(xs, 0.25))
    with pytest.raises(ParameterError, match=r"shape \(0,\)"):
        sol.values(0, xs, np.array([]))


def test_dalembert_wave():
    # u_tt = u_xx, u0 = sin, u1 = 0: u = sin x cos t
    prob = wave_to_system(
        speed=ConstantField1D(1.0),
        u0=SIN,
        u0_slope=AnalyticField1D([np.cos]),
        u1=ZERO_1D,
    )
    sol = solve_system(prob, Interval(-np.pi - 1.3, np.pi + 1.3), horizon=1.0, dt=0.01)
    xs, u = sol.on_level(2, 1.0)
    assert np.max(np.abs(u - np.sin(xs) * np.cos(1.0))) <= 1e-4
    # the two characteristic components transport exactly
    xs_v, v = sol.on_level(0, 1.0)
    assert np.max(np.abs(v + np.cos(xs_v - 1.0))) <= 1e-12


def test_gronwall_bound_holds():
    prob = wave_to_system(
        speed=ConstantField1D(1.0),
        u0=SIN,
        u0_slope=AnalyticField1D([np.cos]),
        u1=ZERO_1D,
    )
    base = Interval(-np.pi - 1.3, np.pi + 1.3)
    sol = solve_system(prob, base, horizon=1.0, dt=0.01)
    lhs, rhs, ok = gronwall_check(sol, prob)
    assert ok
    assert np.all(np.isfinite(rhs))
    assert rhs[-1] >= lhs[-1]


def test_transport_t_only_closed_form():
    # path sin, so the speed is cos
    moved, shift = transport_t_only(SIN, AnalyticField1D([np.sin, np.cos]), t=0.7)
    assert shift == pytest.approx(np.sin(0.7), abs=1e-12)
    xs = np.linspace(-1.0, 1.0, 11)
    assert np.allclose(moved.values(xs), np.sin(xs - shift), atol=1e-12)


def test_transport_t_only_embedded_shift_is_exact():
    # smoothed path: the shift must equal its increment bit for bit, and
    # match the integral of the smoothed derivative, the speed
    eps = 0.05
    grid = Grid1D.from_bounds(-2.0, 2.0, int(round(4.0 / (eps / 8))) + 1)
    w = sample_brownian_1d(grid, seed=31)
    mol = build_mollifier(moments=2)
    path = EmbeddedField1D(w, mol, eps)
    moved, shift = transport_t_only(SIN, path, t=0.6)
    want = path.values(np.array([0.6]))[0] - path.values(np.array([0.0]))[0]
    assert abs(shift - want) <= 1e-12
    assert np.allclose(moved.values(np.array([0.3])), np.sin(0.3 - shift), atol=1e-12)
    ts = np.linspace(0.0, 0.6, 4801)
    speed = EmbeddedField1D(w, mol, eps).values(ts, order=1)
    assert abs(running_trapezoid(speed, ts[1] - ts[0])[-1] - shift) <= 1e-7


def test_geometric_wave_dual_route():
    # route 1: full system solve of the wave along the curve y = 0.3 sin x,
    # u_tt = lam^2 u_xx + lam lam_x u_x with lam = 1 / sqrt(1 + c'^2).  Its
    # drift lam lam_x cancels the reduction's coupling (drift - lam lam_x) /
    # (2 lam) exactly, so v and w are pure transport at speeds +-lam and u
    # integrates (v + w) / 2
    # route 2: closed form through the arclength chart
    def lam(x):
        return 1.0 / np.sqrt(1.0 + 0.09 * np.cos(x) ** 2)

    def slope(x):
        return -8.0 * x * np.exp(-4.0 * x**2)

    def char_datum(sign):
        return AnalyticField1D([lambda x: sign * lam(x) * slope(x)])

    u0 = AnalyticField1D([lambda x: np.exp(-4.0 * x**2), slope])
    half = ConstantField2D(0.5)
    prob = HyperbolicProblem(
        speeds=[
            AnalyticField1D([lam]),
            AnalyticField1D([lambda x: -lam(x)]),
            ZERO_1D,
        ],
        coupling=[[None, None, None], [None, None, None], [half, half, None]],
        forcing=[None, None, None],
        data=[char_datum(-1.0), char_datum(+1.0), u0],
    )
    sol = solve_system(prob, Interval(-3.0, 3.0), horizon=0.4, dt=0.005)
    xs = np.linspace(-1.5, 1.5, 41)
    route1 = sol.values(2, xs, 0.4)

    curve = AnalyticField1D(
        [lambda x: 0.3 * np.sin(x), lambda x: 0.3 * np.cos(x)],
        domain=Interval(-4.0, 4.0),
    )
    chart = ArclengthChart(curve)
    route2 = geometric_wave_solve(chart, u0, None, xs, 0.4)
    assert np.max(np.abs(route1 - route2)) <= 5e-4


def test_geometric_wave_with_initial_velocity():
    # flat curve: d'Alembert with velocity g: u = [G(x+t) - G(x-t)] / 2
    flat = AnalyticField1D(
        [lambda x: np.zeros_like(x), lambda x: np.zeros_like(x)],
        domain=Interval(-4.0, 4.0),
    )
    chart = ArclengthChart(flat)
    u0 = ConstantField1D(0.0)
    u1 = AnalyticField1D([np.cos])
    xs = np.linspace(-1.0, 1.0, 21)
    got = geometric_wave_solve(chart, u0, u1, xs, 0.5)
    want = 0.5 * (np.sin(xs + 0.5) - np.sin(xs - 0.5))
    assert np.max(np.abs(got - want)) <= 1e-8


def test_halving_error_estimate():
    prob = single(ZERO_1D, coupling=ConstantField2D(1.0), data=ConstantField1D(1.0))
    base = Interval(-1.0, 1.0)
    sol = solve_system(prob, base, horizon=1.0, dt=0.02, x_step=0.02)
    est = halving_error_estimate(prob, sol, base, horizon=1.0, dt=0.02, x_step=0.02)
    # trapezoid exponential: known discrete values at both resolutions
    k = 50
    coarse = ((2.0 + 0.02) / (2.0 - 0.02)) ** k
    fine = ((2.0 + 0.01) / (2.0 - 0.01)) ** (2 * k)
    assert est == pytest.approx(abs(coarse - fine), rel=1e-6)
    assert est < 1e-4


def smoothed_speed():
    # 1.5 + 0.3 sin x on a grid, smoothed at scale 0.2: an EmbeddedField1D
    # speed that stays away from zero
    grid = Grid1D.from_bounds(-4.0, 4.0, 321)
    path = SampledProcess(grid, 1.5 + 0.3 * np.sin(grid.nodes()), 0, "test-speed")
    return EmbeddedField1D(path, build_mollifier(moments=2), 0.2)


BUMP = AnalyticField1D([lambda x: np.exp(-4.0 * x**2)])
BUMP_SLOPE = AnalyticField1D([lambda x: -8.0 * x * np.exp(-4.0 * x**2)])


def bump_wave(speed):
    return wave_to_system(speed, BUMP, BUMP_SLOPE, ZERO_1D)


def test_negated_wave_speed_keeps_the_smoothing_scale():
    # the -lam family takes as many RK4 substeps as the +lam family
    prob = bump_wave(smoothed_speed())
    plus, minus = prob.speeds[0], prob.speeds[1]
    assert hypsolve._substeps(minus, 0.02) == hypsolve._substeps(plus, 0.02) == 2


def test_halving_estimate_reuses_the_coarse_solve():
    # the caller's coarse solve gives the float that two fresh solves give
    prob = bump_wave(smoothed_speed())
    base = Interval(-1.0, 1.0)
    coarse = solve_system(prob, base, 0.2, 0.02, x_step=0.04)
    est = halving_error_estimate(prob, coarse, base, 0.2, 0.02, component=2, x_step=0.04)
    a_sol = solve_system(prob, base, 0.2, 0.02, x_step=0.04)
    b_sol = solve_system(prob, base, 0.2, 0.01, x_step=0.04)
    iv = a_sol.trust.interval_at(0.2)
    xs = np.linspace(iv.lo, iv.hi, 201)
    want = max(
        float(np.max(np.abs(a_sol.values(2, xs, t) - b_sol.values(2, xs, t))))
        for t in a_sol.t_nodes[1:]
    )
    assert est == want
    assert est > 0.0


@pytest.mark.parametrize(
    "coarse_kw, kw",
    [
        ({"dt": 0.04, "x_step": 0.04}, {"x_step": 0.04}),  # dt differs
        ({"dt": 0.02, "x_step": 0.05}, {"x_step": 0.04}),  # x_step differs
        ({"dt": 0.02}, {}),  # dt-derived x steps differ
    ],
)
def test_halving_estimate_refuses_off_lattice_coarse_solve(coarse_kw, kw):
    prob = single(ConstantField1D(0.5), coupling=ConstantField2D(-0.3))
    base = Interval(-1.0, 1.0)
    coarse = solve_system(prob, base, 0.2, **coarse_kw)
    with pytest.raises(ParameterError):
        halving_error_estimate(prob, coarse, base, 0.2, 0.02, **kw)


def test_wave_couplings_evaluate_the_speed_once_per_block(monkeypatch):
    # the two couplings and the datum of a row read lam (and the couplings
    # lam_x) at the same feet: per feet block and component, one
    # EmbeddedField1D.values call per order
    calls = []
    component = [None]
    values = EmbeddedField1D.values
    along_feet = hypsolve._along_feet

    def counted(self, x, order=0):
        if component[0] is not None:
            calls.append((component[0], order, np.asarray(x).tobytes()))
        return values(self, x, order)

    def marked(fields, datum, feet, t_nodes):
        # a component's deepest feet block tells it from the other one
        component[0] = feet[-1].tobytes()
        try:
            return along_feet(fields, datum, feet, t_nodes)
        finally:
            component[0] = None

    monkeypatch.setattr(EmbeddedField1D, "values", counted)
    monkeypatch.setattr(hypsolve, "_along_feet", marked)
    sol = solve_system(
        bump_wave(smoothed_speed()), Interval(-1.0, 1.0), horizon=0.2, dt=0.02,
        x_step=0.05
    )
    per_block = Counter(calls)
    n_blocks = len(sol.t_nodes)
    # components v and w, each with its blocks, at orders 0 and 1
    assert len(per_block) == 2 * n_blocks * 2
    assert max(per_block.values()) == 1


def test_wave_datum_reads_the_speed_at_rest():
    # the characteristic data u1 -+ lam(x, 0) u0' take lam from the
    # couplings' query at the same feet; the solve must equal one whose
    # data evaluate lam afresh
    lam = smoothed_speed()
    prob = bump_wave(lam)

    def fresh(sign):
        def fn(x):
            return ZERO_1D.values(x) + sign * lam.values(x) * BUMP_SLOPE.values(x)

        return AnalyticField1D([fn], domain=prob.data[0].domain)

    plain = HyperbolicProblem(
        prob.speeds, prob.coupling, prob.forcing, [fresh(-1.0), fresh(+1.0), BUMP]
    )
    base = Interval(-2.0, 2.0)
    got = solve_system(prob, base, horizon=0.3, dt=0.02, x_step=0.05)
    want = solve_system(plain, base, horizon=0.3, dt=0.02, x_step=0.05)
    for a, b in zip(got.tables, want.tables):
        np.testing.assert_array_equal(a, b)
    # a coupling query at t != 0 serves the datum on the same x: lam does
    # not vary in t
    xs = np.linspace(-1.0, 1.0, 5)[:, None]
    prob.coupling[0][0].values(xs, np.full_like(xs, 0.25))
    np.testing.assert_array_equal(prob.data[0].values(xs[:, 0]), fresh(-1.0).values(xs[:, 0]))
