import math
import os

import numpy as np
import pytest

import roughwave.scenarios as scenarios
from roughwave.errors import EmptyDomainError, ParameterError
from roughwave.fields import SampledProcess, translation_transform
from roughwave.grids import Grid1D
from roughwave.mollify import (EmbeddedField1D, EpsLadder, Mollifier,
                               build_mollifier)
from roughwave.scenarios import (
    AdditiveNoiseSpec,
    CalibrationSpec,
    GeometricSpec,
    OgawaSpec,
    RandomSpeedSpec,
    cone_average_tab,
    cone_overlap_area,
    kernel_cumulative,
    pair_quadrature,
    pinned_pair_covariance,
    run_additive_noise_wave,
    run_geometric_wave,
    run_ogawa,
    write_report,
    _slab_grid,
)
from roughwave.smooth import simpson_weights

from conftest import MASTER_SEED

MOL = build_mollifier()


# ---------------------------------------------------------- cone geometry

# hand-derived intersection areas of backward unit cones
OVERLAP_CASES = [
    ((0.0, 1.0), (0.0, 1.0), 1.0),
    ((0.0, 1.0), (0.5, 1.0), 0.5625),      # same height: (t - d/2)^2
    ((0.0, 1.0), (1.2, 0.8), 0.09),
    ((0.0, 1.0), (0.2, 0.7), 0.49),        # nested: smaller cone survives
    ((0.0, 1.0), (2.5, 1.0), 0.0),
    ((0.5, 1.0), (1.2, 0.8), 0.3025),
    ((0.0, 1.0), (2.0, 1.0), 0.0),         # cones touch at one point
    ((0.0, 1.0), (0.3, 0.2), 0.04),        # nested, off centre
    ((0.0, 1.0), (1.5, 0.9), 0.04),        # apex outside the other cone
    ((-0.4, 0.5), (0.3, 1.2), 0.25),       # nested, sharing one edge
]


@pytest.mark.parametrize("p,q,want", OVERLAP_CASES)
def test_cone_overlap_closed_forms(p, q, want):
    assert abs(cone_overlap_area(p, q) - want) <= 1e-12
    assert abs(cone_overlap_area(q, p) - want) <= 1e-12


def test_cone_overlap_monte_carlo_cross_check():
    p, q = (0.1, 0.9), (0.7, 1.1)
    area = cone_overlap_area(p, q)
    rng = np.random.default_rng(7)
    xs = rng.uniform(-1.0, 2.0, 200_000)
    ts = rng.uniform(0.0, 1.2, 200_000)
    inside = ((np.abs(xs - p[0]) <= p[1] - ts) & (ts <= p[1])
              & (np.abs(xs - q[0]) <= q[1] - ts) & (ts <= q[1]))
    mc = inside.mean() * 3.0 * 1.2
    assert abs(mc - area) <= 4.0 * math.sqrt(area * 3.6) / math.sqrt(200_000)


# ------------------------------------------------- kernel-time quadrature


def test_kernel_cumulative_endpoints():
    zs, cum = kernel_cumulative(MOL, 0.04)
    assert cum[0] == 0.0
    assert abs(cum[-1] - 1.0) <= 1e-9
    # even kernel: half the mass sits left of zero
    mid = np.interp(0.0, zs, cum)
    assert abs(mid - 0.5 * cum[-1]) <= 1e-9


def test_pinned_pair_covariance_values():
    s = np.array([0.5, 1.0, -0.5, 0.5])
    sp = np.array([1.0, 0.5, -1.0, -0.5])
    want = np.array([0.5, 0.5, 0.5, 0.0])
    assert np.allclose(pinned_pair_covariance(s, sp), want)


def test_pair_quadrature_against_reduction_route():
    # independent route: the pair moment reduces to 1-d integrals of the
    # cumulative kernel against itself
    eps = 0.01
    zs, cc = kernel_cumulative(MOL, eps)
    mass = cc[-1]

    def cum(w):
        return np.interp(w, zs, cc, left=0.0, right=mass)

    def reduction(a, b, n=4097):
        r = MOL.support_radius(eps)
        lo, hi = max(0.0, min(a, b) - r), max(a, b) + r
        w = np.ones(n)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        out = mass**2 * max(0.0, min(a, b) - r)
        if hi > lo:
            taus = np.linspace(lo, hi, n)
            out += float(w @ (cum(a - taus) * cum(b - taus))) \
                * (taus[1] - taus[0]) / 3.0
        taus = np.linspace(-r, 0.0, n)
        g = (mass - cum(a - taus)) * (mass - cum(b - taus))
        out += float(w @ g) * (taus[1] - taus[0]) / 3.0
        return out

    for a, b in [(1.0, 1.0), (0.5, 0.5), (1.0, 0.5), (1.0, 0.0), (0.0, 0.0)]:
        assert abs(pair_quadrature(a, b, MOL, eps) - reduction(a, b)) <= 5e-6


def test_pair_quadrature_tracks_time():
    for t in (0.5, 0.75, 1.0):
        q = pair_quadrature(t, t, MOL, 0.01)
        assert abs(q - t) / t <= 0.05


def test_cone_average_tab_matches_definition():
    # brute-force midpoint quadrature of the defining double integral;
    # the indicator edge limits it to O(1/n), hence the loose gate
    eps = 0.04
    point = (0.0, 1.0)

    def definition(y, s, n=8001):
        r = MOL.support_radius(eps)
        h = 2.0 * r / n
        us = -r + (np.arange(n) + 0.5) * h
        k = MOL.kernel_values(us, eps, 0)
        yy = y - us[:, None]
        ss = s - us[None, :]
        ind = (ss >= 0.0) & (ss <= point[1]) \
            & (np.abs(yy - point[0]) <= point[1] - ss)
        return float(k @ ind @ k) * h * h

    for y, s, tol in [(0.5, 0.5, 1e-3), (0.0, 1.0, 1e-3), (0.0, 0.02, 1e-3),
                      (0.3, 0.3, 1e-9)]:
        tab = float(cone_average_tab(MOL, point, eps,
                                     np.array([y]), np.array([s]))[0, 0])
        assert abs(tab - definition(y, s)) <= tol


def test_cone_average_tab_interior_and_exterior():
    eps = 0.02
    tab = cone_average_tab(MOL, (0.0, 1.0), eps,
                           np.array([0.0, 5.0]), np.array([0.3, 0.3]))
    assert tab[0, 0] == pytest.approx(1.0, abs=1e-9)   # deep inside the cone
    assert tab[1, 0] == 0.0                            # far outside


def _reference_cone_tab(mol, point, eps, ys, ss, quad_nodes=129):
    """The quadrature loop over the whole slab, without the bounding box."""
    x0, t0 = point
    r = mol.support_radius(eps)
    zs, cum = kernel_cumulative(mol, eps)
    mass = cum[-1]

    def cum_at(w):
        return np.interp(w, zs, cum, left=0.0, right=mass)

    n = quad_nodes
    w_quad = simpson_weights(n)
    theta = np.linspace(0.0, 1.0, n)
    out = np.zeros((ys.size, ss.size))
    a = np.maximum(0.0, ss - r)
    b = np.minimum(t0, ss + r)
    span = np.maximum(b - a, 0.0)
    for q in range(n):
        sig = a + theta[q] * span
        kt = mol.kernel_values(ss - sig, eps, 0) * w_quad[q]
        half = t0 - sig
        upper = cum_at(ys[:, None] - x0 + half[None, :])
        lower = cum_at(ys[:, None] - x0 - half[None, :])
        out += kt[None, :] * (upper - lower)
    out *= span[None, :] / (3.0 * (n - 1))
    return out


def _centers(grid):
    return grid.x.cell_centers(), grid.t.cell_centers()


def test_cone_average_tab_bitwise_equal_full_slab_on_scenario_slabs():
    # the additive-noise benchmark sizes: eps 0.02, Cauchy ladder
    # 0.16 * 0.5**k for k < 4, so the spot pair is (0.04, 0.02)
    spec = AdditiveNoiseSpec(master_seed=1)
    eps, spot_hi, h = 0.02, 0.04, 0.01
    pad = MOL.support_radius(spot_hi) + 2.0 * h
    ys, ss = _centers(_slab_grid(
        min(x - t for x, t in spec.points), max(x + t for x, t in spec.points),
        max(t for _, t in spec.points), pad, h))
    cases = [(p, eps) for p in spec.points] + [(spec.cauchy_point, spot_hi)]
    for point, e in cases:
        assert np.array_equal(cone_average_tab(MOL, point, e, ys, ss),
                              _reference_cone_tab(MOL, point, e, ys, ss))
    # the coarsest Cauchy level, whose kernel radius exceeds the cone height
    xc, tc = spec.cauchy_point
    assert MOL.support_radius(0.16) > tc
    ys_c, ss_c = _centers(_slab_grid(xc - tc, xc + tc, tc,
                                     MOL.support_radius(0.16) + 2.0 * h, h))
    assert np.array_equal(
        cone_average_tab(MOL, spec.cauchy_point, 0.16, ys_c, ss_c),
        _reference_cone_tab(MOL, spec.cauchy_point, 0.16, ys_c, ss_c))


def test_cone_average_tab_row_blocks_bitwise_equal(monkeypatch):
    # the additive-noise benchmark's coarsest Cauchy level, eps 0.16, with a
    # budget that cuts its bounding box into three full row blocks and a
    # partial one
    spec = AdditiveNoiseSpec(master_seed=1)
    (xc, tc), eps, h = spec.cauchy_point, 0.16, 0.01
    r = MOL.support_radius(eps)
    ys, ss = _centers(_slab_grid(xc - tc, xc + tc, tc, r + 2.0 * h, h))
    rows = np.flatnonzero(np.abs(ys - xc) < tc + 2.0 * r)
    cols = np.flatnonzero(np.minimum(tc, ss + r) > np.maximum(0.0, ss - r))
    box = (rows[-1] - rows[0] + 1, cols[-1] - cols[0] + 1)
    assert box == (453, 348)
    monkeypatch.setattr(scenarios, "_CHUNK_ENTRIES", 120 * box[1])
    calls = []
    inner = Mollifier.kernel_values

    def counting(self, z, scale, order=0):
        calls.append(np.size(z))
        return inner(self, z, scale, order)

    monkeypatch.setattr(Mollifier, "kernel_values", counting)
    got = cone_average_tab(MOL, spec.cauchy_point, eps, ys, ss)
    # one call per quadrature node, plus one for the cumulative table
    assert len(calls) == 129 + 1
    assert np.array_equal(got, _reference_cone_tab(MOL, spec.cauchy_point, eps,
                                                   ys, ss))


@pytest.mark.parametrize("point, ys, ss, empty", [
    # cone cut by the right and top edges of the slab
    ((0.9, 1.0), np.linspace(-0.6, 1.0, 81), np.linspace(-0.1, 0.6, 36),
     False),
    # one-element slabs: inside, on the cone's edge, and far outside
    ((0.0, 1.0), np.array([0.3]), np.array([0.3]), False),
    ((0.0, 1.0), np.array([0.5]), np.array([0.5]), False),
    ((0.0, 1.0), np.array([5.0]), np.array([0.3]), True),
    # cones that miss the slab: beside it, and below its earliest time
    ((10.0, 0.5), np.linspace(-1.0, 1.0, 41), np.linspace(0.0, 1.0, 21),
     True),
    ((0.0, 0.5), np.linspace(-1.0, 1.0, 41), np.linspace(2.0, 3.0, 21),
     True),
], ids=["edge-cut", "one-inside", "one-edge", "one-outside", "miss-beside",
        "miss-below"])
def test_cone_average_tab_bitwise_equal_full_slab(point, ys, ss, empty):
    eps = 0.04
    got = cone_average_tab(MOL, point, eps, ys, ss)
    assert got.shape == (ys.size, ss.size)
    assert np.array_equal(got, _reference_cone_tab(MOL, point, eps, ys, ss))
    assert got.any() != empty


# ----------------------------------------------------------- calibration


def test_calibration_report(calibration_report):
    rep = calibration_report
    assert rep.passed
    errs = {row[0]: row[1] for row in rep.tables[0].rows}
    assert errs["transport-analytic"] == 0.0
    assert errs["transport-solver"] <= 1e-12
    assert errs["wave-displacement-data"] == pytest.approx(8.007e-07, rel=1e-3)
    assert errs["wave-velocity-data"] == pytest.approx(1.753e-06, rel=1e-3)


# ---------------------------------------------------------- ogawa report


def test_ogawa_report_passes(ogawa_report):
    rep = ogawa_report
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    assert by_name["shift-identity"].observed == 0.0
    assert by_name["reference-dual-route"].observed <= 1e-8
    assert by_name["heat-residual"].observed <= 1e-6


def test_ogawa_spread_table_frozen(ogawa_report):
    rows = ogawa_report.tables[0].rows
    quads = [row[1] for row in rows]
    assert quads == pytest.approx(
        [0.49753361331163215, 0.7475336133118887, 0.9975336133120503],
        rel=1e-9)
    for row in rows:
        assert row[5] <= 5.0       # mc z
    assert max(row[5] for row in rows) == pytest.approx(0.9371885, rel=1e-4)


def test_ogawa_mean_field_frozen(ogawa_report):
    rows = ogawa_report.tables[1].rows
    means = [row[1] for row in rows]
    assert means == pytest.approx(
        [0.297123, 0.38839, 0.506983, 0.623867, 0.710423], rel=1e-4)
    # quadrature reference equals the closed form to printed precision
    for row in rows:
        assert row[2] == pytest.approx(row[3], abs=1e-8)
        assert row[5] <= 3.0


def test_ogawa_seed_table(ogawa_report):
    purpose, count, first = ogawa_report.seeds[0]
    assert purpose == "rough-path"
    assert count == 2000
    assert isinstance(first, int)


def test_ogawa_pad_validation():
    with pytest.raises(ParameterError):
        run_ogawa(OgawaSpec(master_seed=1, path_pad=0.05))


# ------------------------------------------------------- additive report


def test_additive_report_passes(additive_report):
    rep = additive_report
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    assert by_name["variance-at-points"].observed <= 5.0
    assert by_name["covariance-overlap"].observed <= 5.0
    assert by_name["covariance-disjoint"].observed <= 5.0


def test_additive_variance_frozen(additive_report):
    rows = [r for r in additive_report.tables[0].rows if r[0] == "var"]
    est = {(r[1], r[2]): r[5] for r in rows}
    assert est[(0.0, 1.0)] == pytest.approx(0.242688, rel=1e-4)
    refs = {(r[1], r[2]): r[6] for r in rows}
    assert refs[(0.0, 1.0)] == 0.25
    assert refs[(1.2, 0.8)] == pytest.approx(0.16)


def test_additive_covariance_references_exact(additive_report):
    rows = [r for r in additive_report.tables[0].rows if r[0] == "cov"]
    for r in rows:
        want = 0.25 * cone_overlap_area((r[1], r[2]), (r[3], r[4]))
        assert r[6] == pytest.approx(want, abs=1e-12)


def test_additive_cauchy_frozen(additive_report):
    rows = additive_report.tables[1].rows
    moments = [r[2] for r in rows]
    assert moments == pytest.approx(
        [0.00740451, 0.00369538, 0.00184594, 0.000922535], rel=1e-4)
    assert all(b < a for a, b in zip(moments, moments[1:]))


def test_additive_spot_check_consistent(additive_report):
    (hi, lo, est, ref, se, z) = additive_report.tables[2].rows[0]
    assert (hi, lo) == (0.02, 0.01)
    # same integral on the sample slab and on the Cauchy slab: the grids
    # share h but not alignment, so agreement is quadrature-limited
    assert ref == pytest.approx(additive_report.tables[1].rows[-1][2],
                                rel=1e-3)
    assert z <= 5.0


def test_additive_ladder_moment_approaches_variance(additive_report):
    seconds = [row[1] for row in additive_report.ladder]
    assert all(b > a for a, b in zip(seconds, seconds[1:]))
    assert 0.24 <= seconds[-1] <= 0.25


# ------------------------------------------------------ geometric report


def test_geometric_report_passes(geometric_report):
    assert geometric_report.passed


def test_geometric_rejects_unknown_curve():
    with pytest.raises(ParameterError, match="flta"):
        GeometricSpec(master_seed=1, curves=("flat", "flta"))


@pytest.mark.parametrize("overrides, message", [
    ({"overlap_pairs": ()}, "overlap_pairs is empty"),
    ({"overlap_pairs": ((0, 5),)}, "two indices into points"),
    ({"disjoint_pair": (-1, 4)}, "two indices into points"),
    ({"overlap_pairs": ((0, 1), (0, 4))}, "do not overlap"),
    ({"disjoint_pair": (0, 0)}, "overlap"),
    ({"points": ((0.0, 1.0), (0.5, 0.0), (2.5, 1.0)),
      "overlap_pairs": ((0, 1),), "disjoint_pair": (0, 2)}, "t > 0"),
    ({"eps": -0.02}, "eps must be positive"),
    ({"eps": 0.0}, "eps must be positive"),
    ({"n_samples": 1}, "n_samples must be >= 2"),
    ({"cell_factor": 0.0}, "cell_factor must be positive"),
    ({"quad_nodes": 128}, "quad_nodes must be odd"),
    ({"quad_nodes": 1}, "quad_nodes must be odd and >= 3"),
    ({"z_bound": 0.0}, "z_bound must be positive"),
    ({"cauchy_point": (0.0, 0.0)}, "t > 0"),
    ({"cauchy_point": (0.0,)}, "t > 0"),
    ({"cauchy_ladder": EpsLadder(0.16, 0.5, 1)}, "cauchy_ladder count"),
], ids=["empty-overlap", "overlap-index", "disjoint-index",
        "overlap-zero-area", "disjoint-overlapping", "point-t",
        "eps-negative", "eps-zero", "one-sample", "cell-factor-zero",
        "quad-nodes-even", "quad-nodes-one", "z-bound-zero",
        "cauchy-point-t", "cauchy-point-length", "cauchy-ladder-one-level"])
def test_additive_spec_rejects_meaningless_pairs(overrides, message):
    with pytest.raises(ParameterError, match=message):
        AdditiveNoiseSpec(master_seed=1, **overrides)


SMALL_ADDITIVE = AdditiveNoiseSpec(master_seed=MASTER_SEED, n_samples=20,
                                   eps=0.04,
                                   cauchy_ladder=EpsLadder(0.16, 0.5, 3))


@pytest.mark.parametrize("spec, tabs", [
    (SMALL_ADDITIVE, 5 + 1 + 3),
    (AdditiveNoiseSpec(master_seed=MASTER_SEED, n_samples=20, eps=0.04,
                       cauchy_ladder=EpsLadder(0.16, 0.5, 4)), 5 + 2 + 4),
], ids=["finer-spot-tab-is-a-point-tab", "finer-spot-tab-of-its-own"])
def test_spot_reference_matches_its_tabs_computed_directly(monkeypatch, spec,
                                                           tabs):
    # the spot pair's finer tab is the first point's own tab when both are
    # at eps (so it is made once), and its own otherwise; either way the
    # reference is that of both tabs computed directly on the sample slab
    calls = []
    inner = scenarios.cone_average_tab

    def counting(*args):
        calls.append(None)
        return inner(*args)

    monkeypatch.setattr(scenarios, "cone_average_tab", counting)
    rep = run_additive_noise_wave(spec)
    assert len(calls) == tabs
    levels = spec.cauchy_ladder.levels()
    spot_hi, spot_lo = float(levels[-2]), float(levels[-1])
    h = spec.cell_factor * spec.eps
    grid = _slab_grid(min(x - t for x, t in spec.points),
                      max(x + t for x, t in spec.points),
                      max(t for _, t in spec.points),
                      MOL.support_radius(max(spec.eps, spot_hi)) + 2.0 * h, h)
    ys, ss = _centers(grid)
    diff = (inner(MOL, spec.cauchy_point, spot_lo, ys, ss, spec.quad_nodes)
            - inner(MOL, spec.cauchy_point, spot_hi, ys, ss, spec.quad_nodes))
    want = 0.25 * float((diff * diff).sum()) * grid.cell_measure
    spot = next(t for t in rep.tables if t.name == "cauchy_spot")
    assert spot.rows[0][3] == want


def test_nan_z_score_fails_its_check(monkeypatch):
    # one sample's first point value is NaN, so that point's z-score is
    # NaN; the fold over points must keep it rather than read it as 0
    real_action = scenarios.white_noise_action
    calls = []

    def action(noise, tabs):
        out = real_action(noise, tabs)
        if not calls:
            out[0] = float("nan")
        calls.append(None)
        return out

    monkeypatch.setattr(scenarios, "white_noise_action", action)
    rep = run_additive_noise_wave(SMALL_ADDITIVE)
    check = next(c for c in rep.checks if c.name == "variance-at-points")
    assert math.isnan(check.observed)
    assert not check.passed
    assert not rep.passed


@pytest.mark.parametrize("overrides, message", [
    ({"speed_lo": -1.0}, "speed_lo must be positive"),
    ({"speed_lo": 2.0}, "must exceed speed_lo"),
    ({"n_seeds": 0}, "n_seeds must be >= 1"),
    ({"n_features": 0}, "n_features must be >= 1"),
    ({"dt": 0.0}, "dt must be positive"),
    ({"x_step": -0.02}, "x_step must be positive"),
    ({"horizon": float("nan")}, "horizon must be positive"),
    ({"ladder": EpsLadder(0.4, 0.5, 1)}, "ladder count must be >= 2"),
    ({"field_halfwidth": 2.5}, "field_halfwidth 2.5"),
], ids=["speed-lo-negative", "speed-range-empty", "no-seeds", "no-features",
        "dt-zero", "x-step-negative", "horizon-nan", "one-level-ladder",
        "field-too-narrow"])
def test_random_speed_spec_rejects_meaningless_values(overrides, message):
    with pytest.raises(ParameterError, match=message):
        RandomSpeedSpec(master_seed=1, **overrides)


@pytest.mark.parametrize("overrides, message", [
    ({"eps": -0.01}, "eps must lie in"),
    ({"eps": 1.5}, "eps must lie in"),
    ({"n_samples": 1}, "n_samples must be >= 2"),
    ({"check_times": ()}, "check_times must be"),
    ({"check_times": (0.5, 0.0)}, "check_times must be"),
    ({"probes": ()}, "probes is empty"),
    ({"path_pad": 0.09}, "path_pad 0.09 too small"),
    ({"eval_time": 0.0}, "eval_time must be positive"),
    ({"mean_z_bound": -3.0}, "mean_z_bound must be positive"),
    ({"probes": (-1.0, 2.0)}, "data_halfwidth 8.0 too small"),
    ({"data_halfwidth": 7.55}, "data_halfwidth 7.55 too small"),
], ids=["eps-negative", "eps-above-one", "one-sample", "no-check-times",
        "check-time-zero", "no-probes", "pad-too-small", "eval-time-zero",
        "z-bound-negative", "probe-beyond-data", "data-just-too-narrow"])
def test_ogawa_spec_rejects_meaningless_values(overrides, message):
    with pytest.raises(ParameterError, match=message):
        OgawaSpec(master_seed=1, **overrides)


def test_ogawa_spec_accepts_data_just_wide_enough():
    # the default reference reads the data out to 7.48, and the kernel
    # radius at eps 0.01 adds 0.08
    OgawaSpec(master_seed=1, data_halfwidth=7.57)


@pytest.mark.parametrize("overrides, message", [
    ({"kappa": -1.0}, "kappa must be positive"),
    ({"horizon": 0.0}, "horizon must be positive"),
    ({"dt": 0.0}, "dt must be positive"),
    ({"x_step": -0.01}, "x_step must be positive"),
    ({"transport_time": float("nan")}, "transport_time must be positive"),
    ({"transport_tol": 0.0}, "transport_tol must be positive"),
    ({"wave_tol": -1e-4}, "wave_tol must be positive"),
], ids=["kappa-negative", "horizon-zero", "dt-zero", "x-step-negative",
        "transport-time-nan", "transport-tol-zero", "wave-tol-negative"])
def test_calibration_spec_rejects_meaningless_values(overrides, message):
    with pytest.raises(ParameterError, match=message):
        CalibrationSpec(master_seed=1, **overrides)


@pytest.mark.parametrize("overrides, message", [
    ({"sine_ladder": EpsLadder(0.2, 0.5, 1)}, "sine_ladder count must be >= 2"),
    ({"brownian_ladder": EpsLadder(0.32, 0.4, 1)},
     "brownian_ladder count must be >= 2"),
    ({"eval_time": 0.0}, "eval_time must be positive"),
    ({"closed_form_tol": -1e-4}, "closed_form_tol must be positive"),
    ({"sine_final_bound": 0.0}, "sine_final_bound must be positive"),
    ({"brownian_final_bound": float("nan")},
     "brownian_final_bound must be positive"),
    ({"path_halfwidth": -5.0}, "path_halfwidth must be positive"),
    ({"sine_chart_nodes": 2}, "sine_chart_nodes must be >= 3"),
], ids=["one-level-sine-ladder", "one-level-brownian-ladder", "eval-time-zero",
        "closed-form-tol-negative", "sine-bound-zero", "brownian-bound-nan",
        "halfwidth-negative", "two-chart-nodes"])
def test_geometric_spec_rejects_meaningless_values(overrides, message):
    with pytest.raises(ParameterError, match=message):
        GeometricSpec(master_seed=1, **overrides)


def test_geometric_spec_accepts_probes_reaching_the_curve_edges():
    # every foot lies within eval_time 0.5 of a probe: 3.5 reaches the
    # closed-form curves' edge at 4, where both still pass
    rep = run_geometric_wave(GeometricSpec(master_seed=1, curves=("flat", "linear"),
                                           probes=(-3.5, 3.5)))
    assert rep.passed
    # just inside 5 - 1.5512 and 5 - 2.0, the kernel radii at the coarsest
    # sine and Brownian levels
    GeometricSpec(master_seed=1, curves=("c1-sine",), probes=(-2.9487, 2.9487))
    GeometricSpec(master_seed=1, curves=("brownian",), probes=(-2.4999, 2.4999))


def test_mc_z_is_nan_on_constant_samples():
    # a zero standard error leaves z undefined; the check on it fails
    est, se, z = scenarios._mc_z(np.full(8, 0.25), 0.0)
    assert (est, se) == (0.25, 0.0)
    assert math.isnan(z)
    assert not scenarios._worst_z("spot", [(z,)], 5.0, "").passed


# the checks each default report makes, in order; a dropped or renamed
# check changes no CSV, only verdicts.txt
CHECK_NAMES = {
    "calibration_report": [
        "transport-analytic", "transport-solver", "wave-displacement-data",
        "wave-velocity-data"],
    "ogawa_report": [
        "spread-quadrature", "shift-identity", "spread-monte-carlo",
        "reference-dual-route", "mean-vs-reference", "heat-residual",
        "mean-vs-heat-profile"],
    "additive_report": [
        "variance-at-points", "covariance-overlap", "covariance-disjoint",
        "cauchy-decreasing", "cauchy-spot-monte-carlo"],
    "geometric_report": [
        "flat-dalembert", "linear-dalembert", "sine-gamma-decreasing",
        "sine-gamma-final", "brownian-gamma-decreasing", "brownian-gamma-final",
        "brownian-solution-limit"],
    "random_speed_report": [
        "constant-speed-dalembert", "gap-decreasing-every-seed",
        "final-gap-vs-discretization", "speed-bound-audit"],
}


@pytest.mark.parametrize("fixture", sorted(CHECK_NAMES))
def test_default_reports_keep_their_check_names_and_order(request, fixture):
    report = request.getfixturevalue(fixture)
    assert [c.name for c in report.checks] == CHECK_NAMES[fixture]


def test_run_without_checks_fails(tmp_path):
    rep = run_geometric_wave(GeometricSpec(master_seed=MASTER_SEED, curves=()))
    assert rep.checks == []
    assert not rep.passed
    write_report(rep, str(tmp_path))
    verdicts = (tmp_path / "verdicts.txt").read_text()
    assert verdicts.strip().endswith("overall: FAIL")


def test_geometric_two_jobs_write_the_same_csvs(geometric_report, tmp_path):
    # the ladder levels run on two threads that share one Mollifier
    threaded = run_geometric_wave(GeometricSpec(master_seed=MASTER_SEED), jobs=2)
    write_report(geometric_report, str(tmp_path / "one"))
    write_report(threaded, str(tmp_path / "two"))
    names = sorted(p.name for p in (tmp_path / "one").glob("*.csv"))
    assert names == sorted(p.name for p in (tmp_path / "two").glob("*.csv"))
    for name in names:
        assert ((tmp_path / "one" / name).read_bytes()
                == (tmp_path / "two" / name).read_bytes()), name


def test_geometric_closed_forms(geometric_report):
    errs = {row[0]: row[1] for row in geometric_report.tables[0].rows}
    assert errs["flat"] <= 1e-8
    assert errs["linear"] <= 1e-8


def test_geometric_sine_ladder_frozen(geometric_report):
    table = {t.name: t for t in geometric_report.tables}["sine_chart"]
    gaps = [row[1] for row in table.rows]
    assert gaps == pytest.approx(
        [7.33787e-06, 4.6316e-07, 2.91939e-08, 2.02295e-09], rel=1e-4)
    # fourth-order collapse: each halving divides the gap by ~16
    ratios = [a / b for a, b in zip(gaps, gaps[1:])]
    assert min(ratios) > 8.0


def test_geometric_brownian_ladder_frozen(geometric_report):
    table = {t.name: t for t in geometric_report.tables}["brownian_chart"]
    gam = [row[1] for row in table.rows]
    assert gam == pytest.approx(
        [0.475015, 0.379915, 0.219601, 0.170322, 0.115727, 0.0615927,
         0.0412373, 0.0239165], rel=1e-4)
    assert all(b < a for a, b in zip(gam, gam[1:]))
    assert gam[-1] <= 0.05
    u = [row[2] for row in table.rows]
    assert u == pytest.approx(
        [0.101339, 0.0678221, 0.0426309, 0.0340937, 0.0208192, 0.00892837,
         0.00480965, 0.00204933], rel=1e-4)
    assert all(b < a for a, b in zip(u, u[1:]))


# --------------------------------------------------- random-speed report


def test_random_speed_report_passes(random_speed_report):
    rep = random_speed_report
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    assert by_name["gap-decreasing-every-seed"].observed == 10.0
    assert by_name["final-gap-vs-discretization"].observed <= 2.0
    assert by_name["speed-bound-audit"].observed <= 2.02


def test_random_speed_seed_zero_frozen(random_speed_report):
    rows = [r for r in random_speed_report.tables[0].rows if r[0] == 0]
    gaps = [r[2] for r in rows]
    assert gaps == pytest.approx(
        [0.00259314, 0.000281457, 1.83933e-05, 1.16112e-06], rel=1e-4)
    assert rows[0][3] == pytest.approx(2.43884e-05, rel=1e-4)


def test_random_speed_every_seed_monotone(random_speed_report):
    rows = random_speed_report.tables[0].rows
    assert all(r[5] == 1 for r in rows)
    speeds = {r[0]: r[4] for r in rows}
    assert all(0.5 <= s <= 2.02 for s in speeds.values())


def test_random_speed_empty_domain_guard():
    # refused when the spec is built, before any solve
    with pytest.raises(EmptyDomainError):
        RandomSpeedSpec(master_seed=1, kappa=1.0)


# ------------------------------------------ smooth curves per ladder level

# the c1-sine levels read their curve on [-1.5, 1.5], the probes' reach
# within eval_time; the random-speed levels on the base [-2, 2]
_SINE = GeometricSpec(master_seed=MASTER_SEED, curves=("c1-sine",))
_SPEED = RandomSpeedSpec(master_seed=MASTER_SEED, n_seeds=1)
_QUERIED = {"sine-curve": np.linspace(-1.5, 1.5, 2001),
            "random-feature-field": np.linspace(-2.0, 2.0, 2001)}


@pytest.fixture(scope="module")
def smoothed_levels():
    """(source, scale, process) of every smoothed field the two runs make."""
    made = []
    real = scenarios.EmbeddedField1D

    def recording(process, mol, scale):
        made.append((process.source.split("(")[-1].rstrip(")"), scale, process))
        return real(process, mol, scale)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "EmbeddedField1D", recording)
        assert run_geometric_wave(_SINE).passed
        assert scenarios.run_random_speed_wave(_SPEED).passed
    return made


def _finest_grid(halfwidth, levels):
    # the one tabulation grid that every level read before: step finest / 8
    step = float(levels[-1]) / 8.0
    return Grid1D(-halfwidth, step, int(math.ceil(2.0 * halfwidth / step)) + 1)


def test_smooth_curve_levels_read_their_own_grid(smoothed_levels):
    # a level that smooths the finest level's tabulation reads a step of
    # finest / 8 at every scale and fails here
    seen = {}
    for source, scale, process in smoothed_levels:
        assert process.grid.step == scale / 8.0, (source, scale)
        seen.setdefault(source, []).append(scale)
    assert seen["sine-curve"] == list(_SINE.sine_ladder.levels())
    assert seen["random-feature-field"] == list(_SPEED.ladder.levels())


def test_smooth_curve_finest_level_keeps_its_tabulation(smoothed_levels):
    finest = {source: process for source, scale, process in smoothed_levels}
    grid = _finest_grid(_SINE.path_halfwidth, _SINE.sine_ladder.levels())
    assert finest["sine-curve"].grid == grid
    assert np.array_equal(finest["sine-curve"].values,
                          _SINE.sine_amplitude * np.sin(grid.nodes()))
    grid = _finest_grid(_SPEED.field_halfwidth, _SPEED.ladder.levels())
    draw, _ = scenarios._speed_draw(_SPEED, 0)
    span = _SPEED.speed_hi - _SPEED.speed_lo
    want = translation_transform(
        SampledProcess(grid, draw(grid.nodes()), 0, "random-feature-field"),
        lambda u: _SPEED.speed_lo + span * u)
    assert finest["random-feature-field"].grid == grid
    assert np.array_equal(finest["random-feature-field"].values, want.values)


# the largest gap, orders 0 and 1, between smoothing a level's own
# tabulation and the finest level's on the queried range; the random-speed
# level 0.4 spreads the kernel across its cutoff band [1, 2], which a step
# of 0.05 resolves less well (at most 3.4e-9 and 4.2e-7 over ten seeds,
# against that level's smoothing bias of at least 9e-3 and 1.8e-2)
_LEVEL_GAP = {("random-feature-field", 0.4): (1e-8, 1e-6)}


def test_smooth_curve_level_matches_the_finest_tabulation(smoothed_levels):
    finest = {source: process for source, scale, process in smoothed_levels}
    for source, scale, process in smoothed_levels:
        xs = _QUERIED[source]
        own = EmbeddedField1D(process, MOL, scale)
        ref = EmbeddedField1D(finest[source], MOL, scale)
        tol = _LEVEL_GAP.get((source, scale), (1e-11, 1e-11))
        for order in (0, 1):
            gap = np.abs(own.values(xs, order) - ref.values(xs, order)).max()
            assert gap <= tol[order], (source, scale, order, gap)


# ----------------------------------------------------- report invariants


@pytest.fixture(scope="module")
def small_ogawa_reports(tmp_path_factory):
    # large enough that the z gates hold at this seed, small enough to be
    # rerun twice for the determinism check
    spec = OgawaSpec(master_seed=MASTER_SEED, n_samples=200)
    dirs = []
    for tag in ("a", "b"):
        rep = run_ogawa(spec)
        d = tmp_path_factory.mktemp(f"rep_{tag}")
        write_report(rep, str(d))
        dirs.append(d)
    return dirs


def test_report_rerun_is_bit_identical(small_ogawa_reports):
    da, db = small_ogawa_reports
    names = sorted(os.listdir(da))
    assert names == sorted(os.listdir(db))
    for name in names:
        ba = (da / name).read_bytes()
        bb = (db / name).read_bytes()
        if name == "verdicts.txt":
            # identical apart from the elapsed line
            la = [ln for ln in ba.decode().splitlines()
                  if not ln.startswith("elapsed")]
            lb = [ln for ln in bb.decode().splitlines()
                  if not ln.startswith("elapsed")]
            assert la == lb
        else:
            assert ba == bb, name


def test_additive_reports_identical_across_jobs_and_reruns(tmp_path):
    # one stacked pairing per sample, each on its own noise stream: neither
    # the thread count nor a rerun may move a byte of the CSVs
    csvs = []
    for tag, jobs in (("a", 1), ("b", 2), ("c", 1)):
        d = tmp_path / tag
        write_report(run_additive_noise_wave(SMALL_ADDITIVE, jobs=jobs), str(d))
        csvs.append({name: (d / name).read_bytes()
                     for name in sorted(os.listdir(d)) if name.endswith(".csv")})
    assert "moments.csv" in csvs[0] and "cauchy_spot.csv" in csvs[0]
    assert csvs[1] == csvs[0]
    assert csvs[2] == csvs[0]


def test_report_directory_contents(small_ogawa_reports):
    d = small_ogawa_reports[0]
    names = set(os.listdir(d))
    assert {"config_echo.csv", "seeds.csv", "ladder.csv", "interchange.csv",
            "verdicts.txt", "spread.csv", "mean_field.csv"} <= names
    header = (d / "spread.csv").read_text().splitlines()[0]
    assert header == "t,quadrature,rel_gap_vs_t,mc_second_moment,mc_se,mc_z"
    config = (d / "config_echo.csv").read_text()
    assert "master_seed,20260816" in config
    verdicts = (d / "verdicts.txt").read_text()
    assert verdicts.strip().endswith("overall: PASS")


def test_interchange_recorded_and_ordered(ogawa_report, additive_report,
                                          random_speed_report):
    for rep in (ogawa_report, additive_report, random_speed_report):
        assert rep.interchange, rep.scenario
        for label, p, lhs, rhs in rep.interchange:
            assert lhs <= rhs + 1e-12, (rep.scenario, label, p)


def test_config_echo_flattens_ladder():
    spec = AdditiveNoiseSpec(master_seed=3)
    from roughwave.scenarios import _echo
    echo = _echo(spec)
    assert echo["cauchy_ladder.eps0"] == 0.16
    assert echo["cauchy_ladder.count"] == 5
    assert echo["master_seed"] == 3
