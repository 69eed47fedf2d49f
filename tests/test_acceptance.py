"""Package-level acceptance gates, one test per numbered criterion.

Every test asserts the stated tolerance directly and appends a single
PASS/FAIL line to the terminal summary (see conftest), so a full run
ends with the complete scorecard even when everything is green.
"""

import numpy as np

from roughwave.asymptotics import (
    EpsSeries,
    ExponentialTailFamily,
    NormDescriptor,
    SlidingSpikeFamily,
    classify,
)
from roughwave.fields import SampledProcess
from roughwave.grids import Grid1D
from roughwave.hypsolve import HyperbolicProblem, gronwall_check, solve_system
from roughwave.mollify import EmbeddedField1D, EpsLadder, build_mollifier
from roughwave.seeding import rng_for
from roughwave.smooth import (
    AnalyticField1D,
    AnalyticField2D,
    ConstantField1D,
    Interval,
)

from conftest import ACCEPTANCE_LINES, MASTER_SEED


def verdict(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}  {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def table(report, name):
    for t in report.tables:
        if t.name == name:
            return t
    raise AssertionError(f"report has no table {name!r}")


def checks_by_name(report):
    return {c.name: c for c in report.checks}


def test_criterion_1_deterministic_calibration(calibration_report):
    rep = calibration_report
    by = checks_by_name(rep)
    transport = max(by["transport-analytic"].observed,
                    by["transport-solver"].observed)
    waves = max(by["wave-displacement-data"].observed,
                by["wave-velocity-data"].observed)
    grid_ok = (rep.config["kappa"] == 2.0 and rep.config["horizon"] == 1.0
               and rep.config["dt"] == 0.005 and rep.config["x_step"] == 0.01)
    ok = (transport <= 1e-8 and waves <= 1e-4 and grid_ok
          and rep.elapsed < 10.0)
    verdict(1, ok,
            f"transport sup error {transport:.2e} <= 1e-8 and wave sup "
            f"error {waves:.2e} <= 1e-4 (both data cases) on the 401x201 "
            f"grid, {rep.elapsed:.1f} s < 10 s")


def _random_smooth_problem(rng):
    # two coupled components with bounded random coefficients; closures
    # bind the draws as defaults so the loop variables cannot leak
    n = 2
    speeds, forcing, data = [], [], []
    for _ in range(n):
        speeds.append(ConstantField1D(float(rng.uniform(-1.5, 1.5))))
        a, b, c = rng.uniform(-1.0, 1.0, 3)
        forcing.append(AnalyticField2D(
            lambda x, t, a=a, b=b, c=c: a * np.sin(b * x + c * t)))
        amp, freq, phase = rng.uniform(-1.0, 1.0, 3)
        data.append(AnalyticField1D([
            lambda x, A=amp, w=freq, q=phase: A * np.sin(w * x + q),
            lambda x, A=amp, w=freq, q=phase: A * w * np.cos(w * x + q),
        ]))
    w = rng.uniform(-1.0, 1.0, (n, n))
    coupling = [[AnalyticField2D(
        lambda x, t, c=float(w[i, j]): c * np.cos(x - 0.5 * t))
        for j in range(n)] for i in range(n)]
    return HyperbolicProblem(speeds=speeds, coupling=coupling,
                             forcing=forcing, data=data)


def test_criterion_2_gronwall_suite():
    base = Interval(-2.5, 2.5)
    violations = 0
    for seed in range(10):
        for draw in range(5):
            rng = rng_for(MASTER_SEED, "gronwall-suite", seed, draw)
            prob = _random_smooth_problem(rng)
            sol = solve_system(prob, base, horizon=0.5, dt=0.02)
            _, _, ok = gronwall_check(sol, prob)
            violations += int(not ok)
    verdict(2, violations == 0,
            f"a priori sup bound held for {50 - violations}/50 random "
            f"smooth problems (10 seeds x 5 coefficient draws)")


def test_criterion_3_smoothed_rough_transport(ogawa_report):
    rep = ogawa_report
    by = checks_by_name(rep)
    spread = table(rep, "spread")
    mean = table(rep, "mean_field")
    ts = [row[0] for row in spread.rows]
    worst_rel = max(abs(row[2]) for row in spread.rows)
    worst_z = max(abs(row[5]) for row in mean.rows)
    ok = (rep.config["eps"] == 0.01 and rep.config["n_samples"] == 2000
          and all(0.5 <= t <= 1.0 for t in ts)
          and worst_rel <= 0.05
          and len(mean.rows) == 5 and worst_z <= 3.0
          and by["heat-residual"].passed
          and rep.elapsed < 120.0)
    verdict(3, ok,
            f"quadrature spread within {worst_rel:.2%} of t on [0.5, 1], "
            f"sample mean (N=2000) within {worst_z:.2f} SE of the smoothed "
            f"reference at 5 probes, heat residual "
            f"{by['heat-residual'].observed:.2e} passes, "
            f"{rep.elapsed:.0f} s < 120 s")


def test_criterion_4_additive_noise_moments(additive_report):
    rep = additive_report
    rows = table(rep, "moments").rows
    var_origin = [r for r in rows
                  if r[0] == "var" and r[1] == 0.0 and r[2] == 1.0]
    cov = [r for r in rows if r[0] == "cov"]
    var_ok = (len(var_origin) == 1 and var_origin[0][6] == 0.25
              and abs(var_origin[0][5] - 0.25) <= 5.0 * var_origin[0][7])
    overlap_ok = (len(cov) == 4
                  and all(abs(r[5] - r[6]) <= 5.0 * r[7] for r in cov[:3]))
    disjoint_ok = (cov[-1][6] == 0.0
                   and abs(cov[-1][5]) <= 5.0 * cov[-1][7])
    ok = (rep.config["n_samples"] == 10000 and var_ok and overlap_ok
          and disjoint_ok and rep.elapsed < 120.0)
    verdict(4, ok,
            f"Var u(0,1) = {var_origin[0][5]:.4f} within 5 SE of 0.25 "
            f"(N=10000), covariance within 5 SE of the quarter cone-overlap "
            f"oracle at 3 pairs, disjoint cones within 5 SE of 0, "
            f"{rep.elapsed:.0f} s < 120 s")


def test_criterion_5_geometric_wave_ladders(geometric_report):
    rep = geometric_report
    brows = table(rep, "brownian_chart").rows
    srows = table(rep, "sine_chart").rows
    gaps = [r[1] for r in brows]
    mono = all(gaps[k + 1] < gaps[k] for k in range(len(gaps) - 1))
    n_probes = len(rep.config["probes"].split(";"))
    ok = (len(gaps) == 8 and mono and gaps[-1] <= 0.05 and n_probes == 5
          and srows[-1][1] <= 1e-3 and rep.elapsed < 180.0)
    verdict(5, ok,
            f"rough-curve chart identity gap strictly decreasing over "
            f"8 levels to {gaps[-1]:.4f} <= 0.05 over 5 probes, smooth-curve "
            f"chart within {srows[-1][1]:.1e} <= 1e-3 of the arclength "
            f"inverse at the finest level, {rep.elapsed:.0f} s < 180 s")


def test_criterion_6_random_speed_consistency(random_speed_report):
    rep = random_speed_report
    per_seed = {}
    for seed_idx, eps, gap, est, sup_speed, mono in table(rep, "seed_gaps").rows:
        per_seed.setdefault(seed_idx, []).append((gap, est))
    n_mono = sum(
        all(lv[k + 1][0] < lv[k][0] for k in range(len(lv) - 1))
        for lv in per_seed.values())
    worst_ratio = max(lv[-1][0] / lv[-1][1] for lv in per_seed.values())
    ok = (len(per_seed) == 10 and n_mono == 10 and worst_ratio <= 2.0)
    verdict(6, ok,
            f"sup gap to the unsmoothed-speed solution decreasing along the "
            f"ladder for {n_mono}/10 seeds, worst final gap "
            f"{worst_ratio:.2f}x the fine-grid discretization estimate "
            f"(bound 2x)")


def test_criterion_7_classifier_conformance():
    lad = EpsLadder(0.5, 0.5, 8)
    desc = NormDescriptor(Interval(0.0, 1.0), 0, 0.0, 1)
    eps = lad.levels()
    c_pow = classify(EpsSeries(lad, eps**-2.0, desc))
    c_log = classify(EpsSeries(lad, 3.0 * np.abs(np.log(eps)), desc))
    c_const = classify(EpsSeries(lad, np.full(8, 2.5), desc))
    fam_a, fam_b = ExponentialTailFamily(2.0), SlidingSpikeFamily()
    c_below = classify(fam_a.moment_series(1.0, lad))
    c_at = classify(fam_a.moment_series(2.0, lad))
    c_l1 = classify(fam_b.l1_series(EpsLadder(0.25, 0.5, 8)))
    path = fam_b.pathwise_series(0.37, 8)
    c_path = classify(path)
    ok = (c_pow.verdict == "moderate" and abs(c_pow.value - 2.0) <= 0.05
          and c_log.verdict == "log-type" and abs(c_log.value - 3.0) <= 0.1
          and c_const.verdict == "bounded"
          and abs(c_const.value - 2.5) <= 0.125
          and c_below.verdict == "negligible-to-order"
          and c_at.verdict == "bounded" and c_at.value == 1.0
          and c_l1.verdict == "L1-type" and c_l1.value == 1.0
          and bool(np.all(np.diff(path.measurements) > 0.0))
          and c_path.verdict != "moderate")
    verdict(7, ok,
            "planted power, log, and constant series recovered; heavy-tail "
            "family negligible-to-order below the critical moment and "
            "bounded with value 1 exactly at it; sliding spike L1-bounded "
            "yet pathwise non-moderate along the planted subsequence")


def test_criterion_8_mollifier_suite():
    mol = build_mollifier(moments=2)
    z = np.arange(-14.0, 14.0, 1e-3)
    rho = mol.rho(z)
    mass_err = abs(float(np.sum(rho)) * 1e-3 - 1.0)
    moment_err = max(abs(float(np.sum(z**k * rho)) * 1e-3) for k in (1, 2))

    def tab(fn, lo, hi, step):
        g = Grid1D(lo, step, int(round((hi - lo) / step)) + 1)
        return SampledProcess(g, fn(g.nodes()), seed=0, source="analytic")

    eps = 0.02
    d_of_embed = EmbeddedField1D(tab(np.sin, -1.0, 2.0, eps / 8), mol, eps)
    embed_of_d = EmbeddedField1D(tab(np.cos, -1.0, 2.0, eps / 8), mol, eps)
    xs = np.linspace(0.0, 1.0, 13)
    commute = float(np.max(np.abs(d_of_embed.values(xs, order=1)
                                  - embed_of_d.values(xs))))

    wide = build_mollifier(moments=2, cutoff_inner=1.0, cutoff_outer=2.0)
    narrow = build_mollifier(moments=2, cutoff_inner=0.6, cutoff_outer=1.4)
    p3 = tab(lambda x: np.cos(3.0 * x), -3.0, 3.0, 0.05 / 8)
    xs3 = np.linspace(-1.0, 1.0, 21)
    cutoff_gap = float(np.max(np.abs(
        EmbeddedField1D(p3, wide, 0.05).values(xs3)
        - EmbeddedField1D(p3, narrow, 0.05).values(xs3))))

    quad = EmbeddedField1D(tab(lambda x: x**2, -2.0, 2.0, 0.05 / 8), mol, 0.05)
    xs2 = np.linspace(-1.0, 1.0, 11)
    poly_err = float(np.max(np.abs(quad.values(xs2) - xs2**2)))

    ok = (mass_err <= 1e-10 and moment_err <= 1e-8 and commute <= 1e-6
          and cutoff_gap <= 1e-8 and poly_err <= 1e-7)
    verdict(8, ok,
            f"kernel mass error {mass_err:.1e} <= 1e-10, moments 1..2 "
            f"vanish to {moment_err:.1e} <= 1e-8, smoothing commutes with "
            f"differentiation to {commute:.1e} <= 1e-6, cutoff independence "
            f"{cutoff_gap:.1e} <= 1e-8, degree-2 reproduction "
            f"{poly_err:.1e} <= 1e-7")


def test_criterion_9_norm_interchange(ogawa_report, additive_report,
                                      random_speed_report):
    pairs = (ogawa_report.interchange + additive_report.interchange
             + random_speed_report.interchange)
    bad = [p for p in pairs if p[2] > p[3] + 1e-12]
    ok = len(pairs) >= 4 and not bad
    verdict(9, ok,
            f"sup of norms <= norm of sups in "
            f"{len(pairs) - len(bad)}/{len(pairs)} measured instances "
            f"across the scenario runs")
