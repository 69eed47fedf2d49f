"""Packaged experiment runs with self-checking reports.

Each ``run_*`` function takes a frozen spec dataclass, performs one complete
study (ladder sweeps, Monte Carlo sampling, reference comparisons), and
returns a :class:`ScenarioReport` holding plot-ready tables plus pass/fail
checks.  Reports are deterministic: rerunning with the same spec produces
bit-identical table contents.  Wall-clock timing is recorded on the report
but kept out of the tables for that reason.

Randomness policy: every random object is drawn from a stream derived from
``spec.master_seed`` and a purpose string (see :mod:`roughwave.seeding`), so
parallel execution with any ``jobs`` count cannot change results.
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .asymptotics import norm_interchange
from .characteristics import SPEED_SAFETY, ArclengthChart, determinacy_domain
from .errors import EmptyDomainError, ParameterError
from .fields import (SampledProcess, ndtr, sample_brownian_1d,
                     translation_transform, white_noise_action,
                     white_noise_field)
from .grids import Grid1D, Grid2D
from .hypsolve import (HyperbolicProblem, geometric_wave_solve,
                       halving_error_estimate, solve_system, transport_t_only,
                       wave_to_system)
from .mollify import (_CHUNK_ENTRIES, EmbeddedField1D, EpsLadder, Mollifier,
                      build_mollifier)
from .seeding import rng_for, subseed
from .smooth import (AnalyticField1D, ConstantField1D, Interval,
                     running_trapezoid, simpson_weights)

__all__ = [
    "CheckResult", "Table", "ScenarioReport", "format_value", "write_report",
    "write_error_report",
    "CalibrationSpec", "OgawaSpec", "AdditiveNoiseSpec", "GeometricSpec",
    "RandomSpeedSpec",
    "run_calibration", "run_ogawa", "run_additive_noise_wave",
    "run_geometric_wave", "run_random_speed_wave",
    "cone_overlap_area", "kernel_cumulative", "pair_quadrature",
    "pinned_pair_covariance", "cone_average_tab",
    "SCENARIOS",
]


# ---------------------------------------------------------------------------
# report containers


@dataclass
class CheckResult:
    """One named pass/fail verdict with the number that decided it."""

    name: str
    passed: bool
    observed: float
    bound: float
    note: str = ""


@dataclass
class Table:
    """Column-oriented result table destined for one CSV file."""

    name: str
    columns: list
    rows: list


@dataclass
class ScenarioReport:
    scenario: str
    master_seed: int
    config: dict
    seeds: list          # (purpose, count, first_state) triples
    ladder: list         # rows of (eps, *extra) following ladder_columns
    ladder_columns: list
    tables: list
    checks: list
    interchange: list    # (label, p, sup_of_norm, norm_of_sup) tuples
    elapsed: float

    @property
    def passed(self) -> bool:
        """True when at least one check ran and every check passed."""
        return bool(self.checks) and all(c.passed for c in self.checks)


def format_value(value) -> str:
    """Report text of one value: floats by repr, so CSVs round-trip exactly."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(path: str, columns: Sequence[str], rows: Sequence[Sequence]) -> None:
    # newline="" so csv controls line endings; '\n' keeps bytes platform-stable
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_value(v) for v in row])


def _write_config_echo(outdir: str, config: dict) -> None:
    _write_csv(os.path.join(outdir, "config_echo.csv"), ["key", "value"],
               sorted((k, format_value(v)) for k, v in config.items()))


def _write_verdicts(outdir: str, lines: Sequence[str]) -> None:
    with open(os.path.join(outdir, "verdicts.txt"), "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_report(report: ScenarioReport, outdir: str) -> None:
    """Materialize a report directory: CSV tables plus a verdict file.

    Every CSV is deterministic given the spec; only ``verdicts.txt`` carries
    the elapsed wall-clock time.
    """
    os.makedirs(outdir, exist_ok=True)
    _write_config_echo(outdir, report.config)
    _write_csv(os.path.join(outdir, "seeds.csv"),
               ["purpose", "count", "first_state"], report.seeds)
    _write_csv(os.path.join(outdir, "ladder.csv"), report.ladder_columns,
               report.ladder)
    for table in report.tables:
        _write_csv(os.path.join(outdir, table.name + ".csv"),
                   table.columns, table.rows)
    _write_csv(os.path.join(outdir, "interchange.csv"),
               ["label", "p", "sup_of_norm", "norm_of_sup", "ok"],
               [(lab, p, a, b, int(a <= b + 1e-12))
                for lab, p, a, b in report.interchange])
    lines = [f"scenario: {report.scenario}",
             f"master_seed: {report.master_seed}",
             f"elapsed_seconds: {report.elapsed:.3f}"]
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"check {c.name}: {status} observed={format_value(c.observed)} "
                     f"bound={format_value(c.bound)}"
                     + (f" ({c.note})" if c.note else ""))
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    _write_verdicts(outdir, lines)


def write_error_report(outdir: str, scenario: str, spec, exc: Exception) -> None:
    """Report directory of a run that raised: config echo and ERROR verdict."""
    os.makedirs(outdir, exist_ok=True)
    _write_config_echo(outdir, _echo(spec))
    _write_verdicts(outdir, [f"scenario: {scenario}",
                             f"master_seed: {spec.master_seed}",
                             f"error: {type(exc).__name__}: {exc}",
                             "overall: ERROR"])


def _echo(spec) -> dict:
    out = {}
    for f in fields(spec):
        v = getattr(spec, f.name)
        if isinstance(v, EpsLadder):
            for part in ("eps0", "ratio", "count", "scale_map"):
                out[f"{f.name}.{part}"] = getattr(v, part)
        elif isinstance(v, tuple):
            out[f.name] = ";".join(format_value(x) for x in v)
        else:
            out[f.name] = v
    return out


def _worst(values) -> float:
    """Largest of values and 0, or NaN when any value is NaN.

    The builtin max drops a NaN that follows a number (max(0.0, nan) is
    0.0), which would turn an undefined z-score into a passing check.
    """
    return float(np.max([0.0, *values]))


def _bounded(name: str, observed, bound, note: str = "") -> CheckResult:
    """The pass rule of every bounded check: observed <= bound (NaN fails)."""
    return CheckResult(name, observed <= bound, observed, bound, note)


def _worst_z(name: str, rows: Sequence, bound: float, note: str) -> CheckResult:
    """Bounded check on the worst z-score, the last column of each row."""
    return _bounded(name, _worst(row[-1] for row in rows), bound, note)


def _strictly_decreasing(seq: Sequence) -> bool:
    return all(seq[k + 1] < seq[k] for k in range(len(seq) - 1))


def _decreasing(name: str, seq: Sequence, note: str) -> CheckResult:
    """Strict decrease along a ladder; records the last value against the first."""
    return CheckResult(name, _strictly_decreasing(seq), seq[-1], seq[0], note)


def _interchange(label: str, values: np.ndarray) -> list:
    """Interchange rows at p = 2 and 4 for one sample matrix."""
    return [(label, p, *norm_interchange(values, p)) for p in (2.0, 4.0)]


def _mc_z(samples: np.ndarray, ref: float) -> tuple:
    """Monte Carlo mean of samples, its standard error, and |z| against ref.

    z is NaN when the standard error is not positive (constant samples),
    so a check on it fails rather than dividing by zero.
    """
    est = float(samples.mean())
    se = float(samples.std(ddof=1)) / math.sqrt(samples.size)
    return est, se, abs(est - ref) / se if se > 0.0 else math.nan


def _trusted_gap(sol, exact: Callable = None, ref=None) -> float:
    """Sup over time rows of the wave component's gap on trusted nodes.

    The gap is to ``exact(x, t)`` on the nodes that ``sol`` trusts, or,
    given ``ref`` on the same lattice, to its table on the nodes that both
    solutions trust.
    """
    xs = sol.x_grid.nodes()
    gaps = []
    for k, t in enumerate(sol.t_nodes):
        m = sol.trust.contains(xs, t)
        if ref is not None:
            m = m & ref.trust.contains(xs, t)
        if m.any():
            other = exact(xs[m], t) if ref is None else ref.tables[2][m, k]
            gaps.append(np.abs(sol.tables[2][m, k] - other).max())
    return _worst(gaps)


def _path_grid(halfwidth: float, eps: float) -> Grid1D:
    """Grid from -halfwidth past halfwidth at step eps / 8.

    The coarsest step EmbeddedField1D accepts at scale eps: a ladder level
    smooths a smooth curve tabulated on its own grid (_level_process), or
    a Brownian path drawn once on the finest level's (_strided_process).
    """
    step = float(eps) / 8.0
    return Grid1D(-halfwidth, step, int(math.ceil(2.0 * halfwidth / step)) + 1)


def _level_process(halfwidth: float, eps: float, curve: Callable,
                   seed: int, source: str) -> SampledProcess:
    """A smooth curve tabulated on the path grid of ladder level eps."""
    grid = _path_grid(halfwidth, eps)
    return SampledProcess(grid, curve(grid.nodes()), seed, source)


def _seed_row(spec, purpose: str, count: int) -> tuple:
    """Seeds table row: purpose, draw count and the first draw's state."""
    return (purpose, count, int(subseed(spec.master_seed, purpose, 0)))


def _report(scenario: str, spec, t_start: float, **parts) -> ScenarioReport:
    """Report of one run: the spec's seed and echo, time since t_start."""
    return ScenarioReport(scenario=scenario, master_seed=spec.master_seed,
                          config=_echo(spec), elapsed=time.time() - t_start,
                          **parts)


def _require_positive(spec, *names: str) -> None:
    for name in names:
        if not getattr(spec, name) > 0.0:
            raise ParameterError(
                f"{name} must be positive, got {getattr(spec, name)}")


def _require_at_least(spec, least: int, why: str, *names: str) -> None:
    for name in names:
        if getattr(spec, name) < least:
            raise ParameterError(
                f"{name} must be >= {least}{why}, got {getattr(spec, name)}")


def _require_levels(name: str, ladder: EpsLadder, why: str) -> None:
    if ladder.count < 2:
        raise ParameterError(
            f"{name} count must be >= 2: {why}, got {ladder.count}")


def _pool_map(fn: Callable, args: Sequence, jobs: int) -> list:
    """Order-preserving map, threaded when jobs > 1.

    Work units carry their own pre-derived seeds, so scheduling order
    cannot affect results.
    """
    if jobs <= 1:
        return [fn(a) for a in args]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, args))


# ---------------------------------------------------------------------------
# exact cone geometry


def cone_overlap_area(p: tuple, q: tuple) -> float:
    """Exact area of the intersection of two backward unit cones.

    In the characteristic coordinates t + x and t - x the overlap is the
    backward cone whose apex takes the smaller of each pair; a cone of
    height h has area h * h.
    """
    (x1, t1), (x2, t2) = p, q
    h = 0.5 * (min(t1 + x1, t2 + x2) + min(t1 - x1, t2 - x2))
    return h * h if h > 0.0 else 0.0


# ---------------------------------------------------------------------------
# smoothing-kernel quadrature helpers


_CUMULATIVE_PER_SCALE = 256  # kernel_cumulative's nodes per kernel scale
_PAIR_NODES = 257  # pair_quadrature's Simpson nodes per axis


def kernel_cumulative(mol: Mollifier, eps: float) -> tuple:
    """Tabulate z -> integral of the scaled kernel over (-inf, z].

    Returns (nodes, cumulative) covering the kernel support; outside it the
    cumulative is 0 on the left and the kernel mass on the right.
    """
    r = mol.support_radius(eps)
    n = 2 * int(math.ceil(r / eps * _CUMULATIVE_PER_SCALE)) + 1
    zs = np.linspace(-r, r, n)
    k = mol.kernel_values(zs, eps, 0)
    return zs, running_trapezoid(k, zs[1] - zs[0])


def pinned_pair_covariance(s: np.ndarray, sp: np.ndarray) -> np.ndarray:
    """Covariance of a two-sided motion pinned at zero: min(|s|,|s'|) on a
    shared sign, zero across the pin."""
    same = (s * sp) > 0.0
    return np.where(same, np.minimum(np.abs(s), np.abs(sp)), 0.0)


def pair_quadrature(a: float, b: float, mol: Mollifier, eps: float) -> float:
    """Tensor-Simpson value of the smoothed pair moment at times (a, b).

    Integrates kernel(a - s) kernel(b - s') against the pinned covariance
    over the support rectangle.
    """
    r = mol.support_radius(eps)
    sa = np.linspace(a - r, a + r, _PAIR_NODES)
    sb = np.linspace(b - r, b + r, _PAIR_NODES)
    ka = mol.kernel_values(a - sa, eps, 0)
    kb = mol.kernel_values(b - sb, eps, 0)
    w = simpson_weights(_PAIR_NODES)
    psi = pinned_pair_covariance(sa[:, None], sb[None, :])
    hs_a = sa[1] - sa[0]
    hs_b = sb[1] - sb[0]
    inner = (ka * w) @ psi @ (kb * w)
    return float(inner * hs_a * hs_b / 9.0)


def cone_average_tab(mol: Mollifier, point: tuple, eps: float,
                     ys: np.ndarray, ss: np.ndarray,
                     quad_nodes: int = 129) -> np.ndarray:
    """Smoothed cone indicator averaged over the kernel in time.

    Entry [i, j] approximates the kernel-in-time average of the backward
    unit-cone indicator of ``point`` at source location (ys[i], ss[j]).
    The time integral is done per source time over the kernel window
    clipped to [0, t0], with the space direction resolved through the
    cumulative kernel (exact for the piecewise-linear tabulation).

    Only the bounding box of rows and columns where a term can be nonzero
    is computed; every other entry is exactly 0.  A column with an empty
    time window (span 0) is scaled to 0.  In the other columns the cone
    half-width lies in [0, t0], so a row with |ys - x0| >= t0 + r puts
    both cumulatives beyond the kernel support on the same side (both 0
    or both the mass) and contributes exactly 0; the box keeps one more
    radius of rows so that rounding in the shifted arguments cannot
    matter.  The box is contiguous because ``ys`` and ``ss`` are
    ascending.  It is filled in row blocks of at most the mollify chunk
    budget, so the per-node temporaries stay in cache; every entry takes
    the same additions in the same order as a single pass would.
    """
    x0, t0 = point
    r = mol.support_radius(eps)
    out = np.zeros((ys.size, ss.size))
    a = np.maximum(0.0, ss - r)
    b = np.minimum(t0, ss + r)
    span = np.maximum(b - a, 0.0)
    rows = np.flatnonzero(np.abs(ys - x0) < t0 + 2.0 * r)
    cols = np.flatnonzero(span > 0.0)
    if rows.size == 0 or cols.size == 0:
        return out
    box_rows = slice(rows[0], rows[-1] + 1)
    box_cols = slice(cols[0], cols[-1] + 1)
    dy = (ys[box_rows] - x0)[:, None]
    ss, a, span = ss[box_cols], a[box_cols], span[box_cols]

    zs, cum = kernel_cumulative(mol, eps)
    mass = cum[-1]

    def cum_at(w):
        return np.interp(w, zs, cum, left=0.0, right=mass)

    n = quad_nodes
    w_quad = simpson_weights(n)
    theta = np.linspace(0.0, 1.0, n)
    terms = []
    for q in range(n):
        sig = a + theta[q] * span                        # (ns,)
        kt = mol.kernel_values(ss - sig, eps, 0) * w_quad[q]
        terms.append((kt, t0 - sig))                   # cone half-width at sig
    box = out[box_rows, box_cols]
    block = max(1, _CHUNK_ENTRIES // span.size)
    arg = np.empty((min(block, box.shape[0]), span.size))
    for lo in range(0, box.shape[0], block):
        # a row block takes every node's term in quadrature order
        dy_b, box_b = dy[lo : lo + block], box[lo : lo + block]
        arg_b = arg[: len(dy_b)]
        for kt, half in terms:
            # kt * (upper - lower), in place on interp's two results
            upper = cum_at(np.add(dy_b, half, out=arg_b))
            upper -= cum_at(np.subtract(dy_b, half, out=arg_b))
            upper *= kt
            box_b += upper
    box *= span[None, :] / (3.0 * (n - 1))
    return out


def _slab_grid(x_lo: float, x_hi: float, t_hi: float, pad: float,
               h: float) -> Grid2D:
    """Uniform cell grid covering a padded space-time slab above t = 0."""
    nx = int(math.ceil((x_hi - x_lo + 2.0 * pad) / h)) + 1
    nt = int(math.ceil((t_hi + 2.0 * pad) / h)) + 1
    return Grid2D(Grid1D(x_lo - pad, h, nx), Grid1D(-pad, h, nt))


# ---------------------------------------------------------------------------
# calibration: exact transport + constant-speed waves


@dataclass(frozen=True)
class CalibrationSpec:
    """Solver calibration against closed forms on a fixed grid."""

    master_seed: int
    kappa: float = 2.0
    horizon: float = 1.0
    dt: float = 0.005
    x_step: float = 0.01
    transport_speed: float = 1.3
    transport_time: float = 0.7
    transport_tol: float = 1e-8
    wave_tol: float = 1e-4

    def __post_init__(self):
        _require_positive(self, "kappa", "horizon", "dt", "x_step",
                          "transport_time", "transport_tol", "wave_tol")
        # the transport solve rides transport_speed, the waves speed 1
        base = Interval(-self.kappa, self.kappa)
        for speed, t in ((self.transport_speed, self.transport_time),
                         (1.0, self.horizon)):
            determinacy_domain([ConstantField1D(speed)], base, t)


def run_calibration(spec: CalibrationSpec, jobs: int = 1) -> ScenarioReport:
    """Transport shift identity plus both constant-speed wave closed forms."""
    t_start = time.time()
    base = Interval(-spec.kappa, spec.kappa)

    # exact transport of a sine along a constant drift, whose path is c t
    c = spec.transport_speed
    tt = spec.transport_time
    u0 = AnalyticField1D([np.sin, np.cos])
    shifted, shift = transport_t_only(u0, AnalyticField1D([lambda t: c * t]), tt)
    probe_x = np.linspace(-1.5, 1.5, 9)
    analytic_err = float(np.abs(shifted.values(probe_x)
                                - np.sin(probe_x - c * tt)).max())
    checks = [_bounded("transport-analytic", analytic_err, spec.transport_tol,
                       f"shift={shift:.6f}")]

    # same transport through the grid solver
    prob = HyperbolicProblem(speeds=[ConstantField1D(c)], coupling=[[None]],
                             forcing=[None], data=[u0])
    sol = solve_system(prob, base, tt, spec.dt, x_step=spec.x_step)
    xs, vals = sol.on_level(0, tt)
    solver_err = float(np.abs(vals - np.sin(xs - c * tt)).max())
    checks.append(_bounded("transport-solver", solver_err, spec.transport_tol))

    # constant-speed waves: displacement-only data, then velocity-only data
    # with u = (sin(x+t) - sin(x-t)) / 2
    zero = ConstantField1D(0.0)
    for name, data, exact in (
            ("wave-displacement-data",
             (AnalyticField1D([np.sin, np.cos]), AnalyticField1D([np.cos]), zero),
             lambda x, t: 0.5 * (np.sin(x - t) + np.sin(x + t))),
            ("wave-velocity-data", (zero, zero, AnalyticField1D([np.cos])),
             lambda x, t: 0.5 * (np.sin(x + t) - np.sin(x - t)))):
        sol = solve_system(wave_to_system(ConstantField1D(1.0), *data),
                           base, spec.horizon, spec.dt, x_step=spec.x_step)
        checks.append(_bounded(name, _trusted_gap(sol, exact), spec.wave_tol))

    rows = [(check.name, check.observed, check.bound) for check in checks]
    return _report(
        "calibration", spec, t_start, seeds=[], ladder=[], ladder_columns=["eps"],
        tables=[Table("errors", ["case", "sup_error", "tolerance"], rows)],
        checks=checks, interchange=[])


# ---------------------------------------------------------------------------
# transport along smoothed pinned noise


@dataclass(frozen=True)
class OgawaSpec:
    """Transport driven by the smoothed derivative of a pinned rough path.

    The spread of the random shift is predicted by double quadrature of the
    smoothed pair moment and confirmed by Monte Carlo; the sample mean of
    the transported state is compared with the smoothing-then-averaging
    reference and with the vanishing-scale heat profile.
    """

    master_seed: int
    eps: float = 0.01
    n_samples: int = 2000
    check_times: tuple = (0.5, 0.75, 1.0)
    probes: tuple = (-1.0, -0.5, 0.0, 0.5, 1.0)
    eval_time: float = 1.0
    data_offset: float = 0.5
    data_amplitude: float = 0.4
    data_halfwidth: float = 8.0
    path_pad: float = 0.25
    sigma_rel_tol: float = 0.05
    sigma_z_bound: float = 5.0
    mean_z_bound: float = 3.0
    residual_step: float = 1e-3
    heat_gap_bound: float = 0.02

    def __post_init__(self):
        _require_positive(self, "eval_time", "data_halfwidth", "sigma_rel_tol",
                          "sigma_z_bound", "mean_z_bound", "residual_step",
                          "heat_gap_bound")
        if not 0.0 < self.eps <= 1.0:
            raise ParameterError(f"eps must lie in (0, 1], got {self.eps}")
        _require_at_least(self, 2, " for a standard error", "n_samples")
        if not self.check_times or not all(t > 0.0 for t in self.check_times):
            raise ParameterError(f"check_times must be a non-empty list of "
                                 f"positive times, got {self.check_times}")
        if not self.probes:
            raise ParameterError("probes is empty: the mean checks would "
                                 "test no point")
        mol = build_mollifier()
        r = mol.support_radius(self.eps)
        need = r + 2.0 * self.eps
        if not self.path_pad >= need:
            raise ParameterError(
                f"path_pad {self.path_pad} too small for eps {self.eps}: "
                f"needs >= {need:.4f} to keep the kernel window on the path")
        # the mean reference reads the smoothed data at every probe shifted
        # by up to _REF_SDS shift standard deviations
        grid = _data_grid(self)
        reach = _REF_SDS * math.sqrt(_shift_variance(mol, self.eps, self.eval_time))
        lo, hi = min(self.probes) - reach, max(self.probes) + reach
        if not (grid.lower + r <= lo and hi <= grid.upper - r):
            raise ParameterError(
                f"data_halfwidth {self.data_halfwidth} too small: the mean "
                f"reference reads the smoothed data on [{lo:.4f}, {hi:.4f}], "
                f"outside its safe domain [{grid.lower + r:.4f}, "
                f"{grid.upper - r:.4f}]")


# shift standard deviations spanned by the mean reference's quadrature
_REF_SDS = 6.5


def _shift_variance(mol: Mollifier, eps: float, t: float) -> float:
    """Variance of the smoothed pinned path's displacement over [0, t]."""
    return (pair_quadrature(t, t, mol, eps) - 2.0 * pair_quadrature(t, 0.0, mol, eps)
            + pair_quadrature(0.0, 0.0, mol, eps))


def _data_grid(spec: OgawaSpec) -> Grid1D:
    # the sine datum's tabulation, at the path step eps / 8
    step = spec.eps / 8.0
    return Grid1D(-spec.data_halfwidth, step,
                  int(round(2.0 * spec.data_halfwidth / step)) + 1)


def _heat_profile(spec: OgawaSpec, xs: np.ndarray, t: float,
                  n_nodes: int = 64) -> np.ndarray:
    # Gauss-Hermite average of the unsmoothed data over N(0, t)
    gz, gw = hermegauss(n_nodes)
    gw = gw / math.sqrt(2.0 * math.pi)
    arg = xs[:, None] - math.sqrt(t) * gz[None, :]
    return (spec.data_offset + spec.data_amplitude * np.sin(arg)) @ gw


def run_ogawa(spec: OgawaSpec, jobs: int = 1) -> ScenarioReport:
    t_start = time.time()
    eps = spec.eps
    mol = build_mollifier()
    r = mol.support_radius(eps)
    step = eps / 8.0
    t_hi = max(spec.eval_time, max(spec.check_times))
    pad_n = int(round(spec.path_pad / step))
    path_grid = Grid1D(-pad_n * step, step,
                       pad_n + int(math.ceil((t_hi + spec.path_pad) / step)) + 1)

    # deterministic spread prediction via tensor quadrature
    sigma_rows = []
    for t in spec.check_times:
        q = pair_quadrature(t, t, mol, eps)
        sigma_rows.append([t, q, abs(q - t) / t])
    var_s = _shift_variance(mol, eps, spec.eval_time)

    # smoothed data shared by every sample
    u0_grid = _data_grid(spec)
    u0_proc = SampledProcess(u0_grid,
                             spec.data_offset
                             + spec.data_amplitude * np.sin(u0_grid.nodes()),
                             seed=0, source="sine-data")
    u0_eps = EmbeddedField1D(u0_proc, mol, eps)

    probes = np.asarray(spec.probes, float)
    path_times = np.array([0.0, spec.eval_time, *spec.check_times], float)
    n = spec.n_samples

    def one_sample(i: int):
        path = sample_brownian_1d(path_grid, subseed(spec.master_seed,
                                                     "rough-path", i))
        w_eps = EmbeddedField1D(path, mol, eps)
        shifted, shift = transport_t_only(u0_eps, w_eps, spec.eval_time)
        # one query for the path at 0, the transport time and the check
        # times; each point's value does not depend on the others
        w_zero, w_end, *w_checks = w_eps.values(path_times).tolist()
        shift_gap = abs(shift - (w_end - w_zero))
        disp = [w - w_zero for w in w_checks]
        return shift_gap, disp, shifted.values(probes)

    # shapes (n,), (n, n_times) and (n, n_probes)
    shift_gaps, disps, vals = map(
        np.array, zip(*_pool_map(one_sample, range(n), jobs)))

    checks = [_bounded("spread-quadrature", _worst(row[2] for row in sigma_rows),
                       spec.sigma_rel_tol, "worst relative gap of pair moment vs t"),
              _bounded("shift-identity", float(shift_gaps.max()), 1e-12,
                       "transport shift vs smoothed path displacement")]

    # Monte Carlo spread against the quadrature prediction
    for j, t in enumerate(spec.check_times):
        sigma_rows[j].extend(_mc_z(disps[:, j] ** 2, sigma_rows[j][1]))
    checks.append(_worst_z("spread-monte-carlo", sigma_rows, spec.sigma_z_bound,
                           "worst z of sampled second moment vs quadrature"))

    # sample mean vs smoothed-data-averaged reference at the probes
    sd = math.sqrt(var_s)
    ys = np.linspace(-_REF_SDS * sd, _REF_SDS * sd, 2049)
    wq = simpson_weights(ys.size) * (ys[1] - ys[0]) / 3.0
    dens = np.exp(-0.5 * (ys / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
    ref = np.array([float((u0_eps.values(x - ys) * dens) @ wq)
                    for x in probes])
    zs_k, cum = kernel_cumulative(mol, eps)
    kern = mol.kernel_values(zs_k, eps, 0)
    wk = simpson_weights(zs_k.size) * (zs_k[1] - zs_k[0]) / 3.0
    c_hat = float((kern * np.cos(zs_k)) @ wk)
    closed = (spec.data_offset * cum[-1]
              + spec.data_amplitude * c_hat * math.exp(-0.5 * var_s)
              * np.sin(probes))
    checks.append(_bounded("reference-dual-route",
                           float(np.abs(ref - closed).max()), 1e-4,
                           "quadrature vs closed-form averaged reference"))

    mean_rows = []
    for j, x in enumerate(probes):
        mean, se, z = _mc_z(vals[:, j], ref[j])
        mean_rows.append((x, mean, ref[j], closed[j], se, z))
    checks.append(_worst_z("mean-vs-reference", mean_rows, spec.mean_z_bound,
                           "worst z over probes, sample mean vs reference"))

    # vanishing-scale reference solves the heat flow: residual + proximity
    h = spec.residual_step
    t_mid = 0.5 * (spec.check_times[0] + spec.eval_time)
    res_x = np.linspace(-1.5, 1.5, 7)
    u_t = (_heat_profile(spec, res_x, t_mid + h)
           - _heat_profile(spec, res_x, t_mid - h)) / (2.0 * h)
    u_xx = (_heat_profile(spec, res_x + h, t_mid)
            - 2.0 * _heat_profile(spec, res_x, t_mid)
            + _heat_profile(spec, res_x - h, t_mid)) / (h * h)
    # centered differences of a smooth profile: O(h^2) truncation
    checks.append(_bounded("heat-residual", float(np.abs(u_t - 0.5 * u_xx).max()),
                           max(1e-6, h * h), f"centered differences, h={h:g}"))
    heat_gap = float(np.abs(np.array([m[1] for m in mean_rows])
                            - _heat_profile(spec, probes, spec.eval_time)).max())
    checks.append(_bounded("mean-vs-heat-profile", heat_gap, spec.heat_gap_bound,
                           "smoothing bias plus Monte Carlo noise"))

    return _report(
        "ogawa", spec, t_start, seeds=[_seed_row(spec, "rough-path", n)],
        ladder=[[eps, r]],
        ladder_columns=["eps", "support_radius"],
        tables=[Table("spread",
                      ["t", "quadrature", "rel_gap_vs_t", "mc_second_moment",
                       "mc_se", "mc_z"], sigma_rows),
                Table("mean_field",
                      ["x", "sample_mean", "reference", "closed_form",
                       "se", "z"], mean_rows)],
        checks=checks, interchange=_interchange("transported-probes", vals))


# ---------------------------------------------------------------------------
# wave equation forced by mollified space-time white noise


@dataclass(frozen=True)
class AdditiveNoiseSpec:
    """Unit-speed wave with additive smoothed white-noise forcing.

    Solution values at fixed points are half the noise paired with the
    smoothed cone indicator; their moments are gated against exact cone
    geometry, and a deterministic small-scale Cauchy sweep tracks the
    second moment of successive differences.
    """

    master_seed: int
    eps: float = 0.01
    n_samples: int = 10_000
    points: tuple = ((0.0, 1.0), (0.5, 1.0), (1.2, 0.8), (0.2, 0.7),
                     (2.5, 1.0))
    overlap_pairs: tuple = ((0, 1), (0, 2), (0, 3))
    disjoint_pair: tuple = (0, 4)
    cell_factor: float = 0.5
    quad_nodes: int = 129
    z_bound: float = 5.0
    cauchy_ladder: EpsLadder = field(
        default_factory=lambda: EpsLadder(0.16, 0.5, 5))
    cauchy_point: tuple = (0.0, 1.0)

    def __post_init__(self):
        _require_positive(self, "eps", "cell_factor", "z_bound")
        _require_at_least(self, 2, " for a standard error", "n_samples")
        if self.quad_nodes < 3 or self.quad_nodes % 2 == 0:
            raise ParameterError(f"quad_nodes must be odd and >= 3 for the "
                                 f"Simpson rule, got {self.quad_nodes}")
        _require_levels("cauchy_ladder", self.cauchy_ladder,
                        "the spot check pairs its two finest levels")
        n = len(self.points)
        for x_t in (*self.points, self.cauchy_point):
            if len(x_t) != 2 or not x_t[1] > 0.0:
                raise ParameterError(f"point {x_t} must be a pair (x, t) with t > 0")
        if not self.overlap_pairs:
            raise ParameterError("overlap_pairs is empty: the covariance check "
                                 "would test no pair")
        for pair in (*self.overlap_pairs, self.disjoint_pair):
            if len(pair) != 2 or not all(isinstance(k, int) and 0 <= k < n
                                         for k in pair):
                raise ParameterError(
                    f"pair {pair} must be two indices into points (0..{n - 1})")
        for i, j in self.overlap_pairs:
            if cone_overlap_area(self.points[i], self.points[j]) <= 0.0:
                raise ParameterError(
                    f"overlap pair ({i}, {j}): the cones of {self.points[i]} "
                    f"and {self.points[j]} do not overlap")
        i, j = self.disjoint_pair
        if cone_overlap_area(self.points[i], self.points[j]) != 0.0:
            raise ParameterError(
                f"disjoint pair ({i}, {j}): the cones of {self.points[i]} "
                f"and {self.points[j]} overlap")


def _cauchy_cell(spec: AdditiveNoiseSpec) -> float:
    return spec.cell_factor * spec.cauchy_ladder.levels()[-1]


def run_additive_noise_wave(spec: AdditiveNoiseSpec,
                            jobs: int = 1) -> ScenarioReport:
    t_start = time.time()
    mol = build_mollifier()
    n = spec.n_samples
    points = [tuple(map(float, p)) for p in spec.points]

    # Monte Carlo slab: pad covers the widest kernel in play so the finest
    # Cauchy pair can be spot-checked on the same noise draws
    levels = spec.cauchy_ladder.levels()
    spot_hi, spot_lo = float(levels[-2]), float(levels[-1])
    h = spec.cell_factor * spec.eps
    pad = mol.support_radius(max(spec.eps, spot_hi)) + 2.0 * h
    grid = _slab_grid(min(x - t for x, t in points),
                      max(x + t for x, t in points),
                      max(t for _, t in points), pad, h)
    ys = grid.x.cell_centers()
    ss = grid.t.cell_centers()
    cell = grid.cell_measure

    # one slot per point, then the finest Cauchy pair's difference: a sample
    # pairs with all of them in one product.  Tabs go straight into their
    # slots; stacking a list of them held a second copy at peak RSS.
    tabs = np.empty((len(points) + 1, ys.size, ss.size))
    for k, p in enumerate(points):
        tabs[k] = cone_average_tab(mol, p, spec.eps, ys, ss, spec.quad_nodes)
    spot_point = tuple(map(float, spec.cauchy_point))
    if spot_lo == spec.eps and spot_point in points:
        # the same point, scale and slab give the same tab
        tabs[-1] = tabs[points.index(spot_point)]
    else:
        tabs[-1] = cone_average_tab(mol, spot_point, spot_lo, ys, ss,
                                    spec.quad_nodes)
    tabs[-1] -= cone_average_tab(mol, spot_point, spot_hi, ys, ss,
                                 spec.quad_nodes)

    def one_sample(i: int):
        noise = white_noise_field(grid, subseed(spec.master_seed,
                                                "forcing-noise", i))
        return 0.5 * white_noise_action(noise, tabs)

    samples = np.array(_pool_map(one_sample, range(n), jobs))
    vals = samples[:, :-1]
    spot = samples[:, -1]

    moment_rows = []
    for j, (x, t) in enumerate(points):
        ref = 0.25 * t * t
        est, se, z = _mc_z(vals[:, j] ** 2, ref)
        moment_rows.append(("var", x, t, x, t, est, ref, se, z))
    checks = [_worst_z("variance-at-points", moment_rows, spec.z_bound,
                       "worst z vs t^2/4")]

    for (i, j) in spec.overlap_pairs:
        ref = 0.25 * cone_overlap_area(points[i], points[j])
        est, se, z = _mc_z(vals[:, i] * vals[:, j], ref)
        moment_rows.append(("cov", *points[i], *points[j], est, ref, se, z))
    checks.append(_worst_z("covariance-overlap", moment_rows[len(points):],
                           spec.z_bound, "worst z vs exact clipped cone area / 4"))

    i, j = spec.disjoint_pair
    ref_dis = 0.25 * cone_overlap_area(points[i], points[j])
    est, se, z_dis = _mc_z(vals[:, i] * vals[:, j], ref_dis)
    moment_rows.append(("cov", *points[i], *points[j], est, ref_dis, se, z_dis))
    checks.append(_bounded("covariance-disjoint", z_dis, spec.z_bound,
                           "disjoint cones"))

    # deterministic Cauchy sweep at the tracked point, shared finer slab
    hc = _cauchy_cell(spec)
    pad_c = mol.support_radius(float(levels[0])) + 2.0 * hc
    xc, tc = spot_point
    grid_c = _slab_grid(xc - tc, xc + tc, tc, pad_c, hc)
    ys_c = grid_c.x.cell_centers()
    ss_c = grid_c.t.cell_centers()
    cell_c = grid_c.cell_measure
    chain = [cone_average_tab(mol, spot_point, float(e), ys_c, ss_c,
                              spec.quad_nodes) for e in levels]
    cauchy_rows = []
    moments = []
    for k in range(len(levels) - 1):
        diff = chain[k + 1] - chain[k]
        m2 = 0.25 * float((diff * diff).sum()) * cell_c
        moments.append(m2)
        cauchy_rows.append((float(levels[k]), float(levels[k + 1]), m2))
    checks.append(_decreasing("cauchy-decreasing", moments,
                              "successive-difference second moments shrink"))

    # Monte Carlo spot check of the finest Cauchy pair on the sample slab
    spot_ref = 0.25 * float((tabs[-1] * tabs[-1]).sum()) * cell
    spot_est, spot_se, z_spot = _mc_z(spot ** 2, spot_ref)
    checks.append(_bounded("cauchy-spot-monte-carlo", z_spot, spec.z_bound,
                           f"pair ({spot_hi:g}, {spot_lo:g}) at the tracked point"))

    ladder_rows = [[float(e), 0.25 * float((chain[k] ** 2).sum()) * cell_c]
                   for k, e in enumerate(levels)]
    return _report(
        "additive-noise-wave", spec, t_start,
        seeds=[_seed_row(spec, "forcing-noise", n)], ladder=ladder_rows,
        ladder_columns=["eps", "tracked_point_second_moment"],
        tables=[Table("moments",
                      ["kind", "x1", "t1", "x2", "t2", "estimate",
                       "reference", "se", "z"], moment_rows),
                Table("cauchy", ["eps_hi", "eps_lo", "diff_second_moment"],
                      cauchy_rows),
                Table("cauchy_spot",
                      ["eps_hi", "eps_lo", "estimate", "reference", "se", "z"],
                      [(spot_hi, spot_lo, spot_est, spot_ref, spot_se,
                        z_spot)])],
        checks=checks, interchange=_interchange("point-values", vals))


# ---------------------------------------------------------------------------
# geometric wave solutions along mollified curves


GEOMETRIC_CURVES = ("flat", "linear", "c1-sine", "brownian")
_CLOSED_FORM_HALFWIDTH = 4.0  # the flat and linear curves live on [-4, 4]


@dataclass(frozen=True)
class GeometricSpec:
    """Characteristic charts from curve families of increasing roughness.

    Closed-form families gate the chart machinery exactly; the C1 family
    tracks chart convergence under smoothing; the rough family tracks the
    forward characteristic's drift from identity and the solution ladder.

    `sine_chart_nodes` sets the c1-sine charts' lattice on the whole curve
    domain; like the Brownian charts, they keep and smooth only its nodes
    within `eval_time` of a probe, where every foot they are asked for lies.

    Each ladder level eps smooths a tabulation at step eps / 8: the sine
    curve's own, or the one Brownian path's, strided from its finest draw.
    """

    master_seed: int
    curves: tuple = GEOMETRIC_CURVES
    eval_time: float = 0.5
    probes: tuple = (-1.0, -0.5, 0.0, 0.5, 1.0)
    closed_form_tol: float = 1e-4
    linear_slope: float = 0.5
    sine_amplitude: float = 0.3
    sine_ladder: EpsLadder = field(default_factory=lambda: EpsLadder(0.2, 0.5, 4))
    sine_chart_nodes: int = 32769
    sine_final_bound: float = 1e-3
    brownian_ladder: EpsLadder = field(
        default_factory=lambda: EpsLadder(0.32, 0.4, 8))
    path_index: int = 42
    path_halfwidth: float = 5.0
    brownian_final_bound: float = 0.05

    def __post_init__(self):
        unknown = [c for c in self.curves if c not in GEOMETRIC_CURVES]
        if unknown:
            raise ParameterError(
                f"unknown curves {unknown}; known: {', '.join(GEOMETRIC_CURVES)}")
        _require_positive(self, "eval_time", "closed_form_tol", "sine_final_bound",
                          "brownian_final_bound", "path_halfwidth")
        for name in ("sine_ladder", "brownian_ladder"):
            _require_levels(name, getattr(self, name),
                            "the decrease checks compare successive levels")
        _require_at_least(self, 3, " for an arclength chart", "sine_chart_nodes")
        if not self.probes:
            raise ParameterError("probes is empty: the checks would test no point")
        # every foot lies within eval_time of a probe, so each selected
        # curve must be defined on that reach: the closed forms on [-4, 4],
        # a smoothed curve where the kernel window at its ladder's coarsest
        # level stays on the path
        lo = min(self.probes) - self.eval_time
        hi = max(self.probes) + self.eval_time
        r = build_mollifier().support_radius
        half = {"flat": _CLOSED_FORM_HALFWIDTH, "linear": _CLOSED_FORM_HALFWIDTH,
                "c1-sine": self.path_halfwidth - r(float(self.sine_ladder.levels()[0])),
                "brownian": self.path_halfwidth
                - r(float(self.brownian_ladder.levels()[0]))}
        for c in self.curves:
            if not (-half[c] <= lo and hi <= half[c]):
                raise ParameterError(
                    f"probes reach [{lo:.4f}, {hi:.4f}] within eval_time, outside "
                    f"[{-half[c]:.4f}, {half[c]:.4f}] where the {c} curve is defined")


def _strided_process(path: SampledProcess, eps: float) -> SampledProcess:
    """Drop path nodes the kernel at this scale cannot resolve.

    Keeps the embedding contract step <= scale / 8 while the window node
    count stays proportional to the kernel support.  For a path drawn
    once, whose finest draw is the model; it loses the top (count - 1) mod
    stride steps, so smooth curves are tabulated per level instead.
    """
    stride = max(1, int((eps / 8.0) // path.grid.step))
    if stride == 1:
        return path
    g = path.grid
    count = (g.count - 1) // stride + 1
    sub = Grid1D(g.lower, g.step * stride, count)
    return SampledProcess(sub, path.values[::stride].copy(), path.seed,
                          path.source + f"[::{stride}]")


def _chart_for(curve, eps: float, window: Interval,
               floor: int = 4097) -> ArclengthChart:
    n_nodes = max(floor, int(math.ceil(curve.domain.width / (eps / 8.0))) + 1)
    return ArclengthChart(curve, n_nodes=n_nodes, window=window)


def run_geometric_wave(spec: GeometricSpec, jobs: int = 1) -> ScenarioReport:
    t_start = time.time()
    mol = build_mollifier()
    T = spec.eval_time
    probes = np.asarray(spec.probes, float)
    # every foot read below lies within T of a probe (L has slope >= 1)
    reach = Interval(float(probes.min()) - T, float(probes.max()) + T)
    u0 = AnalyticField1D([np.cos, lambda x: -np.sin(x)])
    u1 = AnalyticField1D([np.cos])
    checks = []
    closed_rows = []
    tables = []
    seeds = []
    ladder_rows = []

    # closed forms: d'Alembert at speed 1 / w along a line of slope a (the
    # flat curve is slope 0)
    for curve, a in (("flat", 0.0), ("linear", spec.linear_slope)):
        if curve not in spec.curves:
            continue
        w = math.sqrt(1.0 + a * a)
        chart = ArclengthChart(AnalyticField1D(
            [lambda x: a * np.asarray(x, float),
             lambda x: np.full_like(np.asarray(x, float), a)],
            domain=Interval(-_CLOSED_FORM_HALFWIDTH, _CLOSED_FORM_HALFWIDTH)))
        got = geometric_wave_solve(chart, u0, u1, probes, T)
        exact = (0.5 * (np.cos(probes - T / w) + np.cos(probes + T / w))
                 + 0.5 * w * (np.sin(probes + T / w) - np.sin(probes - T / w)))
        err = float(np.abs(got - exact).max())
        checks.append(_bounded(f"{curve}-dalembert", err, spec.closed_form_tol))
        closed_rows.append((curve, err, spec.closed_form_tol))
    if closed_rows:
        tables.append(Table("closed_forms",
                            ["curve", "sup_error", "tolerance"], closed_rows))

    hw = spec.path_halfwidth
    if "c1-sine" in spec.curves:
        amp = spec.sine_amplitude
        levels = spec.sine_ladder.levels()
        ref_curve = AnalyticField1D([lambda x: amp * np.sin(x),
                                     lambda x: amp * np.cos(x)],
                                    domain=Interval(-hw, hw))
        ref_chart = ArclengthChart(ref_curve, n_nodes=spec.sine_chart_nodes,
                                   window=reach)
        g_ref = ref_chart.gamma(probes, T, +1)

        def sine_level(eps: float) -> float:
            tab = _level_process(hw, eps, lambda x: amp * np.sin(x), 0,
                                 "sine-curve")
            emb = EmbeddedField1D(tab, mol, float(eps))
            chart = ArclengthChart(emb, n_nodes=spec.sine_chart_nodes,
                                   window=reach)
            return float(np.abs(chart.gamma(probes, T, +1) - g_ref).max())

        gaps = _pool_map(sine_level, levels, jobs)
        rows = [(float(e), g) for e, g in zip(levels, gaps)]
        tables.append(Table("sine_chart", ["eps", "max_gamma_gap"], rows))
        ladder_rows += [["c1-sine", float(e), g] for e, g in zip(levels, gaps)]
        checks.append(_decreasing("sine-gamma-decreasing", gaps,
                                  "forward characteristic vs unsmoothed chart"))
        checks.append(_bounded("sine-gamma-final", gaps[-1], spec.sine_final_bound))

    if "brownian" in spec.curves:
        levels = spec.brownian_ladder.levels()
        path_seed = subseed(spec.master_seed, "geometric-path",
                            spec.path_index)
        path = sample_brownian_1d(_path_grid(hw, levels[-1]), path_seed)
        seeds.append(("geometric-path", 1, int(path_seed)))

        def brown_level(eps: float):
            e = float(eps)
            emb = EmbeddedField1D(_strided_process(path, e), mol, e)
            chart = _chart_for(emb, e, reach)
            gam = chart.gamma(probes, T, +1)
            uvals = geometric_wave_solve(chart, u0, None, probes, T)
            slopes = emb.values(
                np.linspace(emb.domain.lo + 1e-9, emb.domain.hi - 1e-9,
                            1025), 1)
            lam_min = float(1.0 / math.sqrt(1.0 + float(np.abs(slopes).max()) ** 2))
            return gam, uvals, lam_min

        out = _pool_map(brown_level, levels, jobs)
        gam_gaps = [float(np.abs(g - probes).max()) for g, _, _ in out]
        # limit of the frozen-transport regime: solution pinned to the data
        u_gaps = [float(np.abs(u - np.cos(probes)).max()) for _, u, _ in out]
        rows = [(float(e), gam_gaps[k], u_gaps[k], out[k][2])
                for k, e in enumerate(levels)]
        tables.append(Table("brownian_chart",
                            ["eps", "max_identity_gap", "max_limit_gap",
                             "min_speed"], rows))
        ladder_rows += [["brownian", float(e), gam_gaps[k]]
                        for k, e in enumerate(levels)]
        checks += [_decreasing("brownian-gamma-decreasing", gam_gaps,
                               "max over probes of |gamma - x| per level"),
                   _bounded("brownian-gamma-final", gam_gaps[-1],
                            spec.brownian_final_bound),
                   _decreasing("brownian-solution-limit", u_gaps,
                               "solution vs unmoved data at the probes")]

    return _report(
        "geometric-wave", spec, t_start, seeds=seeds, ladder=ladder_rows,
        ladder_columns=["curve", "eps", "max_gamma_gap"],
        tables=tables, checks=checks, interchange=[])


# ---------------------------------------------------------------------------
# wave equation with a random translation-process speed


@dataclass(frozen=True)
class RandomSpeedSpec:
    """Random bounded speed built by translating a smooth Gaussian field.

    Each seed draws a random-feature Gaussian field, maps it through the
    normal CDF into the speed range, and compares grid solutions with the
    mollified speed against a classical fine-grid reference solved with
    the unsmoothed speed on the same lattice.
    """

    master_seed: int
    n_seeds: int = 10
    ladder: EpsLadder = field(default_factory=lambda: EpsLadder(0.4, 0.5, 4))
    n_features: int = 64
    speed_lo: float = 0.5
    speed_hi: float = 2.0
    kappa: float = 2.0
    horizon: float = 0.5
    dt: float = 0.01
    x_step: float = 0.02
    slope_bound: float = 2.02
    gap_ratio_bound: float = 2.0
    dalembert_tol: float = 1e-4
    field_halfwidth: float = 4.2

    def __post_init__(self):
        _require_positive(self, "speed_lo", "kappa", "horizon", "dt", "x_step",
                          "slope_bound", "gap_ratio_bound", "dalembert_tol",
                          "field_halfwidth")
        if not self.speed_hi > self.speed_lo:
            raise ParameterError(f"speed_hi {self.speed_hi} must exceed "
                                 f"speed_lo {self.speed_lo}")
        _require_at_least(self, 1, "", "n_seeds", "n_features")
        _require_levels("ladder", self.ladder,
                        "the gap check compares successive levels")
        mol = build_mollifier()
        r = mol.support_radius(float(self.ladder.levels()[0]))
        if self.field_halfwidth - r < self.kappa:
            raise ParameterError(
                f"field_halfwidth {self.field_halfwidth} leaves the smoothed "
                f"speed undefined on the base: needs >= kappa + "
                f"{r:.4f} (kernel radius at the coarsest level)")
        if round(self.horizon / (self.dt / 2.0)) != 2 * round(self.horizon / self.dt):
            raise ParameterError(
                f"dt {self.dt} puts horizon {self.horizon} on a lattice whose "
                f"dt/2 refinement does not keep every second level: the "
                f"halving error estimate compares the two")
        # the run solves the unit-speed member, the unsmoothed speed and
        # the smoothed ones, at most speed_hi times the kernel's L1 norm
        z = np.linspace(-mol.trunc_radius, mol.trunc_radius, 20001)
        l1 = float(np.abs(mol.rho(z)).sum() * (z[1] - z[0]))
        bound = SPEED_SAFETY * max(1.0, l1 * self.speed_hi)
        if self.kappa <= bound * self.horizon:
            raise EmptyDomainError(
                f"base half-width {self.kappa} with speed bound "
                f"{bound:.6g} leaves no determinate set at time "
                f"{self.horizon}")


def _bump_data():
    u0 = AnalyticField1D([lambda x: np.exp(-np.asarray(x, float) ** 2),
                          lambda x: -2.0 * np.asarray(x, float)
                          * np.exp(-np.asarray(x, float) ** 2)])
    u0_slope = AnalyticField1D([lambda x: -2.0 * np.asarray(x, float)
                                * np.exp(-np.asarray(x, float) ** 2)])
    return u0, u0_slope, ConstantField1D(0.0)


def _speed_draw(spec: RandomSpeedSpec, index: int):
    """Random-feature Gaussian field and its exact derivative."""
    rng = rng_for(spec.master_seed, "speed-field", index)
    omega = rng.standard_normal(spec.n_features)
    phase = rng.uniform(0.0, 2.0 * math.pi, spec.n_features)
    amp = math.sqrt(2.0 / spec.n_features)

    def value(x):
        x = np.asarray(x, float)
        return amp * np.cos(np.multiply.outer(x, omega) + phase).sum(axis=-1)

    def deriv(x):
        x = np.asarray(x, float)
        return -amp * (omega * np.sin(np.multiply.outer(x, omega)
                                      + phase)).sum(axis=-1)

    return value, deriv


def run_random_speed_wave(spec: RandomSpeedSpec,
                          jobs: int = 1) -> ScenarioReport:
    t_start = time.time()
    mol = build_mollifier()
    base = Interval(-spec.kappa, spec.kappa)
    levels = spec.ladder.levels()
    span = spec.speed_hi - spec.speed_lo
    hw = spec.field_halfwidth
    u0, u0_slope, u1 = _bump_data()

    def f_inverse(u):
        return spec.speed_lo + span * u

    # constant-speed member of the family against d'Alembert
    sol_c = solve_system(wave_to_system(ConstantField1D(1.0), *_bump_data()),
                         base, spec.horizon, spec.dt / 2.0,
                         x_step=spec.x_step / 2.0)
    err_c = _trusted_gap(sol_c, lambda x, t: 0.5 * (
        np.exp(-(x - t) ** 2) + np.exp(-(x + t) ** 2)))
    checks = [_bounded("constant-speed-dalembert", err_c, spec.dalembert_tol)]

    def one_seed(index: int):
        draw, deriv = _speed_draw(spec, index)
        latest = None

        def value(x):
            # the reference speed's couplings ask for lam_d, then lam, at
            # the same points: one random-feature sum serves both
            nonlocal latest
            x = np.asarray(x, float)
            if latest is None or not np.array_equal(latest[0], x):
                latest = (x.copy(), draw(x))
            return latest[1]

        def lam(x):
            return f_inverse(ndtr(value(x)))

        def lam_d(x):
            x = np.asarray(x, float)
            v = value(x)
            return span * np.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi) \
                * deriv(x)

        ref_curve = AnalyticField1D([lam, lam_d], domain=Interval(-hw, hw))
        prob_ref = wave_to_system(ref_curve, u0, u0_slope, u1)
        sol_ref = solve_system(prob_ref, base, spec.horizon, spec.dt,
                               x_step=spec.x_step)
        xs = sol_ref.x_grid.nodes()
        sup_speed = float(np.abs(lam(xs)).max())

        gaps = []
        for e in levels:
            x_proc = _level_process(hw, e, draw, index, "random-feature-field")
            emb = EmbeddedField1D(translation_transform(x_proc, f_inverse),
                                  mol, float(e))
            sol = solve_system(wave_to_system(emb, u0, u0_slope, u1),
                               base, spec.horizon, spec.dt, x_step=spec.x_step)
            gaps.append(_trusted_gap(sol, ref=sol_ref))
        # the finest level's solution at the interchange probes
        finals = sol.values(2, np.array([-0.6, -0.3, 0.0, 0.3, 0.6]),
                            spec.horizon)
        est = halving_error_estimate(prob_ref, sol_ref, base,
                                     spec.horizon, spec.dt, component=2,
                                     x_step=spec.x_step)
        return gaps, est, sup_speed, finals

    results = _pool_map(one_seed, range(spec.n_seeds), jobs)

    mono = [int(_strictly_decreasing(gaps)) for gaps, _, _, _ in results]
    n_mono = sum(mono)
    rows = [(idx, float(e), gaps[k], est, sup_speed, mono[idx])
            for idx, (gaps, est, sup_speed, _) in enumerate(results)
            for k, e in enumerate(levels)]
    checks += [
        CheckResult("gap-decreasing-every-seed", n_mono == spec.n_seeds,
                    float(n_mono), float(spec.n_seeds),
                    "sup gap vs unsmoothed-speed reference"),
        _bounded("final-gap-vs-discretization",
                 _worst(gaps[-1] / est for gaps, est, _, _ in results),
                 spec.gap_ratio_bound, "finest gap over halving error estimate"),
        _bounded("speed-bound-audit",
                 _worst(sup_speed for _, _, sup_speed, _ in results),
                 spec.slope_bound, "sampled sup of the unsmoothed speed")]

    return _report(
        "random-speed-wave", spec, t_start,
        seeds=[_seed_row(spec, "speed-field", spec.n_seeds)],
        ladder=[[float(e)] for e in levels], ladder_columns=["eps"],
        tables=[Table("seed_gaps",
                      ["seed_index", "eps", "sup_gap", "halving_estimate",
                       "sup_speed", "decreasing"], rows)],
        checks=checks, interchange=_interchange(
            "final-level-probes", np.array([fin for _, _, _, fin in results])))


SCENARIOS = {
    "calibration": (CalibrationSpec, run_calibration),
    "ogawa": (OgawaSpec, run_ogawa),
    "additive-noise-wave": (AdditiveNoiseSpec, run_additive_noise_wave),
    "geometric-wave": (GeometricSpec, run_geometric_wave),
    "random-speed-wave": (RandomSpeedSpec, run_random_speed_wave),
}
