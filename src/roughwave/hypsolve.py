"""Solver for diagonal first-order hyperbolic systems.

The problem class is

    (d/dt + lambda_i(x) d/dx) u_i = sum_j F_ij(x,t) u_j + g_i(x,t),
    u_i(x, 0) = data_i(x),

solved by a global Picard iteration in integral form: every sweep
rebuilds each component as its initial datum carried along the i-th
characteristic plus the time integral of the coupled right-hand side
along that characteristic (trapezoid rule on the time lattice).  The
data term is evaluated at the characteristic feet exactly, never
interpolated, so repeated sweeps do not compound interpolation error;
only the right-hand side reads the previous iterate through linear
interpolation in x.

Speeds and data are fields of x (`Field1D`); couplings and forcing are
fields of (x, t) (`Field2D`) and may vary in t.  Characteristic feet come
from one backward flow table per component, built by one-level RK4
backsteps (:func:`roughwave.characteristics.flow_levels`): for every
depth m, one (nx, 1) column of feet that every anchor level shares,
since a speed of x alone gives every anchor the same feet.  One sweep is
vectorized over anchor levels at fixed feet depth.  Data, coupling and
forcing values at the feet are computed once, before the first sweep,
block by block: a row's fields and its datum read one feet block before
any reads the next, so the wave reduction's two couplings and datum per
row share one evaluation of the speed and its derivative.

`halving_error_estimate` takes the caller's dt solve and runs only the
dt/2 solve, refusing a coarse solve that is not on its lattice.

Values on the tabulation rectangle outside the domain of determinacy of
the base interval are garbage by construction (feet are clamped).  The
returned SolutionField carries the determinacy trapezoid and refuses
point queries outside it; convergence gaps are measured inside it only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characteristics import determinacy_domain, flow_levels
from .errors import DomainError, IterationLimitError, ParameterError, ShapeMismatchError
from .grids import Grid1D
from .smooth import (
    FULL_LINE,
    AnalyticField1D,
    AnalyticField2D,
    ConstantField1D,
    ConstantField2D,
    Field1D,
    Field2D,
    Interval,
    Rect,
    ShiftedField1D,
    is_zero_field,
    running_trapezoid,
    simpson_weights,
)

AUDIT_FACTOR = 10.0
ROUGH_STEP_FRACTION = 1.0 / 16.0  # RK4 substep, of the speed's intrinsic scale


@dataclass
class HyperbolicProblem:
    """Speeds, coupling matrix, forcing and level-zero data, all as fields.

    Speeds and data are Field1D; coupling and forcing entries are Field2D
    and may vary in t.  coupling[i][j] and forcing[i] may be None for an
    identically zero entry; the solver skips the work those entries
    would cost.  ParameterError for an entry of another type, a speed
    first.
    """

    speeds: list
    coupling: list
    forcing: list
    data: list

    def __post_init__(self):
        for i, c in enumerate(self.speeds):
            _require_type(f"speeds[{i}]", c, Field1D)
        n = len(self.speeds)
        if n == 0:
            raise ParameterError("system needs at least one component")
        if len(self.coupling) != n or any(len(row) != n for row in self.coupling):
            raise ShapeMismatchError(f"coupling must be {n}x{n}")
        if len(self.forcing) != n:
            raise ShapeMismatchError(f"forcing must have {n} entries")
        if len(self.data) != n:
            raise ShapeMismatchError(f"data must have {n} entries")
        for i in range(n):
            for j, f in enumerate(self.coupling[i]):
                _require_type(f"coupling[{i}][{j}]", f, Field2D, optional=True)
            _require_type(f"forcing[{i}]", self.forcing[i], Field2D, optional=True)
            _require_type(f"data[{i}]", self.data[i], Field1D)

    @property
    def size(self) -> int:
        return len(self.speeds)


def _require_type(name: str, f, kind: type, optional: bool = False):
    if not (isinstance(f, kind) or (optional and f is None)):
        allowed = kind.__name__ + (" or None" if optional else "")
        raise ParameterError(f"{name} must be a {allowed}, got {type(f).__name__}")


class SolutionField:
    """Component tables on a space-time lattice plus the trusted region."""

    def __init__(self, x_grid: Grid1D, t_nodes, tables, trust, iterations, gaps, audit_gap):
        self.x_grid = x_grid
        self.t_nodes = np.asarray(t_nodes, dtype=float)
        self.tables = tables  # list of (nx, nt) arrays
        self.trust = trust
        self.iterations = iterations
        self.gaps = np.asarray(gaps, dtype=float)
        self.audit_gap = float(audit_gap)

    @property
    def size(self) -> int:
        return len(self.tables)

    def level_index(self, t: float) -> int:
        k = int(np.argmin(np.abs(self.t_nodes - t)))
        if abs(self.t_nodes[k] - t) > 1e-9 * max(1.0, abs(t)):
            raise ParameterError(f"t={t} is not a lattice level")
        return k

    def on_level(self, component: int, t: float):
        """Nodes and values inside the trust region at one time level."""
        k = self.level_index(t)
        xs = self.x_grid.nodes()
        mask = self.trust.contains(xs, self.t_nodes[k])
        return xs[mask], self.tables[component][mask, k]

    def values(self, component: int, x, t: float) -> np.ndarray:
        """Linear interpolation in x on lattice level t, inside the trust trapezoid."""
        k = self.level_index(t)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.all(self.trust.contains(x, self.t_nodes[k])):
            raise DomainError("query outside the solution's trusted trapezoid")
        return np.interp(x, self.x_grid.nodes(), self.tables[component][:, k])


def _substeps(speed: Field1D, dt: float) -> int:
    scale = speed.scale
    if scale is None or not np.isfinite(scale):
        return 1
    return max(1, int(np.ceil(dt / (scale * ROUGH_STEP_FRACTION))))


def _feet_blocks(speed: Field1D, xs: np.ndarray, t_nodes: np.ndarray, base: Interval):
    """Backward characteristic feet of one component, one block per depth.

    Block m is one (nx, 1) column: the feet on level l of the
    characteristics through the nodes on level l + m, the same for every
    l because the speed is a field of x, so it broadcasts over anchor
    levels.  Block m+1 is block m stepped back one level by RK4 and
    clamped to the base interval.
    """
    nsub = _substeps(speed, t_nodes[1] - t_nodes[0])
    back = t_nodes[0] - t_nodes[1]
    blk = xs[:, None]
    blocks = [blk]
    for _ in range(len(t_nodes) - 1):
        stepped = flow_levels(speed, blk, back, nsub)[-1]
        blk = np.clip(stepped, base.lo, base.hi)
        blocks.append(blk)
    return blocks


def _along_feet(fields: list, datum: Field1D, feet: list, t_nodes: np.ndarray):
    """One row's fields on every depth's feet, and its datum at their level-0 feet.

    Returns (data, out): column m of data is the datum on block m (the
    level-0 feet of anchor level m), and out[k][m] is fields[k] on block
    m.  The feet are those of a speed of x alone; the fields may vary in t.
    A time-independent field keeps the (nx, 1) shape of the feet block; a
    field that varies in t gets (nx, K+1-m) values at times t_0 ..
    t_{K-m}, the levels that block m feeds.  The loop is block-major: all
    fields query block m, at the same points, and then the datum, before
    anything queries block m + 1.  So fields and a datum built on shared
    values (the wave reduction's couplings and u1 -+ lam u0') evaluate
    those once per block.
    """
    varies = [not fld.t_independent for fld in fields]
    out = [[] for _ in fields]
    data = []
    for m, f in enumerate(feet):
        static_at = (f, np.zeros_like(f))
        if any(varies):
            shape = (len(f), len(t_nodes) - m)
            varying_at = (
                np.ascontiguousarray(np.broadcast_to(f, shape)),
                np.ascontiguousarray(np.broadcast_to(t_nodes[: shape[1]], shape)),
            )
        for vals, fld, vary in zip(out, fields, varies):
            vals.append(fld.values(*(varying_at if vary else static_at)))
        data.append(_clip_eval_1d(datum, f[:, 0]))
    return np.stack(data, axis=1), out


def _clip_eval_1d(f: Field1D, xs: np.ndarray) -> np.ndarray:
    xc = np.clip(xs, f.domain.lo, f.domain.hi)
    return f.values(xc)


def _interp_gather(xs: np.ndarray, pts: np.ndarray):
    """Row indices and weights for linear interpolation in x at one feet column.

    Every anchor level shares the column, so the sweep gathers whole
    rows, U[idx, :L].
    """
    dx = xs[1] - xs[0]
    idx = np.clip(((pts - xs[0]) / dx).astype(int), 0, len(xs) - 2)
    fr = np.clip((pts - xs[idx]) / dx, 0.0, 1.0)
    return idx[:, 0], fr


class _PicardSweep:
    """One Picard sweep, vectorized over anchor levels at fixed feet depth.

    The right-hand side value at feet depth m and time level l feeds the
    anchor level k = m + l with trapezoid weight dt (halved at m = 0 and
    l = 0).  The data term reads the datum at each anchor's level-0 foot.
    """

    def __init__(self, problem, xs, t_nodes, base, dt):
        n = problem.size
        K = len(t_nodes) - 1
        self.K = K
        self.dt = dt
        self.data = []
        self.gather = []
        self.coup = []
        self.force = []
        for i in range(n):
            feet = _feet_blocks(problem.speeds[i], xs, t_nodes, base)
            self.gather.append([_interp_gather(xs, f) for f in feet])
            live = [j for j in range(n) if not is_zero_field(problem.coupling[i][j])]
            g = problem.forcing[i]
            row = [problem.coupling[i][j] for j in live]
            if not is_zero_field(g):
                row.append(g)
            data, vals = _along_feet(row, problem.data[i], feet, t_nodes)
            self.data.append(data)
            self.coup.append(list(zip(live, vals)))
            self.force.append(vals[-1] if len(vals) > len(live) else None)

    def __call__(self, U):
        K, dt = self.K, self.dt
        new = []
        for i, data in enumerate(self.data):
            tab = data.copy()
            if self.coup[i] or self.force[i] is not None:
                for m in range(K + 1):
                    L = K + 1 - m
                    rows, fr = self.gather[i][m]
                    rhs = None
                    for j, fv in self.coup[i]:
                        Uj = U[j]
                        V = Uj[rows, :L] * (1.0 - fr) + Uj[rows + 1, :L] * fr
                        term = fv[m] * V
                        rhs = term if rhs is None else rhs + term
                    if self.force[i] is not None:
                        rhs = self.force[i][m] + (0.0 if rhs is None else rhs)
                    rhs = np.broadcast_to(rhs, (len(tab), L))
                    if m == 0:
                        tab[:, 1:] += (0.5 * dt) * rhs[:, 1:]
                    else:
                        w = np.full(L, dt)
                        w[0] = 0.5 * dt
                        tab[:, m:] += rhs * w[None, :]
            new.append(tab)
        return new


def solve_system(
    problem: HyperbolicProblem,
    base: Interval,
    horizon: float,
    dt: float,
    x_step: float | None = None,
    tol: float = 1e-10,
    max_iter: int = 80,
) -> SolutionField:
    """Global Picard solve over the determinacy trapezoid of `base`.

    Tables live on the full base x [0, horizon] rectangle, but anything
    outside the trapezoid is quarantined: gaps, the audit and all point
    queries are restricted to it.  Convergence requires the sup-norm
    update gap on the trusted nodes to fall below tol; one extra sweep
    after convergence must stay below AUDIT_FACTOR * tol, which guards
    against a lucky small step masquerading as a fixed point.
    """
    if not (0.0 < dt < np.inf and 0.0 < horizon < np.inf):
        raise ParameterError(
            f"dt and horizon must be positive and finite, got {dt} and {horizon}")
    if x_step is not None and not 0.0 < x_step < np.inf:
        raise ParameterError(f"x_step must be positive and finite, got {x_step}")
    n_levels = max(1, int(round(horizon / dt)))
    dt_eff = horizon / n_levels
    t_nodes = np.linspace(0.0, horizon, n_levels + 1)

    trust = determinacy_domain(problem.speeds, base, horizon)

    if x_step is None:
        # finer than dt x speed buys nothing; 512 cells is plenty when the
        # speed (or dt) is tiny relative to the base width
        x_step = max(dt_eff * max(1.0, trust.speed_bound), base.width / 512.0)
    nx = max(int(np.ceil(base.width / x_step)) + 1, 8)
    x_grid = Grid1D.from_bounds(base.lo, base.hi, nx)
    xs = x_grid.nodes()

    for i, d in enumerate(problem.data):
        if d.domain.lo > base.lo + 1e-12 or d.domain.hi < base.hi - 1e-12:
            raise DomainError(
                f"data component {i} lives on [{d.domain.lo}, {d.domain.hi}], "
                f"which does not cover the base interval [{base.lo}, {base.hi}]"
            )

    n = problem.size
    K = n_levels
    sweep = _PicardSweep(problem, xs, t_nodes, base, dt_eff)
    trust_mask = np.stack(
        [trust.contains(xs, t_nodes[k]) for k in range(K + 1)], axis=1
    )

    U = [np.tile(_clip_eval_1d(problem.data[i], xs)[:, None], (1, K + 1)) for i in range(n)]

    gaps = []
    converged = False
    for sweep_no in range(max_iter):
        Unew = sweep(U)
        gap = max(
            float(np.max(np.abs((Unew[i] - U[i])[trust_mask]))) for i in range(n)
        )
        gaps.append(gap)
        U = Unew
        if gap <= tol:
            converged = True
            break
    if not converged:
        raise IterationLimitError(
            f"picard solve did not reach tol={tol} in {max_iter} sweeps "
            f"(last gap {gaps[-1]:.3g})"
        )

    Uaudit = sweep(U)
    audit = max(
        float(np.max(np.abs((Uaudit[i] - U[i])[trust_mask]))) for i in range(n)
    )
    if audit > AUDIT_FACTOR * tol:
        raise IterationLimitError(
            f"fixed-point audit failed: extra sweep moved by {audit:.3g} "
            f"> {AUDIT_FACTOR} * tol"
        )

    return SolutionField(
        x_grid=x_grid,
        t_nodes=t_nodes,
        tables=U,
        trust=trust,
        iterations=sweep_no + 1,
        gaps=gaps,
        audit_gap=audit,
    )


# ------------------------------------------------------------------ wave


class _Negated(Field1D):
    """-f on f's domain, at f's smoothing scale (which sets its RK4 substeps)."""

    def __init__(self, f: Field1D):
        self._f = f
        self.domain = f.domain
        self.scale = f.scale

    def values(self, x, order: int = 0) -> np.ndarray:
        return -self._f.values(x, order)


def wave_to_system(
    speed: Field1D, u0: Field1D, u0_slope: Field1D, u1: Field1D
) -> HyperbolicProblem:
    """Reduce u_tt = lam^2 u_xx to a first-order system.

    State is (v, w, u) with v = u_t - lam u_x and w = u_t + lam u_x;
    v rides speed +lam, w rides -lam, and u, component 2, integrates
    (v + w)/2 up its vertical characteristic.  u0_slope must be the
    x-derivative of u0 (passed separately so embedded data can supply it
    exactly), and u1 is the initial velocity.

    lam and the three data are fields of x (ParameterError for any
    other, before any work), and lam must stay away from zero, since the
    reduction divides by it.
    """
    for name, f in (("speed", speed), ("u0", u0), ("u0_slope", u0_slope), ("u1", u1)):
        _require_type(name, f, Field1D)
    lam = speed

    # The two couplings of a row query the same points in turn, and the
    # row's datum then reads lam on their level-0 column (the solver
    # evaluates a row block by block), so the inputs of the latest query
    # are kept, as one (x, values) entry, and served to the next query
    # at equal points.  lam is a field of x, so x alone is the key.
    latest = None

    def inputs(x):
        # lam_x and lam at x
        nonlocal latest
        hit = latest
        if hit is not None and np.array_equal(hit[0], x):
            return hit[1]
        vals = (lam.values(x, 1), lam.values(x))
        latest = (np.array(x), vals)
        return vals

    def coupling(side: float):
        # A = -lam lam_x / (2 lam); each row takes -A on v and +A on w
        def fn(x, t):
            lx, lv = inputs(x)
            return side * ((0.0 - lv * lx) / (2.0 * lv))

        return AnalyticField2D(fn, domain=Rect(lam.domain, FULL_LINE), t_independent=True)

    if isinstance(lam, ConstantField1D):
        # constant speed: the v/w block vanishes
        minus_a = plus_a = None
    else:
        minus_a, plus_a = coupling(-1.0), coupling(+1.0)

    half = ConstantField2D(0.5)
    data_dom = u1.domain.intersect(u0_slope.domain).intersect(lam.domain)

    def lam_at_rest(x):
        # lam at the level-0 feet of a block, which the couplings last read
        hit = latest
        if hit is not None and np.array_equal(hit[0].reshape(-1), x):
            return hit[1][1].reshape(-1)
        return lam.values(x)

    def char_datum(sign: float):
        def fn(x):
            return u1.values(x) + sign * lam_at_rest(x) * u0_slope.values(x)

        return AnalyticField1D([fn], domain=data_dom)

    return HyperbolicProblem(
        speeds=[lam, _Negated(lam), ConstantField1D(0.0)],
        coupling=[
            [minus_a, plus_a, None],
            [minus_a, plus_a, None],
            [half, half, None],
        ],
        forcing=[None, None, None],
        data=[char_datum(-1.0), char_datum(+1.0), u0],
    )


# ------------------------------------------------------- special solvers


def transport_t_only(data: Field1D, path: Field1D, t: float):
    """Solution of u_t + c(t) u_x = 0 with c = path': the shifted datum.

    The shift is path(t) - path(0), so a smoothed path gives the exact
    integral of its smoothed derivative, with no quadrature error.
    Returns (field, shift).
    """
    p0, pt = path.values(np.array([0.0, t]))
    shift = float(pt - p0)
    return ShiftedField1D(data, shift), shift


GRONWALL_PROBES = 257


def gronwall_check(sol: SolutionField, problem: HyperbolicProblem):
    """A-priori bound audit on a computed solution.

    Checks sup_x |U(t)| <= (sup |U(0)| + int_0^t |g|) * exp(int_0^t |F|)
    with |F|(t) = max_i sum_j sup_x |F_ij(., t)| and |g|(t) = max_i
    sup_x |g_i(., t)|, all sups over GRONWALL_PROBES points of the trusted
    interval at that time.  Returns (lhs_curve, rhs_curve, ok).
    """
    tn = sol.t_nodes
    lhs = np.empty(len(tn))
    f_norm = np.empty(len(tn))
    g_norm = np.empty(len(tn))
    for idx, t in enumerate(tn):
        iv = sol.trust.interval_at(t) if t != 0.0 else sol.trust.base
        xs = np.linspace(iv.lo, iv.hi, GRONWALL_PROBES)
        lhs[idx] = max(
            float(np.max(np.abs(sol.values(i, xs, t))))
            for i in range(sol.size)
        )
        fsum = 0.0
        gsum = 0.0
        for i in range(problem.size):
            row = 0.0
            for j in range(problem.size):
                c = problem.coupling[i][j]
                if not is_zero_field(c):
                    row += float(np.max(np.abs(c.values(xs, np.full_like(xs, t)))))
            fsum = max(fsum, row)
            g = problem.forcing[i]
            if not is_zero_field(g):
                gsum = max(gsum, float(np.max(np.abs(g.values(xs, np.full_like(xs, t))))))
        f_norm[idx] = fsum
        g_norm[idx] = gsum
    int_f = running_trapezoid(f_norm, np.diff(tn))
    int_g = running_trapezoid(g_norm, np.diff(tn))
    rhs = (lhs[0] + int_g) * np.exp(int_f)
    ok = bool(np.all(lhs <= rhs * (1.0 + 1e-9) + 1e-12))
    return lhs, rhs, ok


def geometric_wave_solve(
    chart,
    u0: Field1D,
    u1: Field1D | None,
    xs: np.ndarray,
    t: float,
) -> np.ndarray:
    """Closed-form wave along a graph curve, via its arclength chart.

    In the arclength variable the problem is the flat wave equation, so
    the value at (x, t) is the average of the datum at the two feet plus
    half the integral of the initial velocity between them (measured in
    arclength).  This is the independent route against which the full
    system solver is compared on geometric problems.
    """
    xs = np.asarray(xs, dtype=float)
    left = chart.gamma(xs, t, +1)
    right = chart.gamma(xs, t, -1)
    out = 0.5 * (u0.values(left) + u0.values(right))
    if u1 is not None:
        s_lo = chart.length(left)
        s_hi = chart.length(right)
        # fixed Simpson lattice in arclength between the feet
        m = 65
        w = np.linspace(0.0, 1.0, m)
        simp = simpson_weights(m)
        for idx in range(len(xs)):
            span = s_hi[idx] - s_lo[idx]
            if span <= 0.0:
                continue
            s_lattice = s_lo[idx] + w * span
            vals = u1.values(chart.position(s_lattice))
            h = span / (m - 1)
            out[idx] += 0.5 * h / 3.0 * float(np.dot(simp, vals))
    return out


def halving_error_estimate(
    problem: HyperbolicProblem,
    coarse: SolutionField,
    base: Interval,
    horizon: float,
    dt: float,
    component: int = 0,
    **kw,
) -> float:
    """Largest node difference between a dt solve and a dt/2 solve.

    Standard discretization-error proxy: both solves share the coarse
    lattice nodes, where the fine solve is close to converged in dt.
    `coarse` is the caller's solve_system(problem, base, horizon, dt,
    **kw); only the dt/2 solve runs here.  ParameterError if `coarse` is
    not on the fine solve's lattice: every second fine time level must
    be a coarse level, and both must share the x nodes (pass x_step, or
    the two dt give two x grids).
    """
    fine = solve_system(problem, base, horizon, dt / 2.0, **kw)
    if not np.array_equal(fine.t_nodes[::2], coarse.t_nodes):
        raise ParameterError("coarse solve is not on every second level of the dt/2 solve")
    if not np.array_equal(fine.x_grid.nodes(), coarse.x_grid.nodes()):
        raise ParameterError("coarse and dt/2 solves have different x nodes")
    iv = coarse.trust.interval_at(horizon)
    xs = np.linspace(iv.lo, iv.hi, 201)
    diff = 0.0
    for t in coarse.t_nodes[1:]:
        a = coarse.values(component, xs, t)
        b = fine.values(component, xs, t)
        diff = max(diff, float(np.max(np.abs(a - b))))
    return diff
