"""Solver for diagonal first-order hyperbolic systems.

The problem class is

    (d/dt + lambda_i(x) d/dx) u_i = sum_j F_ij(x,t) u_j + g_i(x,t),
    u_i(x, 0) = data_i(x),

solved in integral form: each component is its initial datum carried
along the i-th characteristic plus the time integral of the coupled
right-hand side along that characteristic (trapezoid rule on the time
lattice).  The data term is evaluated at the characteristic feet
exactly, never interpolated; the right-hand side reads earlier levels
through linear interpolation in x.  Those equations are lower-triangular
in time, since level k reads itself only through the trapezoid's end
term at its own nodes, so one forward march solves them exactly: one
n x n solve per node and level.

Speeds and data are fields of x (`Field1D`); couplings and forcing are
fields of (x, t) (`Field2D`) and may vary in t.  Characteristic feet come
from one backward flow table per component, built by one-level RK4
backsteps (:func:`roughwave.characteristics.flow_levels`): for every
depth m, one (nx, 1) column of feet that every anchor level shares,
since a speed of x alone gives every anchor the same feet.  A level's
equations are vectorized over feet depth.  Data, coupling and forcing
values at the feet are computed once, before the march, block by block:
a row's fields and its datum read one feet block before any reads the
next, so the wave reduction's two couplings and datum per row share one
evaluation of the speed and its derivative.

`halving_error_estimate` takes the caller's dt solve and runs only the
dt/2 solve, refusing a coarse solve that is not on its lattice.

Values on the tabulation rectangle outside the domain of determinacy of
the base interval are garbage by construction (feet are clamped).  The
returned SolutionField carries the determinacy trapezoid and refuses
point queries outside it; the residual audit is measured inside it only.
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

    # one forward march solves the equations; the benchmark tracer counts
    # iterations + 1 passes, the march and the residual audit
    iterations = 1

    def __init__(self, x_grid: Grid1D, t_nodes, tables, trust, audit_gap):
        self.x_grid = x_grid
        self.t_nodes = np.asarray(t_nodes, dtype=float)
        self.tables = tables  # list of (nx, nt) arrays
        self.trust = trust
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
        """Linear interpolation in x on lattice level t, inside the trust trapezoid.

        t is one level: a float or a one-entry array.  ParameterError for
        any other t, such as one time per point.
        """
        if np.size(t) != 1:
            raise ParameterError(
                f"t must be one lattice level, got an array of shape {np.shape(t)}")
        k = self.level_index(float(np.ravel(t)[0]))
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
        data.append(datum.values(np.clip(f[:, 0], datum.domain.lo, datum.domain.hi)))
    return np.stack(data, axis=1), out


def _interp_gather(xs: np.ndarray, pts: np.ndarray):
    """Row indices and weights for linear interpolation in x at one feet column.

    Every anchor level shares the column, so one (idx, fr) pair serves
    every level at that depth.
    """
    dx = xs[1] - xs[0]
    idx = np.clip(((pts - xs[0]) / dx).astype(int), 0, len(xs) - 2)
    fr = np.clip((pts - xs[idx]) / dx, 0.0, 1.0)
    return idx[:, 0], fr


def _depth_stack(vals: list) -> np.ndarray:
    """One field's per-depth values as a (K+1, nx, L) stack.

    Depth m fills the levels 0 .. K-m that its block feeds; a field of x
    keeps L = 1, one column that every level shares.
    """
    out = np.zeros((len(vals), *vals[0].shape))
    for m, v in enumerate(vals):
        out[m, :, : v.shape[1]] = v
    return out


def _on_level(stack: np.ndarray, depth: np.ndarray, k: int) -> np.ndarray:
    """(len(depth), nx) values of a depth stack that feed anchor level k."""
    return stack[depth, :, np.minimum(k - depth, stack.shape[2] - 1)]


def _solve_level(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each node's n x n system A U = b, in one batched solve."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise ParameterError("dt is too large for the coupling: a level's "
                             "trapezoid system I - dt/2 C is singular") from None


class _LevelMarch:
    """The discrete integral equations, solved one time level at a time.

    Anchor level k integrates the right-hand side along each component's
    characteristic by the trapezoid rule: the value at feet depth m sits
    on level k - m, with weight dt, halved at depth 0 and at level 0.
    Depths m >= 1 read finished lower levels at their feet; depth 0 is the
    node itself on level k, so level k solves (I - dt/2 C0) U_k = b at
    each node, C0 being the coupling there.  The data term reads the
    datum at each anchor's level-0 foot.
    """

    def __init__(self, problem, xs, t_nodes, base, dt):
        n = problem.size
        self.K = len(t_nodes) - 1
        self.dt = dt
        self.data = []
        self.gather = []
        self.coup = []
        self.force = []
        for i in range(n):
            feet = _feet_blocks(problem.speeds[i], xs, t_nodes, base)
            rows, fr = zip(*(_interp_gather(xs, f) for f in feet))
            self.gather.append((np.stack(rows), np.stack(fr)[:, :, 0]))
            live = [j for j in range(n) if not is_zero_field(problem.coupling[i][j])]
            g = problem.forcing[i]
            row = [problem.coupling[i][j] for j in live]
            if not is_zero_field(g):
                row.append(g)
            data, vals = _along_feet(row, problem.data[i], feet, t_nodes)
            self.data.append(data)
            stacks = [_depth_stack(v) for v in vals]
            self.coup.append(list(zip(live, stacks)))
            self.force.append(stacks[-1] if len(stacks) > len(live) else None)

    def level(self, U, k: int):
        """Level k's equations A U_k = b from the levels below it.

        Returns A = I - dt/2 C0, (nx, n, n), and b, (nx, n).
        """
        n, nx = len(self.data), len(self.data[0])
        depth = np.arange(k + 1)
        lower = (k - depth[1:])[:, None]   # the level that depth m reads
        w = np.full((k + 1, 1), self.dt)
        w[[0, -1]] *= 0.5
        A = np.tile(np.eye(n), (nx, 1, 1))
        b = np.empty((nx, n))
        for i, data in enumerate(self.data):
            rows, fr = (a[1 : k + 1] for a in self.gather[i])
            g = self.force[i]
            acc = np.zeros((k + 1, nx)) if g is None else w * _on_level(g, depth, k)
            for j, c in self.coup[i]:
                cw = w * _on_level(c, depth, k)
                A[:, i, j] -= cw[0]
                Uj = U[j]
                acc[1:] += cw[1:] * (Uj[rows, lower] * (1.0 - fr) + Uj[rows + 1, lower] * fr)
            b[:, i] = data[:, k] + acc.sum(axis=0)
        return A, b

    def __call__(self) -> np.ndarray:
        """The (n, nx, K+1) tables, level after level."""
        U = np.empty((len(self.data), len(self.data[0]), self.K + 1))
        U[:, :, 0] = [d[:, 0] for d in self.data]
        for k in range(1, self.K + 1):
            U[:, :, k] = _solve_level(*self.level(U, k)).T
        return U

    def residual(self, U: np.ndarray, trust_mask: np.ndarray) -> float:
        """Largest |A U_k - b| of finished tables on the trusted nodes."""
        worst = 0.0
        for k in range(1, self.K + 1):
            A, b = self.level(U, k)
            r = np.einsum("pij,jp->pi", A, U[:, :, k]) - b
            worst = max(worst, float(np.max(np.abs(r[trust_mask[:, k]]), initial=0.0)))
        return worst


def solve_system(
    problem: HyperbolicProblem,
    base: Interval,
    horizon: float,
    dt: float,
    x_step: float | None = None,
) -> SolutionField:
    """Solve over the determinacy trapezoid of `base`, one time level at a time.

    Tables live on the full base x [0, horizon] rectangle, but anything
    outside the trapezoid is quarantined: the audit and all point queries
    are restricted to it.  The audit puts the finished tables back into
    every level's equations; IterationLimitError if a trusted node misses
    them by more than 1e-9.
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

    march = _LevelMarch(problem, xs, t_nodes, base, dt_eff)
    U = march()
    trust_mask = np.stack([trust.contains(xs, t) for t in t_nodes], axis=1)
    audit = march.residual(U, trust_mask)
    if audit > 1e-9:
        raise IterationLimitError(
            f"residual audit failed: the tables miss their equations by {audit:.3g} > 1e-9")
    return SolutionField(x_grid=x_grid, t_nodes=t_nodes, tables=list(U), trust=trust,
                         audit_gap=audit)


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
    x_step: float | None = None,
) -> float:
    """Largest node difference between a dt solve and a dt/2 solve.

    Standard discretization-error proxy: both solves share the coarse
    lattice nodes, where the fine solve is close to converged in dt.
    `coarse` is the caller's solve_system(problem, base, horizon, dt,
    x_step); only the dt/2 solve runs here.  ParameterError if `coarse` is
    not on the fine solve's lattice: every second fine time level must
    be a coarse level, and both must share the x nodes (pass x_step, or
    the two dt give two x grids).
    """
    fine = solve_system(problem, base, horizon, dt / 2.0, x_step=x_step)
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
