import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughwave.errors import ShapeMismatchError
from roughwave.fields import (
    SampledProcess,
    ndtr,
    sample_brownian_1d,
    translation_transform,
    white_noise_action,
    white_noise_field,
)
from roughwave.grids import Grid1D, Grid2D

N_SEEDS = 10_000
MC_TOL = 0.05


@pytest.fixture(scope="module")
def unit_grid():
    return Grid1D.from_bounds(0.0, 1.0, 101)


def test_brownian_pinned_at_origin(unit_grid):
    w = sample_brownian_1d(unit_grid, seed=7)
    assert w.values[0] == 0.0


def test_brownian_pin_on_two_sided_grid():
    g = Grid1D.from_bounds(-1.0, 1.0, 201)
    w = sample_brownian_1d(g, seed=3)
    assert w.values[g.nearest_index(0.0)] == 0.0


def test_brownian_seed_reproducible(unit_grid):
    a = sample_brownian_1d(unit_grid, seed=42)
    b = sample_brownian_1d(unit_grid, seed=42)
    c = sample_brownian_1d(unit_grid, seed=43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_brownian_terminal_variance_and_covariance(unit_grid):
    # Var W(1) = 1 and Cov(W(0.3), W(0.7)) = min = 0.3, estimated over seeds.
    ix3 = unit_grid.nearest_index(0.3)
    ix7 = unit_grid.nearest_index(0.7)
    w1 = np.empty(N_SEEDS)
    w3 = np.empty(N_SEEDS)
    w7 = np.empty(N_SEEDS)
    for s in range(N_SEEDS):
        vals = sample_brownian_1d(unit_grid, seed=s).values
        w1[s], w3[s], w7[s] = vals[-1], vals[ix3], vals[ix7]
    assert np.var(w1) == pytest.approx(1.0, abs=MC_TOL)
    assert np.mean(w3 * w7) == pytest.approx(0.3, abs=MC_TOL)


@pytest.fixture(scope="module")
def noise_grid():
    return Grid2D(Grid1D.from_bounds(-2.0, 2.0, 81), Grid1D.from_bounds(0.0, 2.0, 41))


def _cell_tab(grid, phi):
    # phi tabulated at the cell centres, the way the scenarios pass it
    tab = phi(grid.x.cell_centers()[:, None], grid.t.cell_centers()[None, :])
    return np.broadcast_to(tab, (grid.x.count - 1, grid.t.count - 1))


def test_white_noise_isometry(noise_grid):
    # Var <W',phi> = integral of phi^2: use the indicator of the unit square.
    def phi(x, t):
        return ((x >= 0.0) & (x <= 1.0) & (t >= 0.0) & (t <= 1.0)).astype(float)

    tab = _cell_tab(noise_grid, phi)
    n = 10_000
    vals = np.array(
        [white_noise_action(white_noise_field(noise_grid, seed=s), tab) for s in range(n)]
    )
    assert np.mean(vals) == pytest.approx(0.0, abs=MC_TOL)
    assert np.var(vals) == pytest.approx(1.0, abs=MC_TOL)


def test_white_noise_disjoint_supports_uncorrelated(noise_grid):
    def left(x, t):
        return ((x >= -2.0) & (x <= -1.0)).astype(float)

    def right(x, t):
        return ((x >= 1.0) & (x <= 2.0)).astype(float)

    left_tab, right_tab = _cell_tab(noise_grid, left), _cell_tab(noise_grid, right)
    n = 10_000
    a = np.empty(n)
    b = np.empty(n)
    for s in range(n):
        w = white_noise_field(noise_grid, seed=s)
        a[s] = white_noise_action(w, left_tab)
        b[s] = white_noise_action(w, right_tab)
    assert np.mean(a * b) == pytest.approx(0.0, abs=MC_TOL)


def test_white_noise_action_shape_error(noise_grid):
    w = white_noise_field(noise_grid, seed=1)
    with pytest.raises(ShapeMismatchError):
        white_noise_action(w, np.zeros((3, 3)))
    nx, nt = w.increments.shape
    with pytest.raises(ShapeMismatchError):
        white_noise_action(w, np.zeros((3, nx, nt - 1)))


def test_white_noise_action_pairs_a_stack_per_tab(noise_grid):
    w = white_noise_field(noise_grid, seed=3)
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((3,) + w.increments.shape)
    got = white_noise_action(w, stack)
    singles = [white_noise_action(w, tab) for tab in stack]
    assert got.shape == (3,)
    assert all(type(v) is float for v in singles)
    np.testing.assert_allclose(got, singles, rtol=1e-12)


def test_white_noise_action_accepts_cell_tabulation(noise_grid):
    w = white_noise_field(noise_grid, seed=2)
    tab = np.ones_like(w.increments)
    got = white_noise_action(w, tab)
    assert got == pytest.approx(float(np.sum(w.increments)))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    lo=st.floats(min_value=-5.0, max_value=0.0),
    width=st.floats(min_value=0.5, max_value=10.0),
)
def test_translation_range_bounded_exactly(seed, lo, width):
    # F^{-1} with range [lo, lo+width] keeps every node inside the range.
    g = Grid1D.from_bounds(0.0, 1.0, 33)
    p = sample_brownian_1d(g, seed=seed)
    q = translation_transform(p, lambda u: lo + width * u)
    assert np.all(q.values >= lo)
    assert np.all(q.values <= lo + width)


def test_ndtr_matches_scipy_oracle():
    from scipy.special import ndtr as scipy_ndtr

    x = np.linspace(-12.0, 12.0, 240001)
    got, want = ndtr(x), scipy_ndtr(x)
    # in the lower tail Phi's relative condition number grows like x^2, so
    # the two libraries' erfc, and scipy's 0.5 + 0.5 erf branch for
    # |x| < sqrt(2), may part by a few ulp times 1 + x^2 (at most 66 ulp
    # at x = -12); on the upper half both are within 2 ulp of each other
    ulp = np.spacing(want)
    assert np.all(np.abs(got - want) <= 5.0 * (1.0 + x * x) * ulp)
    upper = x >= 0.0
    assert np.all(np.abs(got - want)[upper] <= 2.0 * ulp[upper])
    assert ndtr(0.0) == 0.5
    assert ndtr(x[:6].reshape(2, 3)).shape == (2, 3)


def test_translation_identity_on_gaussian_marginals():
    # F = Phi gives F^{-1}(Phi(x)) = x up to CDF round-trip error.
    from scipy.special import ndtri

    g = Grid1D.from_bounds(0.0, 1.0, 65)
    p = sample_brownian_1d(g, seed=11)
    q = translation_transform(p, ndtri)
    assert np.allclose(q.values, p.values, atol=1e-12)


def test_sampled_process_shape_guard():
    g = Grid1D.from_bounds(0.0, 1.0, 11)
    with pytest.raises(ShapeMismatchError):
        SampledProcess(g, np.zeros(10), seed=0, source="bad")
