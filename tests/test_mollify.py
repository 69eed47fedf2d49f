import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy.special import expit

from roughwave.errors import (
    DomainError,
    ParameterError,
    ResolutionError,
)
from roughwave.fields import SampledProcess, sample_brownian_1d
from roughwave.grids import Grid1D
from roughwave import mollify
from roughwave.mollify import (
    EmbeddedField1D,
    EpsLadder,
    Mollifier,
    build_mollifier,
)


def tabulate(fn, lo, hi, step, source="analytic"):
    count = int(round((hi - lo) / step)) + 1
    g = Grid1D(lo, step, count)
    return SampledProcess(g, fn(g.nodes()), seed=0, source=source)


# ---------------------------------------------------------------- kernel


@pytest.mark.parametrize("m", [0, 2, 4, 6])
def test_kernel_mass_and_vanishing_moments(m):
    mol = build_mollifier(moments=m)
    z = np.arange(-14.0, 14.0, 1e-3)
    rho = mol.rho(z)
    dz = 1e-3
    assert abs(np.sum(rho) * dz - 1.0) <= 1e-10
    for k in range(1, m + 1):
        assert abs(np.sum(z**k * rho) * dz) <= 1e-8
    # first non-vanishing moment beyond M is genuinely nonzero
    assert abs(np.sum(z ** (m + 2) * rho) * dz) > 1e-3


def test_trunc_radius_brackets_tail():
    mol = build_mollifier(moments=2)
    r = mol.trunc_radius
    assert 5.0 < r < 10.0
    zs = np.linspace(r, r + 5.0, 200)
    assert np.all(np.abs(mol.rho(zs)) < 1e-12)  # build_mollifier's truncation


def test_cutoff_band_is_a_monotone_step():
    # the plateau and the support are pinned against _reference_cutoff by
    # test_kernel_values_bitwise_equal_full_cutoff_product
    mol = build_mollifier(moments=0, cutoff_inner=1.0, cutoff_outer=2.0)
    mid = mol._cutoff_band(np.linspace(1.2, 1.8, 200), 0)[0]
    assert np.all(mid > 0.0) and np.all(mid < 1.0)
    assert np.all(np.diff(mid) < 0.0)  # monotone decay on the right
    # near the band's ends the float value may saturate but never escapes [0, 1]
    edge = mol._cutoff_band(np.linspace(1.0, 2.0, 401)[1:-1], 0)[0]
    assert np.all(edge >= 0.0) and np.all(edge <= 1.0)
    assert np.all(np.diff(edge) <= 0.0)


@pytest.mark.parametrize("order", [1])
def test_cutoff_derivatives_match_finite_differences(order):
    mol = build_mollifier(moments=0)
    z = np.array([-1.9, -1.5, -1.2, 1.1, 1.4, 1.8])
    h = 1e-5

    def chi(zz, k):
        return mol._cutoff_band(zz, k)[k]

    got = chi(z, order)
    fd = (chi(z + h, order - 1) - chi(z - h, order - 1)) / (2 * h)
    assert np.allclose(got, fd, atol=1e-4, rtol=1e-4)


@pytest.mark.parametrize("order", [1])
def test_kernel_derivatives_match_finite_differences(order):
    mol = build_mollifier(moments=2)
    s = 0.3
    z = np.array([-1.7, -0.8, -0.2, 0.0, 0.3, 0.9, 1.6])
    h = 1e-6
    got = mol.kernel_values(z, s, order)
    fd = (
        mol.kernel_values(z + h, s, order - 1) - mol.kernel_values(z - h, s, order - 1)
    ) / (2 * h)
    scale = np.max(np.abs(got)) + 1.0
    assert np.allclose(got, fd, atol=1e-5 * scale)


def _reference_cutoff(mol, z, order):
    a, b = mol.cutoff_inner, mol.cutoff_outer
    az = np.abs(z)
    inside = az <= a
    mid = ~(inside | (az >= b))
    out = np.zeros(z.shape)
    if order == 0:
        out[inside] = 1.0
    if np.any(mid):
        u = np.clip((az[mid] - a) / (b - a), 1e-9, 1.0 - 1e-9)
        sig = expit(1.0 / u - 1.0 / (1.0 - u))
        gp = -1.0 / u**2 - 1.0 / (1.0 - u) ** 2
        mass = sig * (1.0 - sig)
        if order == 0:
            out[mid] = sig
        else:
            out[mid] = mass * gp / (b - a) * np.sign(z[mid])
    return out


def _reference_kernel(mol, z, scale, order):
    """The full cutoff product with numpy Polynomial evaluation."""
    def rho(u, k):
        p = Polynomial(mol.poly_coeffs)
        for _ in range(k):
            p = p.deriv() - Polynomial([0.0, 1.0]) * p
        return p(u) * (1.0 / np.sqrt(2.0 * np.pi) * np.exp(-0.5 * u * u))

    out = np.zeros(z.shape)
    for j in range(order + 1):
        # Leibniz sum; both binomial weights are 1 at orders 0 and 1
        rho_term = rho(z / scale, order - j) / scale ** (order - j + 1)
        out += _reference_cutoff(mol, z, j) * rho_term
    return out


@pytest.mark.parametrize("m", [0, 2, 4, 6])
@pytest.mark.parametrize("order", [0, 1])
# windows inside the plateau, straddling it, and reaching past cutoff_outer
@pytest.mark.parametrize("scale", [0.03, 0.1, 0.2, 0.32])
def test_kernel_values_bitwise_equal_full_cutoff_product(m, order, scale):
    mol = build_mollifier(moments=m)
    a, b = mol.cutoff_inner, mol.cutoff_outer
    step = scale / 8.0
    hw = int(np.ceil(mol.support_radius(scale) / step)) + 1
    shifts = np.random.default_rng(m + 10 * order).uniform(0.0, step, 5)
    window = shifts[:, None] - (np.arange(2 * hw + 1) - hw)[None, :] * step
    edges = np.array([-b - step, -b, -a, -0.5 * (a + b), 0.0, a, np.nextafter(a, b), b])
    scratch = mollify._Scratch(window.size)  # one set for every shape below
    for z in (window, edges, np.array([-a, 0.0, a]), np.array(0.5 * a), window[:2]):
        want = _reference_kernel(mol, z, scale, order)
        for got in (mol.kernel_values(z, scale, order),
                    mol.kernel_values(z, scale, order, scratch)):
            assert got.shape == z.shape
            assert np.array_equal(got, want)


def test_kernel_quadrature_mass_unit():
    mol = build_mollifier(moments=4)
    s = 0.05
    z = np.arange(-1.0, 1.0, s / 50.0)
    mass = np.sum(mol.kernel_values(z, s, 0)) * (s / 50.0)
    assert abs(mass - 1.0) <= 1e-10


def test_build_mollifier_validation():
    with pytest.raises(ParameterError):
        build_mollifier(moments=3)
    with pytest.raises(ParameterError):
        build_mollifier(cutoff_inner=2.0, cutoff_outer=1.0)
    with pytest.raises(ParameterError):
        build_mollifier(truncation=0.0)


# ---------------------------------------------------------------- ladder


def test_ladder_levels_geometric():
    lad = EpsLadder(0.5, 0.5, 8)
    lv = lad.levels()
    assert lv.shape == (8,)
    assert lv[0] == 0.5
    assert np.allclose(lv[1:] / lv[:-1], 0.5)
    assert np.all(lv > 0.0) and np.all(lv <= 1.0)
    assert np.all(np.diff(lv) < 0.0)


def test_ladder_validation():
    with pytest.raises(ParameterError):
        EpsLadder(1.5, 0.5, 4)
    with pytest.raises(ParameterError):
        EpsLadder(0.5, 1.0, 4)
    with pytest.raises(ParameterError):
        EpsLadder(0.5, 0.5, 0)
    with pytest.raises(ParameterError):
        EpsLadder(0.5, 0.5, 4, scale_map="cubic")


@pytest.mark.parametrize("scale_map", ["log", "loglog"])
def test_ladder_refuses_scale_maps_no_scenario_reads(scale_map):
    with pytest.raises(ParameterError, match="scale_map must be 'identity'"):
        EpsLadder(0.5, 0.5, 4, scale_map=scale_map)


# ------------------------------------------------------------- embedding


def test_embed_constant_is_constant():
    p = tabulate(lambda x: np.full_like(x, 3.7), -2.0, 2.0, 0.05 / 8)
    mol = build_mollifier(moments=2)
    f = EmbeddedField1D(p, mol, 0.05)
    xs = np.linspace(f.domain.lo, f.domain.hi, 17)
    assert np.all(np.abs(f.values(xs) - 3.7) <= 1e-8)


def test_embed_reproduces_quadratic_with_m2():
    p = tabulate(lambda x: x**2, -2.0, 2.0, 0.05 / 8)
    mol = build_mollifier(moments=2)
    f = EmbeddedField1D(p, mol, 0.05)
    xs = np.linspace(-1.0, 1.0, 11)
    assert np.max(np.abs(f.values(xs) - xs**2)) <= 1e-7


def test_embed_reproduces_quartic_with_m4():
    p = tabulate(lambda x: x**4 - 2 * x**3 + x, -2.0, 2.0, 0.05 / 8)
    mol = build_mollifier(moments=4)
    f = EmbeddedField1D(p, mol, 0.05)
    xs = np.linspace(-0.8, 0.8, 9)
    want = xs**4 - 2 * xs**3 + xs
    assert np.max(np.abs(f.values(xs) - want)) <= 1e-6


def test_embed_derivative_of_sine_is_cosine():
    eps = 0.01
    p = tabulate(np.sin, -1.0, 2.0, eps / 8)
    mol = build_mollifier(moments=2)
    f = EmbeddedField1D(p, mol, eps)
    xs = np.linspace(0.0, 1.0, 13)
    assert np.max(np.abs(f.values(xs, order=1) - np.cos(xs))) <= 1e-3


def test_smoothing_commutes_with_differentiation():
    eps = 0.02
    mol = build_mollifier(moments=2)
    p_sin = tabulate(np.sin, -1.0, 2.0, eps / 8)
    p_cos = tabulate(np.cos, -1.0, 2.0, eps / 8)
    d_of_embed = EmbeddedField1D(p_sin, mol, eps)
    embed_of_d = EmbeddedField1D(p_cos, mol, eps)
    rng = np.random.default_rng(1)
    xs = rng.uniform(0.0, 1.0, size=10)
    assert np.max(np.abs(d_of_embed.values(xs, order=1) - embed_of_d.values(xs))) <= 1e-6


def test_field_derivative_matches_finite_difference():
    eps = 0.05
    mol = build_mollifier(moments=2)
    p = tabulate(lambda x: np.exp(np.sin(x)), -2.0, 2.0, eps / 8)
    f = EmbeddedField1D(p, mol, eps)
    xs = np.linspace(-0.5, 0.5, 7)
    h = 1e-4
    fd = (f.values(xs + h) - f.values(xs - h)) / (2 * h)
    assert np.allclose(f.values(xs, order=1), fd, atol=1e-6)


def test_cutoff_independence_at_small_scale():
    eps = 0.05
    p = tabulate(lambda x: np.cos(3 * x), -3.0, 3.0, eps / 8)
    wide = build_mollifier(moments=2, cutoff_inner=1.0, cutoff_outer=2.0)
    narrow = build_mollifier(moments=2, cutoff_inner=0.6, cutoff_outer=1.4)
    fw = EmbeddedField1D(p, wide, eps)
    fn = EmbeddedField1D(p, narrow, eps)
    xs = np.linspace(-1.0, 1.0, 21)
    assert np.max(np.abs(fw.values(xs) - fn.values(xs))) <= 1e-8


def test_values_chunks_split_rows_only(monkeypatch):
    eps = 0.05
    mol = build_mollifier(moments=2)
    grid = Grid1D.from_bounds(-1.0, 2.0, int(round(3.0 / (eps / 8))) + 1)
    f = EmbeddedField1D(sample_brownian_1d(grid, seed=11), mol, eps)
    width = 2 * (int(np.ceil(mol.support_radius(eps) / grid.step)) + 1) + 1
    rows = mollify._CHUNK_ENTRIES // width
    xs = np.random.default_rng(4).uniform(0.0, 1.0, 3 * rows + 17)
    sizes = []
    inner = Mollifier.kernel_values

    def counting(self, z, *args):
        sizes.append(np.size(z))
        return inner(self, z, *args)

    monkeypatch.setattr(Mollifier, "kernel_values", counting)
    whole = f.values(xs, order=1)
    assert len(sizes) == 4 and max(sizes) <= mollify._CHUNK_ENTRIES
    pieces = np.concatenate([f.values(xs[lo:lo + 1000], order=1)
                             for lo in range(0, xs.size, 1000)])
    assert np.array_equal(whole, pieces)


def _reference_values(f, x, order=0):
    """The index-array window that EmbeddedField1D.values once built."""
    g = f.process.grid
    x = np.asarray(x, dtype=float)
    xs = np.ravel(x)
    j0 = np.floor((xs - g.lower) / g.step).astype(np.int64) - f._hw
    j0 = np.clip(j0, 0, g.count - f._width)
    idx = j0[:, None] + np.arange(f._width)[None, :]
    w = f.mol.kernel_values(xs[:, None] - (g.lower + idx * g.step),
                            f.scale, order)
    return ((w * f.process.values[idx]).sum(axis=1) * g.step).reshape(x.shape)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# plateau-only windows (eps 0.05) and windows that reach the cutoff band;
# at eps 0.32 they also pass cutoff_outer, where the kernel is exactly 0.
# The cases are read at `order`, then a prefix of the first at `short`:
# the same order on a one-chunk query, or the other order on the same field
@pytest.mark.parametrize("eps, short, order", [
    (eps, j, k) for eps in (0.05, 0.2, 0.32) for j in range(2) for k in range(2)
])
def test_values_bitwise_equal_index_array_window(eps, short, order):
    mol = build_mollifier(moments=2)
    grid = Grid1D.from_bounds(-2.0, 3.0, int(round(5.0 / (eps / 8))) + 1)
    f = EmbeddedField1D(sample_brownian_1d(grid, seed=3), mol, eps)
    lo, hi = f.domain.lo, f.domain.hi
    rows = mollify._CHUNK_ENTRIES // f._width
    rng = np.random.default_rng(short + 3 * order)
    # windows clipped at the lower and the upper grid end
    ends = np.array([lo, np.nextafter(lo, hi), lo + grid.step, hi - grid.step,
                     np.nextafter(hi, lo), hi])
    cases = [
        rng.uniform(lo, hi, 3 * rows + 17),                     # several chunks
        ends,
        # a partial last chunk that holds both clipped ends
        np.concatenate([rng.uniform(lo, hi, rows + 5), ends]),
        rng.uniform(0.0, 1.0, (7, 5)),                          # 2-D x
        np.array([]),
    ]
    for x in cases:
        _assert_same_bits(f.values(x, order), _reference_values(f, x, order))
    x = cases[0][:50]
    assert x.size < rows
    _assert_same_bits(f.values(x, short), _reference_values(f, x, short))


def test_values_repeated_queries_keep_no_state():
    # a multi-chunk band query, a one-point query, then the first again
    eps = 0.2
    mol = build_mollifier(moments=2)
    grid = Grid1D.from_bounds(-2.0, 3.0, int(round(5.0 / (eps / 8))) + 1)
    f = EmbeddedField1D(sample_brownian_1d(grid, seed=6), mol, eps)
    rows = mollify._CHUNK_ENTRIES // f._width
    xs = np.random.default_rng(8).uniform(f.domain.lo, f.domain.hi, 2 * rows + 9)
    one = np.array([0.5 * (f.domain.lo + f.domain.hi)])
    for x, order in ((xs, 1), (one, 0), (xs, 1), (xs, 0)):
        _assert_same_bits(f.values(x, order), _reference_values(f, x, order))


def test_values_from_strided_path_values():
    # a path handed over as a strided view smooths like its copy
    eps = 0.05
    grid = Grid1D.from_bounds(-1.0, 2.0, int(round(3.0 / (eps / 8))) + 1)
    raw = np.repeat(sample_brownian_1d(grid, seed=5).values, 2)[::2]
    assert not raw.flags.c_contiguous
    mol = build_mollifier(moments=2)
    strided = SampledProcess(grid, raw, seed=5, source="strided")
    copied = SampledProcess(grid, raw.copy(), seed=5, source="copy")
    f, g = EmbeddedField1D(strided, mol, eps), EmbeddedField1D(copied, mol, eps)
    xs = np.linspace(0.0, 1.0, 101)
    assert np.array_equal(f.values(xs, 1), g.values(xs, 1))


def test_embedded_brownian_converges_to_path():
    ladder = EpsLadder(0.25, 0.5, 6)
    mol = build_mollifier(moments=2)
    step = ladder.levels()[-1] / 8.0
    grid = Grid1D.from_bounds(-2.0, 3.0, int(round(5.0 / step)) + 1)
    w = sample_brownian_1d(grid, seed=2024)
    window = slice(*np.searchsorted(grid.nodes(), [0.0, 1.0]))
    sups = []
    for eps in ladder.levels():
        f = EmbeddedField1D(w, mol, eps)
        gap = np.abs(f.values(grid.nodes()[window]) - w.values[window])
        sups.append(np.max(gap))
    sups = np.array(sups)
    assert np.all(np.diff(sups) < 0.0)
    assert sups[-1] <= 0.5


def test_embedded_brownian_derivative_sup_grows():
    ladder = EpsLadder(0.2, 0.5, 5)
    mol = build_mollifier(moments=2)
    step = ladder.levels()[-1] / 8.0
    grid = Grid1D.from_bounds(-2.0, 3.0, int(round(5.0 / step)) + 1)
    w = sample_brownian_1d(grid, seed=7)
    inner = grid.nodes()[slice(*np.searchsorted(grid.nodes(), [0.0, 1.0]))]
    sups = []
    for eps in ladder.levels():
        f = EmbeddedField1D(w, mol, eps)
        sups.append(np.max(np.abs(f.values(inner, order=1))))
    assert np.all(np.diff(sups) > 0.0)


def test_scaled_embed_log_type_derivative():
    # with kernel scale 1/|log eps| the derivative sup stays O(|log eps|)
    ladder = EpsLadder(0.25, 0.35, 6)
    mol = build_mollifier(moments=2)
    finest_scale = 1.0 / abs(np.log(ladder.levels()[-1]))
    step = finest_scale / 8.0
    grid = Grid1D.from_bounds(-4.0, 5.0, int(round(9.0 / step)) + 1)
    w = sample_brownian_1d(grid, seed=5)
    inner = grid.nodes()[slice(*np.searchsorted(grid.nodes(), [0.0, 1.0]))]
    ratios = []
    for eps in ladder.levels():
        f = EmbeddedField1D(w, mol, 1.0 / abs(np.log(eps)))
        sup = np.max(np.abs(f.values(inner, order=1)))
        ratios.append(sup / abs(np.log(eps)))
    assert max(ratios) <= 3.0


def test_resolution_precondition():
    p = tabulate(np.sin, -2.0, 2.0, 0.2)
    mol = build_mollifier(moments=2)
    with pytest.raises(ResolutionError):
        EmbeddedField1D(p, mol, 0.1)


# every caller reads values or slopes, so no other order is answered
_ORDER_QUERIES = {
    "kernel_values": lambda p, k: build_mollifier(moments=2).kernel_values(
        np.array([0.1]), 0.1, k
    ),
    "1d values": lambda p, k: EmbeddedField1D(p, build_mollifier(), 0.1).values(
        np.array([0.0]), order=k
    ),
}


@pytest.mark.parametrize("case", sorted(_ORDER_QUERIES))
def test_negative_derivative_order_rejected(case):
    path = tabulate(np.sin, -2.0, 2.0, 0.1 / 8)
    with pytest.raises(ParameterError):
        _ORDER_QUERIES[case](path, -1)


@pytest.mark.parametrize("case", sorted(_ORDER_QUERIES))
def test_derivative_order_2_rejected(case):
    path = tabulate(np.sin, -2.0, 2.0, 0.1 / 8)
    with pytest.raises(ParameterError):
        _ORDER_QUERIES[case](path, 2)


def test_domain_guard_on_evaluation():
    eps = 0.05
    p = tabulate(np.sin, -1.0, 1.0, eps / 8)
    mol = build_mollifier(moments=2)
    f = EmbeddedField1D(p, mol, eps)
    with pytest.raises(DomainError):
        f.values(np.array([0.999]))

