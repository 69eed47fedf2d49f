"""Smoothing of tabulated paths into differentiable fields.

A mollifier here is a Gaussian multiplied by an even Hermite-style
polynomial chosen so that moments 1..M vanish while the mass stays 1.
Smoothing a path at scale s convolves its piecewise tabulation with the
scaled kernel chi(z) * rho(z/s) / s, where chi is a fixed smooth cutoff
equal to 1 near the origin.  Because the cutoff is not scaled, it becomes
inert as s shrinks; two different cutoffs give the same field up to a
Gaussian-tail discrepancy.

Derivatives of the smoothed field convolve with the derivative of the
kernel, so differentiation and smoothing commute by construction.  Every
caller reads values (order 0) or slopes (order 1), so those are the two
orders the kernel answers.

Kernel evaluation forms the Leibniz sum of cutoff and Gaussian terms only
on the transition band cutoff_inner < |z| < cutoff_outer.  On the plateau
|z| <= cutoff_inner the cutoff is exactly 1 and its slope exactly 0, so
the value there is the Gaussian term of that order alone, and beyond
cutoff_outer it is exactly 0.  A call whose points all lie on the plateau
skips the cutoff entirely.  A smoothing window at scale s skips the
cutoff once trunc_radius * s, plus the few path steps the window adds,
is at most cutoff_inner.  The band is evaluated on column slices of the
window: its offsets fall along each row, so the columns holding band
entries are a few at each edge, and every entry of those columns takes
the band arithmetic before masks keep the band's values, zero beyond
cutoff_outer and the plateau term elsewhere.  Each kept term is computed
with the same floating-point operations, in the same order, as the full
sum, so the values equal it bit for bit.

A smoothing window reads whole rows of two strided views, one of the
grid's node positions and one of the path values, so no per-entry index
array is built.  A query of more than _FRESH_ENTRIES window entries
writes its kernel intermediates with out= ufuncs into one _Scratch set,
kept per thread across queries.  Large fresh temporaries cost more than
their arithmetic: the heap returned their pages after each chunk and
took them back, zero-filled, on the next, so one default geometric-wave
call took 205 000-228 000 minor page faults, nearly all in its one
band-reaching query; with a scratch set per query it took about 6 500.
Kept across queries, the set also spares the solver's 201-point feet
queries their faults.  The set belongs to one thread, so threads that
share a Mollifier never share buffers.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import Polynomial

from .errors import DomainError, ParameterError, ResolutionError
from .fields import SampledProcess
from .smooth import Field1D, Interval

_ALLOWED_MOMENTS = (0, 2, 4, 6)

_GAUSS_NORM = 1.0 / np.sqrt(2.0 * np.pi)

# Window entries per chunk of EmbeddedField1D.values, and per row block of
# scenarios.cone_average_tab.  A float buffer of 2^16 entries is 512 KiB,
# so the few a kernel evaluation holds fit a 2 MiB per-core L2 cache and
# each numpy pass reads cache, not memory.  A query writes them into its
# thread's one _Scratch set, so once that set has grown the kernel and the
# cutoff band page in no fresh memory.  Swept with a set per query on
# the geometric eps = 0.2 query (32 769 points, 997-entry windows;
# Xeon, 2 MiB L2 per core), best of 3: 1.24 s at 2^20, 0.94 at 2^18, 0.76
# at 2^17, 0.70 at 2^16, 0.72 at 2^15, 0.80 at 2^14 and 1.69 at 2^12.
_CHUNK_ENTRIES = 1 << 16

# Window entries up to which a query makes fresh temporaries rather than
# scratch views.  Temporaries of up to 64 KiB come from the heap's free
# lists, and the scratch's name lookups cost more (Xeon, best of 7, ms per
# query, fresh / scratch): 129 entries 0.025 / 0.028, 8 256 entries 0.090
# / 0.089.  From glibc's 128 KiB mmap threshold each fresh temporary is
# mapped and faulted in anew: 16 512 entries 0.28 / 0.14, and the
# random-speed feet queries, 25 929 entries, 0.40 / 0.19.
_FRESH_ENTRIES = 1 << 13


@lru_cache(maxsize=64)
def _poly_coeffs(coeffs: tuple, order: int) -> tuple:
    """Coefficients of P_order, where rho^(order) = P_order * gaussian.

    P_0 = P and P_1 = P' - z P.  Keyed on the coefficient tuple, so the
    cache holds no Mollifier.
    """
    if order == 0:
        return coeffs
    p = Polynomial(coeffs)
    return tuple((p.deriv() - Polynomial([0.0, 1.0]) * p).coef)


@lru_cache(maxsize=8)
def _node_rows(lower: float, step: float, count: int, width: int) -> np.ndarray:
    """Read-only rows of grid nodes: row j holds lower + (j + k) * step, k < width."""
    return sliding_window_view(lower + np.arange(count) * step, width)


def _horner(coeffs: tuple, x: np.ndarray, out=None) -> np.ndarray:
    # the operations of numpy's polyval with the identity domain map
    if len(coeffs) == 1:
        out = np.empty(x.shape) if out is None else out
        out[...] = coeffs[0]
        return out
    out = np.multiply(x, coeffs[-1], out=out)
    out += coeffs[-2]
    for c in coeffs[-3::-1]:
        out *= x
        out += c
    return out


class _Scratch:
    """Flat buffers of one size, made on first use and reused by name.

    ``scratch(name, shape)`` returns the first entries of the named buffer
    as an array of that shape, so one set serves every chunk of a query.
    A name's previous contents are the caller's until it asks again.
    """

    __slots__ = ("size", "_bufs")

    def __init__(self, size: int):
        self.size = size
        self._bufs = {}

    def __call__(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        buf = self._bufs.get(name)
        if buf is None:
            buf = self._bufs[name] = np.empty(self.size, dtype)
        return buf[: math.prod(shape)].reshape(shape)


_local = threading.local()


def _thread_scratch(size: int) -> _Scratch:
    """This thread's _Scratch of at least ``size`` entries, kept across calls."""
    scratch = getattr(_local, "scratch", None)
    if scratch is None or scratch.size < size:
        scratch = _local.scratch = _Scratch(max(size, _CHUNK_ENTRIES))
    return scratch


def _expit(g: np.ndarray, out=None) -> np.ndarray:
    """The logistic 1 / (1 + exp(-g)), exactly 0 where exp(-g) overflows."""
    out = np.negative(g, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def _fresh(name: str, shape: tuple, dtype=float) -> None:
    """Stands in for a _Scratch: each ufunc given out=None makes its result."""
    return None


def _edge_columns(hit: np.ndarray) -> tuple:
    """Column slices that cover every True of ``hit``.

    A smoothing window's offsets fall along each row, so the columns
    that reach the cutoff band are a prefix and a suffix; any other
    pattern is covered by one slice of all columns.
    """
    clear = np.flatnonzero(~hit)
    n = hit.size
    if clear.size == 0 or clear[-1] + 1 - clear[0] != clear.size:
        return (slice(0, n),)
    lo, hi = int(clear[0]), int(clear[-1]) + 1
    return tuple(s for s in (slice(0, lo), slice(hi, n)) if s.start < s.stop)


def _double_factorial_even_moments(n: int) -> np.ndarray:
    """Gaussian even moments m_{2k} = (2k-1)!! for k = 0..n-1."""
    out = np.empty(n)
    out[0] = 1.0
    for k in range(1, n):
        out[k] = out[k - 1] * (2 * k - 1)
    return out


@dataclass(frozen=True)
class Mollifier:
    """Even smoothing kernel rho = P(z) * gaussian with vanishing moments.

    poly_coeffs    coefficients of P in powers of z
    cutoff_inner   a: chi == 1 on |z| <= a
    cutoff_outer   b: chi == 0 on |z| >= b
    trunc_radius   R with |rho(z)| < build_mollifier's truncation for |z| > R
    """

    poly_coeffs: tuple
    cutoff_inner: float
    cutoff_outer: float
    trunc_radius: float

    def rho(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        gauss = _GAUSS_NORM * np.exp(-0.5 * z * z)
        return _horner(self.poly_coeffs, z) * gauss

    def _cutoff_band(self, z: np.ndarray, order: int, scratch=_fresh) -> list:
        """[chi(z)] at order 0, [chi(z), chi'(z)] at order 1, for a < |z| < b.

        Every array has z's shape and is written into ``scratch``.
        """
        a, b = self.cutoff_inner, self.cutoff_outer
        shape = z.shape
        u = np.abs(z, out=scratch("band_u", shape))
        u -= a
        u /= b - a
        np.clip(u, 1e-9, 1.0 - 1e-9, out=u)
        # chi = expit(g(u)), g = 1/u - 1/(1-u); equals the classic
        # exp(-1/x) smooth step and is exactly 1/0 at the endpoints.
        g = np.divide(1.0, u, out=scratch("band_sig", shape))
        t = np.subtract(1.0, u, out=scratch("band_t", shape))
        np.divide(1.0, t, out=t)
        g -= t
        sig = _expit(g, out=g)
        out = [sig]
        if order == 1:
            # gp = -1/u**2 - 1/(1-u)**2
            gp = np.square(u, out=scratch("band_gp", shape))
            np.divide(-1.0, gp, out=gp)
            np.subtract(1.0, u, out=t)
            np.square(t, out=t)
            np.divide(1.0, t, out=t)
            gp -= t
            mass = np.subtract(1.0, sig, out=scratch("band_mass", shape))
            mass *= sig
            # mass * gp / (b - a) * sign(z)
            chi1 = np.multiply(mass, gp, out=scratch("band_chi1", shape))
            chi1 /= b - a
            chi1 *= np.sign(z, out=t)
            out.append(chi1)
        return out

    def support_radius(self, scale: float) -> float:
        """Radius beyond which the scaled kernel is treated as zero."""
        return min(self.cutoff_outer, self.trunc_radius * scale)

    def kernel_values(self, z, scale: float, order: int = 0,
                      scratch=_fresh) -> np.ndarray:
        """d^order/dz^order of chi(z) * rho(z / scale) / scale, order 0 or 1.

        Given a _Scratch of at least z.size entries, every intermediate and
        the result are views of its buffers, valid until its next use.
        """
        if order not in (0, 1):
            raise ParameterError(f"kernel derivative order must be 0 or 1, got {order}")
        z = np.asarray(z, dtype=float)
        # rows by columns: a smoothing window, or one row of points
        if z.ndim > 1:
            z2 = z.reshape(math.prod(z.shape[:-1]), z.shape[-1])
        else:
            z2 = z.reshape(1, -1)
        shape = z2.shape
        u = np.divide(z2, scale, out=scratch("u", shape))
        gauss = np.multiply(u, -0.5, out=scratch("gauss", shape))
        gauss *= u
        np.exp(gauss, out=gauss)
        gauss *= _GAUSS_NORM

        def rho_k(k, uu, gg, dest):
            # rho^(k)(z / scale) from matching entries uu of u and gg of gauss
            r = _horner(_poly_coeffs(self.poly_coeffs, k), uu, dest)
            r *= gg
            return r

        out = rho_k(order, u, gauss, scratch("out", shape))
        out /= scale ** (order + 1)
        a, b = self.cutoff_inner, self.cutoff_outer
        if z.size and (z2.min() < -a or z2.max() > a):
            hit = z2.max(axis=0) > a
            hit |= z2.min(axis=0) < -a
            for cols in _edge_columns(hit):
                zc, oc = z2[:, cols], out[:, cols]
                sub = zc.shape
                az = np.abs(zc, out=scratch("az", sub))
                band = np.greater(az, a, out=scratch("band", sub, bool))
                # the outer mask's buffer holds az < b until band takes it
                band &= np.less(az, b, out=scratch("outer", sub, bool))
                outer = np.greater_equal(az, b, out=scratch("outer", sub, bool))
                chi = self._cutoff_band(zc, order, scratch)
                # chi * rho^(order) / scale**(order + 1), plus at order 1
                # chi' * rho / scale
                val = chi[0]
                val *= oc
                if order == 1:
                    t = rho_k(0, u[:, cols], gauss[:, cols], scratch("term", sub))
                    t /= scale
                    val += np.multiply(chi[1], t, out=chi[1])
                np.copyto(oc, val, where=band)
                np.copyto(oc, 0.0, where=outer)
        return out.reshape(z.shape)


def build_mollifier(
    moments: int = 2,
    cutoff_inner: float = 1.0,
    cutoff_outer: float = 2.0,
    truncation: float = 1e-12,
) -> Mollifier:
    """Construct the polynomial-times-Gaussian kernel with M vanishing moments.

    The even polynomial P(z) = sum c_j z^{2j} is fixed by requiring
    integral z^{2k} P(z) g(z) dz = delta_{k0} for k = 0..M/2, a linear
    system in the Gaussian even moments (2n-1)!!.  Odd moments vanish by
    symmetry, so moments 1..M vanish and the mass is exactly 1.
    """
    if moments not in _ALLOWED_MOMENTS:
        raise ParameterError(f"moments must be one of {_ALLOWED_MOMENTS}, got {moments}")
    if not (0.0 < cutoff_inner < cutoff_outer):
        raise ParameterError(
            f"need 0 < cutoff_inner < cutoff_outer, got ({cutoff_inner}, {cutoff_outer})"
        )
    if not (0.0 < truncation <= 1e-8):
        raise ParameterError(f"truncation must be in (0, 1e-8], got {truncation}")
    half = moments // 2 + 1
    gauss_moments = _double_factorial_even_moments(2 * half)
    system = np.empty((half, half))
    for i in range(half):
        for j in range(half):
            system[i, j] = gauss_moments[i + j]
    rhs = np.zeros(half)
    rhs[0] = 1.0
    even_coeffs = np.linalg.solve(system, rhs)
    coeffs = np.zeros(2 * half - 1)
    coeffs[::2] = even_coeffs
    poly = Polynomial(coeffs)

    zs = np.arange(0.0, 16.0, 1e-3)
    vals = np.abs(poly(zs)) * _GAUSS_NORM * np.exp(-0.5 * zs * zs)
    above = np.nonzero(vals >= truncation)[0]
    trunc_radius = float(zs[above[-1]]) + 2e-3 if above.size else 1.0

    return Mollifier(
        poly_coeffs=tuple(coeffs),
        cutoff_inner=cutoff_inner,
        cutoff_outer=cutoff_outer,
        trunc_radius=trunc_radius,
    )


@dataclass(frozen=True)
class EpsLadder:
    """Geometric ladder of smoothing parameters eps0 * ratio**k.

    Every scenario smooths at the level eps itself, so scale_map accepts
    only "identity".  The key remains because each report's config echo
    records it, and the benchmark's reference echoes compare that row.
    """

    eps0: float
    ratio: float
    count: int
    scale_map: str = "identity"

    def __post_init__(self):
        if not (0.0 < self.eps0 <= 1.0):
            raise ParameterError(f"eps0 must be in (0, 1], got {self.eps0}")
        if not (0.0 < self.ratio < 1.0):
            raise ParameterError(f"ratio must be in (0, 1), got {self.ratio}")
        if self.count < 1:
            raise ParameterError(f"count must be >= 1, got {self.count}")
        if self.scale_map != "identity":
            raise ParameterError(f"scale_map must be 'identity': no scenario "
                                 f"reads it, got {self.scale_map!r}")

    def levels(self) -> np.ndarray:
        return self.eps0 * self.ratio ** np.arange(self.count)


class EmbeddedField1D(Field1D):
    """Path smoothed at a fixed scale; its slope via the kernel's slope.

    A query point reads the 2*hw+1 path nodes around it, weighted by the
    kernel (order 0) or its derivative (order 1).
    """

    def __init__(self, process: SampledProcess, mol: Mollifier, kernel_scale: float):
        grid = process.grid
        if not (0.0 < kernel_scale <= 1.0):
            raise ParameterError(f"kernel scale must be in (0, 1], got {kernel_scale}")
        if grid.step > kernel_scale / 8.0 + 1e-15:
            raise ResolutionError(
                f"grid step {grid.step} too coarse for scale {kernel_scale}: need <= scale/8"
            )
        r = mol.support_radius(kernel_scale)
        if grid.lower + r + 4 * grid.step >= grid.upper - r - 4 * grid.step:
            raise DomainError(
                f"kernel support radius {r} leaves no safe interior in "
                f"[{grid.lower}, {grid.upper}]"
            )
        self.process = process
        self.mol = mol
        self.scale = float(kernel_scale)
        self.domain = Interval(grid.lower + r, grid.upper - r)
        self._hw = int(np.ceil(r / grid.step)) + 1
        self._width = 2 * self._hw + 1

    def values(self, x, order: int = 0) -> np.ndarray:
        if order not in (0, 1):
            raise ParameterError(f"derivative order must be 0 or 1, got {order}")
        x = np.asarray(x, dtype=float)
        self.check_domain(x)
        g = self.process.grid
        flat = np.ravel(x)
        out = np.empty(flat.shape)
        nodes = _node_rows(g.lower, g.step, g.count, self._width)
        vals = self.process.values
        # the same rows of the (contiguous) path values; the ndarray
        # constructor costs a fraction of as_strided on one-point queries
        vals = np.ndarray(nodes.shape, float, vals, 0, vals.strides * 2)
        max_chunk = max(1, _CHUNK_ENTRIES // self._width)
        # the kernel's results are views of the scratch, consumed below
        # before the next chunk reuses it
        scratch = (_thread_scratch(max_chunk * self._width)
                   if flat.size * self._width > _FRESH_ENTRIES else _fresh)
        for lo in range(0, flat.size, max_chunk):
            xs = flat[lo : lo + max_chunk]
            j0 = np.floor((xs - g.lower) / g.step).astype(np.int64) - self._hw
            # np.clip's Python wrapper costs more than these two ufuncs
            j0 = np.minimum(np.maximum(j0, 0), g.count - self._width)
            z = nodes[j0]
            np.subtract(xs[:, None], z, out=z)
            w = self.mol.kernel_values(z, self.scale, order, scratch)
            # free each gathered block before the next gather, so that all
            # of them reuse the one block of heap the cache still holds
            del z
            v = vals[j0]
            v *= w
            out[lo : lo + max_chunk] = v.sum(axis=1) * g.step
            del v
        return out.reshape(x.shape)
