"""Smoothing of tabulated paths into differentiable fields.

A mollifier here is a Gaussian multiplied by an even Hermite-style
polynomial chosen so that moments 1..M vanish while the mass stays 1.
Smoothing a path at scale s convolves its piecewise tabulation with the
scaled kernel chi(z) * rho(z/s) / s, where chi is a fixed smooth cutoff
equal to 1 near the origin.  Because the cutoff is not scaled, it becomes
inert as s shrinks; two different cutoffs give the same field up to a
Gaussian-tail discrepancy.

Derivatives of the smoothed field convolve with the derivative of the
kernel, so differentiation and smoothing commute by construction.

Kernel evaluation forms the Leibniz sum of cutoff and Gaussian terms only
on the transition band cutoff_inner < |z| < cutoff_outer.  On the plateau
|z| <= cutoff_inner the cutoff is exactly 1 and its derivatives exactly 0,
so the value there is the order-k Gaussian term alone, and beyond
cutoff_outer it is exactly 0.  A call whose points all lie on the plateau
skips the cutoff entirely.  A smoothing window at scale s skips the
cutoff once trunc_radius * s, plus the few path steps the window adds,
is at most cutoff_inner.  Each kept term is computed with the same floating-point
operations, in the same order, as the full sum, so the values equal it
bit for bit.

A smoothing window reads whole rows of two strided views, one of the
grid's node positions and one of the path values, so no per-entry index
array is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import Polynomial
from scipy.special import expit

from .errors import DomainError, ParameterError, ResolutionError, ScaleError
from .fields import SampledProcess
from .smooth import Field1D, Interval

_ALLOWED_MOMENTS = (0, 2, 4, 6)
_SCALE_MAPS = ("identity", "log", "loglog")

_GAUSS_NORM = 1.0 / np.sqrt(2.0 * np.pi)

# Window entries per chunk of EmbeddedField1D.values, and per row block of
# scenarios.cone_average_tab.  A float temporary of 2^16 entries is 512 KiB,
# so the few a kernel evaluation holds fit a 2 MiB per-core L2 cache and
# each numpy pass reads cache, not memory.  Swept on the geometric eps = 0.2
# query (32 769 points, 997-entry windows; Xeon, 2 MiB L2 per core), best
# of 3: 2.28 s at 2^20, 1.30 at 2^18, 0.79 at 2^16, 0.94 at 2^15, 0.94 at
# 2^14 and 1.23 at 2^12, with 2^16 fastest or within noise in six sweeps.
_CHUNK_ENTRIES = 1 << 16


@lru_cache(maxsize=64)
def _poly_coeffs(coeffs: tuple, order: int) -> tuple:
    """Coefficients of P_k, where rho^(k) = P_k * gaussian and P_0 = P.

    Uses P_{k+1} = P_k' - z P_k.  Keyed on the coefficient tuple, so the
    cache holds no Mollifier.  Every kernel derivative starts here.
    """
    if order < 0:
        raise ParameterError(f"derivative order must be >= 0, got {order}")
    if order == 0:
        return coeffs
    prev = Polynomial(_poly_coeffs(coeffs, order - 1))
    return tuple((prev.deriv() - Polynomial([0.0, 1.0]) * prev).coef)


@lru_cache(maxsize=8)
def _node_rows(lower: float, step: float, count: int, width: int) -> np.ndarray:
    """Read-only rows of grid nodes: row j holds lower + (j + k) * step, k < width."""
    return sliding_window_view(lower + np.arange(count) * step, width)


def _horner(coeffs: tuple, x: np.ndarray) -> np.ndarray:
    # the operations of numpy's polyval with the identity domain map
    if len(coeffs) == 1:
        return np.full(x.shape, coeffs[0])
    acc = coeffs[-1] * x
    acc += coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= x
        acc += c
    return acc


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
    truncation     tabulation threshold; |rho| < truncation is treated as 0
    trunc_radius   R with |rho(z)| < truncation for |z| > R
    """

    poly_coeffs: tuple
    cutoff_inner: float
    cutoff_outer: float
    truncation: float
    trunc_radius: float

    # -- raw kernel ---------------------------------------------------

    def rho(self, z, order: int = 0) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        gauss = _GAUSS_NORM * np.exp(-0.5 * z * z)
        return _horner(_poly_coeffs(self.poly_coeffs, order), z) * gauss

    # -- cutoff --------------------------------------------------------

    def cutoff(self, z, order: int = 0) -> np.ndarray:
        """Smooth cutoff chi built from the exp(-1/x) step; orders 0..2."""
        if order not in (0, 1, 2):
            raise ParameterError("cutoff derivatives available for orders 0..2")
        z = np.asarray(z, dtype=float)
        az = np.abs(z)
        inside = az <= self.cutoff_inner
        outside = az >= self.cutoff_outer
        mid = ~(inside | outside)
        out = np.zeros(z.shape)
        if order == 0:
            out[inside] = 1.0
        if np.any(mid):
            out[mid] = self._cutoff_band(z[mid], order)[order]
        return out

    def _cutoff_band(self, z: np.ndarray, order: int) -> list:
        """[chi(z), ..., chi^(order)(z)] for points with a < |z| < b."""
        a, b = self.cutoff_inner, self.cutoff_outer
        u = (np.abs(z) - a) / (b - a)
        u = np.clip(u, 1e-9, 1.0 - 1e-9)
        # chi = expit(g(u)), g = 1/u - 1/(1-u); equals the classic
        # exp(-1/x) smooth step and is exactly 1/0 at the endpoints.
        g = 1.0 / u - 1.0 / (1.0 - u)
        sig = expit(g)
        out = [sig]
        if order >= 1:
            gp = -1.0 / u**2 - 1.0 / (1.0 - u) ** 2
            mass = sig * (1.0 - sig)
            out.append(mass * gp / (b - a) * np.sign(z))
        if order >= 2:
            gpp = 2.0 / u**3 - 2.0 / (1.0 - u) ** 3
            out.append(mass * ((1.0 - 2.0 * sig) * gp**2 + gpp) / (b - a) ** 2)
        return out

    # -- scaled, cut-off kernel ----------------------------------------

    def support_radius(self, scale: float) -> float:
        """Radius beyond which the scaled kernel is treated as zero."""
        return min(self.cutoff_outer, self.trunc_radius * scale)

    def kernel_values(self, z, scale: float, order: int = 0) -> np.ndarray:
        """d^order/dz^order of chi(z) * rho(z / scale) / scale."""
        z = np.asarray(z, dtype=float)
        # Higher orders only when the cutoff plateau covers the support.
        if order > 2 and self.trunc_radius * scale > self.cutoff_inner:
            raise ParameterError(
                f"kernel derivative order {order} needs trunc_radius*scale <= cutoff_inner"
            )
        shape = z.shape
        z = z.reshape(-1)
        u = z / scale
        gauss = -0.5 * u
        gauss *= u
        np.exp(gauss, out=gauss)
        gauss *= _GAUSS_NORM

        def rho_k(k, sub=Ellipsis):
            # rho^(k)(z / scale) on the entries sub
            r = _horner(_poly_coeffs(self.poly_coeffs, k), u[sub])
            r *= gauss[sub]
            return r

        def term(k, sub=Ellipsis):
            r = rho_k(k, sub)
            r /= scale ** (k + 1)
            return r

        out = term(order)
        a, b = self.cutoff_inner, self.cutoff_outer
        if z.size and (z.min() < -a or z.max() > a):
            az = np.abs(z)
            out[az >= b] = 0.0
            band = np.flatnonzero((az > a) & (az < b))
            chi = self._cutoff_band(z[band], min(order, 2))
            if order > 2:
                # (chi * rho^(k)) / scale**(k + 1), in that order
                out[band] = chi[0] * rho_k(order, band) / scale ** (order + 1)
            else:
                # Leibniz sum with binomial weights 1, order, 1
                val = chi[0] * out[band]
                for j in range(1, order + 1):
                    comb = order if j == 1 else 1.0
                    val += comb * chi[j] * term(order - j, band)
                out[band] = val
        return out.reshape(shape)


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
        truncation=truncation,
        trunc_radius=trunc_radius,
    )


@dataclass(frozen=True)
class EpsLadder:
    """Geometric ladder of smoothing parameters eps0 * ratio**k."""

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
        if self.scale_map not in _SCALE_MAPS:
            raise ParameterError(f"scale_map must be one of {_SCALE_MAPS}")

    def levels(self) -> np.ndarray:
        return self.eps0 * self.ratio ** np.arange(self.count)

    def kernel_scale(self, eps: float) -> float:
        """Map a ladder level to the kernel scale; must land in (0, 1)."""
        if self.scale_map == "identity":
            s = eps
        elif self.scale_map == "log":
            s = 1.0 / abs(np.log(eps))
        else:  # loglog
            inner = abs(np.log(eps))
            if inner <= 1.0:
                raise ScaleError(f"loglog scale undefined at eps={eps}")
            s = 1.0 / np.log(inner)
        if not (0.0 < s < 1.0):
            raise ScaleError(f"kernel scale {s} outside (0, 1) at eps={eps}")
        return float(s)


class EmbeddedField1D(Field1D):
    """Path smoothed at a fixed scale; derivatives via kernel derivatives.

    A query point reads the 2*hw+1 path nodes around it, weighted by the
    kernel derivative of order base_order + order.
    """

    def __init__(
        self,
        process: SampledProcess,
        mol: Mollifier,
        kernel_scale: float,
        base_order: int = 0,
    ):
        grid = process.grid
        if not (0.0 < kernel_scale <= 1.0):
            raise ParameterError(f"kernel scale must be in (0, 1], got {kernel_scale}")
        if base_order < 0:
            raise ParameterError(f"derivative order must be >= 0, got {base_order}")
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
        self.base_order = base_order
        self.domain = Interval(grid.lower + r, grid.upper - r)
        self._hw = int(np.ceil(r / grid.step)) + 1
        self._width = 2 * self._hw + 1

    def values(self, x, order: int = 0) -> np.ndarray:
        if order < 0:
            raise ParameterError(f"derivative order must be >= 0, got {order}")
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
        for lo in range(0, flat.size, max_chunk):
            xs = flat[lo : lo + max_chunk]
            j0 = np.floor((xs - g.lower) / g.step).astype(np.int64) - self._hw
            # np.clip's Python wrapper costs more than these two ufuncs
            j0 = np.minimum(np.maximum(j0, 0), g.count - self._width)
            z = nodes[j0]
            np.subtract(xs[:, None], z, out=z)
            w = self.mol.kernel_values(z, self.scale, self.base_order + order)
            v = vals[j0]
            v *= w
            out[lo : lo + max_chunk] = v.sum(axis=1) * g.step
        return out.reshape(x.shape)

    def shift_order(self, delta: int) -> "EmbeddedField1D":
        """Same smoothing, different base derivative order."""
        return EmbeddedField1D(self.process, self.mol, self.scale, self.base_order + delta)

    def integral(self, a: float, b: float) -> float:
        if self.base_order >= 1:
            anti = self.shift_order(-1)
            va, vb = anti.values(np.array([a, b]))
            return float(vb - va)
        return super().integral(a, b)


def embed_path(process: SampledProcess, mol: Mollifier, eps: float):
    """Smooth a tabulated path at scale eps."""
    return EmbeddedField1D(process, mol, eps, base_order=0)


def embed_derivative(process: SampledProcess, mol: Mollifier, eps: float, order: int = 1):
    """Smooth and differentiate in one convolution with the kernel derivative."""
    if order < 1:
        raise ParameterError("embed_derivative needs order >= 1; use embed_path")
    return EmbeddedField1D(process, mol, eps, base_order=order)


def scaled_embed(
    process: SampledProcess,
    mol: Mollifier,
    eps: float,
    ladder: EpsLadder,
    order: int = 0,
):
    """Smooth at the ladder's kernel scale for level eps (slow-scale variants)."""
    s = ladder.kernel_scale(eps)
    return EmbeddedField1D(process, mol, s, base_order=order)
