"""Vectorized observables over sample blocks: the package's array layer.

Monte Carlo runs at 10^5..10^6 samples cannot afford one FourierCoeffs
object per draw, so every observable here maps a coefficient matrix (one
sample per row, columns n = -band..band) to one value per row.  The
layout itself (mode grid, derivative, point evaluation) is spectral's
array operators; from the package this module imports those and
QuadratureGrid only.  functionals calls its kernels on a batch of one
row, except where f_quartic and spectral.lp_norm stay the references
batch_f_quartic and batch_quartic_integral are tested against (the
functionals golden pins their last bits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .spectral import QuadratureGrid, _band, _derivative, _evaluate, _modes

__all__ = [
    "DensityParams",
    "chi",
    "batch_multiply",
    "batch_square",
    "batch_cube",
    "batch_mass",
    "batch_f_quartic",
    "batch_X",
    "batch_quartic_integral",
    "batch_sextic_integral",
    "batch_l4_norm",
    "batch_h1_seminorm_sq",
    "batch_grid_sup_dsq",
    "batch_density_G",
    "batch_re_coeff",
]


@dataclass(frozen=True)
class DensityParams:
    """Cutoff radius and truncation band of the density."""

    kappa: float
    band: int

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if self.band < 0:
            raise ValueError("band must be non-negative")


def chi(x, params: DensityParams):
    """Radial cutoff: 1 on [0, kappa/2], linear down to 0 at kappa, even in x.

    Elementwise on arrays; a scalar x gives a float.
    """
    t = np.abs(np.asarray(x, dtype=np.float64))
    half = 0.5 * params.kappa
    ramp = (params.kappa - t) / half
    out = np.where(t <= half, 1.0, np.where(t >= params.kappa, 0.0, ramp))
    return out if out.ndim else float(out)


#: largest exponent the density will feed to exp() before declaring a fault
_EXP_CAP = 700.0


def _fft_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c at or above n: a length pocketfft does fast.

    The next power of two can nearly double the work (a width-129 product
    padded to 256 points); the next 5-smooth length is 135.
    """
    m = n
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def batch_multiply(a: np.ndarray, b: np.ndarray, band: int = None) -> np.ndarray:
    """Row-wise product: coefficients of u v for paired rows, width da+db-1.

    Direct convolution, as in spectral.multiply, not an FFT: every output
    coefficient is a plain sum of products, so modes the product cannot
    reach stay exactly zero (an FFT product leaves roundoff there), and
    each row's result does not depend on the other rows.  band = M
    computes only the modes |k| <= M (width 2M+1): the bits of the full
    product projected to M, for M from 0 to the product's band.
    """
    if a.shape[1] > b.shape[1]:
        a, b = b, a
    da, db = a.shape[1], b.shape[1]
    top = (da + db - 2) // 2
    M = top if band is None else int(band)
    if not 0 <= M <= top:
        raise ValueError(f"band {band} is outside 0 .. {top}, the product's band")
    padded = np.zeros((b.shape[0], db + 2 * (da - 1)), dtype=np.complex128)
    padded[:, da - 1:da - 1 + db] = b
    # window k holds b_{k-da+1} .. b_k: its dot with reversed a is (ab)_k;
    # only the windows of the kept modes k - top = -M .. M are built
    s0, s1 = padded.strides
    windows = as_strided(padded[:, top - M:], (len(padded), 2 * M + 1, da),
                         (s0, s1, s1), writeable=False)
    return (windows @ a[:, ::-1, None])[:, :, 0]


def batch_square(rows: np.ndarray) -> np.ndarray:
    """Row-wise self-convolution: coefficients of u^2, width 2d-1.

    Zero-padded FFT; the pad length is the smallest 5-smooth length at
    or above 2d-1 (_fft_len), so the linear convolution comes out
    alias-free.  Each row is transformed on its own, so a row's result
    does not depend on the other rows.  The product is squared and
    transformed back in the forward transform's buffer: at Monte Carlo
    block sizes a second multi-MB array would be faulted in per call.
    """
    d = rows.shape[1]
    L = _fft_len(2 * d - 1)
    F = np.fft.fft(rows, n=L, axis=1)
    F *= F
    return np.fft.ifft(F, axis=1, out=F)[:, : 2 * d - 1]


def batch_cube(rows: np.ndarray) -> np.ndarray:
    """Row-wise coefficients of u^3, width 3d-2; padded as batch_square.

    F * F * F is formed in one expression (squaring F in place and then
    multiplying can change the last bit) and transformed back in place.
    """
    d = rows.shape[1]
    L = _fft_len(3 * d - 2)
    F = np.fft.fft(rows, n=L, axis=1)
    G = F * F * F
    return np.fft.ifft(G, axis=1, out=G)[:, : 3 * d - 2]


def _abs2_inplace(w: np.ndarray) -> np.ndarray:
    """|w|^2 entrywise, computed in w's own buffer, which it overwrites.

    The bits of w.real ** 2 + w.imag ** 2.  Only for a product a kernel
    has just computed, never for rows a caller passed in.
    """
    re, im = w.real, w.imag
    np.square(re, out=re)
    np.square(im, out=im)
    return np.add(re, im, out=re)


def batch_mass(rows: np.ndarray) -> np.ndarray:
    """L^2 norm per row (Parseval)."""
    return np.sqrt(np.sum(rows.real ** 2 + rows.imag ** 2, axis=1))


def batch_f_quartic(rows: np.ndarray) -> np.ndarray:
    """The quartic functional sum_k k |(u^2)_k|^2 per row.

    Rows must already be truncated to the band the functional is taken
    at; the k grid spans the squared field's band 2N.  The weights
    multiply |(u^2)_k|^2 in its own buffer (IEEE products commute, so
    the bits are those of k * |(u^2)_k|^2).
    """
    a = _abs2_inplace(batch_square(rows))
    return np.sum(np.multiply(a, _modes(a), out=a), axis=1)


def batch_X(rows: np.ndarray) -> np.ndarray:
    """Diagonal part of the quartic functional: sum_n 2n |c_n|^4 per row.

    Real-valued convention: the decomposition's X term equals i times
    this (the full quartic sum is i times the functional).
    """
    a = rows.real ** 2 + rows.imag ** 2
    return np.sum(2.0 * _modes(rows) * a * a, axis=1)


def batch_quartic_integral(rows: np.ndarray) -> np.ndarray:
    """int |u|^4 per row: Parseval on the squared field."""
    return np.sum(_abs2_inplace(batch_square(rows)), axis=1)


def batch_sextic_integral(rows: np.ndarray) -> np.ndarray:
    """int |u|^6 per row: Parseval on the cubed field."""
    return np.sum(_abs2_inplace(batch_cube(rows)), axis=1)


def batch_l4_norm(rows: np.ndarray) -> np.ndarray:
    return batch_quartic_integral(rows) ** 0.25


def batch_h1_seminorm_sq(rows: np.ndarray) -> np.ndarray:
    """int |u'|^2 per row: sum n^2 |c_n|^2."""
    n = _modes(rows)
    return np.sum(n * n * (rows.real ** 2 + rows.imag ** 2), axis=1)


def batch_grid_sup_dsq(rows: np.ndarray) -> np.ndarray:
    """Grid sup of |d/dx (u^2)| per row.

    The squared field has band 2N; the sup is taken over an equispaced
    grid of 8 (2N + 1) nodes (a grid sup, deliberately not a certified
    true sup).
    """
    dw = _derivative(batch_square(rows))
    x = QuadratureGrid(8 * rows.shape[1]).nodes
    return np.max(np.abs(_evaluate(dw, x)), axis=1)


def batch_density_G(rows: np.ndarray, params: DensityParams) -> np.ndarray:
    """Density chi(||u||_L2) exp((3/4) f_N(u) - 1/2 int |u|^6) per row.

    Rows must live at params.band.  Zero outside the cutoff ball without
    touching the exponential.  An exponent beyond _EXP_CAP cannot happen
    inside the kappa-ball at reasonable kappa; if it does, that is a
    usage fault and is reported as OverflowError instead of returning inf.
    """
    band = _band(rows)
    if band != params.band:
        raise ValueError(f"rows at band {band}, density wants {params.band}")
    cut = chi(batch_mass(rows), params)
    out = np.zeros(rows.shape[0])
    inside = cut > 0.0
    if np.any(inside):
        sub = rows[inside]
        expo = 0.75 * batch_f_quartic(sub) - 0.5 * batch_sextic_integral(sub)
        if np.max(expo) > _EXP_CAP:
            raise OverflowError(
                f"density exponent {np.max(expo):.3g} exceeds {_EXP_CAP:g} "
                f"inside the cutoff ball; the field is implausibly large"
            )
        out[inside] = cut[inside] * np.exp(expo)
    return out


def batch_re_coeff(rows: np.ndarray, n: int) -> np.ndarray:
    """Re c_n per row."""
    band = _band(rows)
    if abs(n) > band:
        return np.zeros(rows.shape[0])
    return rows[:, n + band].real.copy()
