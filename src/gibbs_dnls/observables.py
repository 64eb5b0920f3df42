"""Vectorized observables over sample blocks.

Monte Carlo runs at 10^5..10^6 samples cannot afford one FourierCoeffs
object per draw, so the hot paths work directly on coefficient matrices
(one sample per row, columns ordered n = -band..band).  Every kernel
here has an exact single-sample counterpart in spectral/functionals and
is tested against it row by row.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .functionals import DensityParams, chi

__all__ = [
    "batch_multiply",
    "batch_square",
    "batch_cube",
    "batch_mass",
    "batch_f_quartic",
    "batch_X",
    "batch_quartic_integral",
    "batch_sextic_integral",
    "batch_l4_norm",
    "batch_h1_seminorm",
    "batch_grid_sup_dsq",
    "batch_density_G",
    "batch_re_coeff",
    "batch_evaluate",
]


def _fft_len(n: int) -> int:
    return 1 << (n - 1).bit_length()


def batch_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise product: coefficients of u v for paired rows, width da+db-1.

    Direct convolution, as in spectral.multiply, not an FFT: every output
    coefficient is a plain sum of products, so modes the product cannot
    reach stay exactly zero (an FFT product leaves roundoff there), and
    each row's result does not depend on the other rows.
    """
    if a.shape[1] > b.shape[1]:
        a, b = b, a
    da, db = a.shape[1], b.shape[1]
    padded = np.zeros((b.shape[0], db + 2 * (da - 1)), dtype=np.complex128)
    padded[:, da - 1:da - 1 + db] = b
    # window k holds b_{k-da+1} .. b_k: its dot with reversed a is (ab)_k
    windows = sliding_window_view(padded, da, axis=1)
    return (windows @ a[:, ::-1, None])[:, :, 0]


def batch_square(rows: np.ndarray) -> np.ndarray:
    """Row-wise self-convolution: coefficients of u^2, width 2d-1.

    Zero-padded FFT; the pad length is the next power of two at or above
    2d-1 so the linear convolution comes out alias-free.
    """
    d = rows.shape[1]
    L = _fft_len(2 * d - 1)
    F = np.fft.fft(rows, n=L, axis=1)
    return np.fft.ifft(F * F, axis=1)[:, : 2 * d - 1]


def batch_cube(rows: np.ndarray) -> np.ndarray:
    """Row-wise coefficients of u^3, width 3d-2."""
    d = rows.shape[1]
    L = _fft_len(3 * d - 2)
    F = np.fft.fft(rows, n=L, axis=1)
    return np.fft.ifft(F * F * F, axis=1)[:, : 3 * d - 2]


def batch_mass(rows: np.ndarray) -> np.ndarray:
    """L^2 norm per row (Parseval)."""
    return np.sqrt(np.sum(rows.real ** 2 + rows.imag ** 2, axis=1))


def batch_f_quartic(rows: np.ndarray) -> np.ndarray:
    """The quartic functional sum_k k |(u^2)_k|^2 per row.

    Rows must already be truncated to the band the functional is taken
    at; the k grid spans the squared field's band 2N.
    """
    band = (rows.shape[1] - 1) // 2
    w = batch_square(rows)
    k = np.arange(-2 * band, 2 * band + 1, dtype=np.float64)
    return np.sum(k * (w.real ** 2 + w.imag ** 2), axis=1)


def batch_X(rows: np.ndarray) -> np.ndarray:
    """Diagonal part of the quartic functional: sum_n 2n |c_n|^4 per row.

    Real-valued convention: the decomposition's X term equals i times
    this (the full quartic sum is i times the functional).
    """
    band = (rows.shape[1] - 1) // 2
    n = np.arange(-band, band + 1, dtype=np.float64)
    a = rows.real ** 2 + rows.imag ** 2
    return np.sum(2.0 * n * a * a, axis=1)


def batch_quartic_integral(rows: np.ndarray) -> np.ndarray:
    """int |u|^4 per row: Parseval on the squared field."""
    w = batch_square(rows)
    return np.sum(w.real ** 2 + w.imag ** 2, axis=1)


def batch_sextic_integral(rows: np.ndarray) -> np.ndarray:
    """int |u|^6 per row: Parseval on the cubed field."""
    w = batch_cube(rows)
    return np.sum(w.real ** 2 + w.imag ** 2, axis=1)


def batch_l4_norm(rows: np.ndarray) -> np.ndarray:
    return batch_quartic_integral(rows) ** 0.25


def batch_h1_seminorm_sq(rows: np.ndarray) -> np.ndarray:
    """int |u'|^2 per row: sum n^2 |c_n|^2."""
    band = (rows.shape[1] - 1) // 2
    n = np.arange(-band, band + 1, dtype=np.float64)
    return np.sum(n * n * (rows.real ** 2 + rows.imag ** 2), axis=1)


# keep the more natural name too
batch_h1_seminorm = batch_h1_seminorm_sq


def batch_evaluate(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Pointwise values of each row's series at angles x."""
    band = (rows.shape[1] - 1) // 2
    n = np.arange(-band, band + 1, dtype=np.float64)
    phases = np.exp(1j * np.outer(n, np.asarray(x, dtype=np.float64)))
    return rows @ phases


def batch_grid_sup_dsq(rows: np.ndarray, oversample: int = 8) -> np.ndarray:
    """Grid sup of |d/dx (u^2)| per row.

    The squared field has band 2N; the sup is taken over an equispaced
    grid with `oversample` nodes per mode (a grid sup, deliberately not
    a certified true sup).
    """
    band = (rows.shape[1] - 1) // 2
    w = batch_square(rows)
    k = np.arange(-2 * band, 2 * band + 1, dtype=np.float64)
    dw = 1j * k * w
    m = oversample * (2 * band) + oversample
    x = 2.0 * np.pi * np.arange(m) / m
    return np.max(np.abs(batch_evaluate(dw, x)), axis=1)


def batch_density_G(rows: np.ndarray, params: DensityParams) -> np.ndarray:
    """Cutoff Gibbs density per row; rows must live at params.band.

    Zero outside the cutoff ball without touching the exponential, same
    guard as the scalar version: an exponent beyond 700 inside the ball
    raises instead of overflowing.
    """
    band = (rows.shape[1] - 1) // 2
    if band != params.band:
        raise ValueError(f"rows at band {band}, density wants {params.band}")
    m = batch_mass(rows)
    cut = np.array([chi(v, params) for v in m])
    out = np.zeros(rows.shape[0])
    inside = cut > 0.0
    if np.any(inside):
        sub = rows[inside]
        expo = 0.75 * batch_f_quartic(sub) - 0.5 * batch_sextic_integral(sub)
        if np.max(expo) > 700.0:
            raise OverflowError(
                f"density exponent {np.max(expo):.3g} exceeds 700 inside the ball"
            )
        out[inside] = cut[inside] * np.exp(expo)
    return out


def batch_re_coeff(rows: np.ndarray, n: int) -> np.ndarray:
    """Re c_n per row."""
    band = (rows.shape[1] - 1) // 2
    if abs(n) > band:
        return np.zeros(rows.shape[0])
    return rows[:, n + band].real.copy()
