"""Batch kernels must agree with the scalar functional implementations."""

import bisect

import numpy as np
import pytest

from gibbs_dnls.spectral import FourierCoeffs, QuadratureGrid, lp_norm, multiply
from gibbs_dnls.functionals import (
    DensityParams,
    chi,
    f_quadrature_oracle,
    f_quartic,
)
from gibbs_dnls.observables import (
    _fft_len,
    batch_X,
    batch_cube,
    batch_density_G,
    batch_f_quartic,
    batch_grid_sup_dsq,
    batch_h1_seminorm_sq,
    batch_l4_norm,
    batch_mass,
    batch_multiply,
    batch_quartic_integral,
    batch_re_coeff,
    batch_square,
)
from gibbs_dnls.sampling import phi_block

BAND = 6
ROWS = phi_block(606, 0, 40, BAND)


def row_field(j):
    return FourierCoeffs(BAND, ROWS[j])


def test_batch_square_matches_convolution():
    sq = batch_square(ROWS)
    assert sq.shape == (40, 4 * BAND + 1)
    for j in (0, 7, 39):
        want = np.convolve(ROWS[j], ROWS[j])
        assert np.max(np.abs(sq[j] - want)) <= 1e-13 * np.max(np.abs(want))


def test_fft_len_is_next_5_smooth():
    smooth = sorted(2 ** a * 3 ** b * 5 ** c
                    for a in range(14) for b in range(9) for c in range(6))
    for n in range(1, 4097):
        assert _fft_len(n) == smooth[bisect.bisect_left(smooth, n)], n


@pytest.mark.parametrize("band", list(range(41)) + [64, 128])
def test_fft_kernels_match_direct_convolution(band):
    # band 6 squares and band 4 cubes have width 25 = L: no padding at all
    rows = phi_block(608 + band, 0, 3, band)
    sq = batch_square(rows)
    cube = batch_cube(rows)
    quartic = batch_quartic_integral(rows)
    for j, r in enumerate(rows):
        want2 = np.convolve(r, r)
        want3 = np.convolve(want2, r)
        assert np.max(np.abs(sq[j] - want2)) <= 1e-13 * np.max(np.abs(want2))
        assert np.max(np.abs(cube[j] - want3)) <= 1e-13 * np.max(np.abs(want3))
        want4 = np.sum(want2.real ** 2 + want2.imag ** 2)
        assert abs(quartic[j] - want4) <= 1e-13 * want4


def test_batch_multiply_matches_spectral_multiply():
    other = phi_block(607, 0, 40, 2)
    prod = batch_multiply(ROWS, other)
    assert prod.shape == (40, 2 * (BAND + 2) + 1)
    for j in (0, 7, 39):
        want = multiply(row_field(j), FourierCoeffs(2, other[j])).coeffs
        assert np.max(np.abs(prod[j] - want)) <= 1e-13 * np.max(np.abs(want))


def test_batch_mass():
    got = batch_mass(ROWS)
    want = np.linalg.norm(ROWS, axis=1)
    assert np.allclose(got, want, rtol=1e-13, atol=0)


def test_batch_f_quartic():
    got = batch_f_quartic(ROWS)
    want = [f_quartic(row_field(j), BAND) for j in range(40)]
    assert np.allclose(got, want, rtol=1e-11, atol=1e-13)


def test_batch_X_is_diagonal_part():
    got = batch_X(ROWS)
    n = np.arange(-BAND, BAND + 1)
    a = np.abs(ROWS) ** 2
    want = 2.0 * np.sum(n * a * a, axis=1)
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_batch_l4_norm():
    grid = QuadratureGrid.for_degree(4 * BAND)
    got = batch_l4_norm(ROWS)
    want = [lp_norm(row_field(j), 4, grid) for j in range(40)]
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_batch_h1_seminorm():
    got = batch_h1_seminorm_sq(ROWS)
    n = np.arange(-BAND, BAND + 1)
    want = np.sum(n * n * np.abs(ROWS) ** 2, axis=1)
    assert np.allclose(got, want, rtol=1e-13, atol=0)


def test_batch_grid_sup_dsq():
    got = batch_grid_sup_dsq(ROWS)
    # independent path: evaluate d/dx (u^2) on the same grid via pointwise ops
    m = 8 * (2 * BAND) + 8
    x = 2.0 * np.pi * np.arange(m) / m
    for j in (0, 5):
        u = row_field(j)
        vals = u.evaluate(x)
        n = np.arange(-BAND, BAND + 1)
        dvals = (ROWS[j] * 1j * n) @ np.exp(1j * np.outer(n, x))
        want = np.max(np.abs(2.0 * vals * dvals))
        assert got[j] == pytest.approx(want, rel=1e-11)


def test_batch_density_matches_scalar():
    # reference composition through the quadrature oracle and grid norms;
    # it shares only the cutoff chi with batch_density_G
    params = DensityParams(kappa=2.0, band=BAND)
    grid4 = QuadratureGrid.for_degree(4 * BAND)
    grid6 = QuadratureGrid.for_degree(6 * BAND)
    got = batch_density_G(ROWS, params)
    want = [chi(np.linalg.norm(ROWS[j]), params) * np.exp(
        0.75 * f_quadrature_oracle(row_field(j), BAND, grid4)
        - 0.5 * lp_norm(row_field(j), 6, grid6) ** 6) for j in range(40)]
    assert np.allclose(got, want, rtol=1e-11, atol=0)
    # some weight must be positive at this kappa, some zero
    assert np.any(got > 0) and np.any(got == 0)


def test_batch_density_band_guard():
    with pytest.raises(ValueError):
        batch_density_G(ROWS, DensityParams(kappa=1.0, band=BAND + 1))


def test_batch_re_coeff():
    got = batch_re_coeff(ROWS, 2)
    assert np.array_equal(got, ROWS[:, BAND + 2].real)
