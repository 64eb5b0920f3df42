"""Batch kernels must agree with the scalar functional implementations."""

import bisect
import tracemalloc

import numpy as np
import pytest

from gibbs_dnls.spectral import (
    FourierCoeffs, _modes, _project, lp_norm, multiply)
from gibbs_dnls.functionals import (
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
    batch_sextic_integral,
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


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


#: row counts for the in-place kernels: one row, around the sampler's
#: 16-row dispatch, and a block wide enough for the batched code paths
_BIT_ROWS = (1, 2, 3, 15, 16, 17, 700)


@pytest.mark.parametrize("band", list(range(41)) + [64, 128])
def test_in_place_fft_kernels_keep_the_fresh_array_bits(band):
    # references: the same transforms with a fresh ifft output, a fresh
    # |w|^2 array and a fresh k |w|^2 array; int |u|^4 is the mean over
    # the padded grid of a fresh |F * F|^2
    for rows_n in _BIT_ROWS:
        rows = phi_block(609 + band, 0, rows_n, band)
        keep = rows.copy()
        d = rows.shape[1]
        L = _fft_len(2 * d - 1)
        F = np.fft.fft(rows, n=L, axis=1)
        F2 = F * F
        quartic = np.sum(F2.real ** 2 + F2.imag ** 2, axis=1) / L
        F *= F
        sq = np.fft.ifft(F, axis=1)[:, : 2 * d - 1]
        F = np.fft.fft(rows, n=_fft_len(3 * d - 2), axis=1)
        cube = np.fft.ifft(F * F * F, axis=1)[:, : 3 * d - 2]
        abs2_sq = sq.real ** 2 + sq.imag ** 2
        cases = [
            (batch_square(rows), sq),
            (batch_cube(rows), cube),
            (batch_quartic_integral(rows), quartic),
            (batch_sextic_integral(rows),
             np.sum(cube.real ** 2 + cube.imag ** 2, axis=1)),
            (batch_f_quartic(rows), np.sum(_modes(sq) * abs2_sq, axis=1)),
        ]
        for k, (got, want) in enumerate(cases):
            assert np.array_equal(_bits(got), _bits(want)), (band, rows_n, k)
        # the kernels never write into the caller's rows
        assert np.array_equal(_bits(rows), _bits(keep))


@pytest.mark.parametrize("kernel", [batch_square, batch_quartic_integral,
                                    batch_f_quartic])
def test_fft_kernels_allocate_one_padded_block(kernel):
    # a band-32 Monte Carlo block: 2016 rows padded to 135 points; the
    # peak is the forward transform's buffer and nothing of its size more
    rows = phi_block(610, 0, 2016, 32)
    L = _fft_len(2 * rows.shape[1] - 1)
    kernel(rows)                        # pocketfft plans outside the trace
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        kernel(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * rows.shape[0] * L * 16


def test_batch_multiply_matches_spectral_multiply():
    other = phi_block(607, 0, 40, 2)
    prod = batch_multiply(ROWS, other)
    assert prod.shape == (40, 2 * (BAND + 2) + 1)
    for j in (0, 7, 39):
        want = multiply(row_field(j), FourierCoeffs(2, other[j])).coeffs
        assert np.max(np.abs(prod[j] - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("wa", [1, 9, 17])
@pytest.mark.parametrize("wb", [1, 9, 17])
def test_batch_multiply_band_is_projected_product(wa, wb):
    a = phi_block(609, 0, 5, (wa - 1) // 2)
    b = phi_block(610, 0, 5, (wb - 1) // 2)
    top = (wa + wb - 2) // 2
    # equal widths swap nothing, so each order is checked against itself
    for x, y in ((a, b), (b, a)):
        full = batch_multiply(x, y)
        assert full.shape == (5, 2 * top + 1)
        for M in range(top + 1):
            assert np.array_equal(batch_multiply(x, y, band=M),
                                  _project(full, M)), M


def test_batch_multiply_band_out_of_range():
    a, b = ROWS, phi_block(607, 0, 40, 2)
    for M in (-1, BAND + 3, 100):
        with pytest.raises(ValueError, match="band"):
            batch_multiply(a, b, band=M)
        with pytest.raises(ValueError, match="band"):
            batch_multiply(b, a, band=M)


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
    got = batch_l4_norm(ROWS)
    want = [lp_norm(row_field(j), 4) for j in range(40)]
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
    # reference composition through the quadrature oracle and node norms;
    # it shares only the cutoff chi with batch_density_G
    kappa = 2.0
    got = batch_density_G(ROWS, kappa)
    want = [chi(np.linalg.norm(ROWS[j]), kappa) * np.exp(
        0.75 * f_quadrature_oracle(row_field(j), BAND)
        - 0.5 * lp_norm(row_field(j), 6) ** 6) for j in range(40)]
    assert np.allclose(got, want, rtol=1e-11, atol=0)
    # some weight must be positive at this kappa, some zero
    assert np.any(got > 0) and np.any(got == 0)


def test_batch_re_coeff():
    got = batch_re_coeff(ROWS, 2)
    assert np.array_equal(got, ROWS[:, BAND + 2].real)
