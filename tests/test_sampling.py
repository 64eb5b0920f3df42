"""Determinism and distributional checks for the Gaussian field sampler."""

import os

import numpy as np
import pytest

from gibbs_dnls import chaos, flow, sampling
from gibbs_dnls.spectral import _modes
from gibbs_dnls.sampling import (
    GENERATOR_NAME,
    RESERVED_STREAM,
    SeedSpec,
    ball_probability,
    bootstrap_counts,
    gaussian_block,
    phi_block,
    sample_gaussian,
    sample_phi,
)

# exact second moment of the band-4 field: sum over |n| <= 4 of <n>^{-2}
SIGMA_4 = 231.0 / 85.0

TOP = 2 ** 64 - 1
#: the last stream a sample may use: 2^64 - 3 .. 2^64 - 1 are reserved
LAST_SAMPLE_STREAM = TOP - 3


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _assert_rows_match_streams(rows, master_seed, first_stream, band):
    """Every row bit for bit the per-stream sample_phi of its stream."""
    for j, row in enumerate(rows):
        u = sample_phi(band, SeedSpec(master_seed, first_stream + j))
        assert np.array_equal(_bits(row), _bits(u.coeffs)), (first_stream, j)


def test_seed_spec_validation():
    with pytest.raises(ValueError):
        SeedSpec(-1, 0)
    with pytest.raises(ValueError):
        SeedSpec(0, -2)


def test_seed_spec_rejects_components_that_alias():
    # both components are 64-bit key words: 2^64 would alias 0
    for bad in ((TOP + 1, 0), (0, TOP + 1), (2 ** 70, 3)):
        with pytest.raises(ValueError, match="2\\^64"):
            SeedSpec(*bad)
    SeedSpec(TOP, TOP)
    # a float or bool would be truncated to another stream's key
    for bad in ((7.5, 0), (7, 2.5), (7.0, 0), (True, 0), (0, False)):
        with pytest.raises(ValueError, match="integers"):
            SeedSpec(*bad)
    with pytest.raises(ValueError, match="integers"):
        phi_block(7.9, 0, 20, 2)
    with pytest.raises(ValueError, match="integers"):
        phi_block(7, 0.5, 3, 2)
    SeedSpec(np.int64(7), np.uint64(TOP))


def test_generator_name_is_pinned():
    assert GENERATOR_NAME == "philox4x64-boxmuller-v1"


def test_streams_deterministic_and_distinct():
    a = sample_gaussian(SeedSpec(5, 7), 16)
    b = sample_gaussian(SeedSpec(5, 7), 16)
    c = sample_gaussian(SeedSpec(5, 8), 16)
    d = sample_gaussian(SeedSpec(6, 7), 16)
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)


def test_prefix_stability():
    # a longer request from the same stream extends, never reshuffles
    short = sample_gaussian(SeedSpec(11, 3), 8)
    long = sample_gaussian(SeedSpec(11, 3), 32)
    assert np.array_equal(long[:8], short)


def test_gaussian_moments():
    n = 200000
    g = sample_gaussian(SeedSpec(12345, 0), n)
    a2 = np.abs(g) ** 2
    # E g = 0 with component variance 1/2
    assert abs(np.mean(g)) <= 5.0 / np.sqrt(n)
    # E|g|^2 = 1 with Var|g|^2 = 1
    assert abs(np.mean(a2) - 1.0) <= 5.0 / np.sqrt(n)
    # E|g|^4 = 2 with Var|g|^4 = 20
    assert abs(np.mean(a2 ** 2) - 2.0) <= 5.0 * np.sqrt(20.0 / n)
    # real part is N(0, 1/2): kurtosis 3
    re = g.real
    kurt = np.mean(re ** 4) / np.mean(re ** 2) ** 2
    assert abs(kurt - 3.0) <= 0.15


def test_sample_phi_layout():
    u = sample_phi(4, SeedSpec(9, 0))
    assert u.band == 4
    g = sample_gaussian(SeedSpec(9, 0), 9)
    n = np.arange(-4, 5)
    assert np.array_equal(u.coeffs, g / np.sqrt(n * n + 1.0))


def test_phi_block_matches_per_stream():
    rows = phi_block(77, 5, 4, 3)
    for j in range(4):
        u = sample_phi(3, SeedSpec(77, 5 + j))
        assert np.array_equal(rows[j], u.coeffs)


def test_gaussian_block_matches_per_stream():
    rows = gaussian_block(42, 2, 3, 10)
    for j in range(3):
        assert np.array_equal(rows[j], sample_gaussian(SeedSpec(42, 2 + j), 10))


@pytest.mark.parametrize("master_seed, first_stream, rows, count", [
    (0, 0, 1, 1),
    (77, 5, 3, 7),              # count not a multiple of 4 words
    (2 ** 63 + 5, 2 ** 40, 9, 130),
    (TOP, 0, 4, 64),
    (TOP, LAST_SAMPLE_STREAM - 4, 5, 18),
    (12345, TOP - 2, 3, 9),     # keys up to 2^64 - 1
])
def test_philox_words_match_numpy_philox(master_seed, first_stream, rows, count):
    words = sampling._philox_words(master_seed, first_stream, rows, count)
    assert words.shape == (rows, count) and words.dtype == np.uint64
    for j in range(rows):
        key = np.array([master_seed, first_stream + j], dtype=np.uint64)
        want = np.random.Philox(key=key).random_raw(count)
        assert np.array_equal(words[j], want), j


# blocks of 16 rows and more go through the vectorized kernel
@pytest.mark.parametrize("rows", [1, 3, 15, 16, 49])
@pytest.mark.parametrize("band", [0, 4, 32, 256])
def test_phi_block_both_paths_match_per_stream(rows, band):
    _assert_rows_match_streams(phi_block(2718, 11, rows, band), 2718, 11, band)


@pytest.mark.parametrize("rows", [1, 3, 15])
def test_kernel_matches_per_stream_at_few_rows(rows, monkeypatch):
    monkeypatch.setattr(sampling, "_BLOCK_MIN_ROWS", 1)
    _assert_rows_match_streams(phi_block(2718, 11, rows, 4), 2718, 11, 4)


@pytest.mark.parametrize("master_seed, first_stream", [
    (TOP, 0),
    (2 ** 63 + 5, 2 ** 40),
    (9, LAST_SAMPLE_STREAM - 15),       # ends on the last sample stream
])
def test_phi_block_extreme_keys_match_per_stream(master_seed, first_stream):
    rows = phi_block(master_seed, first_stream, 16, 4)
    _assert_rows_match_streams(rows, master_seed, first_stream, 4)


@pytest.mark.parametrize("band", list(range(41)) + [64, 128])
def test_phi_block_divides_in_place_with_the_same_bits(band):
    # reference: the division into a fresh array
    for rows in (1, 2, 3, 15, 16, 17, 700):
        g = gaussian_block(31 + band, 4, rows, 2 * band + 1)
        n = _modes(g)
        want = g / np.sqrt(n * n + 1.0)
        assert np.array_equal(_bits(phi_block(31 + band, 4, rows, band)),
                              _bits(want)), (band, rows)


def test_phi_block_rows_not_a_multiple_of_the_chunk():
    band = 32
    step = sampling._CHUNK_COUNTERS // ((2 * (2 * band + 1) + 3) // 4)
    count = 2 * step + 13
    assert count % step != 0
    _assert_rows_match_streams(phi_block(5, 3, count, band), 5, 3, band)


@pytest.mark.parametrize("rows", [3, 16])
def test_blocks_stop_before_the_reserved_streams(rows):
    first = LAST_SAMPLE_STREAM - rows + 1
    assert gaussian_block(1, first, rows, 2).shape == (rows, 2)
    for fn in (gaussian_block, phi_block):
        with pytest.raises(ValueError, match="reserved"):
            fn(1, first + 1, rows, 2)
        with pytest.raises(ValueError, match="reserved"):
            fn(1, TOP, rows, 2)
    with pytest.raises(ValueError, match="2\\^64"):
        gaussian_block(TOP + 1, 0, rows, 2)


def test_reserved_streams_defined_together():
    assert RESERVED_STREAM == TOP
    assert chaos._TABLE_INDEX_STREAM is sampling._TABLE_INDEX_STREAM
    assert chaos._TABLE_VALUE_STREAM is sampling._TABLE_VALUE_STREAM
    assert {RESERVED_STREAM, sampling._TABLE_INDEX_STREAM,
            sampling._TABLE_VALUE_STREAM} == {TOP, TOP - 1, TOP - 2}


def test_field_second_moments():
    count = 20000
    rows = phi_block(2718, 0, count, 4)
    second = np.mean(np.abs(rows) ** 2, axis=0)
    n = np.arange(-4, 5)
    target = 1.0 / (n * n + 1.0)
    z = (second - target) / (target / np.sqrt(count))
    assert np.max(np.abs(z)) <= 5.0
    # Var(Re c_n) = 1/(2 <n>^2), checked at n = 3
    var_re = np.var(rows[:, 7].real)
    want = 0.5 / 10.0
    assert abs(var_re - want) <= 5.0 * want * np.sqrt(2.0 / count)
    # total mass oracle: E sum |c_n|^2 = 231/85 at band 4
    mass2 = np.sum(np.abs(rows) ** 2, axis=1)
    se = np.std(mass2) / np.sqrt(count)
    assert abs(np.mean(mass2) - SIGMA_4) <= 5.0 * se


def _uniform_indices(master_seed, count, resamples):
    """The bootstrap's resample indices by the uniform formula:
    floor(u * count) of the reserved stream's uniforms, drawn in one go."""
    u = sampling._raw_uniforms(SeedSpec(master_seed, RESERVED_STREAM),
                               resamples * count)
    idx = np.minimum((u * count).astype(np.int64), count - 1)
    return idx.reshape(resamples, count)


def _tally(idx, live):
    """How often each live sample occurs in each row of idx."""
    count = idx.shape[1]
    return np.array([np.bincount(row, minlength=count)[live] for row in idx],
                    dtype=np.int64).reshape(len(idx), len(live))


def test_bootstrap_counts_match_uniform_formula():
    # one sample, and 20000 samples: the every-sample counts of cauchy_rate
    for count, resamples in ((1, 5), (20000, 3)):
        live = np.arange(count)
        ref = _tally(_uniform_indices(55, count, resamples), live)
        assert np.array_equal(bootstrap_counts(55, count, resamples, live), ref)


_LIVE_SETS = {
    "none": [],
    "one": [7],
    "sparse": [0, 3, 4, 41, 98, 250, 299],
    "all": list(range(300)),
}


@pytest.mark.parametrize("resamples", [20, 37])
@pytest.mark.parametrize("live", _LIVE_SETS.values(), ids=_LIVE_SETS.keys())
def test_bootstrap_counts_match_indices(live, resamples):
    ref = _tally(_uniform_indices(55, 300, resamples), live)
    counts = bootstrap_counts(55, 300, resamples, live)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, ref)


def test_bootstrap_chunking_does_not_change_results(monkeypatch):
    live = _LIVE_SETS["sparse"]

    def results():
        return (bootstrap_counts(55, 300, 37, _LIVE_SETS["all"]),
                bootstrap_counts(55, 300, 37, live),
                bootstrap_counts(55, 300, 22, live))

    default = results()
    # 37 and 22 resamples end on a remainder chunk at the default size
    assert 37 % sampling._BOOTSTRAP_CHUNK and 22 % sampling._BOOTSTRAP_CHUNK
    monkeypatch.setattr(sampling, "_BOOTSTRAP_CHUNK", 1)
    for a, b in zip(results(), default):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("chunk", [None, 1, 3])
@pytest.mark.parametrize("count", [300, 301, 302, 303])
def test_bootstrap_chunks_drawn_alone_match_the_serial_stream(
        monkeypatch, count, chunk):
    # chunk lo starts at word lo * count of the reserved stream: with
    # count % 4 = 0 .. 3 and chunks of 1 and 3 resamples, the start
    # falls on every word of a Philox counter
    if chunk:
        monkeypatch.setattr(sampling, "_BOOTSTRAP_CHUNK", chunk)
    step = sampling._BOOTSTRAP_CHUNK
    live = np.array(_LIVE_SETS["sparse"])
    ref = _tally(_uniform_indices(55, count, 37), live)
    starts = list(sampling._bootstrap_starts(37))
    assert starts == list(range(0, 37, step))
    for lo in reversed(starts):          # each from a fresh engine
        chunk_counts = sampling._bootstrap_chunk(55, count, 37, live, lo)
        assert np.array_equal(chunk_counts, ref[lo:lo + step])
    counts = bootstrap_counts(55, count, 37, live)
    assert counts.flags.c_contiguous
    assert np.array_equal(counts, ref)


@pytest.mark.parametrize("live", [[-1, 2], [0, 300], [299, 5000]])
def test_bootstrap_counts_rejects_live_outside_the_samples(live):
    # -1 would count sample 299, and 300 would index past the tally
    with pytest.raises(ValueError, match="0 .. 299"):
        bootstrap_counts(55, 300, 20, live)


def test_bootstrap_counts_rejects_repeated_live():
    # a repeat would give the same sample two columns
    with pytest.raises(ValueError, match="distinct"):
        bootstrap_counts(55, 300, 20, [3, 7, 3])


def test_bad_live_is_rejected_before_any_chunk_or_fork(monkeypatch):
    # live is checked here, not in the chunks, which may run in a worker
    def never(*args):
        raise AssertionError("a chunk was drawn or a worker forked")

    monkeypatch.setattr(sampling, "_bootstrap_chunk", never)
    monkeypatch.setattr(os, "fork", never)
    with pytest.raises(ValueError, match="0 .. 299"):
        bootstrap_counts(55, 300, 20, [-1, 2])
    with pytest.raises(ValueError, match="distinct"):
        bootstrap_counts(55, 300, 20, [3, 7, 3])


@pytest.mark.parametrize("live_count", [2, 60])
def test_weighted_mean_se_matches_gather(live_count):
    count, resamples = 80, 200
    rng = np.random.default_rng(live_count)
    live = np.sort(rng.choice(count, live_count, replace=False))
    w = np.zeros(count)
    w[live] = rng.random(live_count) + 0.1
    vals = rng.normal(size=count)
    idx = _uniform_indices(9, count, resamples)
    # the gather formula over every sample
    wh = w * vals
    denom = w[idx].sum(axis=1)
    good = denom > 0
    if live_count == 2:          # some resamples miss both live samples
        assert 0 < np.sum(~good) < resamples
    reps = wh[idx].sum(axis=1)[good] / denom[good]
    ref_se = np.std(reps, ddof=1)

    counts = bootstrap_counts(9, count, resamples, live)
    se = flow._weighted_se(w[live], vals[live], counts)
    assert se == pytest.approx(ref_se, rel=1e-13)


def test_ball_probability_band_0():
    # ||phi_0||^2 = |g_0|^2 is Exp(1)
    for r in (0.25, 0.5, 1.0, 2.0, 3.0):
        assert ball_probability(0, r) == pytest.approx(-np.expm1(-r * r),
                                                       rel=1e-14)
    assert ball_probability(0, 0.0) == 0.0


def test_ball_probability_band_1():
    # Exp(1) + Gamma(2, rate 2): P = 1 - 4 e^-x + (3 + 2x) e^-2x, x = r^2
    for r in (0.5, 1.0, 2.0):
        x = r * r
        exact = 1 - 4 * np.exp(-x) + (3 + 2 * x) * np.exp(-2 * x)
        assert ball_probability(1, r) == pytest.approx(exact, rel=1e-12)


def test_ball_probability_band_16():
    # A07's conditioning event; a numerical inverse Laplace transform of
    # prod lambda / (s prod (lambda + s)) at 60 digits gives 7.42207284608266e-15
    assert ball_probability(16, 0.4) == pytest.approx(7.42207284608266e-15,
                                                      rel=1e-12)


def test_ball_probability_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ball_probability(-1, 0.4)
    for r in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ball_probability(2, r)

