"""Determinism and distributional checks for the Gaussian field sampler."""

import math
import os
import time

import numpy as np
import pytest

from gibbs_dnls import chaos, flow, sampling
from gibbs_dnls.observables import batch_mass
from gibbs_dnls.spectral import _modes
from gibbs_dnls.sampling import (
    GENERATOR_NAME,
    RESERVED_STREAM,
    SeedSpec,
    ball_probability,
    bootstrap_counts,
    gaussian_block,
    phi_block,
    phi_block_in_ball,
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
    for bad, name in (((7.5, 0), "master_seed"), ((7, 2.5), "stream_index"),
                      ((7.0, 0), "master_seed"), ((True, 0), "master_seed"),
                      ((0, False), "stream_index")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            SeedSpec(*bad)
    with pytest.raises(ValueError, match="^master_seed must be an integer"):
        phi_block(7.9, 0, 20, 2)
    with pytest.raises(ValueError, match="^first_stream must be an integer"):
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
    # the whole grid: rows streams from first_stream, blocks 0, 1, ... of
    # four words each
    blocks = -(-count // 4)
    streams = np.uint64(first_stream) + np.arange(rows, dtype=np.uint64)
    words = sampling._philox_words(master_seed, streams, np.arange(blocks))
    assert words.shape == (rows, blocks, 4) and words.dtype == np.uint64
    for j in range(rows):
        key = np.array([master_seed, first_stream + j], dtype=np.uint64)
        want = np.random.Philox(key=key).random_raw(count)
        assert np.array_equal(words[j].ravel()[:count], want), j
    # a grid of streams and blocks out of order and with gaps: entry
    # (i, j) is the block numpy's stream gives after advancing to it
    pick = streams[::-2]
    some = np.array([blocks + 2, 0, 2 ** 40 + 7, blocks // 2, 3])
    words = sampling._philox_words(master_seed, pick, some)
    assert words.shape == (len(pick), len(some), 4)
    for i, stream in enumerate(pick):
        for j, block in enumerate(some):
            bits = np.random.Philox(
                key=np.array([master_seed, stream], dtype=np.uint64))
            bits.advance(int(block))
            assert np.array_equal(words[i, j], bits.random_raw(4)), (i, j)


# blocks of 16 rows and more go through the vectorized kernel below band
# 15 and through numpy's Philox, re-keyed per stream, from band 15 up
@pytest.mark.parametrize("rows", [1, 3, 15, 16, 49])
@pytest.mark.parametrize("band", [0, 4, 14, 15, 32, 64, 128, 256])
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


#: the first band whose rows have _ENGINE_MIN_COUNTERS Philox counters:
#: 2 band + 1 Gaussians take 4 band + 2 words, band + 1 counters
ENGINE_BAND = sampling._ENGINE_MIN_COUNTERS - 1


# the engine (numpy's Philox re-keyed per stream) and the kernel are two
# implementations of the same words; streams above 2^63 and the seed
# 2^64 - 1 go through the setter's conversion of Python ints to uint64
@pytest.mark.parametrize("master_seed, first_stream", [
    (2718, 11),
    (TOP, 2 ** 63 + 1),
    (2 ** 63 + 5, LAST_SAMPLE_STREAM - 299),    # ends on the last stream
])
@pytest.mark.parametrize("counters", [
    sampling._ENGINE_MIN_COUNTERS - 1, sampling._ENGINE_MIN_COUNTERS, 129])
def test_engine_words_match_the_kernel(master_seed, first_stream, counters):
    rows = 300
    want = sampling._philox_words(
        master_seed, sampling._streams(first_stream, np.arange(rows)),
        np.arange(counters)).reshape(rows, -1)
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    streams = range(first_stream, first_stream + rows)
    words = sampling._stream_words(bits, master_seed, streams, 4 * counters)
    assert words.dtype == np.uint64
    assert np.array_equal(words, want)
    # an odd count of Gaussians leaves the last counter's 2 words spare
    words = sampling._stream_words(bits, master_seed, streams,
                                   4 * counters - 2)
    assert np.array_equal(words, want[:, :-2])


@pytest.mark.parametrize("master_seed, first_stream", [
    (5, 3),
    (TOP, 2 ** 63 + 7),
    (2 ** 63 + 5, None),                        # ends on the last stream
])
@pytest.mark.parametrize("band", [ENGINE_BAND, 64])
def test_gaussian_block_engine_matches_the_kernel_over_chunks(
        monkeypatch, master_seed, first_stream, band):
    count = 2 * band + 1
    step = sampling._CHUNK_COUNTERS // (band + 1)
    rows = 2 * step + 13                        # not a multiple of the chunk
    if first_stream is None:
        first_stream = LAST_SAMPLE_STREAM - rows + 1
    engine = gaussian_block(master_seed, first_stream, rows, count)
    monkeypatch.setattr(sampling, "_ENGINE_MIN_COUNTERS", count + 1)
    kernel = gaussian_block(master_seed, first_stream, rows, count)
    assert np.array_equal(_bits(engine), _bits(kernel))


def _count_calls(monkeypatch, name, streams_at):
    """Each call of sampling.<name> from now on appends the length of its
    positional argument streams_at, its streams, to the list returned,
    and then runs."""
    calls = []
    fn = getattr(sampling, name)

    def counting(*args):
        calls.append(len(args[streams_at]))
        return fn(*args)

    monkeypatch.setattr(sampling, name, counting)
    return calls


def test_gaussian_block_takes_the_engine_from_the_threshold(monkeypatch):
    kernel = _count_calls(monkeypatch, "_philox_words", 1)
    engine = _count_calls(monkeypatch, "_stream_words", 2)
    # three chunks at both bands
    rows = 2 * (sampling._CHUNK_COUNTERS // ENGINE_BAND) + 1
    phi_block(3, 0, rows, ENGINE_BAND)
    assert kernel == [] and len(engine) == 3 and sum(engine) == rows
    engine.clear()
    phi_block(3, 0, rows, ENGINE_BAND - 1)
    assert engine == [] and len(kernel) == 3 and sum(kernel) == rows


@pytest.mark.parametrize("band", [0, 4, ENGINE_BAND, 32, 64, 128])
def test_phi_block_in_ball_never_takes_the_engine(monkeypatch, band):
    engine = _count_calls(monkeypatch, "_stream_words", 2)
    kernel = _count_calls(monkeypatch, "_philox_words", 1)
    for radius in (0.5, 1.0, 1e3):
        phi_block_in_ball(8, 0, 40, band, radius)
    assert engine == [] and kernel


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


#: sizes int() used to truncate, or left to fail inside numpy
_NOT_INTEGERS = (2.7, 3.0, True)


def test_gaussian_block_rejects_a_bad_size():
    for v in _NOT_INTEGERS:
        with pytest.raises(ValueError, match="^rows must be an integer"):
            gaussian_block(7, 0, v, 3)
        with pytest.raises(ValueError, match="^count must be an integer"):
            gaussian_block(7, 0, 3, v)
    with pytest.raises(ValueError, match="^rows must be at least 0, got -1$"):
        gaussian_block(7, 0, -1, 3)
    assert np.array_equal(gaussian_block(7, 0, np.int64(3), np.int32(3)),
                          gaussian_block(7, 0, 3, 3))


def test_phi_block_rejects_a_bad_size():
    for v in _NOT_INTEGERS:
        with pytest.raises(ValueError, match="^rows must be an integer"):
            phi_block(7, 0, v, 3)
        with pytest.raises(ValueError, match="^band must be an integer"):
            phi_block(7, 0, 3, v / 2)
    with pytest.raises(ValueError, match="^rows must be at least 0, got -1$"):
        phi_block(7, 0, -1, 3)
    assert np.array_equal(phi_block(7, 0, np.int64(3), np.int64(1)),
                          phi_block(7, 0, 3, 1))


def test_phi_block_in_ball_rejects_a_bad_size():
    for v in _NOT_INTEGERS:
        with pytest.raises(ValueError, match="^rows must be an integer"):
            phi_block_in_ball(7, 0, v, 3, 1.0)
        with pytest.raises(ValueError, match="^band must be an integer"):
            phi_block_in_ball(7, 0, 3, v / 2, 1.0)
    with pytest.raises(ValueError, match="^rows must be at least 0, got -1$"):
        phi_block_in_ball(7, 0, -1, 3, 1.0)
    index, coeffs = phi_block_in_ball(7, 0, np.int64(40), np.int64(1), 1.0)
    assert np.array_equal(coeffs, phi_block(7, 0, 40, 1)[index])


def _assert_in_ball_rows(master_seed, first_stream, rows, band, radius):
    """phi_block_in_ball's rows are phi_block's, and no row of the ball
    is missing; returns the index."""
    full = phi_block(master_seed, first_stream, rows, band)
    index, coeffs = phi_block_in_ball(master_seed, first_stream, rows, band,
                                      radius)
    assert index.dtype == np.int64 and np.all(np.diff(index) > 0)
    assert coeffs.shape == (len(index), 2 * band + 1)
    assert np.array_equal(_bits(coeffs), _bits(full[index]))
    assert set(np.flatnonzero(batch_mass(full) <= radius)) <= set(index)
    return index


# 15 rows: below gaussian_block's per-stream threshold; 1200 rows span
# several chunks at band 32
@pytest.mark.parametrize("rows", [15, 1200])
@pytest.mark.parametrize("band", [0, 1, 4, 16, 32])
def test_phi_block_in_ball_rows_are_phi_block_rows(rows, band):
    mass = batch_mass(phi_block(404 + band, 9, rows, band))
    for q in (0.1, 0.5, 0.9):
        index = _assert_in_ball_rows(404 + band, 9, rows, band,
                                     float(np.quantile(mass, q)))
        assert 0 < len(index) < rows


@pytest.mark.parametrize("band", [0, 4, 32])
def test_phi_block_in_ball_empty_and_full(band):
    for radius in (0.0, 1e-300, 1e-8):
        index, coeffs = phi_block_in_ball(17, 0, 40, band, radius)
        assert index.shape == (0,) and coeffs.shape == (0, 2 * band + 1)
    index = _assert_in_ball_rows(17, 0, 40, band, 1e200)
    assert np.array_equal(index, np.arange(40))
    assert phi_block_in_ball(17, 0, 0, band, 1.0)[1].shape == (0, 2 * band + 1)


@pytest.mark.parametrize("band", [0, 1, 4, 16, 32])
def test_phi_block_in_ball_keeps_a_row_on_the_sphere(band):
    # the radius is exactly each row's own mass; about half the rows
    # screen above their mass squared, so the margin is what keeps them
    mass = batch_mass(phi_block(52, 0, 48, band))
    for j, radius in enumerate(mass):
        index, _ = phi_block_in_ball(52, 0, 48, band, float(radius))
        assert j in index, (band, j)


@pytest.mark.parametrize("band", [0, 1, 2, 3, 4, 8, 16, 64])
def test_screen_stages_partition_the_blocks_heaviest_first(band):
    stages = sampling._screen_stages(band)
    assert [len(s) for s in stages[:-1]] == [1, 1, 2, 4, 8, 16, 32][
        :len(stages) - 1]
    assert 0 < len(stages[-1]) <= max(1, 2 ** (len(stages) - 2))
    assert np.array_equal(np.sort(np.concatenate(stages)), np.arange(band + 1))
    assert list(stages[0]) == [band // 2]     # the block holding n = 0
    # each stage's lightest block weighs at least the next one's heaviest
    n = np.arange(-band, band + 2)
    w = np.where(n <= band, 1.0 / (n * n + 1.0), 0.0)
    weight = w[0::2] + w[1::2]
    for a, b in zip(stages, stages[1:]):
        assert weight[a].min() >= weight[b].max()


def _one_pass_screen(master_seed, first_stream, rows, band):
    """(S', e, v): phi_block_in_ball's float screen S' of every row, in
    one pass over the full words, with the rows' -log u of the radius
    uniforms and their angle uniforms."""
    m = 2 * band + 1
    streams = np.uint64(first_stream) + np.arange(rows, dtype=np.uint64)
    words = sampling._philox_words(master_seed, streams, np.arange(band + 1))
    u = sampling._uniforms(words.reshape(rows, -1)[:, :2 * m])
    e = -np.log(u[:, 0::2])
    return np.sum(e / (np.arange(-band, band + 1) ** 2 + 1.0), axis=1), e, \
        u[:, 1::2]


def _counting_kernel(monkeypatch) -> list:
    """The (stream, block) pairs of each _philox_words call from now on."""
    grids = []
    kernel = sampling._philox_words

    def counting(master_seed, streams, blocks):
        assert len(streams) * len(blocks) <= sampling._CHUNK_COUNTERS
        s, b = np.meshgrid(streams, np.asarray(blocks, dtype=np.uint64),
                           indexing="ij")
        grids.append(np.stack([s.ravel(), b.ravel()], axis=1))
        return kernel(master_seed, streams, blocks)

    monkeypatch.setattr(sampling, "_philox_words", counting)
    return grids


def _drawn_pairs(grids) -> np.ndarray:
    """Every (stream, block) pair of the recorded calls; no pair twice."""
    pairs = np.concatenate(grids) if grids else np.empty((0, 2), np.uint64)
    assert len(np.unique(pairs, axis=0)) == len(pairs)
    grids.clear()
    return pairs


@pytest.mark.parametrize("band", [0, 1, 2, 4, 8, 16, 64])
def test_staged_screen_equals_the_one_pass_screen(band, monkeypatch):
    # index and coefficients are those of the one-pass screen over the
    # full words, bit for bit, at mass quantiles, at each row's own mass
    # and at the extreme radii; a row dropped before the last stage, not
    # drawn on every block, screens above the bound in one pass too
    rows, m = 600, 2 * band + 1
    screen, e, v = _one_pass_screen(2024 + band, 7, rows, band)
    mass = batch_mass(phi_block(2024 + band, 7, rows, band))
    radii = [float(r) for r in np.quantile(mass, [0.01, 0.1, 0.5, 0.9])]
    radii += [float(r) for r in mass[:12]] + [0.0, 1e-300, 1e200]
    grids = _counting_kernel(monkeypatch)
    for radius in radii:
        bound = radius * radius * (1.0 + (m + 10) * 2.0 ** -52)
        want = np.flatnonzero(screen <= bound)
        index, coeffs = phi_block_in_ball(2024 + band, 7, rows, band, radius)
        assert np.array_equal(index, want), radius
        coeffs_want = sampling._phi(sampling._box_muller(e[want], v[want]))
        assert np.array_equal(_bits(coeffs), _bits(coeffs_want)), radius
        pairs = _drawn_pairs(grids)
        drawn = np.bincount((pairs[:, 0] - np.uint64(7)).astype(np.int64),
                            minlength=rows)
        assert drawn.max() <= band + 1
        early = np.flatnonzero(drawn < band + 1)
        assert np.all(screen[early] > bound), radius
        if radius == 1e200:
            assert len(early) == 0 and len(pairs) == rows * (band + 1)


def test_staged_screen_draws_a_fraction_of_the_words(monkeypatch):
    # band 8, kappa 1: about 3% of the rows are kept, and each row's
    # heaviest blocks decide most of the others, so well under half of
    # the rows x counters are drawn, none twice; a radius that keeps
    # every row draws every pair once
    rows, blocks = 4000, 9
    grids = _counting_kernel(monkeypatch)
    index, _ = phi_block_in_ball(2024, 0, rows, 8, 1.0)
    assert 0 < len(index) < 0.1 * rows
    assert len(_drawn_pairs(grids)) <= 0.4 * rows * blocks
    index, _ = phi_block_in_ball(2024, 0, rows, 8, 1e200)
    assert len(index) == rows
    assert len(_drawn_pairs(grids)) == rows * blocks


def test_phi_block_in_ball_rejects_bad_radius_and_streams():
    for radius in (-1e-300, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="radius"):
            phi_block_in_ball(1, 0, 3, 2, radius)
    with pytest.raises(ValueError, match="reserved"):
        phi_block_in_ball(1, LAST_SAMPLE_STREAM, 2, 2, 1.0)
    with pytest.raises(ValueError, match="^band must be at least 0, got -1$"):
        phi_block_in_ball(1, 0, 3, -1, 1.0)


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
    denom = (counts * w[live]).sum(axis=1)
    se = flow._weighted_se(counts, denom, w[live] * vals[live])
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


#: P(||phi_N|| <= r) from the CDF's power series, summed in exact integers
#: to a tail below 2^-60 and rounded once; keyed (N, r)
_BALL_SERIES = {
    (0, 1.0): 0.6321205588285577,
    (1, 0.5): 0.00765417670859751,
    (2, 2.0): 0.8945350555907026,
    (4, 0.3): 1.6799017556308688e-09,
    (4, 1.0): 0.030093944034890036,
    (8, 0.7): 4.126042537745699e-05,
    (16, 0.4): 7.422072846082678e-15,
    (16, 1.0): 0.005227382486761959,
    (32, 0.5): 6.168741159970327e-13,
    (32, 1.0): 0.003278075141665357,
    (64, 0.3): 6.492503531148037e-35,
}


def test_ball_probability_matches_the_power_series_bit_for_bit():
    for (N, r), want in _BALL_SERIES.items():
        assert ball_probability(N, r) == want, (N, r)


def test_ball_probability_reaches_bands_128_and_256():
    for r in (0.3, 1.0):
        last = ball_probability(64, r)
        for N in (128, 256):
            t0 = time.perf_counter()
            p = ball_probability(N, r)
            assert time.perf_counter() - t0 < 2.0, (N, r)
            # a wider band only adds mass: the ball's probability falls
            assert 0.0 < p < last < 1.0, (N, r)
            last = p


def test_ball_probability_underflows_to_plus_zero():
    # P is about prod(lambda) x^5 / 5! = 100e-1000 / 120, below every float
    p = ball_probability(2, 1e-100)
    assert p == 0.0 and math.copysign(1.0, p) == 1.0


def test_ball_probability_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ball_probability(-1, 0.4)
    for r in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ball_probability(2, r)

