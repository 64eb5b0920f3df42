"""Reproducible Gaussian ensembles of band-limited random fields.

Each sample draws independent complex standard Gaussians g_n (E|g_n|^2 = 1)
for |n| <= N and forms

    phi_N(x) = sum_{|n| <= N} g_n / <n> e^{inx},      <n> = sqrt(n^2 + 1).

Streams are counter-based: sample i of a run comes from a Philox engine
keyed on (master_seed, i), so any subset of an ensemble can be
regenerated in isolation and draw order never matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import FourierCoeffs, _integer, _modes, _real

__all__ = [
    "GENERATOR_NAME",
    "SeedSpec",
    "sample_gaussian",
    "sample_phi",
    "gaussian_block",
    "phi_block",
    "phi_block_in_ball",
    "bootstrap_counts",
    "ball_probability",
]

#: identifies the exact bit pipeline; bump the suffix on any change
GENERATOR_NAME = "philox4x64-boxmuller-v1"

_MASK64 = (1 << 64) - 1

#: stream index reserved for auxiliary randomness (bootstrap resampling)
RESERVED_STREAM = _MASK64
#: stream indices reserved for chaos coefficient tables (indices, values)
_TABLE_INDEX_STREAM = _MASK64 - 1
_TABLE_VALUE_STREAM = _MASK64 - 2
#: ordinary sample streams count up from 0 and stay below this one
_FIRST_RESERVED_STREAM = _TABLE_VALUE_STREAM

#: resamples behind every bootstrap standard error and interval
_BOOTSTRAP_RESAMPLES = 200
#: resamples bootstrap_counts draws per chunk of the auxiliary stream.  A
#: chunk's two temporaries (the drawn words and the tally) hold 4 * count
#: words, 640 KB at 20 000 samples, which glibc hands out again from its
#: heap; at 16 resamples they were 2.5 MB each, mapped and faulted in
#: afresh for every chunk.  Also the unit of the queue that
#: invariance_experiment's processes pull from
_BOOTSTRAP_CHUNK = 4

# Philox4x64-10 (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2,
# 3", SC'11): round multipliers, and the Weyl increments of the key
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = np.uint64(0x9E3779B97F4A7C15)
_PHILOX_W1 = np.uint64(0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)

# gaussian_block and phi_block_in_ball draw their words in chunks of at
# most about _CHUNK_COUNTERS Philox counters.  Below _BLOCK_MIN_ROWS rows
# gaussian_block draws stream by stream through sample_gaussian, whose
# fixed cost per call is far below the kernel's.  From
# _ENGINE_MIN_COUNTERS counters a row (band 15 up) it takes each chunk's
# words from numpy's Philox re-keyed stream by stream (_stream_words),
# below that from the vectorized kernel (_philox_words), as is every grid
# of phi_block_in_ball.  Philox words alone, microseconds a row over 2000
# rows on one core of a 2-core VM (numpy 2.4.6), kernel / engine: band 0
# 0.36 / 1.67, band 8 1.53 / 1.92, band 14 2.08 / 2.08, band 15 2.25 /
# 2.09, band 16 2.49 / 2.13, band 32 4.43 / 2.58, band 64 8.07 / 3.46,
# band 128 17.1 / 4.98.  In slower periods of the same host both columns
# rose and the crossover moved up to band 20
_BLOCK_MIN_ROWS = 16
_CHUNK_COUNTERS = 1 << 14
_ENGINE_MIN_COUNTERS = 16


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one deterministic Gaussian stream.

    master_seed scopes the whole experiment; stream_index scopes one
    sample within it.  Together they are the 128-bit Philox key, so each
    must lie in 0 .. 2^64 - 1; larger values would alias smaller ones.
    Both must be Python or numpy integers (_integer): a float or a bool
    would be truncated to some other stream's key.
    """

    master_seed: int
    stream_index: int

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            if _integer(name, getattr(self, name), 0) > _MASK64:
                raise ValueError(f"{name} must be below 2^64")


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """Uniforms on (0, 1], each from the 53 high bits of a Philox word."""
    # shift to 53 bits, then +1 so 0 is excluded: safe inside log()
    return ((raw >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0 ** -53


def _philox(spec: SeedSpec) -> np.random.Philox:
    """numpy's own Philox on the stream spec."""
    # exact uint64 key; a plain list would round-trip through float64 and
    # mangle indices near 2^64
    key = np.array([spec.master_seed, spec.stream_index], dtype=np.uint64)
    return np.random.Philox(key=key)


def _raw_uniforms(spec: SeedSpec, count: int) -> np.ndarray:
    """count uniforms from the stream spec, through numpy's own Philox."""
    return _uniforms(_philox(spec).random_raw(count))


def _mulhilo(m: int, x: np.ndarray) -> tuple:
    """Low and high 64-bit words of the 128-bit products m * x.

    numpy has no 128-bit integers, so the high word is assembled from
    products of 32-bit halves, none of which overflows 64 bits.
    """
    m_lo = np.uint64(m & 0xFFFFFFFF)
    m_hi = np.uint64(m >> 32)
    x_lo = x & _LO32
    x_hi = x >> _S32
    t = m_lo * x_hi
    t += (m_lo * x_lo) >> _S32
    x_lo *= m_hi
    x_lo += t & _LO32
    x_hi *= m_hi
    t >>= _S32
    x_hi += t
    x_lo >>= _S32
    x_hi += x_lo
    return x * np.uint64(m), x_hi


def _philox_words(master_seed: int, streams: np.ndarray,
                  blocks: np.ndarray) -> np.ndarray:
    """Philox4x64-10 words of a grid of streams and counters.

    Entry [i, j] holds the four words of block blocks[j] of the stream
    keyed (master_seed, streams[i]): words 4 b .. 4 b + 3 of
    np.random.Philox(key=(master_seed, streams[i])).random_raw, bit for
    bit, for b = blocks[j].  That block is counter b + 1 in word 0 of
    the counter, ten rounds with the key bumped between them.  Both
    index arrays may be in any order and need not be contiguous.  All
    keys and counters go through each round at once; the 4-word state
    broadcasts from (1, 1) up to (streams, blocks) as the rounds mix in
    the stream key.
    """
    k1 = np.asarray(streams, dtype=np.uint64)[:, None]
    c0 = (np.asarray(blocks, dtype=np.uint64) + np.uint64(1))[None, :]
    out = np.empty((k1.shape[0], c0.shape[1], 4), dtype=np.uint64)
    c1 = c2 = c3 = np.zeros((1, 1), dtype=np.uint64)
    k0 = np.full((1, 1), master_seed, dtype=np.uint64)
    for r in range(10):
        if r:
            k0 = k0 + _PHILOX_W0
            k1 = k1 + _PHILOX_W1
        lo0, hi0 = _mulhilo(_PHILOX_M0, c0)
        lo1, hi1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    for j, c in enumerate((c0, c1, c2, c3)):
        out[..., j] = c
    return out


def _stream_words(bits: np.random.Philox, master_seed: int, streams: range,
                  size: int) -> np.ndarray:
    """len(streams) x size matrix: row i the first size words of the
    stream keyed (master_seed, streams[i]), from the engine bits.

    The rows of _philox_words over blocks 0, 1, ..., bit for bit, from
    numpy's C Philox: bits is re-keyed through its state setter for each
    stream, at counter 0 with an empty buffer, so its next word is word 0
    of counter 1.  The state is a dict of Python ints, its key list
    changed in place; the setter converts each int to a uint64 (a dict
    of arrays costs several times more to set).
    """
    key = [master_seed, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": (0, 0, 0, 0), "key": key},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    out = np.empty((len(streams), size), dtype=np.uint64)
    for i, stream in enumerate(streams):
        key[1] = stream
        bits.state = state
        out[i] = bits.random_raw(size)
    return out


def _box_muller(e: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Complex Gaussians sqrt(e) exp(2 pi i v) from uniform pairs: e is
    -log of the radius uniforms, v the angle uniforms.

    The two real coordinates are independent N(0, 1/2), i.e. standard
    real normals scaled by 1/sqrt(2).  One complex exp instead of np.cos
    and np.sin: for a zero real part glibc's cexp returns sincos of the
    angle times exactly 1.
    """
    return np.sqrt(e) * np.exp(1j * (2.0 * np.pi * v))


def sample_gaussian(seed: SeedSpec, count: int) -> np.ndarray:
    """count iid complex Gaussians with E g = 0, E|g|^2 = 1.

    Box-Muller on two uniforms per draw: radius from u1, angle from u2.
    """
    u = _raw_uniforms(seed, 2 * _integer("count", count, 1))
    return _box_muller(-np.log(u[0::2]), u[1::2])


def _phi(g: np.ndarray) -> np.ndarray:
    """Field coefficients g_n / <n> from Gaussians g_n on the last axis.

    Divides in g's own buffer: g must be a fresh draw the caller owns.
    """
    n = _modes(g)
    return np.divide(g, np.sqrt(n * n + 1.0), out=g)


def sample_phi(N: int, seed: SeedSpec) -> FourierCoeffs:
    """One draw of the truncated field: c_n = g_n / <n>, n = -N..N in order."""
    N = _integer("N", N, 0)
    return FourierCoeffs(N, _phi(sample_gaussian(seed, 2 * N + 1)))


def _block_args(master_seed: int, first_stream: int, rows: int,
                count: int) -> tuple:
    """(rows, count) as ints, once the block's streams are valid ones."""
    rows = _integer("rows", rows, 0)
    count = _integer("count", count, 1)
    first_stream = _integer("first_stream", first_stream, 0)
    SeedSpec(master_seed, first_stream)     # both in 0 .. 2^64 - 1
    if first_stream + rows > _FIRST_RESERVED_STREAM:
        raise ValueError(
            f"streams {first_stream}..{first_stream + rows - 1} reach the "
            f"reserved streams from 2^64 - 3")
    return rows, count


def _streams(first_stream: int, offsets: np.ndarray) -> np.ndarray:
    """Stream indices first_stream + offsets, as the kernel's uint64 keys."""
    return np.uint64(first_stream) + offsets.astype(np.uint64)


def gaussian_block(master_seed: int, first_stream: int, rows: int,
                   count: int) -> np.ndarray:
    """Matrix of draws, row i from stream first_stream + i.

    Bit for bit the rows of sample_gaussian on each stream.  Blocks of
    fewer than _BLOCK_MIN_ROWS rows go through sample_gaussian itself.
    Larger ones are drawn a chunk of about _CHUNK_COUNTERS Philox
    counters at a time (496 rows at band 32), so the temporaries stay
    cache-sized: rows of _ENGINE_MIN_COUNTERS counters or more take
    their words from one numpy Philox re-keyed stream by stream
    (_stream_words), narrower ones from the vectorized kernel
    (_philox_words).  All three share one Box-Muller.  Sample streams
    must stay below the reserved ones.
    """
    rows, count = _block_args(master_seed, first_stream, rows, count)
    out = np.empty((rows, count), dtype=np.complex128)
    if rows < _BLOCK_MIN_ROWS:
        for i in range(rows):
            out[i] = sample_gaussian(SeedSpec(master_seed, first_stream + i),
                                     count)
        return out
    # 2 * count words per row, four per Philox counter
    blocks = np.arange(-(-count // 2))
    bits = (_philox(SeedSpec(master_seed, first_stream))
            if len(blocks) >= _ENGINE_MIN_COUNTERS else None)
    step = max(1, _CHUNK_COUNTERS // len(blocks))
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        if bits is None:
            words = _philox_words(master_seed,
                                  _streams(first_stream, np.arange(lo, hi)),
                                  blocks).reshape(hi - lo, -1)
        else:
            words = _stream_words(bits, master_seed,
                                  range(first_stream + lo, first_stream + hi),
                                  2 * count)
        u = _uniforms(words[:, :2 * count])
        out[lo:hi] = _box_muller(-np.log(u[:, 0::2]), u[:, 1::2])
    return out


def phi_block(master_seed: int, first_stream: int, rows: int,
              band: int) -> np.ndarray:
    """rows x (2*band+1) matrix of field coefficients, one sample per row."""
    return _phi(gaussian_block(master_seed, first_stream, rows,
                               2 * _integer("band", band, 0) + 1))


def _screen_stages(band: int) -> list:
    """phi_block_in_ball's stages: a row's Philox blocks, heaviest first.

    Block k carries modes n = 2k - band and 2k + 1 - band (the last one
    only the first), and weighs sum 1/(n^2 + 1) over them.  The blocks go
    in order of decreasing weight, ties in block order, in stages of 1,
    1, 2, 4, ... blocks; the last stage takes what is left.  Each stage
    lists its blocks in ascending order, so a stage that holds the last
    block holds it last.
    """
    n = np.arange(-band, band + 2)
    w = 1.0 / (n * n + 1.0)
    w[-1] = 0.0                 # the last block's second mode is past the band
    order = np.argsort(-(w[0::2] + w[1::2]), kind="stable")
    ends = [1]
    while ends[-1] < len(order):
        ends.append(min(2 * ends[-1], len(order)))
    return [np.sort(blocks) for blocks in np.split(order, ends[:-1])]


def _stage_modes(blocks: np.ndarray, m: int) -> np.ndarray:
    """The modes of a stage's Philox blocks, two a block in block order,
    minus the last block's second one, past the m modes of the band."""
    modes = (2 * blocks[:, None] + np.arange(2)).ravel()
    return modes[:np.searchsorted(modes, m)]


def _stage_draw(master_seed: int, streams: np.ndarray, blocks: np.ndarray,
                width: int) -> tuple:
    """(e, v) for a grid of streams and a stage's Philox blocks: e holds
    -log u of the radius uniforms and v the angle words of the stage's
    first width modes (_stage_modes), one row per stream."""
    words = _philox_words(master_seed, streams, blocks)
    e = -np.log(_uniforms(words[..., 0::2]))
    return (e.reshape(len(streams), -1)[:, :width],
            words[..., 1::2].reshape(len(streams), -1)[:, :width])


def phi_block_in_ball(master_seed: int, first_stream: int, rows: int,
                      band: int, radius: float) -> tuple:
    """The rows of phi_block that can lie in the L^2 ball of radius.

    Returns (index, coeffs): coeffs is phi_block(...)[index] bit for
    bit, and index, ascending, holds every row whose batch_mass is at
    most radius, and maybe some just outside.  A row is screened on its
    radius words alone, before its angles, Box-Muller and 1/<n> are
    computed: |g_n|^2 = e_n = -log u_n for its radius uniform u_n, so
    its mass squared is S = sum_n e_n / (n^2 + 1) up to rounding, and it
    is kept when the float screen S' of S is at most
    bound = radius^2 (1 + 2k u) as floats, u = 2^-53, k = m + 10 for the
    m = 2 band + 1 terms.

    The margin covers both sums' rounding.  Each e_n is the same float
    in both, so log's own accuracy does not enter.  S' has one division
    and m - 1 additions of nonnegative terms: S' <= (1 + gamma_m) S,
    gamma_j = j u / (1 - j u).  The mass squared M^2 goes through, per
    real coordinate x of c_n, the rounded sqrt(e_n) (squared: 2 u), cos
    or sin of the angle within one ulp (squared: 4 u), the product and
    the division by <n> (2 u each), <n>'s own rounded sqrt (2 u) and the
    square (u); then the sum of the two squares (u) and m - 1 additions.
    cos^2 + sin^2 = 1 for the float angle, so M^2 >= (1 - gamma_{m+13}) S.
    batch_mass = fl(sqrt(M^2)) <= radius gives M^2 <= radius^2 / (1 - u)^2,
    and the threshold, with radius^2 and its product rounded, is at
    least radius^2 (1 + 2k u)(1 - u)^2.  So the row is kept if
    (1 + gamma_m) / ((1 - gamma_{m+13})(1 - u)^4) <= 1 + 2k u, which
    holds to first order with 2k = 2m + 17 and, at 2k = 2m + 20, for
    every band below 2^24.  Nonzero terms lie far above the subnormals
    (e_n is 0 or at least 2^-53), so a radius whose square underflows
    keeps exactly the rows of mass 0.

    Most rows leave the ball on their heaviest modes, so the Philox
    words are drawn in stages (_screen_stages), each only for the rows
    still inside: the block holding n = 0 first, then the others by
    decreasing sum of 1/(n^2 + 1) over their two modes, 1, 1, 2, 4, ...
    blocks a stage.  After a stage a row's terms t_n = fl(e_n /
    (n^2 + 1)) so far are added, in any order, to its partial sum P',
    and the row is dropped once P' > bound (1 + (j + m) 2u), rounded
    up, for its j terms so far.  That drops only rows that S' <= bound
    rejects: the t_n are the same floats in both sums, so with P their
    exact sum and T that of all m, P' <= (1 + gamma_{j-1}) P, and
    S' >= (1 - gamma_{m-1}) T in any order of the additions.
    (1 + gamma_{j-1}) / (1 - gamma_{m-1}) <= 1 + (j + m) u for every
    band below 2^24, so a dropped row has T >= P > bound / (1 -
    gamma_{m-1}) and S' > bound.
    Once a stage keeps more than three quarters of its rows, as it does
    for a radius that holds most of the measure, the blocks left form
    the last stage: screening them would cost more kernel calls than it
    saves draws.  The last stage runs a chunk of rows at a time, and
    each row left gets its whole row's S', summed as phi_block's rows
    are; those within bound go on to the angles, Box-Muller and 1/<n>.
    Each stage reuses the e_n and angle words of the stages before it,
    so every (stream, counter) pair is drawn at most once, in kernel
    calls of at most _CHUNK_COUNTERS counters.
    """
    radius = _real("radius", radius, at_least=0)
    band = _integer("band", band, 0)
    rows, m = _block_args(master_seed, first_stream, rows, 2 * band + 1)
    lam = np.arange(-band, band + 1) ** 2 + 1.0
    bound = radius * radius * (1.0 + (m + 10) * 2.0 ** -52)
    stages = _screen_stages(band)
    alive = np.arange(rows)
    partial = np.zeros(rows)
    drawn = []          # per stage: (its rows, its modes, e_n, angle words)
    terms = 0
    while len(stages) > 1:
        blocks = stages.pop(0)
        modes = _stage_modes(blocks, m)
        streams = _streams(first_stream, alive)
        e = np.empty((len(alive), len(modes)))
        v = np.empty((len(alive), len(modes)), dtype=np.uint64)
        rates = lam[modes]
        step = max(1, _CHUNK_COUNTERS // len(blocks))
        for lo in range(0, len(alive), step):
            hi = min(lo + step, len(alive))
            e[lo:hi], v[lo:hi] = _stage_draw(master_seed, streams[lo:hi],
                                             blocks, len(modes))
            # the bound holds for any order of the additions, and
            # einsum's is faster than np.sum's on narrow rows
            partial[lo:hi] += np.einsum("ij->i", e[lo:hi] / rates)
        drawn.append((alive, modes, e, v))
        terms += len(modes)
        limit = math.nextafter(bound * (1.0 + (terms + m) * 2.0 ** -52),
                               math.inf)
        inside = partial <= limit
        if 4 * np.count_nonzero(inside) > 3 * len(inside):
            stages = [np.sort(np.concatenate(stages))]
        if not inside.all():
            alive, partial = alive[inside], partial[inside]
    # the last stage, a chunk of rows at a time: the rest of each row's
    # words, then the whole row from every stage, screened on one sum
    blocks, = stages
    modes = _stage_modes(blocks, m)
    streams = _streams(first_stream, alive)
    drawn = [(None if len(at) == len(alive) else np.searchsorted(at, alive),
              modes, e, v) for at, modes, e, v in drawn]
    index = [np.empty(0, dtype=np.int64)]
    coeffs = [np.empty((0, m), dtype=np.complex128)]
    step = max(1, _CHUNK_COUNTERS // (band + 1))
    for lo in range(0, len(alive), step):
        hi = min(lo + step, len(alive))
        e = np.empty((hi - lo, m))
        v = np.empty((hi - lo, m), dtype=np.uint64)
        e[:, modes], v[:, modes] = _stage_draw(master_seed, streams[lo:hi],
                                               blocks, len(modes))
        for pos, modes_s, e_s, v_s in drawn:
            at = slice(lo, hi) if pos is None else pos[lo:hi]
            e[:, modes_s] = e_s[at]
            v[:, modes_s] = v_s[at]
        keep = np.sum(e / lam, axis=1) <= bound
        if not keep.all():
            e, v = e[keep], v[keep]
        index.append(alive[lo:hi][keep])
        coeffs.append(_phi(_box_muller(e, _uniforms(v))))
    return np.concatenate(index), np.concatenate(coeffs)


def bootstrap_counts(master_seed: int, count: int, live) -> np.ndarray:
    """_BOOTSTRAP_RESAMPLES x len(live) matrix: how often each live sample
    is drawn.

    The one definition of the bootstrap: resample after resample, each
    of the count draws is sample min(floor(u * count), count - 1) for
    the next uniform u of the master seed's reserved auxiliary stream,
    so resamples are deterministic given master_seed and independent of
    every sample stream.  Entry (r, j) counts the draws of sample live[j]
    in resample r.  live holds distinct sample indices in 0 .. count - 1
    (ValueError otherwise); draws of samples outside it are dropped.
    The matrix is assembled here, chunk by chunk, from _bootstrap_chunk,
    which can also draw any one chunk alone, in another process.
    """
    count = _integer("count", count, 1)
    live = np.asarray(live, dtype=np.int64)
    if live.size and not (0 <= live.min() and live.max() < count):
        raise ValueError(f"live indices must lie in 0 .. {count - 1}")
    if len(np.unique(live)) != live.size:
        raise ValueError("live indices must be distinct")
    return np.concatenate([_bootstrap_chunk(master_seed, count, live, lo)
                           for lo in _bootstrap_starts()])


def _bootstrap_starts() -> range:
    """The first resample of each chunk of bootstrap_counts' matrix."""
    return range(0, _BOOTSTRAP_RESAMPLES, _BOOTSTRAP_CHUNK)


def _bootstrap_chunk(master_seed: int, count: int, live: np.ndarray,
                     lo: int) -> np.ndarray:
    """Rows lo .. lo + _BOOTSTRAP_CHUNK - 1 of bootstrap_counts' matrix.

    Fewer rows where the matrix ends.  The draws come from a fresh
    engine on the reserved stream moved on to word lo * count, so each
    chunk has the bits of the serial stream whichever chunks were drawn
    before it, or where.  live must be int64 sample indices that
    bootstrap_counts accepts.  The result is C-ordered, as is the matrix
    that np.concatenate builds from the chunks: the resample sums run
    along its rows, and their bits depend on the layout.
    """
    rows = min(_BOOTSTRAP_CHUNK, _BOOTSTRAP_RESAMPLES - lo)
    start = lo * count
    bits = _philox(SeedSpec(master_seed, RESERVED_STREAM))
    bits.advance(start // 4)            # four words per Philox counter
    bits.random_raw(start % 4)
    m = bits.random_raw(rows * count)
    m >>= np.uint64(11)
    m += np.uint64(1)
    # u * count with u = m 2^-53 from _uniforms, in one rounding: m 2^-53
    # and count 2^-53 are exact, so m (count 2^-53) rounds to the same
    # float.  m <= 2^53 reads the same as int64 and converts to float64
    # exactly; the product and its truncation to int64 are written back
    # into m's buffer
    idx, x = m.view(np.int64), m.view(np.float64)
    np.copyto(x, idx, casting="unsafe")
    x *= count * 2.0 ** -53
    np.copyto(idx, x, casting="unsafe")
    np.minimum(idx, count - 1, out=idx)
    # one bincount over the chunk: resample r's bins start at r * count
    bins = idx.reshape(rows, count)
    bins += np.arange(0, rows * count, count)[:, None]
    tally = np.bincount(bins.ravel(), minlength=rows * count)
    return tally.reshape(rows, count).take(live, axis=1)


def ball_probability(N: int, radius: float) -> float:
    """Exact P(||phi_N|| <= radius) under the Gaussian field, stdlib only.

    ||phi_N||^2 = sum_n E_n / lambda_n with E_n iid Exp(1) and
    lambda_n = n^2 + 1, |n| <= N: rate 1 once, every other rate twice.
    By partial fractions its CDF at x = radius^2 is

        F(x) = 1 + sum_lambda e^(-lambda x) (a_lambda + b_lambda x),

    (a, b) = (H, 0) for the simple rate and (H D, H) for the double ones,
    H = -lambda^(m-1) prod_{mu != lambda} (mu / (mu - lambda))^m_mu at
    multiplicity m, D = 1/lambda - sum_{mu != lambda} m_mu / (mu - lambda),
    the sum formed over one integer denominator per rate.  Each
    c = a + b x = H (D + x) is an exact Fraction.  The terms cancel
    heavily, so they are summed in decimal at prec digits, where every
    operation rounds to within u/2 of its value, relative, u = 10^(1-prec).
    A term T = c e^(-lambda x) takes three roundings (c, the exp of the
    exact argument, their product), so it is within 1.52 u |T| of its
    value.  Each of the N + 1 additions errs by at most u/2 of a partial
    sum, none above S = 1 + sum |T|.  So the sum is within (N + 3) u S of
    F, with room for the bound's own roundings.  Once that interval
    rounds to one float, F correctly rounded, it is returned; until then
    prec doubles, from 32.
    """
    N = _integer("N", N, 0)
    radius = _real("radius", radius, at_least=0)
    if radius == 0:
        return 0.0
    import decimal      # here: the package import skips both
    from fractions import Fraction
    x = Fraction(radius) ** 2
    mult = {1: 1, **{n * n + 1: 2 for n in range(1, N + 1)}}
    total = math.prod(mu ** k for mu, k in mult.items())
    coef = {}
    for lam, m in mult.items():
        others = [(mu, k) for mu, k in mult.items() if mu != lam]
        # sum m_mu / (mu - lambda) = s / p over p = prod (mu - lambda), so
        # D = (p - lambda s) / (lambda p).  H's numerator is total / lambda,
        # and as every m_mu is 1 or 2 its denominator is p^2 over the
        # factors of the simple rate
        s, p = _sum_over_product([(k, mu - lam) for mu, k in others])
        h = -Fraction(total // lam, p * p // math.prod(
            mu - lam for mu, k in others if k == 1))
        coef[lam] = h if m == 1 else h * (Fraction(p - lam * s, lam * p) + x)
    # exact: the exp arguments -lambda x are products of exact decimals
    exact = decimal.Context(prec=decimal.MAX_PREC)
    x_dec = exact.multiply(decimal.Decimal(radius), decimal.Decimal(radius))
    prec = 32
    while True:
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.Emin = prec, decimal.MIN_EMIN     # no underflow
            total = size = decimal.Decimal(1)
            for lam, c in coef.items():
                t = (decimal.Decimal(c.numerator) / c.denominator
                     * exact.multiply(x_dec, -lam).exp())
                total += t
                size += abs(t)
            err = (N + 3) * size.scaleb(1 - prec)
            lo, hi = float(total - err), float(total + err)
        if lo == hi:
            return hi       # not lo, which is -0.0 where F underflows
        prec *= 2


def _sum_over_product(terms: list) -> tuple:
    """(a, b) with a / b = sum n / d over the integer pairs (n, d) of
    terms and b = prod d, unreduced.

    Neighbours are added pairwise, level by level, so the integers grow
    evenly and no gcd is taken.
    """
    terms = terms or [(0, 1)]
    while len(terms) > 1:
        pairs = zip(terms[0::2], terms[1::2])
        terms = [(a * d + c * b, b * d) for (a, b), (c, d) in pairs] \
            + terms[len(terms) & ~1:]
    return terms[0]
