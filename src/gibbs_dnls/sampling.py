"""Reproducible Gaussian ensembles of band-limited random fields.

Each sample draws independent complex standard Gaussians g_n (E|g_n|^2 = 1)
for |n| <= N and forms

    phi_N(x) = sum_{|n| <= N} g_n / <n> e^{inx},      <n> = sqrt(n^2 + 1).

Streams are counter-based: sample i of a run comes from a Philox engine
keyed on (master_seed, i), so any subset of an ensemble can be
regenerated in isolation and draw order never matters.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .spectral import FourierCoeffs, _modes

__all__ = [
    "GENERATOR_NAME",
    "SeedSpec",
    "sample_gaussian",
    "sample_phi",
    "gaussian_block",
    "phi_block",
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

# gaussian_block runs the vectorized kernel on chunks of about
# _CHUNK_COUNTERS Philox counters (496 rows at band 32), so the
# temporaries stay cache-sized.  Below _BLOCK_MIN_ROWS rows it draws
# stream by stream through numpy's Philox, whose fixed cost per call is
# far below the kernel's
_BLOCK_MIN_ROWS = 16
_CHUNK_COUNTERS = 1 << 14


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one deterministic Gaussian stream.

    master_seed scopes the whole experiment; stream_index scopes one
    sample within it.  Together they are the 128-bit Philox key, so each
    must lie in 0 .. 2^64 - 1; larger values would alias smaller ones.
    Both must be Python or numpy integers: a float or a bool would be
    truncated to some other stream's key.
    """

    master_seed: int
    stream_index: int

    def __post_init__(self):
        for v in (self.master_seed, self.stream_index):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(
                    f"seed components must be integers, got {v!r}")
        if self.master_seed < 0 or self.stream_index < 0:
            raise ValueError("seed components must be non-negative")
        if self.master_seed > _MASK64 or self.stream_index > _MASK64:
            raise ValueError("seed components must be below 2^64")


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


def _philox_words(master_seed: int, first_stream: int, rows: int,
                  count: int) -> np.ndarray:
    """rows x count Philox4x64-10 words, row i keyed (master_seed, first_stream + i).

    Row i equals np.random.Philox(key=(master_seed, first_stream + i))
    .random_raw(count) bit for bit: counters 1, 2, ... in word 0 of the
    counter, four output words per counter, ten rounds with the key
    bumped between them.  All keys and counters go through each round at
    once; the 4-word state broadcasts from (1, 1) up to (rows, blocks) as
    the rounds mix in the stream key.
    """
    blocks = -(-count // 4)
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    c1 = c2 = c3 = np.zeros((1, 1), dtype=np.uint64)
    k0 = np.full((1, 1), master_seed, dtype=np.uint64)
    k1 = (np.uint64(first_stream) + np.arange(rows, dtype=np.uint64))[:, None]
    for r in range(10):
        if r:
            k0 = k0 + _PHILOX_W0
            k1 = k1 + _PHILOX_W1
        lo0, hi0 = _mulhilo(_PHILOX_M0, c0)
        lo1, hi1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    out = np.empty((rows, blocks, 4), dtype=np.uint64)
    for j, c in enumerate((c0, c1, c2, c3)):
        out[..., j] = c
    return out.reshape(rows, 4 * blocks)[:, :count]


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Complex Gaussians from uniform pairs along the last axis of u.

    Radius from the even entries, angle from the odd ones.  The two real
    coordinates are independent N(0, 1/2), i.e. standard real normals
    scaled by 1/sqrt(2).
    """
    r = np.sqrt(-np.log(u[..., 0::2]))
    theta = 2.0 * np.pi * u[..., 1::2]
    return r * (np.cos(theta) + 1j * np.sin(theta))


def sample_gaussian(seed: SeedSpec, count: int) -> np.ndarray:
    """count iid complex Gaussians with E g = 0, E|g|^2 = 1.

    Box-Muller on two uniforms per draw: radius from u1, angle from u2.
    """
    count = int(count)
    if count < 1:
        raise ValueError("count must be positive")
    return _box_muller(_raw_uniforms(seed, 2 * count))


def _phi(g: np.ndarray) -> np.ndarray:
    """Field coefficients g_n / <n> from Gaussians g_n on the last axis.

    Divides in g's own buffer: g must be a fresh draw the caller owns.
    """
    n = _modes(g)
    return np.divide(g, np.sqrt(n * n + 1.0), out=g)


def sample_phi(N: int, seed: SeedSpec) -> FourierCoeffs:
    """One draw of the truncated field: c_n = g_n / <n>, n = -N..N in order."""
    N = int(N)
    if N < 0:
        raise ValueError("band must be non-negative")
    return FourierCoeffs(N, _phi(sample_gaussian(seed, 2 * N + 1)))


def gaussian_block(master_seed: int, first_stream: int, rows: int,
                   count: int) -> np.ndarray:
    """Matrix of draws, row i from stream first_stream + i.

    Bit for bit the rows of sample_gaussian on each stream: blocks of
    _BLOCK_MIN_ROWS rows or more go through the vectorized Philox kernel
    (_philox_words), smaller ones through sample_gaussian itself, and
    both share one Box-Muller.  Sample streams must stay below the
    reserved ones.
    """
    rows = int(rows)
    count = int(count)
    if count < 1:
        raise ValueError("count must be positive")
    SeedSpec(master_seed, first_stream)     # both in 0 .. 2^64 - 1
    if first_stream + rows > _FIRST_RESERVED_STREAM:
        raise ValueError(
            f"streams {first_stream}..{first_stream + rows - 1} reach the "
            f"reserved streams from 2^64 - 3")
    out = np.empty((rows, count), dtype=np.complex128)
    if rows < _BLOCK_MIN_ROWS:
        for i in range(rows):
            out[i] = sample_gaussian(SeedSpec(master_seed, first_stream + i),
                                     count)
        return out
    # 2 * count words per row, four per Philox counter
    step = max(1, _CHUNK_COUNTERS // -(-count // 2))
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        raw = _philox_words(master_seed, first_stream + lo, hi - lo, 2 * count)
        out[lo:hi] = _box_muller(_uniforms(raw))
    return out


def phi_block(master_seed: int, first_stream: int, rows: int,
              band: int) -> np.ndarray:
    """rows x (2*band+1) matrix of field coefficients, one sample per row."""
    return _phi(gaussian_block(master_seed, first_stream, rows, 2 * band + 1))


def bootstrap_counts(master_seed: int, count: int, resamples: int,
                     live) -> np.ndarray:
    """resamples x len(live) matrix: how often each live sample is drawn.

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
    live = np.asarray(live, dtype=np.int64)
    if live.size and not (0 <= live.min() and live.max() < count):
        raise ValueError(f"live indices must lie in 0 .. {count - 1}")
    if len(np.unique(live)) != live.size:
        raise ValueError("live indices must be distinct")
    return np.concatenate([_bootstrap_chunk(master_seed, count, resamples,
                                            live, lo)
                           for lo in _bootstrap_starts(resamples)])


def _bootstrap_starts(resamples: int) -> range:
    """The first resample of each chunk of bootstrap_counts' matrix."""
    return range(0, resamples, _BOOTSTRAP_CHUNK)


def _bootstrap_chunk(master_seed: int, count: int, resamples: int,
                     live: np.ndarray, lo: int) -> np.ndarray:
    """Rows lo .. lo + _BOOTSTRAP_CHUNK - 1 of bootstrap_counts' matrix.

    Fewer rows where the matrix ends.  The draws come from a fresh
    engine on the reserved stream moved on to word lo * count, so each
    chunk has the bits of the serial stream whichever chunks were drawn
    before it, or where.  live must be int64 sample indices that
    bootstrap_counts accepts.  The result is C-ordered, as is the matrix
    that np.concatenate builds from the chunks: the resample sums run
    along its rows, and their bits depend on the layout.
    """
    rows = min(_BOOTSTRAP_CHUNK, resamples - lo)
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
    lambda_n = n^2 + 1, |n| <= N: a hypoexponential variable whose CDF
    is the entire series

        prod(lambda) sum_k (-1)^k h_k(lambda) x^(d+k) / (d+k)!,

    x = radius^2, d = 2N + 1, h_k the complete homogeneous symmetric
    polynomial of degree k.  It is summed in exact integer arithmetic
    (the terms cancel heavily) until the tail is below 2^-60 of the
    partial sum, and rounded once to float.  The number of terms grows
    with radius^2 * max(lambda), so this is an oracle for small balls.
    """
    N = int(N)
    if N < 0:
        raise ValueError("band must be non-negative")
    if not 0 <= radius < math.inf:
        raise ValueError("radius must be finite and non-negative")
    lams = [n * n + 1 for n in range(-N, N + 1)]
    d = len(lams)
    p, q = float(radius).as_integer_ratio()
    p, q = p * p, q * q                         # x = p / q exactly
    if p == 0:
        return 0.0
    # sum_k h_k t^k = 1 / prod(1 - lambda t) = 1 / sum_i c_i t^i, so
    # h_k = -sum_{i >= 1} c_i h_{k-i}
    c = [1]
    for lam in lams:
        c = [a - lam * b for a, b in zip(c + [0], [0] + c)]
    h = [1]
    # the partial sum is num / den with den = q^(d+k) (d+k)!; the term
    # h_k x^(d+k) / (d+k)! is h_k p^(d+k) / den
    power = p ** d
    den = q ** d * math.factorial(d)
    num = power
    for k in itertools.count(1):
        h.append(-sum(c[i] * h[k - i] for i in range(1, min(k, d) + 1)))
        grow = q * (d + k)
        power *= p
        den *= grow
        num *= grow
        term = h[k] * power
        num += -term if k % 2 else term
        # h_k is log-concave (a convolution of geometric sequences), so
        # the term ratio rho = h_k p / (h_{k-1} q (d+k)) never increases:
        # once rho = a / b < 1 the tail is at most |term| rho / (1 - rho)
        a, b = h[k] * p, h[k - 1] * grow
        if a < b and (term * a) << 60 <= (b - a) * abs(num):
            break
    return math.prod(lams) * num / den
