"""Reproducible Gaussian ensembles of band-limited random fields.

Each sample draws independent complex standard Gaussians g_n (E|g_n|^2 = 1)
for |n| <= N and forms

    phi_N(x) = sum_{|n| <= N} g_n / <n> e^{inx},      <n> = sqrt(n^2 + 1).

Streams are counter-based: sample i of a run comes from a Philox engine
keyed on (master_seed, i), so any subset of an ensemble can be
regenerated in isolation and draw order never matters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .spectral import FourierCoeffs

__all__ = [
    "GENERATOR_NAME",
    "SeedSpec",
    "Ensemble",
    "sample_gaussian",
    "sample_phi",
    "sample_ensemble",
    "ensemble_stats",
    "gaussian_block",
    "phi_block",
    "bootstrap_indices",
]

#: identifies the exact bit pipeline; bump the suffix on any change
GENERATOR_NAME = "philox4x64-boxmuller-v1"

_MASK64 = (1 << 64) - 1

#: stream index reserved for auxiliary randomness (bootstrap resampling);
#: ordinary sample streams count up from 0 and never reach it
RESERVED_STREAM = _MASK64


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one deterministic Gaussian stream.

    master_seed scopes the whole experiment; stream_index scopes one
    sample within it.  Both are reduced mod 2^64 into the Philox key.
    """

    master_seed: int
    stream_index: int

    def __post_init__(self):
        if self.master_seed < 0 or self.stream_index < 0:
            raise ValueError("seed components must be non-negative")


def _raw_uniforms(spec: SeedSpec, count: int) -> np.ndarray:
    """count uniforms on (0, 1], each from 53 high bits of a Philox word."""
    # exact uint64 key; a plain list would round-trip through float64 and
    # mangle indices near 2^64
    key = np.array(
        [spec.master_seed & _MASK64, spec.stream_index & _MASK64],
        dtype=np.uint64,
    )
    bg = np.random.Philox(key=key)
    raw = bg.random_raw(count)
    # shift to 53 bits, then +1 so 0 is excluded: safe inside log()
    return ((raw >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0 ** -53


def sample_gaussian(seed: SeedSpec, count: int) -> np.ndarray:
    """count iid complex Gaussians with E g = 0, E|g|^2 = 1.

    Box-Muller on two uniforms per draw: radius from u1, angle from u2.
    The two real coordinates are independent N(0, 1/2), i.e. standard
    real normals scaled by 1/sqrt(2).
    """
    count = int(count)
    if count < 1:
        raise ValueError("count must be positive")
    u = _raw_uniforms(seed, 2 * count)
    r = np.sqrt(-np.log(u[0::2]))
    theta = 2.0 * np.pi * u[1::2]
    return r * (np.cos(theta) + 1j * np.sin(theta))


def sample_phi(N: int, seed: SeedSpec) -> FourierCoeffs:
    """One draw of the truncated field: c_n = g_n / <n>, n = -N..N in order."""
    N = int(N)
    if N < 0:
        raise ValueError("band must be non-negative")
    g = sample_gaussian(seed, 2 * N + 1)
    n = np.arange(-N, N + 1, dtype=np.float64)
    return FourierCoeffs(N, g / np.sqrt(n * n + 1.0))


def gaussian_block(master_seed: int, first_stream: int, rows: int,
                   count: int) -> np.ndarray:
    """Matrix of draws, row i from stream first_stream + i."""
    out = np.empty((rows, count), dtype=np.complex128)
    for i in range(rows):
        out[i] = sample_gaussian(SeedSpec(master_seed, first_stream + i), count)
    return out


def phi_block(master_seed: int, first_stream: int, rows: int,
              band: int) -> np.ndarray:
    """rows x (2*band+1) matrix of field coefficients, one sample per row."""
    g = gaussian_block(master_seed, first_stream, rows, 2 * band + 1)
    n = np.arange(-band, band + 1, dtype=np.float64)
    return g / np.sqrt(n * n + 1.0)


class Ensemble:
    """A seeded collection of field samples at one band.

    Stores the coefficients as one matrix row per sample for fast batch
    work; the samples property materializes FourierCoeffs views.  weights,
    when present, are non-negative importance weights aligned with the
    samples (absent means unweighted).  seed records the provenance:
    sample i came from stream seed.stream_index + i.
    """

    __slots__ = ("band", "coeff_matrix", "weights", "seed")

    def __init__(self, band: int, coeff_matrix: np.ndarray,
                 seed: SeedSpec, weights=None):
        coeff_matrix = np.asarray(coeff_matrix, dtype=np.complex128)
        if coeff_matrix.ndim != 2 or coeff_matrix.shape[1] != 2 * int(band) + 1:
            raise ValueError("coefficient matrix shape does not match band")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (coeff_matrix.shape[0],):
                raise ValueError("weights length does not match sample count")
            if not np.all(np.isfinite(weights)) or np.any(weights < 0):
                raise ValueError("weights must be finite and non-negative")
        self.band = int(band)
        self.coeff_matrix = coeff_matrix
        self.weights = weights
        self.seed = seed

    @property
    def count(self) -> int:
        return self.coeff_matrix.shape[0]

    def __len__(self) -> int:
        return self.count

    @property
    def samples(self) -> list:
        return [FourierCoeffs(self.band, row) for row in self.coeff_matrix]

    def sample(self, i: int) -> FourierCoeffs:
        return FourierCoeffs(self.band, self.coeff_matrix[i])

    def with_weights(self, weights) -> "Ensemble":
        return Ensemble(self.band, self.coeff_matrix, self.seed, weights)

    def manifest(self) -> dict:
        return {
            "master_seed": self.seed.master_seed,
            "first_stream": self.seed.stream_index,
            "generator": GENERATOR_NAME,
            "band": self.band,
            "count": self.count,
            "weighted": self.weights is not None,
        }

    def to_jsonl(self) -> str:
        """One sample per line: stream index, coefficients, optional weight."""
        lines = []
        for i in range(self.count):
            row = self.coeff_matrix[i]
            d = {"stream": self.seed.stream_index + i,
                 "re": [float(v) for v in row.real],
                 "im": [float(v) for v in row.imag]}
            if self.weights is not None:
                d["weight"] = float(self.weights[i])
            lines.append(json.dumps(d, separators=(",", ":")))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, manifest: dict, text: str) -> "Ensemble":
        if manifest.get("generator") != GENERATOR_NAME:
            raise ValueError(
                f"ensemble was written by generator {manifest.get('generator')!r}, "
                f"this build is {GENERATOR_NAME!r}"
            )
        band = int(manifest["band"])
        count = int(manifest["count"])
        first = int(manifest.get("first_stream", 0))
        rows = np.zeros((count, 2 * band + 1), dtype=np.complex128)
        weights = np.zeros(count) if manifest.get("weighted") else None
        filled = np.zeros(count, dtype=bool)
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            stream = int(d["stream"])
            i = stream - first
            if not 0 <= i < count:
                raise ValueError(
                    f"stream {stream} outside the manifest's streams "
                    f"{first}..{first + count - 1}"
                )
            if filled[i]:
                raise ValueError(f"stream {stream} appears twice")
            rows[i] = np.asarray(d["re"], dtype=np.float64) \
                + 1j * np.asarray(d["im"], dtype=np.float64)
            if weights is not None:
                weights[i] = float(d["weight"])
            filled[i] = True
        seen = int(np.sum(filled))
        if seen != count:
            raise ValueError(f"manifest promises {count} samples, found {seen}")
        return cls(band, rows, SeedSpec(int(manifest["master_seed"]), first),
                   weights)


def sample_ensemble(N: int, count: int, master_seed: int) -> Ensemble:
    """count samples of phi_N on streams 0..count-1 under master_seed."""
    count = int(count)
    if count < 1:
        raise ValueError("count must be positive")
    rows = phi_block(master_seed, 0, count, int(N))
    return Ensemble(int(N), rows, SeedSpec(int(master_seed), 0))


def bootstrap_indices(master_seed: int, count: int, resamples: int) -> np.ndarray:
    """resamples x count index matrix from the reserved auxiliary stream.

    Deterministic given master_seed, independent of every sample stream.
    """
    u = _raw_uniforms(SeedSpec(master_seed, RESERVED_STREAM),
                      resamples * count)
    idx = np.minimum((u * count).astype(np.int64), count - 1)
    return idx.reshape(resamples, count)


def ensemble_stats(e: Ensemble, observable) -> tuple:
    """Mean of an observable over the ensemble, with its standard error.

    Unweighted: plain mean, SE = sample std / sqrt(count).  Weighted:
    self-normalized estimator sum(w h) / sum(w), SE by bootstrap over
    200 resamples drawn from the ensemble's reserved auxiliary stream.
    """
    if e.count == 0:
        raise ValueError("empty ensemble")
    vals = np.array([float(observable(e.sample(i))) for i in range(e.count)])
    if e.weights is None:
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / np.sqrt(e.count)) if e.count > 1 else 0.0
        return mean, se
    w = e.weights
    total = np.sum(w)
    if total == 0:
        raise ValueError("all importance weights are zero; ensemble is degenerate")
    mean = float(np.sum(w * vals) / total)
    idx = bootstrap_indices(e.seed.master_seed, e.count, 200)
    wb = w[idx]
    hb = vals[idx]
    denom = wb.sum(axis=1)
    good = denom > 0
    reps = np.sum(wb * hb, axis=1)[good] / denom[good]
    se = float(np.std(reps, ddof=1)) if len(reps) > 1 else 0.0
    return mean, se
