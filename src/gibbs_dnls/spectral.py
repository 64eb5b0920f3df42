"""Exact arithmetic on truncated Fourier series on the circle.

A function u(x) = sum_{|n| <= N} c_n e^{inx} is stored as its coefficient
vector ordered n = -N..N.  All integrals are normalized: int_T f means
(1/2pi) int_0^{2pi} f(x) dx, so int_T e^{ikx} = [k == 0] and the constant
function 1 has norm 1 in every L^p.
"""

from __future__ import annotations

import json
import numpy as np

__all__ = [
    "FourierCoeffs",
    "QuadratureGrid",
    "project",
    "derivative",
    "antiderivative",
    "multiply",
    "conjugate",
    "inner_product_hermitian",
    "pairing_bilinear",
    "lp_norm",
]


# -- the coefficient layout: n = -band..band on the last axis of an array ----
#
# The operators below act on every row of a coefficient matrix at once.
# The FourierCoeffs operators further down wrap them, and the array layer
# (observables, flow, sampling) calls them directly.  They stay out of
# __all__, so the span tracer (perfbench/tracer.py) wraps none of them
# and the RK4 loop records no spans.


def _band(a: np.ndarray) -> int:
    """Band of a coefficient axis of width 2*band + 1."""
    return (a.shape[-1] - 1) // 2


def _modes(a: np.ndarray) -> np.ndarray:
    """Mode numbers n = -band..band of a's coefficient axis."""
    band = _band(a)
    return np.arange(-band, band + 1)


def _project(a: np.ndarray, M: int) -> np.ndarray:
    """Pi_M: keep modes |n| <= M, zero-filling those above a's band."""
    band = _band(a)
    if M <= band:
        return a[..., band - M:band + M + 1]
    out = np.zeros(a.shape[:-1] + (2 * M + 1,), dtype=np.complex128)
    out[..., M - band:M + band + 1] = a
    return out


def _derivative(a: np.ndarray) -> np.ndarray:
    """c_n -> i n c_n."""
    return 1j * _modes(a) * a


def _antiderivative(a: np.ndarray) -> np.ndarray:
    """c_n -> c_n / (i n) for n != 0; the mean becomes 0."""
    n = _modes(a)
    out = np.zeros_like(a)
    nz = n != 0
    out[..., nz] = a[..., nz] / (1j * n[nz])
    return out


def _conjugate(a: np.ndarray) -> np.ndarray:
    """c_n -> conj(c_{-n})."""
    return np.conj(a[..., ::-1])


def _evaluate(a: np.ndarray, x) -> np.ndarray:
    """Values sum c_n e^{inx} at the angles x, one row per coefficient row."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return a @ np.exp(1j * np.outer(_modes(a), x))


class FourierCoeffs:
    """Immutable coefficient vector of a trigonometric polynomial.

    Parameters
    ----------
    band : int
        Maximal frequency N >= 0.
    coeffs : array_like of complex, length 2*band + 1
        Coefficients c_n ordered n = -N..N.

    Two values compare equal iff their coefficients agree on the union
    band, zeros filling the modes the smaller band lacks.
    """

    __slots__ = ("band", "coeffs")

    def __init__(self, band: int, coeffs):
        band = int(band)
        if band < 0:
            raise ValueError("band must be non-negative")
        arr = np.asarray(coeffs, dtype=np.complex128)
        if arr.shape != (2 * band + 1,):
            raise ValueError(
                f"expected {2 * band + 1} coefficients for band {band}, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("coefficients must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "band", band)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("FourierCoeffs is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, band: int = 0) -> "FourierCoeffs":
        return cls(band, np.zeros(2 * band + 1, dtype=np.complex128))

    @classmethod
    def from_pairs(cls, pairs, band: int | None = None) -> "FourierCoeffs":
        """Build from {mode: coefficient} with zeros elsewhere."""
        pairs = dict(pairs)
        if band is None:
            band = max((abs(int(n)) for n in pairs), default=0)
        c = np.zeros(2 * band + 1, dtype=np.complex128)
        for n, v in pairs.items():
            n = int(n)
            if abs(n) > band:
                raise ValueError(f"mode {n} outside band {band}")
            c[n + band] = v
        return cls(band, c)

    # -- accessors -------------------------------------------------------

    def coeff(self, n: int) -> complex:
        """Coefficient c_n, zero outside the band."""
        if abs(n) > self.band:
            return 0.0 + 0.0j
        return complex(self.coeffs[n + self.band])

    def modes(self) -> np.ndarray:
        return _modes(self.coeffs)

    def evaluate(self, x) -> np.ndarray:
        """Pointwise values sum c_n e^{inx} at the given angles."""
        return _evaluate(self.coeffs, x)

    # -- algebra helpers (coefficientwise; bands may differ) --------------

    def _binary(self, other: "FourierCoeffs", op) -> "FourierCoeffs":
        band = max(self.band, other.band)
        a, b = _project(self.coeffs, band), _project(other.coeffs, band)
        return FourierCoeffs(band, op(a, b))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def scale(self, a) -> "FourierCoeffs":
        return FourierCoeffs(self.band, a * self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, FourierCoeffs):
            return NotImplemented
        band = max(self.band, other.band)
        a, b = _project(self.coeffs, band), _project(other.coeffs, band)
        return bool(np.array_equal(a, b))

    def __hash__(self):
        trimmed = project(self, _effective_band(self))
        return hash((trimmed.band, trimmed.coeffs.tobytes()))

    def __repr__(self):
        nz = {int(n): complex(c)
              for n, c in zip(self.modes(), self.coeffs) if c != 0}
        return f"FourierCoeffs(band={self.band}, nonzero={nz})"

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "band": self.band,
            "re": [float(v) for v in self.coeffs.real],
            "im": [float(v) for v in self.coeffs.imag],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, d: dict) -> "FourierCoeffs":
        band = int(d["band"])
        re = np.asarray(d["re"], dtype=np.float64)
        im = np.asarray(d["im"], dtype=np.float64)
        return cls(band, re + 1j * im)

    @classmethod
    def from_json(cls, text: str) -> "FourierCoeffs":
        return cls.from_json_dict(json.loads(text))


def _effective_band(u: FourierCoeffs) -> int:
    nz = np.nonzero(u.coeffs)[0]
    if len(nz) == 0:
        return 0
    return int(max(abs(int(i) - u.band) for i in (nz[0], nz[-1])))


class QuadratureGrid:
    """Equispaced nodes x_j = 2pi j / M on [0, 2pi).

    Node averaging integrates e^{ikx} to exactly 0 for 0 < |k| < M and
    exactly 1 for k = 0, so trigonometric polynomials of degree < M are
    integrated exactly by the plain node mean.
    """

    __slots__ = ("size", "nodes")

    #: oversampling floor used for p = inf and non-even p norms
    OVERSAMPLE = 8

    def __init__(self, size: int):
        size = int(size)
        if size < 1:
            raise ValueError("grid needs at least one node")
        object.__setattr__(self, "size", size)
        nodes = 2.0 * np.pi * np.arange(size) / size
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    def __setattr__(self, name, value):
        raise AttributeError("QuadratureGrid is immutable")

    @classmethod
    def for_degree(cls, degree: int) -> "QuadratureGrid":
        """Smallest grid integrating trig polynomials of the given degree exactly."""
        return cls(max(int(degree) + 1, 1))

    @classmethod
    def oversampled(cls, band: int) -> "QuadratureGrid":
        """Dense grid for sup norms and non-even p: M = 8*band + 8."""
        return cls(cls.OVERSAMPLE * int(band) + cls.OVERSAMPLE)

    def __repr__(self):
        return f"QuadratureGrid(size={self.size})"


# -- operators -------------------------------------------------------------


def project(u: FourierCoeffs, M: int) -> FourierCoeffs:
    """Truncation Pi_M: keep modes |n| <= M, drop the rest; result has band M."""
    M = int(M)
    if M < 0:
        raise ValueError("band must be non-negative")
    return FourierCoeffs(M, _project(u.coeffs, M))


def derivative(u: FourierCoeffs) -> FourierCoeffs:
    """d/dx on the Fourier side: c_n -> i n c_n."""
    return FourierCoeffs(u.band, _derivative(u.coeffs))


def antiderivative(u: FourierCoeffs) -> FourierCoeffs:
    """Mean-zero antiderivative: c_n -> c_n / (i n) for n != 0, mean killed.

    antiderivative(derivative(u)) is u with its constant mode set to 0.
    """
    return FourierCoeffs(u.band, _antiderivative(u.coeffs))


def multiply(u: FourierCoeffs, v: FourierCoeffs) -> FourierCoeffs:
    """Pointwise product as exact coefficient convolution; band adds."""
    return FourierCoeffs(u.band + v.band, np.convolve(u.coeffs, v.coeffs))


def conjugate(u: FourierCoeffs) -> FourierCoeffs:
    """Complex conjugate of the function: c_n -> conj(c_{-n})."""
    return FourierCoeffs(u.band, _conjugate(u.coeffs))


def inner_product_hermitian(f: FourierCoeffs, g: FourierCoeffs) -> complex:
    """<f, g> = int_T f conj(g) = sum_n f_n conj(g_n) over the union band."""
    band = max(f.band, g.band)
    a, b = _project(f.coeffs, band), _project(g.coeffs, band)
    return complex(np.sum(a * np.conj(b)))


def pairing_bilinear(f: FourierCoeffs, g: FourierCoeffs) -> complex:
    """int_T f g (no conjugation) = sum_n f_n g_{-n}.

    This is the real bilinear pairing under which the mean-zero
    antiderivative is skew: pairing(antiderivative(f), g) equals
    -pairing(f, antiderivative(g)) for zero-mean f, g.
    """
    band = max(f.band, g.band)
    a, b = _project(f.coeffs, band), _project(g.coeffs, band)
    return complex(np.sum(a * b[::-1]))


def lp_norm(u: FourierCoeffs, p, grid: QuadratureGrid) -> float:
    """L^p norm under the normalized measure; grid max for p = inf.

    For even integer p the node mean of |u|^p is exact provided
    grid.size > p * band (the integrand is a trig polynomial of degree
    p * band).  Too-coarse grids are rejected for even p; other p are
    grid approximations and should use an oversampled grid.
    """
    if p != np.inf and p < 1:
        raise ValueError("p must be >= 1 or inf")
    vals = np.abs(u.evaluate(grid.nodes))
    if p == np.inf:
        return float(np.max(vals))
    p = float(p)
    if p == int(p) and int(p) % 2 == 0 and grid.size <= int(p) * u.band:
        raise ValueError(
            f"grid with {grid.size} nodes is too coarse for exact L^{int(p)} "
            f"norm at band {u.band}; need more than {int(p) * u.band}"
        )
    return float(np.mean(vals ** p) ** (1.0 / p))
