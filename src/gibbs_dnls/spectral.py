"""Exact arithmetic on truncated Fourier series on the circle.

A function u(x) = sum_{|n| <= N} c_n e^{inx} is stored as its coefficient
vector ordered n = -N..N.  All integrals are normalized: int_T f means
(1/2pi) int_0^{2pi} f(x) dx, so int_T e^{ikx} = [k == 0] and the constant
function 1 has norm 1 in every L^p.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

__all__ = [
    "FourierCoeffs",
    "project",
    "derivative",
    "antiderivative",
    "multiply",
    "conjugate",
    "inner_product_hermitian",
    "pairing_bilinear",
    "lp_norm",
]


def _integer(name: str, v, lo: int | None = None) -> int:
    """v as an int, once it is a Python or numpy integer of at least lo.

    The one check of the public API's integer arguments.  A float or a
    bool would be truncated to some other size, band or seed, so both
    are refused, with a message that names the argument.
    """
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    if lo is not None and v < lo:
        raise ValueError(f"{name} must be at least {lo}, got {v}")
    return operator.index(v)


def _real(name: str, v, at_least=None, above=None, at_most=None) -> float:
    """v as a float, once it is a finite real number in the given range.

    The one check of the public API's real arguments, beside _integer:
    a bool would pass as 0 or 1, and a nan fails every comparison, so
    both are refused, as are infinities and non-numbers, with a message
    that names the argument.  Python and numpy integers and floats pass.
    """
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:           # an int beyond the float range
        x = math.inf
    ok, need = math.isfinite(x), ["finite"]
    for bound, words, holds in ((at_least, "at least", operator.ge),
                                (above, "above", operator.gt),
                                (at_most, "at most", operator.le)):
        if bound is not None:
            ok = ok and holds(x, bound)
            need.append(f"{words} {bound}")
    if not ok:
        *rest, last = need
        raise ValueError(f"{name} must be {', '.join(rest)}"
                         f"{' and ' if rest else ''}{last}, got {x!r}")
    return x


# -- the coefficient layout: n = -band..band on the last axis of an array ----
#
# The operators below act on every row of a coefficient matrix at once.
# The FourierCoeffs operators further down wrap them, and the array layer
# (observables, flow, sampling) calls them directly.  They stay out of
# __all__, so the span tracer (perfbench/tracer.py) wraps none of them
# and the RK4 loop records no spans.


def _band(a: np.ndarray) -> int:
    """Band of a coefficient axis of width 2*band + 1.

    An even width is no band's, and is refused.
    """
    width = a.shape[-1]
    if width % 2 == 0:
        raise ValueError(f"a coefficient axis of width {width} has no band")
    return (width - 1) // 2


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


def _nodes(degree: int) -> np.ndarray:
    """The degree + 1 equispaced nodes x_j = 2pi j / (degree + 1) on [0, 2pi).

    The node mean of e^{ikx} is exactly [k == 0] for |k| <= degree, so
    the plain node mean integrates every trigonometric polynomial of the
    given degree exactly.  The one quadrature rule of the package: each
    integral derives its degree from the bands of its fields.
    """
    size = degree + 1
    return 2.0 * np.pi * np.arange(size) / size


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
        band = _integer("band", band, 0)
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
        return cls.from_pairs({}, band)

    @classmethod
    def from_pairs(cls, pairs, band: int | None = None) -> "FourierCoeffs":
        """Build from {mode: coefficient} with zeros elsewhere."""
        pairs = {_integer("mode", n): v for n, v in dict(pairs).items()}
        if band is None:
            band = max(map(abs, pairs), default=0)
        band = _integer("band", band, 0)
        c = np.zeros(2 * band + 1, dtype=np.complex128)
        for n, v in pairs.items():
            if abs(n) > band:
                raise ValueError(f"mode {n} outside band {band}")
            c[n + band] = v
        return cls(band, c)

    # -- accessors -------------------------------------------------------

    def coeff(self, n: int) -> complex:
        """Coefficient c_n, zero outside the band."""
        n = _integer("n", n)
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

    def __repr__(self):
        nz = {int(n): complex(c)
              for n, c in zip(self.modes(), self.coeffs) if c != 0}
        return f"FourierCoeffs(band={self.band}, nonzero={nz})"


# -- operators -------------------------------------------------------------


def project(u: FourierCoeffs, M: int) -> FourierCoeffs:
    """Truncation Pi_M: keep modes |n| <= M, drop the rest; result has band M."""
    M = _integer("M", M, 0)
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


def lp_norm(u: FourierCoeffs, p) -> float:
    """L^p norm under the normalized measure, for even p >= 2.

    |u|^p is then a trigonometric polynomial of degree p * band, which
    the node mean on p * band + 1 nodes integrates exactly.  Any other p
    is refused: its norm would be only as close as some grid is dense.
    """
    p = _real("p", p, at_least=2)
    if p % 2:
        raise ValueError(f"p must be an even number, got {p!r}")
    vals = np.abs(u.evaluate(_nodes(round(p) * u.band)))
    return float(np.mean(vals ** p) ** (1.0 / p))
