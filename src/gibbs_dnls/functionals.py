"""Conserved quantities and the cutoff Gibbs density for derivative NLS.

Everything here is a plain function of a truncated Fourier series.  The
measure-side objects (the quartic functional f, the density G) and the
flow-side objects (mass, momentum, energy, the gauge phase rate) live
together because the tests constantly play them against each other.
mass, density_G and the kinetic term of energy call the observables
kernels on one row; chi is re-exported from there.
"""

from __future__ import annotations

import numpy as np

from .observables import (
    batch_density_G,
    batch_h1_seminorm_sq,
    batch_mass,
    chi,
)
from .spectral import (
    FourierCoeffs,
    QuadratureGrid,
    _integer,
    derivative,
    inner_product_hermitian,
    lp_norm,
    multiply,
    project,
)

__all__ = [
    "mass",
    "momentum",
    "f_quartic",
    "f_quadrature_oracle",
    "energy",
    "chi",
    "density_G",
    "gauge_F",
    "hamiltonian_H2",
]


def mass(u: FourierCoeffs) -> float:
    """L^2 norm by Parseval: sqrt(sum |c_n|^2)."""
    return float(batch_mass(u.coeffs[None, :])[0])


def momentum(u: FourierCoeffs, grid: QuadratureGrid) -> float:
    """P(u) = 1/2 int |u|^4 - Im int conj(u) du/dx.

    The quartic part is a grid mean (grid must resolve degree 4*band);
    the derivative part is exact on the Fourier side.
    """
    quartic = lp_norm(u, 4, grid) ** 4
    # int conj(u) u' = <u', u>; its imaginary part is the momentum term
    deriv_term = inner_product_hermitian(derivative(u), u).imag
    return 0.5 * quartic - deriv_term


def f_quartic(u: FourierCoeffs, N: int) -> float:
    """Im int conj(w) dw/dx for w = (Pi_N u)^2, in closed spectral form.

    With w = sum w_k e^{ikx}, the integral picks the diagonal:
    int conj(w) w' = sum_k conj(w_k) (ik w_k) = i sum_k k |w_k|^2,
    so the imaginary part is exactly sum_k k |w_k|^2.
    """
    N = _integer("N", N, 0)
    uN = project(u, N)
    w = multiply(uN, uN).coeffs
    k = np.arange(-2 * N, 2 * N + 1, dtype=np.float64)
    return float(np.sum(k * (w.real ** 2 + w.imag ** 2)))


def f_quadrature_oracle(u: FourierCoeffs, N: int, grid: QuadratureGrid) -> float:
    """Same functional through pointwise evaluation and node averaging.

    Squares u_N on the nodes (never as a convolution) and forms the
    derivative of the square as 2 u_N u_N', so the only shared machinery
    with f_quartic is the coefficient-to-point transform.  Exact when
    the grid resolves degree 4N.
    """
    uN = project(u, _integer("N", N, 0))
    vals = uN.evaluate(grid.nodes)
    dvals = derivative(uN).evaluate(grid.nodes)
    w = vals * vals
    dw = 2.0 * vals * dvals
    return float(np.mean(np.conj(w) * dw).imag)


def energy(u: FourierCoeffs, grid: QuadratureGrid) -> float:
    """H(u) = int |u'|^2 - (3/4) f(u) + 1/2 int |u|^6.

    Kinetic term by Parseval, quartic term in spectral closed form at
    the field's own band, sextic term by grid mean (needs degree 6*band).
    """
    kinetic = float(batch_h1_seminorm_sq(u.coeffs[None, :])[0])
    sextic = lp_norm(u, 6, grid) ** 6
    return kinetic - 0.75 * f_quartic(u, u.band) + 0.5 * sextic


def density_G(u: FourierCoeffs, kappa: float) -> float:
    """Cutoff Gibbs density of u at its own band and cutoff radius kappa:
    batch_density_G on one row."""
    return float(batch_density_G(u.coeffs[None, :], kappa)[0])


def gauge_F(u: FourierCoeffs, grid: QuadratureGrid) -> float:
    """F(u) = 2 Im int u d(conj u)/dx + (3/2) int |u|^4.

    The phase rate of the gauge change that removes the first-order
    term from the evolution; constant along the flow it is paired with.
    """
    quartic = lp_norm(u, 4, grid) ** 4
    # int u conj(u') = <u, u'>
    deriv_term = inner_product_hermitian(u, derivative(u)).imag
    return 2.0 * deriv_term + 1.5 * quartic


def hamiltonian_H2(u: FourierCoeffs, v: FourierCoeffs,
                   grid: QuadratureGrid) -> complex:
    """Two-field Hamiltonian int u'v' + (3/4) i int v^2 (u^2)' + 1/2 int u^3 v^3.

    Complex for generic (u, v); real up to roundoff on the physical
    slice v = conjugate(u), where it reduces to energy(u).  Evaluated
    entirely on the grid, which must resolve degree 6*max(band).
    """
    deg = 6 * max(u.band, v.band)
    if grid.size <= deg:
        raise ValueError(
            f"grid with {grid.size} nodes cannot integrate degree {deg} exactly"
        )
    x = grid.nodes
    U = u.evaluate(x)
    V = v.evaluate(x)
    dU = derivative(u).evaluate(x)
    dV = derivative(v).evaluate(x)
    term1 = np.mean(dU * dV)
    term2 = 0.75j * np.mean(V * V * 2.0 * U * dU)
    term3 = 0.5 * np.mean(U ** 3 * V ** 3)
    return complex(term1 + term2 + term3)
