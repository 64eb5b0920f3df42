"""Conserved quantities and the cutoff Gibbs density for derivative NLS.

Everything here is a plain function of a truncated Fourier series.  The
measure-side objects (the quartic functional f, the density G) and the
flow-side objects (mass, momentum, energy, the gauge phase rate) live
together because the tests constantly play them against each other.
mass, density_G and the kinetic term of energy call the observables
kernels on one row; chi is re-exported from there.  Every integral that
is a node mean takes the nodes its integrand's degree needs from the
fields' bands (spectral._nodes), so no caller chooses a grid.
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
    _integer,
    _nodes,
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


def momentum(u: FourierCoeffs) -> float:
    """P(u) = 1/2 int |u|^4 - Im int conj(u) du/dx.

    The quartic part is a node mean on 4*band + 1 nodes (lp_norm); the
    derivative part is exact on the Fourier side.
    """
    quartic = lp_norm(u, 4) ** 4
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


def f_quadrature_oracle(u: FourierCoeffs, N: int) -> float:
    """Same functional through pointwise evaluation and node averaging.

    Squares u_N on the nodes (never as a convolution) and forms the
    derivative of the square as 2 u_N u_N', so the only shared machinery
    with f_quartic is the coefficient-to-point transform.  The integrand
    has degree 4N, and its mean over 4N + 1 nodes is exact.
    """
    N = _integer("N", N, 0)
    uN = project(u, N)
    x = _nodes(4 * N)
    vals = uN.evaluate(x)
    dvals = derivative(uN).evaluate(x)
    w = vals * vals
    dw = 2.0 * vals * dvals
    return float(np.mean(np.conj(w) * dw).imag)


def energy(u: FourierCoeffs) -> float:
    """H(u) = int |u'|^2 - (3/4) f(u) + 1/2 int |u|^6.

    Kinetic term by Parseval, quartic term in spectral closed form at
    the field's own band, sextic term by the node mean on 6*band + 1
    nodes (lp_norm).
    """
    kinetic = float(batch_h1_seminorm_sq(u.coeffs[None, :])[0])
    sextic = lp_norm(u, 6) ** 6
    return kinetic - 0.75 * f_quartic(u, u.band) + 0.5 * sextic


def density_G(u: FourierCoeffs, kappa: float) -> float:
    """Cutoff Gibbs density of u at its own band and cutoff radius kappa:
    batch_density_G on one row."""
    return float(batch_density_G(u.coeffs[None, :], kappa)[0])


def gauge_F(u: FourierCoeffs) -> float:
    """F(u) = 2 Im int u d(conj u)/dx + (3/2) int |u|^4.

    The phase rate of the gauge change that removes the first-order
    term from the evolution; constant along the flow it is paired with.
    The quartic part is a node mean on 4*band + 1 nodes (lp_norm).
    """
    quartic = lp_norm(u, 4) ** 4
    # int u conj(u') = <u, u'>
    deriv_term = inner_product_hermitian(u, derivative(u)).imag
    return 2.0 * deriv_term + 1.5 * quartic


def hamiltonian_H2(u: FourierCoeffs, v: FourierCoeffs) -> complex:
    """Two-field Hamiltonian int u'v' + (3/4) i int v^2 (u^2)' + 1/2 int u^3 v^3.

    Complex for generic (u, v); real up to roundoff on the physical
    slice v = conjugate(u), where it reduces to energy(u).  Evaluated
    entirely as node means on 6*max(band) + 1 nodes, which integrate its
    degree-6*max(band) integrands exactly.
    """
    x = _nodes(6 * max(u.band, v.band))
    U = u.evaluate(x)
    V = v.evaluate(x)
    dU = derivative(u).evaluate(x)
    dV = derivative(v).evaluate(x)
    term1 = np.mean(dU * dV)
    term2 = 0.75j * np.mean(V * V * 2.0 * U * dU)
    term3 = 0.5 * np.mean(U ** 3 * V ** 3)
    return complex(term1 + term2 + term3)
