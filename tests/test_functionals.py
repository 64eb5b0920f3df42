"""Closed-form and invariance tests for the conserved functionals."""

import math

import numpy as np
import pytest

from gibbs_dnls.spectral import FourierCoeffs, conjugate, project
from gibbs_dnls.functionals import (
    chi,
    density_G,
    energy,
    f_quadrature_oracle,
    f_quartic,
    gauge_F,
    hamiltonian_H2,
    mass,
    momentum,
)
from gibbs_dnls.sampling import SeedSpec, sample_phi

E1 = FourierCoeffs.from_pairs({1: 1.0})
EM1 = FourierCoeffs.from_pairs({-1: 1.0})
ONE = FourierCoeffs.from_pairs({0: 1.0})


def reflect(u):
    """u(-x): coefficient order reversed."""
    return FourierCoeffs(u.band, u.coeffs[::-1].copy())


def test_mass():
    assert mass(E1) == 1.0
    assert mass(FourierCoeffs.from_pairs({0: 3.0, 4: 4.0})) == 5.0


def test_f_quartic_closed_forms():
    # w = u^2 has single mode 2 with weight 1: f = 2
    assert f_quartic(E1, 1) == pytest.approx(2.0)
    # (1+e^{ix})^2 = 1 + 2 e^{ix} + e^{2ix}: f = 0 + 4 + 2 = 6
    u = FourierCoeffs.from_pairs({0: 1.0, 1: 1.0})
    assert f_quartic(u, 1) == pytest.approx(6.0)
    # symmetric data: k-weighted spectrum cancels
    sym = FourierCoeffs.from_pairs({-1: 1.0, 1: 1.0})
    assert f_quartic(sym, 1) == pytest.approx(0.0)
    # constants carry no derivative
    assert f_quartic(ONE, 0) == 0.0


def test_f_quartic_truncates_first():
    u = FourierCoeffs.from_pairs({1: 1.0, 5: 10.0})
    assert f_quartic(u, 1) == pytest.approx(f_quartic(project(u, 1), 1))


def test_f_oracle_agreement():
    worst = 0.0
    for s in range(20):
        u = sample_phi(8, SeedSpec(300 + s, 0))
        a = f_quartic(u, 8)
        b = f_quadrature_oracle(u, 8)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    assert worst <= 1e-11


def test_f_symmetries():
    u = sample_phi(6, SeedSpec(41, 0))
    f = f_quartic(u, 6)
    # constant phase leaves f unchanged
    assert f_quartic(u.scale(np.exp(0.7j)), 6) == pytest.approx(f)
    # conjugation flips the sign, reflection flips the sign,
    # their composition restores it
    assert f_quartic(conjugate(u), 6) == pytest.approx(-f)
    assert f_quartic(reflect(u), 6) == pytest.approx(-f)
    conj_in_place = FourierCoeffs(u.band, np.conj(u.coeffs))
    assert f_quartic(conj_in_place, 6) == pytest.approx(f)


def test_momentum_closed_forms():
    assert momentum(E1) == pytest.approx(-0.5)
    c0 = FourierCoeffs.from_pairs({0: 0.7})
    assert momentum(c0) == pytest.approx(0.5 * 0.7 ** 4)
    u = sample_phi(4, SeedSpec(42, 0))
    assert momentum(u.scale(np.exp(1.1j))) == pytest.approx(momentum(u))


def test_energy_closed_forms():
    # for e^{ix}: |u'|^2 = 1, f = 2, |u|^6 = 1 -> 1 - 3/2 + 1/2 = 0
    assert energy(E1) == pytest.approx(0.0, abs=1e-14)
    c0 = FourierCoeffs.from_pairs({0: 0.7})
    assert energy(c0) == pytest.approx(0.5 * 0.7 ** 6)


def test_chi_linear():
    assert chi(0.2, 1.0) == 1.0
    assert chi(0.5, 1.0) == 1.0
    assert chi(0.75, 1.0) == pytest.approx(0.5)
    assert chi(1.0, 1.0) == 0.0
    assert chi(2.0, 1.0) == 0.0


def test_chi_refuses_a_non_positive_kappa():
    for kappa in (0.0, -1.0):
        with pytest.raises(ValueError, match="^kappa must be finite and "
                                             f"above 0, got {kappa}$"):
            chi(0.5, kappa)


def test_density_refuses_a_non_finite_kappa():
    # an infinite cutoff took every field into the ball: density_G read
    # 1.00015 at E1 / 10
    for kappa in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^kappa must be finite"):
            density_G(E1.scale(0.1), kappa)


def test_density_value():
    kappa = 1.0
    u = E1.scale(0.1)
    want = np.exp(0.75 * f_quartic(u, 1) - 0.5 * 0.1 ** 6)
    assert density_G(u, kappa) == pytest.approx(want)
    assert density_G(u, kappa) == pytest.approx(1.000149511175682)


def test_density_zero_without_exp():
    # mass far beyond the cutoff: the exponent would overflow if evaluated
    kappa = 1.0
    u = FourierCoeffs.from_pairs({15: 40.0, 16: 40.0})
    assert density_G(u, kappa) == 0.0


def test_density_overflow_diagnostic():
    # inside the cutoff but with a huge quartic term
    kappa = 10.0
    a = np.sqrt(9.6)
    u = FourierCoeffs.from_pairs({15: a, 16: a})
    with pytest.raises(OverflowError, match="exponent"):
        density_G(u, kappa)


def test_gauge_F_closed_forms():
    assert gauge_F(E1) == pytest.approx(-0.5)
    assert gauge_F(ONE) == pytest.approx(1.5)
    u = sample_phi(4, SeedSpec(43, 0))
    assert gauge_F(u.scale(np.exp(0.3j))) == pytest.approx(gauge_F(u))


def test_h2_zero_example():
    assert hamiltonian_H2(E1, EM1) == pytest.approx(0.0, abs=1e-14)


def test_h2_matches_energy():
    for s in range(10):
        u = sample_phi(4, SeedSpec(500 + s, 0))
        h2 = hamiltonian_H2(u, conjugate(u))
        scale = max(1.0, abs(h2))
        assert abs(h2.imag) <= 1e-11 * scale
        assert abs(h2.real - energy(u)) <= 1e-10 * scale
