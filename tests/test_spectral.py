"""Exactness tests for coefficient arithmetic and quadrature."""

import numpy as np
import pytest

from gibbs_dnls import spectral
from gibbs_dnls.spectral import (
    FourierCoeffs,
    _nodes,
    antiderivative,
    conjugate,
    derivative,
    inner_product_hermitian,
    lp_norm,
    multiply,
    pairing_bilinear,
    project,
)

E1 = FourierCoeffs.from_pairs({1: 1.0})
EM1 = FourierCoeffs.from_pairs({-1: 1.0})
ONE = FourierCoeffs.from_pairs({0: 1.0})


def random_field(rng, band, scale=1.0):
    c = scale * (rng.standard_normal(2 * band + 1)
                 + 1j * rng.standard_normal(2 * band + 1))
    return FourierCoeffs(band, c)


_ROW_OPERATORS = {
    "derivative": (spectral._derivative, derivative),
    "antiderivative": (spectral._antiderivative, antiderivative),
    "conjugate": (spectral._conjugate, conjugate),
    "project_down": (lambda a: spectral._project(a, 2), lambda u: project(u, 2)),
    "project_up": (lambda a: spectral._project(a, 7), lambda u: project(u, 7)),
}


@pytest.mark.parametrize("name", _ROW_OPERATORS)
def test_array_operator_matches_fourier_coeffs(name, rng):
    on_array, on_coeffs = _ROW_OPERATORS[name]
    a = rng.standard_normal((6, 11)) + 1j * rng.standard_normal((6, 11))
    got = on_array(a)
    for out, c in zip(got, a):
        assert np.array_equal(out, on_coeffs(FourierCoeffs(5, c)).coeffs)


def test_array_evaluate_matches_fourier_coeffs(rng):
    a = rng.standard_normal((6, 11)) + 1j * rng.standard_normal((6, 11))
    x = np.array([0.0, 0.9, 2.2, 5.1])
    got = spectral._evaluate(a, x)
    for out, c in zip(got, a):
        want = FourierCoeffs(5, c).evaluate(x)
        # sum |c_n| bounds every value
        assert np.max(np.abs(out - want)) <= 1e-13 * np.sum(np.abs(c))


def test_zero_and_shape():
    z = FourierCoeffs.zero(3)
    assert z.band == 3
    assert z.coeffs.shape == (7,)
    assert np.all(z.coeffs == 0)


def test_from_pairs_and_coeff_access():
    u = FourierCoeffs.from_pairs({-2: 1j, 0: 2.0, 2: -1.0})
    assert u.band == 2
    assert u.coeff(-2) == 1j
    assert u.coeff(0) == 2.0
    assert u.coeff(2) == -1.0
    assert u.coeff(5) == 0  # outside the band


def test_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        FourierCoeffs(2, np.zeros(4, dtype=complex))  # wrong length
    with pytest.raises(ValueError):
        FourierCoeffs(1, np.array([1.0, np.nan, 0.0], dtype=complex))


def test_immutable():
    u = FourierCoeffs.zero(1)
    with pytest.raises(AttributeError):
        u.band = 2
    with pytest.raises(ValueError):
        u.coeffs[0] = 1.0


def test_evaluate_known_points():
    assert E1.evaluate(np.array([0.0]))[0] == pytest.approx(1.0)
    assert E1.evaluate(np.array([np.pi]))[0] == pytest.approx(-1.0)
    u = FourierCoeffs.from_pairs({0: 1.0, 1: 1.0})
    # 1 + e^{ix} at x = pi/2 is 1 + i
    val = u.evaluate(np.array([np.pi / 2]))[0]
    assert val == pytest.approx(1.0 + 1.0j)


def test_add_sub_scale_union_band():
    s = E1 + FourierCoeffs.from_pairs({3: 2.0})
    assert s.band == 3
    assert s.coeff(1) == 1.0 and s.coeff(3) == 2.0
    d = s - s
    assert np.all(d.coeffs == 0)
    assert (E1.scale(2.0)).coeff(1) == 2.0


def test_equality_ignores_padding():
    wide = project(E1, 5)
    assert wide == E1
    assert wide != EM1


def test_project_pad_and_crop():
    u = FourierCoeffs.from_pairs({-2: 1.0, 2: 3.0})
    crop = project(u, 1)
    assert crop.band == 1
    assert np.all(crop.coeffs == 0)
    pad = project(u, 4)
    assert pad.band == 4
    assert pad.coeff(2) == 3.0
    assert project(pad, 2) == u  # idempotent round trip


def test_projection_self_adjoint(rng):
    u = random_field(rng, 6)
    v = random_field(rng, 6)
    lhs = inner_product_hermitian(project(u, 3), v)
    rhs = inner_product_hermitian(u, project(v, 3))
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_derivative_and_antiderivative():
    assert derivative(E1).coeff(1) == 1j
    assert np.all(derivative(ONE).coeffs == 0)
    # mean-zero antiderivative of e^{ix} is -i e^{ix}
    assert antiderivative(E1).coeff(1) == -1j
    assert np.all(antiderivative(ONE).coeffs == 0)


def test_antiderivative_inverts_derivative(rng):
    u = random_field(rng, 5)
    back = antiderivative(derivative(u))
    want = u.coeffs.copy()
    want[u.band] = 0.0
    assert np.max(np.abs(back.coeffs - want)) <= 1e-14


def test_multiply_known_products():
    sq = multiply(E1, E1)
    assert sq.band == 2
    assert sq.coeff(2) == 1.0
    u = FourierCoeffs.from_pairs({0: 1.0, 1: 1.0})
    usq = multiply(u, u)
    assert usq.coeff(0) == 1.0
    assert usq.coeff(1) == 2.0
    assert usq.coeff(2) == 1.0


def test_multiply_matches_grid(rng):
    u = random_field(rng, 4)
    v = random_field(rng, 3)
    w = multiply(u, v)
    x = _nodes(63)
    gap = np.max(np.abs(w.evaluate(x) - u.evaluate(x) * v.evaluate(x)))
    assert gap <= 1e-12


def test_conjugate():
    u = FourierCoeffs.from_pairs({1: 2.0 + 1j})
    cu = conjugate(u)
    assert cu.coeff(-1) == 2.0 - 1j
    assert cu.coeff(1) == 0
    x = np.array([0.3, 1.7])
    assert np.allclose(cu.evaluate(x), np.conj(u.evaluate(x)))


def test_inner_product_and_pairing():
    assert inner_product_hermitian(E1, E1) == 1.0
    assert inner_product_hermitian(E1, EM1) == 0.0
    # bilinear pairing sums f_n g_{-n}: e^{ix} pairs with e^{-ix}
    assert pairing_bilinear(E1, EM1) == 1.0
    assert pairing_bilinear(E1, E1) == 0.0


def test_lp_norms():
    assert lp_norm(E1, 2) == pytest.approx(1.0)
    # |e^{ix}| = 1 so every L^p norm is 1
    assert lp_norm(E1, 4) == pytest.approx(1.0)
    # |1+e^{ix}|^4 integrates to 6 under the normalized measure
    u = FourierCoeffs.from_pairs({0: 1.0, 1: 1.0})
    assert lp_norm(u, 4) == pytest.approx(6.0 ** 0.25)


def test_lp_norm_refuses_a_nan_p():
    # nan passed the p >= 1 check and then failed in int(p)
    with pytest.raises(ValueError, match="^p must be finite and at least 2, "
                                         "got nan$"):
        lp_norm(E1, float("nan"))


def test_lp_norm_exactness_guard():
    # only an even p has a polynomial |u|^p, which the nodes integrate
    # exactly; any other p is refused
    with pytest.raises(ValueError, match="^p must be finite and at least 2"):
        lp_norm(E1, 0.5)
    for p in (3, 2.5, 5.0):
        with pytest.raises(ValueError, match=f"^p must be an even number, "
                                             f"got {float(p)!r}$"):
            lp_norm(E1, p)


def _integral(u):
    return FourierCoeffs.from_pairs({0: u.coeff(0)})


def test_antiderivative_swap_identity(rng):
    # moving d^2 across the antiderivative only costs boundary-free
    # commutators: D(u v'') - D(v u'') - (u v' - v u') + avg(u v' - v u') = 0
    for _ in range(10):
        u = random_field(rng, 5)
        v = random_field(rng, 5)
        expr = (
            antiderivative(multiply(u, derivative(derivative(v))))
            - antiderivative(multiply(v, derivative(derivative(u))))
            - (multiply(u, derivative(v)) - multiply(v, derivative(u)))
            + _integral(multiply(u, derivative(v)) - multiply(v, derivative(u)))
        )
        scale = max(np.max(np.abs(u.coeffs)), np.max(np.abs(v.coeffs))) ** 2
        assert np.max(np.abs(expr.coeffs)) <= 1e-11 * max(1.0, scale)


def test_antiderivative_square_identity(rng):
    # same mechanism for squares: D(u^2 (v^2)') + D(v^2 (u^2)') = u^2 v^2 - avg
    for _ in range(10):
        u = random_field(rng, 5)
        v = random_field(rng, 5)
        u2 = multiply(u, u)
        v2 = multiply(v, v)
        expr = (
            antiderivative(multiply(u2, derivative(v2)))
            + antiderivative(multiply(v2, derivative(u2)))
            - multiply(u2, v2)
            + _integral(multiply(u2, v2))
        )
        scale = max(np.max(np.abs(u.coeffs)), np.max(np.abs(v.coeffs))) ** 4
        assert np.max(np.abs(expr.coeffs)) <= 1e-11 * max(1.0, scale)


def test_grid_sizes():
    assert len(_nodes(4)) == 5
    # trapezoid-free exactness: mean of e^{ix} over 3 nodes is 0
    vals = E1.evaluate(_nodes(2))
    assert abs(np.mean(vals)) <= 1e-15
    # degree d + 1 is the first mode the d + 1 nodes alias onto 1
    x = _nodes(6)
    for k in range(-6, 7):
        assert abs(np.mean(np.exp(1j * k * x)) - (k == 0)) <= 1e-15
    assert np.mean(np.exp(7j * x)) == pytest.approx(1.0)
