import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings, strategies as st

from gnlab.bessel import bessel_k


def test_reference_value_k0_of_one():
    assert bessel_k(0, 1.0) == pytest.approx(0.421024438240708, abs=1e-14)


@pytest.mark.parametrize("order", [0, 2])
def test_library_oracle_grid(order):
    reference = scipy.special.k0 if order == 0 else (lambda z: scipy.special.kn(2, z))
    for z in np.concatenate([
        np.geomspace(1e-8, 1.0, 33),
        np.linspace(1.0, 40.0, 60),
        np.geomspace(40.0, 700.0, 25),
    ]):
        mine = bessel_k(order, float(z))
        ref = float(reference(z))
        if ref == 0.0:
            continue
        assert abs(mine - ref) / abs(ref) < 1e-12, f"z={z}"


@pytest.mark.parametrize("order,z", [(0, 0.7), (0, 18.0), (2, 2.5), (2, 25.0)])
def test_integral_representation_oracle(order, z):
    """K_nu(z) = integral_0^inf exp(-z cosh t) cosh(nu t) dt."""
    value, _err = scipy.integrate.quad(
        lambda t: math.exp(-z * math.cosh(t)) * math.cosh(order * t),
        0, 30, limit=400, epsabs=1e-18, epsrel=1e-13,
    )
    assert bessel_k(order, z) == pytest.approx(value, rel=1e-10)


def test_paper_asymptotic_form_term_by_term():
    """K0(z) e^z sqrt(2z/pi) == 1 - 1/8z + 9/128z^2 + O(z^-3) for large z."""
    for z in (20.0, 30.0, 60.0):
        scaled = bessel_k(0, z) * math.exp(z) * math.sqrt(2 * z / math.pi)
        three_terms = 1.0 - 1.0 / (8 * z) + 9.0 / (128 * z**2)
        assert abs(scaled - three_terms) < 2.0 / z**3


def test_small_z_logarithmic_divergence():
    values = [bessel_k(0, z) for z in (1e-2, 1e-4, 1e-6, 1e-8)]
    assert all(np.isfinite(values))
    assert all(b > a for a, b in zip(values, values[1:]))


def test_k2_small_z_leading_power():
    for z in (1e-4, 1e-3):
        assert bessel_k(2, z) == pytest.approx(2.0 / z**2, rel=1e-3)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bessel_k(1, 1.0)
    with pytest.raises(ValueError):
        bessel_k(0, 0.0)
    with pytest.raises(ValueError):
        bessel_k(2, -3.0)


@pytest.mark.parametrize("bad", [0.0, -1e-3, float("nan")])
def test_rejects_array_with_one_non_positive_element(bad):
    z = np.array([0.5, 2.0, bad, 30.0])
    for order in (0, 2):
        with pytest.raises(ValueError):
            bessel_k(order, z)


@pytest.mark.parametrize("shape", [(7,), (3, 4), (1, 1)])
def test_array_argument_matches_scalar_calls(shape):
    z = np.geomspace(1e-4, 650.0, int(np.prod(shape))).reshape(shape)
    for order in (0, 2):
        values = bessel_k(order, z)
        assert isinstance(values, np.ndarray)
        assert values.shape == shape
        for idx in np.ndindex(shape):
            scalar = bessel_k(order, float(z[idx]))
            assert type(scalar) is float
            assert values[idx] == scalar


def test_huge_argument_underflows_to_zero():
    assert bessel_k(0, 800.0) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-5, max_value=500.0, allow_nan=False))
def test_positive_and_decreasing_property(z):
    value = bessel_k(0, z)
    assert value >= 0.0
    assert bessel_k(0, z * 1.5) <= value
