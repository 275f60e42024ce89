import numpy as np
import pytest

import outerbilliard as ob
from outerbilliard.quadrature import TWO_PI, uniform_angles

from oracles import reorigin


def radial(curve, n=2048):
    """(r, r', r'') on n uniform angles: the sample that q_integral,
    total_curvature, i_closed, i_numeric and area_and_dual take."""
    return curve.radius(uniform_angles(n))


def tangent(curve, phi):
    """gamma'(phi) = r' e_phi + r e_phi_perp, as (tx, ty), from one radius call."""
    phi = np.asarray(phi, dtype=float)
    c, s = np.cos(phi), np.sin(phi)
    r, r1, _ = curve.radius(phi, cs=(c, s))
    return r1 * c - r * s, r1 * s + r * c


@pytest.fixture(scope="session")
def unit_circle():
    return ob.require_valid(ob.circle(1.0))


@pytest.fixture(scope="session")
def ellipse21():
    return ob.require_valid(ob.ellipse(2.0, 1.0))


@pytest.fixture(scope="session")
def wobbly3():
    """r = 1 + 0.05 cos(3 phi): strictly convex, three-fold symmetric, not an ellipse."""
    return ob.require_valid(ob.fourier(1.0, cos=[0.0, 0.0, 0.05]))


@pytest.fixture(scope="session")
def egg():
    """r = 1 + 0.25 cos(phi): no symmetry pins its Santalo point to the origin."""
    return ob.require_valid(ob.fourier(1.0, cos=[0.25]))


def _near_flat(k):
    """r = 1 + eps cos(k phi) with eps = 0.999/(k^2 + 1): at its flattest points
    chi = (1 - eps)(1 - (k^2 + 1) eps) is about 1e-3, yet k-fold symmetry pins
    its Santalo point at the origin."""
    return ob.require_valid(ob.fourier(1.0, cos=[0.0] * (k - 1) + [0.999 / (k * k + 1)]))


@pytest.fixture(scope="session")
def near_flat3():
    return _near_flat(3)


@pytest.fixture(scope="session")
def near_flat5():
    return _near_flat(5)


@pytest.fixture(scope="session")
def presets(unit_circle, ellipse21, wobbly3):
    return {"circle": unit_circle, "ellipse": ellipse21, "fourier": wobbly3}


@pytest.fixture(scope="session")
def fourier8():
    """8 harmonics with seeded phases; the first moves the Santalo point off
    the radial origin."""
    rng = np.random.default_rng(7)
    amps = np.array([0.06] + [0.08 / k ** 2 for k in range(2, 9)])
    phases = rng.uniform(0.0, TWO_PI, 8)
    return ob.require_valid(ob.fourier(1.0, cos=amps * np.cos(phases),
                                       sin=amps * np.sin(phases)))


@pytest.fixture(scope="session")
def fourier8_off_centre(fourier8):
    """fourier8's radial function about the origin (0.3, -0.2) of the plane."""
    return ob.require_valid(ob.fourier(fourier8.a0, fourier8.cos_coeffs, fourier8.sin_coeffs,
                                       origin=(0.3, -0.2)))


@pytest.fixture(scope="session")
def fourier8_refit(fourier8):
    """fourier8 refit about its Santalo point (35 harmonics)."""
    return reorigin(fourier8, ob.santalo_point(fourier8))
