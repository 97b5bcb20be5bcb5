"""Domain types and kinematics."""
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from planesphere.core import Geometry, SpectralPoint, kappa
from planesphere.reflection import _p_diff


def test_geometry_validation():
    with pytest.raises(ValueError):
        Geometry(R=-1.0, L=1.0)
    with pytest.raises(ValueError):
        Geometry(R=1.0, L=0.0)
    with pytest.raises(ValueError):
        Geometry(R=math.inf, L=1.0)
    assert Geometry(R=5.0, L=2.0).aspect_ratio == 2.5


def test_spectral_point_validation():
    with pytest.raises(ValueError):
        SpectralPoint(xi=-1.0, k=1.0)
    with pytest.raises(ValueError):
        SpectralPoint(xi=1.0, k=-1.0)
    pt = SpectralPoint(xi=3.0, k=4.0)
    assert pt.kappa == pytest.approx(5.0)


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=0.0, max_value=1e3),
)
def test_kappa_definition(xi, k):
    assert kappa(xi, k) == pytest.approx(math.hypot(xi, k))
    assert kappa(xi, k) >= max(xi, k)


@given(
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_cos_theta_branch(xi, k_in, k_out, dphi):
    # cos(Theta) = -1 - p_diff/xi^2 <= -1 and sin(Theta/2) >= 1, with
    # p_diff = P - xi^2 from reflection._p_diff
    a = SpectralPoint(xi=xi, k=k_in, phi_az=0.0)
    b = SpectralPoint(xi=xi, k=k_out, phi_az=dphi)
    p_diff = _p_diff(xi, a.k, b.k, a.kappa, b.kappa, dphi)
    z = -1.0 - p_diff / xi**2
    assert z <= -1.0 + 1e-9
    assert math.sqrt(0.5 * (1.0 - z)) >= 1.0 - 1e-9


def test_cos_theta_specular_identity():
    # at the specular point (k_in = k_out, dphi = 0) xi sin(Theta/2) = kappa,
    # i.e. (2 xi^2 + p_diff)/2 = kappa^2
    pt = SpectralPoint(xi=0.8, k=1.7)
    p_diff = _p_diff(pt.xi, pt.k, pt.k, pt.kappa, pt.kappa, 0.0)
    assert 0.5 * (2.0 * pt.xi**2 + p_diff) == pytest.approx(pt.kappa**2, rel=1e-14)
