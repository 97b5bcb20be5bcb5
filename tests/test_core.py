"""Domain types and kinematics."""
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from planesphere.core import Geometry
from planesphere.reflection import _p_diff


def test_geometry_validation():
    with pytest.raises(ValueError):
        Geometry(R=-1.0, L=1.0)
    with pytest.raises(ValueError):
        Geometry(R=1.0, L=0.0)
    with pytest.raises(ValueError):
        Geometry(R=math.inf, L=1.0)
    assert Geometry(R=5.0, L=2.0).aspect_ratio == 2.5


@given(
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_cos_theta_branch(xi, k_in, k_out, dphi):
    # cos(Theta) = -1 - p_diff/xi^2 <= -1 and sin(Theta/2) >= 1, with
    # p_diff = P - xi^2 from reflection._p_diff
    p_diff = _p_diff(xi, k_in, k_out, math.hypot(xi, k_in), math.hypot(xi, k_out), dphi)
    z = -1.0 - p_diff / xi**2
    assert z <= -1.0 + 1e-9
    assert math.sqrt(0.5 * (1.0 - z)) >= 1.0 - 1e-9


def test_cos_theta_specular_identity():
    # at the specular point (k_in = k_out, dphi = 0) xi sin(Theta/2) = kappa,
    # i.e. (2 xi^2 + p_diff)/2 = kappa^2
    xi, k = 0.8, 1.7
    kappa = math.hypot(xi, k)
    p_diff = _p_diff(xi, k, k, kappa, kappa, 0.0)
    assert 0.5 * (2.0 * xi**2 + p_diff) == pytest.approx(kappa**2, rel=1e-14)
