"""Sphere reflection elements: rotation geometry, reciprocity, reductions."""
import cmath
import math

import numpy as np
import pytest

from planesphere.mie import ExactAmplitudes
from planesphere.reflection import (
    KernelKind,
    abcd_arrays,
    chi_components,
    round_trip_element,
    sphere_element,
)

CHANNELS = ("mm", "ee", "me", "em")  # (out, in): TM<-TM, TE<-TE, TM<-TE, TE<-TM


def element(xi: float, a: tuple, b: tuple, kind: KernelKind, R: float):
    """sphere_element for in=a -> out=b, channels given as (k, phi)."""
    return sphere_element(xi, a[0], b[0], b[1] - a[1], R, kind)


def reference_chi(xi, k_in, k_out, phi_i, phi_o):
    """Complex-vector construction of the polarization rotation factors.

    Channels carry wave vectors K = (k_vec, +-i kappa) with K.K = -xi^2;
    all dot products are bilinear (no conjugation) as appropriate on the
    imaginary-frequency branch.  The scattering-plane basis is

        eps_perp = (Khat_in x Khat_out) / sin(Theta),
        eps_par  = Khat x eps_perp,

    with sin(Theta) = -sqrt(1 - z^2) (principal cmath branch; the sign is
    the convention that makes the specular limit come out as chi = 0), and
    the Fresnel basis is eps_TE = zhat x khat, eps_TM = Khat x eps_TE.
    The rotation factors are the bilinear overlaps; they come out real.
    """
    ki = np.array([k_in * math.cos(phi_i), k_in * math.sin(phi_i),
                   1j * math.hypot(xi, k_in)])
    ko = np.array([k_out * math.cos(phi_o), k_out * math.sin(phi_o),
                   -1j * math.hypot(xi, k_out)])
    kh_i, kh_o = ki / (1j * xi), ko / (1j * xi)
    te_i = np.array([-math.sin(phi_i), math.cos(phi_i), 0.0])
    te_o = np.array([-math.sin(phi_o), math.cos(phi_o), 0.0])
    tm_i = np.cross(kh_i, te_i)
    tm_o = np.cross(kh_o, te_o)
    z = kh_i @ kh_o
    sin_theta = -cmath.sqrt(1.0 - z * z)
    eps_perp = np.cross(kh_i, kh_o) / sin_theta
    epar_i = np.cross(kh_i, eps_perp)
    epar_o = np.cross(kh_o, eps_perp)
    cos_in = epar_i @ tm_i
    cos_out = tm_o @ epar_o
    sin_in = eps_perp @ tm_i
    sin_out = tm_o @ eps_perp
    return cos_in, cos_out, sin_in, sin_out


def test_chi_components_match_vector_reference():
    rng = np.random.default_rng(42)
    for _ in range(300):
        xi = rng.uniform(0.2, 3.0)
        k_in, k_out = rng.uniform(0.01, 5.0, size=2)
        phi_i, phi_o = rng.uniform(-math.pi, math.pi, size=2)
        want = reference_chi(xi, k_in, k_out, phi_i, phi_o)
        got = chi_components(
            xi, np.float64(k_in), np.float64(k_out),
            np.hypot(xi, k_in), np.hypot(xi, k_out), np.float64(phi_o - phi_i)
        )
        for w, g in zip(want, got):
            assert abs(complex(w).imag) < 1e-10
            assert complex(w).real == pytest.approx(float(g), abs=1e-10)


def test_chi_pythagorean_identity():
    rng = np.random.default_rng(3)
    xi = rng.uniform(0.1, 2.0, size=200)
    k_in = rng.uniform(0.0, 8.0, size=200)
    k_out = rng.uniform(0.0, 8.0, size=200)
    dphi = rng.uniform(-math.pi, math.pi, size=200)
    ci, co, si, so = chi_components(
        xi, k_in, k_out, np.hypot(xi, k_in), np.hypot(xi, k_out), dphi
    )
    np.testing.assert_allclose(ci * ci + si * si, 1.0, atol=1e-11)
    np.testing.assert_allclose(co * co + so * so, 1.0, atol=1e-11)


def test_specular_and_backward_limits():
    ci, co, si, so = chi_components(1.0, 2.0, 2.0, math.sqrt(5), math.sqrt(5), 0.0)
    assert (ci, co, si, so) == (1.0, 1.0, 0.0, 0.0)
    ci, co, si, so = chi_components(
        1.0, 2.0, 2.0, math.sqrt(5), math.sqrt(5), math.pi
    )
    assert (float(ci), float(co), float(si), float(so)) == (0.0, 0.0, 1.0, 1.0)


def test_coplanar_channels_do_not_mix():
    # dphi = 0 with k_in != k_out: rotation is trivial, C = D = 0
    xi, k_a, k_b = 0.9, 0.7, 2.1
    kap_a, kap_b = math.hypot(xi, k_a), math.hypot(xi, k_b)
    A, B, C, D = abcd_arrays(xi, k_a, k_b, kap_a, kap_b, 0.0)
    assert C == pytest.approx(0.0, abs=1e-14)
    assert D == pytest.approx(0.0, abs=1e-14)
    assert A == pytest.approx(1.0, rel=1e-12)
    for kind in KernelKind:
        el = sphere_element(xi, k_a, k_b, 0.0, 2.0, kind)
        assert el.em / kap_b == pytest.approx(0.0, abs=1e-13)  # TE out <- TM in
        assert el.me / kap_b == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("kind", list(KernelKind))
def test_reciprocity(kind):
    """kappa-weighted elements: diagonal symmetric, mixed antisymmetric.

    kappa_b <b,p|R_S|a,p> = kappa_a <a,p|R_S|b,p> and
    kappa_b <b,TE|R_S|a,TM> = -kappa_a <a,TM|R_S|b,TE>.
    """
    rng = np.random.default_rng(11)
    R = 3.0
    for _ in range(40):
        xi = rng.uniform(0.3, 2.0)
        a = (rng.uniform(0.05, 4.0), rng.uniform(0, 2 * math.pi))
        b = (rng.uniform(0.05, 4.0), rng.uniform(0, 2 * math.pi))
        # sphere_element already carries the kappa_out of the element
        fwd = element(xi, a, b, kind, R)
        rev = element(xi, b, a, kind, R)
        shift = math.exp(fwd.log_scale - rev.log_scale)
        for channel in ("mm", "ee"):
            lhs = getattr(fwd, channel) * shift
            assert lhs == pytest.approx(getattr(rev, channel), rel=1e-10)
        # <b,TE|R_S|a,TM> against <a,TM|R_S|b,TE>
        if abs(fwd.em / math.hypot(xi, b[0])) > 1e-12:
            assert fwd.em * shift == pytest.approx(-rev.me, rel=1e-9)


def test_specular_element_reduces_to_amplitudes():
    xi, k, R = 1.1, 1.8, 2.5
    kappa = math.hypot(xi, k)
    z = -(kappa**2 + k * k) / xi**2
    mant_perp, mant_par, log_acc = ExactAmplitudes(xi, R)(np.array([z]))
    pref = 2.0 * math.pi / (xi * kappa)
    el = sphere_element(xi, k, k, 0.0, R, KernelKind.EXACT_MIE)
    log_mm = math.log(abs(el.mm / kappa)) + el.log_scale
    log_ee = math.log(abs(el.ee / kappa)) + el.log_scale
    assert log_mm == pytest.approx(
        math.log(pref) + math.log(abs(mant_par[0])) + log_acc[0], abs=1e-11
    )
    assert log_ee == pytest.approx(
        math.log(pref) + math.log(abs(mant_perp[0])) + log_acc[0], abs=1e-11
    )
    assert np.sign(el.mm) == np.sign(mant_par[0])
    assert np.sign(el.ee) == np.sign(mant_perp[0])


def test_wkb_element_exponent():
    # the log scale of the WKB element is 2 xi R sin(Theta/2), with
    # cos(Theta) = -(kappa_a kappa_b + k_a.k_b)/xi^2
    xi, (k_a, phi_a), (k_b, phi_b) = 0.7, (1.2, 0.3), (2.6, 1.4)
    el = element(xi, (k_a, phi_a), (k_b, phi_b), KernelKind.WKB0, 4.0)
    z = -(math.hypot(xi, k_a) * math.hypot(xi, k_b)
          + k_a * k_b * math.cos(phi_b - phi_a)) / 0.7**2
    assert el.log_scale == pytest.approx(
        2.0 * 0.7 * 4.0 * math.sqrt(0.5 * (1.0 - z)), rel=1e-14
    )


def test_azimuth_origin_invariance():
    # shifting both azimuths by the same angle leaves every element unchanged
    shift = 1.234567
    for kind in KernelKind:
        xi = 0.8
        k1, k2 = 1.3, 2.4
        p1, p2 = 0.4, 2.1
        kap_b = math.hypot(xi, k2)
        e0 = element(xi, (k1, p1), (k2, p2), kind, 3.0)
        e1 = element(xi, (k1, p1 + shift), (k2, p2 + shift), kind, 3.0)
        for channel in CHANNELS:
            got = getattr(e1, channel) / kap_b * math.exp(e1.log_scale - e0.log_scale)
            assert got == pytest.approx(getattr(e0, channel) / kap_b, rel=1e-12, abs=1e-15)


def test_symmetrized_element_is_finite_and_damped():
    # the huge WKB exponent must cancel: plain floats, no overflow
    for kind in (KernelKind.WKB0, KernelKind.WKB1):
        el = round_trip_element(0.5, 0.9, 1.7, 2.0, 500.0, kind)
        val = float(el.mm * np.exp(el.log_scale))
        assert math.isfinite(val)
        assert abs(val) < 1.0


def test_symmetrized_trace_pairs_match_raw_product():
    # similarity factors cancel in closed loops: sym(a->b) sym(b->a) equals
    # the raw damped product, independent of the kappa ratio convention
    rho, xi = 2.0, 1.0
    a, b = (0.8, 0.2), (1.9, 1.1)
    kap_a, kap_b = math.hypot(xi, a[0]), math.hypot(xi, b[0])
    dphi = b[1] - a[1]
    for kind in KernelKind:
        s_ab = round_trip_element(xi, a[0], b[0], dphi, rho, kind)
        s_ba = round_trip_element(xi, b[0], a[0], -dphi, rho, kind)
        sym = s_ab.mm * np.exp(s_ab.log_scale) * s_ba.mm * np.exp(s_ba.log_scale)
        # raw elements <out|R_S|in>, without the plane's TM coefficient (+1)
        e_ab = element(xi, a, b, kind, rho)
        e_ba = element(xi, b, a, kind, rho)
        raw = (
            e_ab.mm / kap_b * e_ba.mm / kap_a
            * math.exp(
                e_ab.log_scale + e_ba.log_scale
                - 2.0 * (kap_a + kap_b) * (1.0 + rho)
            )
        )
        assert sym == pytest.approx(raw, rel=1e-12)


def test_round_trip_element_applies_plane_fresnel_signs():
    # the plane reflects the incoming channel with +1 (TM) or -1 (TE): the
    # round-trip element is the sphere element with the TE-in channels negated
    xi, a, b = 0.9, (0.6, 0.3), (1.7, 1.9)
    for kind in KernelKind:
        el = element(xi, a, b, kind, 2.0)
        rt = round_trip_element(xi, a[0], b[0], b[1] - a[1], 2.0, kind)
        for channel, sign in (("mm", 1.0), ("em", 1.0), ("ee", -1.0), ("me", -1.0)):
            assert getattr(el, channel) != 0.0
            assert getattr(rt, channel) == sign * getattr(el, channel)


@pytest.mark.parametrize("kind", list(KernelKind))
def test_round_trip_element_on_empty_arrays(kind):
    # an empty batch yields empty channels for every kernel, exact-mie included
    k = np.array([])
    channels = round_trip_element(0.9, k, k, k, 2.0, kind)
    assert len(channels) == 5
    for values in channels:
        assert values.shape == (0,)
