"""Sphere reflection and the plane-sphere round-trip element (TE/TM basis).

The sphere scatters an incoming upward channel into an outgoing downward
channel.  The scattering amplitudes S_perp, S_par live in the basis tied to
the scattering plane; rotating into the Fresnel bases of the two channels
introduces the tilt angles chi_in, chi_out combined into

    A = cos(chi_out) cos(chi_in),   B = sin(chi_out) sin(chi_in),
    C = sin(chi_out) cos(chi_in),   D = -cos(chi_out) sin(chi_in),

and the matrix elements

    <TM|R_S|TM> = (2 pi c / xi kappa_out) (A S_par  + B S_perp)
    <TE|R_S|TE> = (2 pi c / xi kappa_out) (A S_perp + B S_par)
    <TM|R_S|TE> = -(2 pi c / xi kappa_out) (C S_perp + D S_par)
    <TE|R_S|TM> = +(2 pi c / xi kappa_out) (C S_par  + D S_perp)

Fast-path closed forms (derived from the imaginary-frequency unit vectors,
with Dphi = phi_out - phi_in, P = kappa_in kappa_out + k_in k_out cos(Dphi)
and Q = sqrt(P^2 - xi^4) = xi^2 sqrt(cos^2 Theta - 1)):

    cos(chi_in)  = (kappa_in k_out cos(Dphi) + kappa_out k_in) / Q
    cos(chi_out) = (kappa_in k_out + kappa_out k_in cos(Dphi)) / Q
    sin(chi_in)  = xi k_out sin(Dphi) / Q
    sin(chi_out) = xi k_in  sin(Dphi) / Q

These are regular at xi -> 0 and degenerate only where cos(Theta) = -1:
at the specular point (k_in = k_out, Dphi = 0) the limit is A=1, B=C=D=0,
and at exact backscattering with k > 0 (k_in = k_out, Dphi = pi) it is
A=0, B=1, C=D=0.  The complex-vector reference construction lives in the
test suite only and must agree with this fast path to 1e-12.

`round_trip_element` is the one implementation of the symmetrized
plane -> sphere -> plane element: the solver's kernel sampling
(solver._fourier_kernels) and the brute-force trace oracle
(oracles._pair_elements) call it.  Beneath it, `sphere_element(xi, k_in,
k_out, dphi, rho, kind)` combines the sphere amplitudes of the three
kernels (`_amplitudes`, the only place they are computed) with the chi
rotation, with no plane reflection; the saddle weight oracles.g_function
calls it directly.  All of them are vectorized over broadcastable (xi,
k_in, k_out, dphi) arrays and return mantissas with one log scale.
The exact-mie amplitudes of a call come from mie.interpolated_amplitudes:
Chebyshev interpolation for every sample on fixed panels of sin(Theta/2)
(1e-11 relative to the direct sum up to x sin(Theta/2) ~ 2.5e3), so an
element does not depend on the other samples of its call.  During an
energy solve the panel tables of each xi node come from the solver's one
partial-wave ell loop (mie.panel_tables), and a trace, of the solver or
of the brute-force oracle, builds one table per call; any other call sums
the partial waves at its panels' nodes itself.  `cos_theta` gives the
cos(Theta) that the exact-mie amplitudes of an element are taken at,
from which the solver sizes those tables.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .mie import interpolated_amplitudes, wkb_diffraction_s


class KernelKind(Enum):
    EXACT_MIE = "exact-mie"
    WKB0 = "wkb0"
    WKB1 = "wkb1"


class Amplitudes(NamedTuple):
    """(2 pi / xi) S_p = pref * p * exp(log_scale) for p = perp, par."""

    perp: np.ndarray
    par: np.ndarray
    log_scale: np.ndarray
    pref: float


class Channels(NamedTuple):
    """The four polarization channels, each value = channel * exp(log_scale)."""

    mm: np.ndarray  # TM out <- TM in
    ee: np.ndarray  # TE out <- TE in
    me: np.ndarray  # TM out <- TE in
    em: np.ndarray  # TE out <- TM in
    log_scale: np.ndarray


def _p_diff(xi, k_in, k_out, kap_in, kap_out, dphi):
    """P - xi^2 without cancellation.

    kappa_in kappa_out - k_in k_out - xi^2
    = xi^2 (k_in - k_out)^2 / (kappa_in kappa_out + k_in k_out + xi^2),
    and k_in k_out (1 + cos dphi) = 2 k_in k_out cos^2(dphi/2).
    """
    xi2 = xi * xi
    return xi2 * (k_in - k_out) ** 2 / (
        kap_in * kap_out + k_in * k_out + xi2
    ) + 2.0 * k_in * k_out * np.cos(0.5 * dphi) ** 2


def _cos_theta(xi, p_diff):
    """cos(Theta) = -1 - (P - xi^2)/xi^2 on the imaginary-frequency branch."""
    return -1.0 - p_diff / (xi * xi)


def cos_theta(xi, k_in, k_out, dphi):
    """cos(Theta) of the scattering k_in -> k_out, as sphere_element takes it for exact-mie."""
    kap_in, kap_out = np.hypot(xi, k_in), np.hypot(xi, k_out)
    return _cos_theta(xi, _p_diff(xi, k_in, k_out, kap_in, kap_out, dphi))


def chi_components(xi, k_in, k_out, kappa_in, kappa_out, dphi, p_diff=None):
    """Vectorized (cos chi_in, cos chi_out, sin chi_in, sin chi_out).

    p_diff is P - xi^2 if the caller already has it.  Degenerate points
    (Q = 0, i.e. cos Theta = -1) resolve to the specular limit chi = 0 for
    dphi = 0 and to the backscattering limit chi = pi/2 otherwise.
    """
    if p_diff is None:
        p_diff = _p_diff(xi, k_in, k_out, kappa_in, kappa_out, dphi)
    cosd = np.cos(dphi)
    sind = np.sin(dphi)
    xi2 = xi * xi
    p_dot = xi2 + p_diff
    q2 = p_diff * (p_diff + 2.0 * xi2)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.sqrt(q2)
        cos_in = (kappa_in * k_out * cosd + kappa_out * k_in) / q
        cos_out = (kappa_in * k_out + kappa_out * k_in * cosd) / q
        sin_in = xi * k_out * sind / q
        sin_out = xi * k_in * sind / q
    degenerate = q2 <= (1e-24 * p_dot * p_dot)
    if np.any(degenerate):
        backward = degenerate & (cosd <= 0.0)
        cos_in = np.where(degenerate, np.where(backward, 0.0, 1.0), cos_in)
        cos_out = np.where(degenerate, np.where(backward, 0.0, 1.0), cos_out)
        sin_in = np.where(degenerate, np.where(backward, 1.0, 0.0), sin_in)
        sin_out = np.where(degenerate, np.where(backward, 1.0, 0.0), sin_out)
    return cos_in, cos_out, sin_in, sin_out


def abcd_arrays(xi, k_in, k_out, kappa_in, kappa_out, dphi, p_diff=None):
    """Vectorized A, B, C, D over numpy-broadcastable inputs (p_diff as above)."""
    cos_in, cos_out, sin_in, sin_out = chi_components(
        xi, k_in, k_out, kappa_in, kappa_out, dphi, p_diff
    )
    a = cos_out * cos_in
    b = sin_out * sin_in
    c = sin_out * cos_in
    d = -cos_out * sin_in
    return a, b, c, d


def _amplitudes(xi, p_diff, rho, kind) -> Amplitudes:
    """Sphere amplitudes of one kernel at cos(Theta) = -1 - p_diff / xi^2.

    exact-mie reads them off mie.interpolated_amplitudes (scalar xi).  The
    WKB kinds use S_p = (-1)^p (xi R/2) e^{2 xi R sin(Theta/2)} f_p
    (p=1 perp, p=2 par) with xi sin(Theta/2) = sqrt((2 xi^2 + p_diff)/2):
    f_p = 1 for wkb0 (perp and par are then the scalars -1 and 1) and
    f_p = e^{s_p/R} for wkb1 (s_p of mie.wkb_diffraction_s).
    """
    if kind is KernelKind.EXACT_MIE:
        z = _cos_theta(xi, p_diff)
        perp, par, log_amp = interpolated_amplitudes(xi, rho, np.ravel(z))
        shape = np.shape(z)
        return Amplitudes(perp.reshape(shape), par.reshape(shape),
                          log_amp.reshape(shape), 2.0 * math.pi / xi)
    xi2 = xi * xi
    p_dot = xi2 + p_diff
    h = np.sqrt(0.5 * (xi2 + p_dot))
    if kind is KernelKind.WKB1:
        # Resummed diffraction factor e^{s_p/R} instead of 1 + s_p/R:
        # identical through order 1/R, but bounded in (0, 1] (both s_p are
        # strictly negative).  The linear form diverges like -1/(2 xi R)
        # near backscattering at small xi (the glory region), which destroys
        # contraction of the discretized block even though that region's
        # true contribution is negligible.
        s_perp, s_par = wkb_diffraction_s(xi, p_diff, h)
        par = np.exp(s_par / rho)
        perp = -np.exp(s_perp / rho)
    else:
        par, perp = 1.0, -1.0
    return Amplitudes(perp, par, 2.0 * rho * h, math.pi * rho)


def sphere_element(xi, k_in, k_out, dphi, rho, kind) -> Channels:
    """kappa_out <out|R_S|in> of a sphere of radius rho, four channels at once.

    Vectorized over broadcastable (xi, k_in, k_out, dphi), dphi = phi_out -
    phi_in, with the amplitudes of `kind`.
    """
    kap_in, kap_out = np.hypot(xi, k_in), np.hypot(xi, k_out)
    p_diff = _p_diff(xi, k_in, k_out, kap_in, kap_out, dphi)
    perp, par, log_scale, pref = _amplitudes(xi, p_diff, rho, kind)
    a, b, c, d = abcd_arrays(xi, k_in, k_out, kap_in, kap_out, dphi, p_diff)
    return Channels(
        (a * par + b * perp) * pref,
        (a * perp + b * par) * pref,
        (c * perp + d * par) * -pref,
        (c * par + d * perp) * pref,
        log_scale,
    )


def round_trip_element(xi, k_in, k_out, dphi, rho, kind) -> Channels:
    """One symmetrized leg plane -> sphere -> plane, four channels at once.

    The sphere element times the plane's Fresnel coefficient of the
    incoming channel, the translations e^{-kappa (L + R)} of both channels
    and 1/sqrt(kappa_in kappa_out): the similarity sqrt(kappa_out/kappa_in)
    of the sphere's 1/kappa_out that makes the discretized operator
    symmetric.  The sphere's e^{+2 xi R sin(Theta/2)} growth cancels
    against the translations inside log_scale (the total exponent is always
    <= 0 for the WKB kinds).  Arguments as for `sphere_element`; quadrature
    weights are the caller's.
    """
    el = sphere_element(xi, k_in, k_out, dphi, rho, kind)
    kap_in, kap_out = np.hypot(xi, k_in), np.hypot(xi, k_out)
    # sphere_element's arrays are its own, and already of the full shape, so
    # they are updated in place (augmented assignment also takes scalars)
    ee, me, log_scale = el.ee, el.me, el.log_scale
    log_scale -= (kap_in + kap_out) * (1.0 + rho)
    log_scale -= 0.5 * (np.log(kap_in) + np.log(kap_out))
    # the plane's Fresnel coefficient of the incoming channel: +1 TM, -1 TE
    ee *= -1.0
    me *= -1.0
    return el._replace(ee=ee, me=me, log_scale=log_scale)

