"""End-to-end acceptance gate.

One test per acceptance criterion, in order.  The slow criteria (the large
aspect-ratio sweeps and the exact-kernel run at R/L = 100) share cached
energy evaluations through the module-level helpers below; everything runs
on a single worker in well under the stated wall-clock budgets.
"""
import functools
import math

import numpy as np
import pytest

from planesphere import oracles
from planesphere.asymptotics import (
    appendix_D,
    beta_bundle,
    reconstruct_beta_go,
    reconstruct_e_p0_coefficients,
)
from planesphere.core import Geometry, Polarization
from planesphere.reflection import KernelKind, round_trip_element, sphere_element
from planesphere.solver import (
    QuadratureConfig,
    _iter_blocks,
    energy,
    half_line_nodes_weights,
    trace_Mr_numeric,
)
from planesphere.special import log_bessel_i_half, log_bessel_k_half

PI2 = math.pi**2
TM, TE = Polarization.TM, Polarization.TE

SWEEP_RATIOS = (100.0, 200.0, 400.0, 800.0)


@functools.lru_cache(maxsize=None)
def cached_energy(rho: float, kind: KernelKind):
    """Auto-configured energy at aspect ratio rho, shared across criteria."""
    return energy(Geometry(R=rho, L=1.0), kind, threads=1)


def sweep(kind: KernelKind):
    return [(rho, cached_energy(rho, kind).ratio_to_pfa) for rho in SWEEP_RATIOS]


# ---------------------------------------------------------------------------
# 1. exact beta constants and the contribution table
# ---------------------------------------------------------------------------

def test_criterion_1_beta_constants():
    b = beta_bundle()
    assert b.beta1 == 1.0 / 3.0 - 20.0 / PI2
    assert b.beta_go == 1.0 / 3.0 - 5.0 / PI2
    assert b.beta_d == -15.0 / PI2
    assert b.beta_d_te == -25.0 / (2.0 * PI2)
    assert b.beta_d_tm == -5.0 / (2.0 * PI2)
    assert b.beta_te == 1.0 / 6.0 - 15.0 / PI2
    assert b.beta_tm == 1.0 / 6.0 - 5.0 / PI2
    assert b.beta_dd == 1.0 / 6.0
    assert b.beta_nn == 1.0 / 6.0 - 20.0 / PI2
    assert b.table_percentages == (74.8, 15.0, 5.1, 5.1)


# ---------------------------------------------------------------------------
# 2. leading-order coefficients reconstructed from the closed traces
# ---------------------------------------------------------------------------

def test_criterion_2_leading_reconstruction():
    b = beta_bundle()
    for pol, beta_dp in ((TE, b.beta_d_te), (TM, b.beta_d_tm)):
        lead, const = reconstruct_e_p0_coefficients(pol)
        assert lead == pytest.approx(-math.pi**3 / 1440.0, rel=1e-8)
        assert const == pytest.approx(-math.pi**3 * beta_dp / 720.0, rel=1e-7)


# ---------------------------------------------------------------------------
# 3. geometric-optics coefficient reconstructed from the NTLO traces
# ---------------------------------------------------------------------------

def test_criterion_3_ntlo_reconstruction():
    assert reconstruct_beta_go() == pytest.approx(
        beta_bundle().beta_go, rel=1e-8
    )


# ---------------------------------------------------------------------------
# 4. derivative oracle vs the closed saddle-expansion forms
# ---------------------------------------------------------------------------

def test_criterion_4_numeric_vs_closed_saddle_forms():
    # the grid stays away from kappa_sp = 3 xi, where the closed D2 crosses
    # zero and a relative comparison is meaningless
    points = [
        (xi, xi + dk)
        for xi in (0.5, 1.0, 1.8)
        for dk in (0.4, 0.9, 1.6)
    ]
    assert len(points) >= 9
    for r in (2, 3, 4, 5):
        for xi, ks in points:
            num = oracles.numeric_F1(r, xi, ks)
            ref = appendix_D(r, xi, ks)
            for attr in ("d1", "d2", "d3_over_g", "f1_over_g"):
                want = getattr(ref, attr)
                if want == 0.0:  # only d1 at r = 2, structurally zero
                    assert abs(getattr(num, attr)) < 1e-9, (r, xi, ks, attr)
                else:
                    assert abs(getattr(num, attr) - want) / abs(want) < 1e-5, (
                        r, xi, ks, attr
                    )


def test_criterion_4_vanishing_and_mixing_claims():
    # the f_{i j jbar} claim needs distinct conjugate indices, hence r >= 3
    for r in (3, 4):
        res = oracles.vanishing_residuals(r, 0.7, 1.3)
        assert res["g_i_scaled"] < 1e-7
        assert res["f_ijjbar_scaled"] < 1e-7
    for r in (2, 3):
        assert oracles.polarization_mixing_cancellation(r, 0.7, 1.3) < 1e-7


# ---------------------------------------------------------------------------
# 5. solver traces vs the independent brute-force quadrature
# ---------------------------------------------------------------------------

def test_criterion_5_traces_vs_brute_force():
    geometry = Geometry(R=5.0, L=1.0)
    cfg = QuadratureConfig(n_radial=64, n_azimuthal=64, n_xi=8)
    for r, xi, brute_kw in (
        (1, 1.0, dict(n_k=140)),
        (2, 1.0, dict(n_k=64, n_phi=192)),
    ):
        brute = oracles.brute_force_trace(r, xi, geometry, **brute_kw)
        solved = trace_Mr_numeric(r, xi, geometry, KernelKind.EXACT_MIE, cfg)
        assert solved == pytest.approx(brute, rel=1e-5), r


# ---------------------------------------------------------------------------
# 6. beta coefficients recovered from energy sweeps
# ---------------------------------------------------------------------------

def test_criterion_6_beta_from_energy_sweeps():
    b = beta_bundle()
    wkb1 = sweep(KernelKind.WKB1)
    wkb0 = sweep(KernelKind.WKB0)

    beta1_est, _ = oracles.beta_fit(wkb1, model="quadratic")
    assert abs(beta1_est / b.beta1 - 1.0) < 0.03

    beta_go_est, _ = oracles.beta_fit(wkb0, model="quadratic")
    assert abs(beta_go_est / b.beta_go - 1.0) < 0.05

    # the wkb1-wkb0 gap isolates the diffraction part of the coefficient
    gap = [
        (rho, 1.0 + r1 - r0)
        for (rho, r1), (_, r0) in zip(wkb1, wkb0)
    ]
    beta_d_est, _ = oracles.beta_fit(gap, model="quadratic")
    assert abs(beta_d_est / b.beta_d - 1.0) < 0.03


# ---------------------------------------------------------------------------
# 7. exact kernel vs wkb1 deep in the asymptotic regime
# ---------------------------------------------------------------------------

def test_criterion_7_exact_vs_wkb1_at_large_ratio():
    b = beta_bundle()
    exact = cached_energy(100.0, KernelKind.EXACT_MIE)
    wkb1 = cached_energy(100.0, KernelKind.WKB1)
    assert exact.energy == pytest.approx(wkb1.energy, rel=1e-3)
    # beta1 < 0, so the lower band edge carries the larger coefficient
    assert 1.0 + 1.3 * b.beta1 / 100.0 <= exact.ratio_to_pfa
    assert exact.ratio_to_pfa <= 1.0 + 0.7 * b.beta1 / 100.0


# ---------------------------------------------------------------------------
# 8. structural invariances
# ---------------------------------------------------------------------------

def test_criterion_8_block_symmetry():
    # every ordered radial pair sampled in both orientations on the full
    # dphi grid, with no symmetry assumed: after the similarity diag(1, -i)
    # on the TE sector each azimuthal block must be symmetric
    geometry = Geometry(R=3.0, L=1.0)
    xi, n, m_grid = 0.9, 16, 64
    k, wk = half_line_nodes_weights(n)
    lw = np.sqrt(k * wk / (2.0 * math.pi))
    delta = 2.0 * math.pi * np.arange(m_grid) / m_grid
    sim = np.r_[np.ones(n), np.full(n, -1j)]
    for kind in KernelKind:
        # kernel[d, p_out * n + i, p_in * n + j]: in = (k_j, phi 0), out =
        # (k_i, phi delta_d), polarization index 0 = TM, 1 = TE
        el = round_trip_element(xi, k[None, None, :], k[None, :, None],
                                delta[:, None, None], geometry.aspect_ratio, kind)
        weight = lw[:, None] * lw[None, :] * np.exp(el.log_scale)
        kernel = np.block([[weight * el.mm, weight * el.me],
                           [weight * el.em, weight * el.ee]])
        blocks = np.fft.fft(kernel, axis=0) / m_grid   # e^{-i m delta_d} over d
        for m, block in enumerate(blocks[: m_grid // 2 + 1]):
            similar = sim[:, None] * block / sim[None, :]
            asym = np.max(np.abs(similar - similar.T))
            scale = max(float(np.max(np.abs(similar))), 1e-300)
            assert asym / scale < 1e-10, (kind, m)


def test_criterion_8_mercator_series_within_bound():
    geometry = Geometry(R=5.0, L=1.0)
    cfg = QuadratureConfig(n_radial=24, n_azimuthal=64, n_xi=8)
    for block in list(_iter_blocks(0.8, geometry, KernelKind.EXACT_MIE, cfg))[:3]:
        m = block.entries
        dim = m.shape[0]
        eigs = np.linalg.eigvalsh(m)
        q = max(abs(float(eigs.max())), abs(float(eigs.min())))
        assert q < 1.0
        _, logdet = np.linalg.slogdet(np.eye(dim) - m)
        total = -float(logdet)
        partial, power = 0.0, np.eye(dim)
        for r in range(1, 12):
            power = power @ m
            partial += float(np.trace(power)) / r
            bound = dim * q ** (r + 1) / ((r + 1) * (1.0 - q))
            assert abs(total - partial) <= bound * (1.0 + 1e-10) + 1e-14


def test_criterion_8_azimuth_origin_invariance():
    # in = (k 1.3, phi 0.4), out = (k 2.4, phi 2.1), both azimuths shifted;
    # every channel of <out|R_S|in> (sphere_element carries kappa_out)
    shift = 0.87654321
    kap_out = math.hypot(0.8, 2.4)
    for kind in KernelKind:
        e0 = sphere_element(0.8, 1.3, 2.4, 2.1 - 0.4, 3.0, kind)
        e1 = sphere_element(0.8, 1.3, 2.4, (2.1 + shift) - (0.4 + shift), 3.0, kind)
        for channel in ("mm", "ee", "me", "em"):
            got = getattr(e1, channel) / kap_out * math.exp(e1.log_scale - e0.log_scale)
            assert got == pytest.approx(getattr(e0, channel) / kap_out, rel=1e-12, abs=1e-15)


def test_criterion_8_scaling_invariance():
    cfg = QuadratureConfig(n_radial=16, n_azimuthal=64, n_xi=8)
    e1 = energy(Geometry(R=5.0, L=1.0), KernelKind.WKB1, config=cfg).energy
    e2 = energy(Geometry(R=15.0, L=3.0), KernelKind.WKB1, config=cfg).energy
    assert e2 == pytest.approx(e1, rel=1e-12)


def test_criterion_8_wronskian():
    # I K' - I' K = -1/x, written I_nu K_{nu+1} + I_{nu+1} K_nu = 1/x
    for ell, x in ((0, 0.5), (3, 2.0), (25, 10.0), (200, 170.0), (1000, 900.0)):
        log_i = log_bessel_i_half(ell + 1, x)
        log_k = log_bessel_k_half(ell + 1, x)
        value = math.exp(log_i[ell] + log_k[ell + 1]) + math.exp(log_i[ell + 1] + log_k[ell])
        assert abs(value * x - 1.0) < 1e-10
