"""Discretized round-trip operator: blocks, determinants, invariances."""
import ctypes
import glob
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from planesphere import mie
from planesphere.core import Geometry
from planesphere.mie import ExactAmplitudes, wkb_diffraction_s
from planesphere.reflection import KernelKind, _p_diff, abcd_arrays, round_trip_element
from planesphere import solver
from planesphere.special import AngularRecurrence
from planesphere.solver import (
    NonContractiveKernelError,
    QuadratureConfig,
    _assemble_block,
    _azimuthal_weights,
    _block_moments,
    _bound_offset,
    _closed_form_log_dets,
    _cos_sin_coefficients,
    _fourier_kernels,
    _iter_blocks,
    _live_columns,
    _lower_positions,
    _xi_contribution,
    energy,
    half_line_nodes_weights,
    log_det_contribution,
    trace_Mr_numeric,
)


def small_config(**overrides) -> QuadratureConfig:
    defaults = dict(n_radial=16, n_azimuthal=64, n_xi=8)
    defaults.update(overrides)
    return QuadratureConfig(**defaults)


def _dense_block(n, m, ii, jj, coef):
    """The full symmetric 2n x 2n block of order m, scattered entry by entry.

    An independent reference for _assemble_block: MM and EE at (i, j) and
    (j, i), X(i, j) = X_ij and X(j, i) = X_ji (X_ji on a diagonal pair), and
    X^T below; for wkb0 EE = MM and X_ji = X_ij.
    """
    if len(coef) == 2:
        coef = (coef[0], coef[0], coef[1], coef[1])
    cmm, cee, x_ij, x_ji = (sector[m] for sector in coef)
    block = np.zeros((2 * n, 2 * n))
    mm, ee, x = block[:n, :n], block[n:, n:], block[:n, n:]
    mm[ii, jj] = mm[jj, ii] = cmm
    ee[ii, jj] = ee[jj, ii] = cee
    x[ii, jj] = x_ij
    x[jj, ii] = x_ji
    block[n:, :n] = x.T
    return block


def _live_pairs(ii, jj):
    """The number of live nodes and each pair's positions among them."""
    live, index = np.unique(np.concatenate((ii, jj)), return_inverse=True)
    return live.size, index[: ii.size], index[ii.size :]


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(n_radial=2, n_azimuthal=64, n_xi=8)
    with pytest.raises(ValueError):
        QuadratureConfig(n_radial=16, n_azimuthal=63, n_xi=8)
    cfg = QuadratureConfig.auto(Geometry(R=100.0, L=1.0))
    assert cfg.n_azimuthal & (cfg.n_azimuthal - 1) == 0


def test_rational_stretch_integrates_exponential():
    # the stretch must integrate e^{-k} over (0, inf) accurately
    k, w = half_line_nodes_weights(60)
    assert float(np.sum(w * np.exp(-k))) == pytest.approx(1.0, rel=1e-12)


def test_cached_radial_rule_is_read_only():
    # every call returns the cached arrays, so none may be written into
    k, w = half_line_nodes_weights(16)
    assert half_line_nodes_weights(16)[0] is k
    for values in (k, w):
        with pytest.raises(ValueError):
            values[0] = 1.0


def test_gauss_legendre_rule_is_computed_once_and_shared(monkeypatch):
    # one leggauss per n, however many callers ask; the cached arrays are
    # read-only, and the solver's half-line rule is the direct formula on
    # them, bit for bit
    from planesphere import core, oracles

    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: calls.append(n) or leggauss(n))
    core.gauss_legendre.cache_clear()
    half_line_nodes_weights.cache_clear()
    x, w = half_line_nodes_weights(12)
    oracles._radial_gl(12, 1.0)
    oracles._radial_gl(12, 2.0)
    t, wt = core.gauss_legendre(12)
    core.gauss_legendre(9)
    assert calls == [12, 9]
    for values in (t, wt):
        with pytest.raises(ValueError):
            values[0] = 1.0
    t_ref, w_ref = leggauss(12)
    t_ref = 0.5 * (t_ref + 1.0)
    np.testing.assert_array_equal(x, t_ref / (1.0 - t_ref))
    np.testing.assert_array_equal(w, 0.5 * w_ref * (1.0 / (1.0 - t_ref) ** 2))


# ---------------------------------------------------------------------------
# block structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", list(KernelKind))
def test_block_symmetry(kind):
    # the solver samples one orientation of each radial pair and mirrors
    # it; here both orientations are sampled on the full dphi grid, and
    # after the similarity diag(1, -i) on the TE sector every azimuthal
    # block must be symmetric (criterion 8 checks R/L = 3 at xi = 0.9)
    geometry = Geometry(R=10.0, L=1.0)
    xi, n, m_grid = 0.4, 16, 32
    k, wk = half_line_nodes_weights(n)
    lw = np.sqrt(k * wk / (2.0 * math.pi))
    delta = 2.0 * math.pi * np.arange(m_grid) / m_grid
    sim = np.r_[np.ones(n), np.full(n, -1j)]
    el = round_trip_element(xi, k[None, None, :], k[None, :, None], delta[:, None, None],
                            geometry.aspect_ratio, kind)
    weight = lw[:, None] * lw[None, :] * np.exp(el.log_scale)
    kernel = np.block([[weight * el.mm, weight * el.me],
                       [weight * el.em, weight * el.ee]])
    blocks = np.fft.fft(kernel, axis=0) / m_grid
    for m, block in enumerate(blocks[: m_grid // 2 + 1]):
        similar = sim[:, None] * block / sim[None, :]
        asym = np.max(np.abs(similar - similar.T))
        scale = max(float(np.max(np.abs(similar))), 1e-300)
        assert asym / scale < 1e-10, m


@pytest.mark.parametrize("kind,rel", [
    (KernelKind.EXACT_MIE, 1e-10),
    (KernelKind.WKB0, 1e-10),
    (KernelKind.WKB1, 1e-10),
])
def test_blocks_match_direct_complex_construction(kind, rel, monkeypatch):
    """Assembled real blocks vs the straightforward complex construction.

    The direct path builds the per-m complex operator by discrete Fourier
    transform of the symmetrized elements (every channel, every pair, full
    azimuthal grid) with no symmetry folding; traces of powers and
    det(1 - M) are basis independent, so they must agree to near machine
    precision.
    """
    geometry = Geometry(R=2.0, L=1.0)
    xi = 1.1
    n, m_grid = 6, 16
    monkeypatch.setattr(solver, "PRUNE_LOG_CUTOFF", -1e9)
    cfg = QuadratureConfig(n_radial=n, n_azimuthal=m_grid, n_xi=8)
    k, wk = half_line_nodes_weights(n)
    lw = np.sqrt(k * wk / (2.0 * math.pi))
    delta = 2.0 * math.pi * np.arange(m_grid) / m_grid
    # kernel[d, p_out * n + i, p_in * n + j]: in = (k_j, phi 0), out =
    # (k_i, phi delta_d), polarization index 0 = TM, 1 = TE
    el = round_trip_element(xi, k[None, None, :], k[None, :, None], delta[:, None, None],
                            geometry.aspect_ratio, kind)
    weight = lw[:, None] * lw[None, :] * np.exp(el.log_scale)
    kernel = np.empty((m_grid, 2 * n, 2 * n))
    kernel[:, :n, :n] = weight * el.mm
    kernel[:, :n, n:] = weight * el.me
    kernel[:, n:, :n] = weight * el.em
    kernel[:, n:, n:] = weight * el.ee
    # the similarity diag(1, -i) on the TE sector takes the direct operator
    # to the real symmetric block entry by entry
    sim = np.diag(np.r_[np.ones(n), np.full(n, -1j)])
    blocks = list(_iter_blocks(xi, geometry, kind, cfg))[:4]
    assert [b.m for b in blocks] == [0, 1, 2, 3]
    for block in blocks:
        direct = np.tensordot(
            np.exp(-1j * block.m * delta) / m_grid, kernel, axes=(0, 0)
        )
        similar = sim @ direct @ np.linalg.inv(sim)
        scale = np.max(np.abs(block.entries))
        assert np.max(np.abs(similar - block.entries)) <= 1e-12 * scale
        for r in (1, 2, 3):
            t_direct = complex(np.trace(np.linalg.matrix_power(direct, r)))
            t_sym = float(np.trace(np.linalg.matrix_power(block.entries, r)))
            assert abs(t_direct.imag) < 1e-13 * max(abs(t_direct), 1e-10)
            assert t_direct.real == pytest.approx(t_sym, rel=rel, abs=1e-14)
        sign, logdet_direct = np.linalg.slogdet(np.eye(2 * n) - direct)
        _, logdet_sym = np.linalg.slogdet(np.eye(2 * n) - block.entries)
        assert sign.real == pytest.approx(1.0)
        assert logdet_direct.real == pytest.approx(logdet_sym, rel=rel, abs=1e-13)


def test_wkb1_resummation_approaches_linear_form(monkeypatch):
    # the wkb1 kernel's e^{s/R} vs the linear (1 + s/R) with s_p from
    # mie.wkb_diffraction_s: the trace gap must shrink faster than 1/R
    monkeypatch.setattr(solver, "PRUNE_LOG_CUTOFF", -1e9)
    xi = 1.1
    gaps = []
    for rho in (8.0, 16.0):
        geometry = Geometry(R=rho, L=1.0)
        n, m_grid = 6, 16
        cfg = QuadratureConfig(n_radial=n, n_azimuthal=m_grid, n_xi=8)
        k, wk = half_line_nodes_weights(n)
        lw = np.sqrt(k * wk / (2.0 * math.pi))
        delta = 2.0 * math.pi * np.arange(m_grid) / m_grid
        # in = (k_j, phi 0), out = (k_i, phi delta_d) on axes (d, i, j)
        k_in, k_out, dphi = k[None, None, :], k[None, :, None], delta[:, None, None]
        kap_in, kap_out = np.hypot(xi, k_in), np.hypot(xi, k_out)
        p_diff = _p_diff(xi, k_in, k_out, kap_in, kap_out, dphi)
        s_perp, s_par = wkb_diffraction_s(xi, p_diff)
        # S_p = -/+ (xi R/2) e^{2 xi R sin(Theta/2)} (1 + s_p/R)
        exponent = 2.0 * rho * np.sqrt(0.5 * (2.0 * xi * xi + p_diff))
        a, b, _, _ = abcd_arrays(xi, k_in, k_out, kap_in, kap_out, dphi)
        # TM <- TM leg: plane coefficient +1, both translations and the
        # symmetrizing 1/sqrt(kappa_in kappa_out)
        damp = np.exp(exponent - (kap_in + kap_out) * (1.0 + rho))
        amp = 0.5 * xi * rho * damp
        pref = 2.0 * math.pi / (xi * np.sqrt(kap_in * kap_out))
        kernel = (lw[:, None] * lw[None, :] * pref
                  * (a * amp * (1.0 + s_par / rho) - b * amp * (1.0 + s_perp / rho)))
        t_linear = float(np.mean(kernel, axis=0).trace())
        block0 = next(_iter_blocks(xi, geometry, KernelKind.WKB1, cfg))
        t_resummed = float(np.trace(block0.entries[:n, :n]))
        gaps.append(abs(t_resummed / t_linear - 1.0))
    # the gap shrinks superlinearly in 1/R but not uniformly ~1/R^2: the
    # near-backscattering (glory) region where s/R is not small contracts
    # only gradually with R
    assert gaps[0] < 5e-3
    assert gaps[1] < 0.6 * gaps[0]


@pytest.mark.parametrize("kind", list(KernelKind))
def test_block_norms_match_assembled_blocks(kind):
    # the truncation rule reads block norms and traces off the Fourier
    # coefficients; the assembled lower triangle is the reference block's
    geometry = Geometry(R=5.0, L=1.0)
    cfg = small_config(n_radial=20)
    n = cfg.n_radial
    ii, jj, coef = _fourier_kernels(0.8, geometry, kind, cfg)
    positions = _lower_positions(n, ii, jj, len(coef))
    trace, norms = _block_moments(positions, 2 * n, coef)
    assert norms.shape == trace.shape == (cfg.n_azimuthal // 2 + 1,)
    lower = np.zeros((2 * n, 2 * n))
    for m, norm in enumerate(norms):
        block = _dense_block(n, m, ii, jj, coef)
        assert abs(norm - np.linalg.norm(block)) <= 1e-12 * norms[0]
        assert abs(trace[m] - np.trace(block)) <= 1e-12 * norms[0]
        assembled = _assemble_block(lower, m, positions, coef)
        assert np.array_equal(np.tril(assembled), np.tril(block))


def test_spectral_radius_below_one():
    geometry = Geometry(R=10.0, L=1.0)
    cfg = small_config(n_radial=32)
    for kind in KernelKind:
        for block in list(_iter_blocks(0.4, geometry, kind, cfg))[:7]:
            eigs = np.linalg.eigvalsh(block.entries)
            assert eigs.max() < 1.0
            assert eigs.min() > -1.0


def test_mercator_bound_per_block():
    # -log det(1 - M) = sum_r tr M^r / r >= tr M whenever the series converges
    geometry = Geometry(R=5.0, L=1.0)
    cfg = small_config(n_radial=24)
    for block in list(_iter_blocks(0.8, geometry, KernelKind.EXACT_MIE, cfg))[:9]:
        _, logdet = np.linalg.slogdet(np.eye(block.entries.shape[0]) - block.entries)
        assert -logdet >= float(np.trace(block.entries)) - 1e-14


def test_mercator_partial_sums_bracket_logdet():
    """Truncated Mercator series vs log det within the contraction bound.

    |sum_{r>N} tr M^r / r| <= (2n) q^{N+1} / ((N+1)(1-q)) with q the spectral
    radius; the partial sums must converge inside that envelope.
    """
    geometry = Geometry(R=5.0, L=1.0)
    cfg = small_config(n_radial=24)
    for block in list(_iter_blocks(0.8, geometry, KernelKind.EXACT_MIE, cfg))[:3]:
        m = block.entries
        dim = m.shape[0]
        eigs = np.linalg.eigvalsh(m)
        q = max(abs(eigs.max()), abs(eigs.min()))
        assert q < 1.0
        _, logdet = np.linalg.slogdet(np.eye(dim) - m)
        total = -logdet
        partial = 0.0
        power = np.eye(dim)
        for r in range(1, 12):
            power = power @ m
            partial += float(np.trace(power)) / r
            bound = dim * q ** (r + 1) / ((r + 1) * (1.0 - q))
            assert abs(total - partial) <= bound * (1.0 + 1e-10) + 1e-14


@pytest.mark.parametrize("kind", list(KernelKind))
def test_closed_form_log_det_within_mercator_tail(kind):
    # every block the rule admits lies within f^3/(3(1-f)) of the
    # eigenvalue log-det sum_i log1p(-lambda_i)
    geometry = Geometry(R=5.0, L=1.0)
    cfg = small_config(n_radial=20)
    xi = 0.8
    n = cfg.n_radial
    coeffs = _fourier_kernels(xi, geometry, kind, cfg)
    ii, jj, coef = coeffs
    trace, norms = _block_moments(_lower_positions(n, ii, jj, len(coef)), 2 * n, coef)
    log_det0 = log_det_contribution(solver.BlockMatrix(
        m=0, xi=xi, entries=_dense_block(n, 0, *coeffs)))
    closed, exact = _closed_form_log_dets(trace, norms, _azimuthal_weights(cfg), log_det0)
    assert 0 < exact.sum() < exact.size
    for m in np.flatnonzero(exact):
        block = _dense_block(n, m, *coeffs)
        reference = math.fsum(np.log1p(-np.linalg.eigvalsh(block)))
        f = norms[m]
        assert abs(closed[m] - reference) <= f**3 / (3.0 * (1.0 - f)) + 1e-15


def test_closed_form_admits_only_small_blocks_past_m0():
    # m = 0 and any block with f >= 1 (where the tail bound fails) are
    # always factored
    norms = np.array([1e-9, 2.0, 1.0, 1e-9, 1e-3])
    _, exact = _closed_form_log_dets(np.zeros(5), norms,
                                     np.array([1.0, 2.0, 2.0, 2.0, 1.0]), -1.0)
    assert exact.tolist() == [False, False, False, True, False]


def _last_nonempty_xi(geometry, config):
    xi_nodes, _ = half_line_nodes_weights(config.n_xi)
    for xi in xi_nodes[::-1]:
        if _fourier_kernels(float(xi), geometry, KernelKind.WKB0, config)[0].size:
            return float(xi)
    raise AssertionError("every xi node is empty")


@pytest.mark.parametrize("rho", [50.0, 200.0])
def test_closed_form_takes_blocks_where_cholesky_rounds_to_zero(rho, monkeypatch):
    # at the last non-empty node every entry is below 1e-16: ln det(1 - M_0)
    # factors to exactly 0, and the blocks m >= 1 are still closed-form, so
    # the largest factored m is 0
    geometry = Geometry(R=rho, L=1.0)
    config = QuadratureConfig.auto(geometry)
    xi = _last_nonempty_xi(geometry, config)
    factored = []

    def recording(block):
        factored.append(block.m)
        return log_det_contribution(block)

    monkeypatch.setattr(solver, "log_det_contribution", recording)
    for kind in (KernelKind.WKB0, KernelKind.WKB1):
        factored.clear()
        total, m_factored = _xi_contribution((xi, geometry, kind, config))
        assert m_factored == 0
        # wkb0 factors M_0 as its two parity halves
        assert factored == [0] * (2 if kind is KernelKind.WKB0 else 1)
        assert total < 0.0


def test_sum_runs_to_nyquist_at_every_nonempty_node(monkeypatch):
    # with no block admitted to the closed form, every node with a kept
    # pair factors each m up to n_azimuthal/2; an empty one returns -1
    monkeypatch.setattr(solver, "CLOSED_FORM_TAIL", 0.0)
    geometry = Geometry(R=50.0, L=1.0)
    config = QuadratureConfig.auto(geometry)
    mh = config.n_azimuthal // 2
    xi_nodes, _ = half_line_nodes_weights(config.n_xi)
    nonempty = 0
    for xi in (float(x) for x in xi_nodes):
        kept = _fourier_kernels(xi, geometry, KernelKind.WKB1, config)[0].size
        _, m_factored = _xi_contribution((xi, geometry, KernelKind.WKB1, config))
        assert m_factored == (mh if kept else -1)
        nonempty += bool(kept)
    assert 0 < nonempty < config.n_xi


def test_energy_reports_largest_factored_m_per_xi_node():
    # one entry per xi node: -1 exactly where no pair is kept, 0 at the last
    # non-empty node (its blocks m >= 1 are all closed-form), never past
    # Nyquist
    geometry = Geometry(R=50.0, L=1.0)
    config = QuadratureConfig.auto(geometry)
    m_factored = energy(geometry, KernelKind.WKB1, config).diagnostics["m_factored"]
    xi_nodes, _ = half_line_nodes_weights(config.n_xi)
    kept = [_fourier_kernels(float(xi), geometry, KernelKind.WKB1, config)[0].size > 0
            for xi in xi_nodes]
    assert len(m_factored) == config.n_xi
    assert [m == -1 for m in m_factored] == [not k for k in kept]
    last = max(i for i, k in enumerate(kept) if k)
    assert m_factored[last] == 0
    assert max(m_factored) <= config.n_azimuthal // 2


def _criterion5_setup():
    return (Geometry(R=5.0, L=1.0), QuadratureConfig(n_radial=64, n_azimuthal=64, n_xi=8),
            1.0, KernelKind.EXACT_MIE)


def test_blocks_span_live_nodes_up_to_nyquist():
    geometry, config, xi, kind = _criterion5_setup()
    ii, jj, *_ = _fourier_kernels(xi, geometry, kind, config)
    n_live = np.union1d(ii, jj).size
    assert n_live < config.n_radial
    blocks = list(_iter_blocks(xi, geometry, kind, config))
    assert [b.m for b in blocks] == list(range(config.n_azimuthal // 2 + 1))
    assert all(b.entries.shape == (2 * n_live, 2 * n_live) for b in blocks)


@pytest.mark.parametrize("kind", list(KernelKind))
def test_traces_match_full_size_blocks_up_to_nyquist(kind):
    # the traces come from the block moments; the dead nodes' zero rows and
    # columns add nothing to tr M^r, and wkb0 reads its two-sector positions
    geometry, config, xi, _ = _criterion5_setup()
    coeffs = _fourier_kernels(xi, geometry, kind, config)
    weights = _azimuthal_weights(config)
    full = [_dense_block(config.n_radial, m, *coeffs)
            for m in range(config.n_azimuthal // 2 + 1)]
    for r in (1, 2):
        want = math.fsum(weights[m] * float(np.trace(np.linalg.matrix_power(block, r)))
                         for m, block in enumerate(full))
        got = trace_Mr_numeric(r, xi, geometry, kind, config)
        assert got == pytest.approx(want, rel=1e-13)


def test_traces_vanish_where_no_pair_is_kept():
    geometry = Geometry(R=50.0, L=1.0)
    config = QuadratureConfig.auto(geometry)
    xi = float(half_line_nodes_weights(config.n_xi)[0][-1])
    assert _fourier_kernels(xi, geometry, KernelKind.WKB1, config)[0].size == 0
    for r in (1, 2):
        assert trace_Mr_numeric(r, xi, geometry, KernelKind.WKB1, config) == 0.0


def test_exact_mie_traces_read_one_table(monkeypatch):
    # an exact-mie trace builds its node's table and sums no panel nodes
    # of its own; its value is that of the untabled chunks, bit for bit
    geometry, config, xi, _ = _criterion5_setup()
    kind = KernelKind.EXACT_MIE
    calls = []
    direct = ExactAmplitudes.__call__
    monkeypatch.setattr(ExactAmplitudes, "__call__",
                        lambda self, z: calls.append(z.size) or direct(self, z))
    tabled = [trace_Mr_numeric(r, xi, geometry, kind, config) for r in (1, 2)]
    assert calls == []
    monkeypatch.setattr(solver, "_mie_tables", lambda *args: {})
    assert [trace_Mr_numeric(r, xi, geometry, kind, config) for r in (1, 2)] == tabled
    assert calls


@pytest.mark.parametrize("r", [0, 3])
def test_traces_only_for_one_or_two_round_trips(r):
    geometry, config, xi, kind = _criterion5_setup()
    with pytest.raises(ValueError, match="round-trip count"):
        trace_Mr_numeric(r, xi, geometry, kind, config)


# ---------------------------------------------------------------------------
# windowed sampling, packed transforms, live radial nodes
# ---------------------------------------------------------------------------

def _sampled_log_entries(xi, geometry, kind, config):
    """log|entry| of every channel of every pair on the whole row [0, pi], and the bound."""
    rho = geometry.aspect_ratio
    n, m_grid = config.n_radial, config.n_azimuthal
    k, wk = half_line_nodes_weights(n)
    kap = np.hypot(xi, k)
    log_w = 0.5 * np.log(k * wk / (2.0 * math.pi))
    ii, jj = np.triu_indices(n)
    delta = (2.0 * math.pi / m_grid) * np.arange(m_grid // 2 + 1)
    el = round_trip_element(xi, k[jj][:, None], k[ii][:, None], delta, rho, kind)
    log_wab = (log_w[ii] + log_w[jj])[:, None]
    with np.errstate(divide="ignore"):
        log_abs = np.max([np.log(np.abs(c)) for c in (el.mm, el.ee, el.me, el.em)], axis=0)
    entries = log_abs + el.log_scale + log_wab
    ka, kb, kapa, kapb = k[ii][:, None], k[jj][:, None], kap[ii][:, None], kap[jj][:, None]
    # c - rho eta(dphi), eta = kapa + kapb - sqrt(2(xi^2 + kapa kapb + ka kb cos dphi))
    eta = kapa + kapb - np.sqrt(2.0 * (xi * xi + kapa * kapb + ka * kb * np.cos(delta)))
    bound = _bound_offset(rho, kapa, kapb, log_wab) - rho * eta
    width = _live_columns(xi, rho, ka[:, 0], kb[:, 0], kapa[:, 0], kapb[:, 0],
                          log_wab[:, 0], m_grid)
    return entries, bound, width


@pytest.mark.parametrize("rho,kinds", [
    (20.0, list(KernelKind)),
    (50.0, [KernelKind.WKB0, KernelKind.WKB1]),
    (200.0, [KernelKind.WKB0, KernelKind.WKB1]),
])
def test_entry_bound_holds_on_every_sample(rho, kinds):
    # at the smallest xi node, where the bound is tightest, no sampled
    # entry exceeds it, and the window holds exactly the columns whose
    # bound exceeds the cutoff (up to the rounding of the arccos)
    geometry = Geometry(R=rho, L=1.0)
    config = QuadratureConfig.auto(geometry)
    xi = float(half_line_nodes_weights(config.n_xi)[0][0])
    for kind in kinds:
        entries, bound, width = _sampled_log_entries(xi, geometry, kind, config)
        assert np.all(entries <= bound)
        columns = np.arange(bound.shape[1])[None, :]
        inside = columns < width[:, None]
        assert np.all(bound[inside] > solver.PRUNE_LOG_CUTOFF - 1e-9)
        assert np.all(bound[~inside] <= solver.PRUNE_LOG_CUTOFF + 1e-9)
        assert 0 < inside.sum() < inside.size


def _full_window_coefficients(xi, geometry, kind, config, ii, jj):
    """The pairs' coefficients from every column of [0, pi], one irfft per channel."""
    rho = geometry.aspect_ratio
    m_grid = config.n_azimuthal
    mh = m_grid // 2
    k, wk = half_line_nodes_weights(config.n_radial)
    log_w = 0.5 * np.log(k * wk / (2.0 * math.pi))
    delta = (2.0 * math.pi / m_grid) * np.arange(mh + 1)
    el = round_trip_element(xi, k[jj][:, None], k[ii][:, None], delta, rho, kind)
    scale = np.exp(el.log_scale + (log_w[ii] + log_w[jj])[:, None])

    def coefficients(half):
        return np.fft.irfft(half, m_grid, axis=1)[:, : mh + 1]

    return (coefficients(el.mm * scale), coefficients(el.ee * scale),
            coefficients(-1j * el.me * scale), coefficients(1j * el.em * scale))


@pytest.mark.parametrize("rho", [5.0, 50.0])
@pytest.mark.parametrize("kind", list(KernelKind))
def test_windowed_kernels_match_full_window(rho, kind):
    # each dropped sample is below e^cutoff and enters a coefficient with
    # weight 2/N, so the window moves no coefficient by more than
    # (mh + 1) e^cutoff; the rest is rounding, 1e-15 of the largest
    # coefficient of the pair's row
    geometry = Geometry(R=rho, L=1.0)
    config = QuadratureConfig.auto(geometry)
    mh = config.n_azimuthal // 2
    xi_nodes, _ = half_line_nodes_weights(config.n_xi)
    for xi in (float(xi_nodes[i]) for i in (5, 20, 30)):
        ii, jj, coef = _fourier_kernels(xi, geometry, kind, config)
        # wkb0 keeps (MM, X_ij), which must match the EE and X_ji rows too
        sectors = [0, 1, 2, 3] if len(coef) == 4 else [0, 0, 1, 1]
        got = [coef[s].T for s in sectors]
        want = _full_window_coefficients(xi, geometry, kind, config, ii, jj)
        row_max = np.max([np.max(np.abs(w), axis=1) for w in want], axis=0)[:, None]
        limit = (mh + 1) * math.exp(solver.PRUNE_LOG_CUTOFF) + 1e-15 * row_max
        for g, w in zip(got, want):
            assert np.all(np.abs(g - w) <= limit)


def test_wkb0_te_channels_equal_tm_channels_bit_for_bit():
    # S_perp = -S_par makes EE = MM and EM = -ME exactly, which lets the
    # solver sample and factor wkb0 from its TM channels alone; diagonal
    # pairs at dphi = pi (backscattering) included
    rng = np.random.default_rng(12)
    xi = np.exp(rng.uniform(-7.0, 2.0, (5, 1, 1, 1)))
    k = np.exp(rng.uniform(-4.0, 3.0, 6))
    k_in, k_out = k[None, :, None, None], k[None, None, :, None]
    dphi = np.concatenate((rng.uniform(0.0, math.pi, 7), [0.0, math.pi]))
    el = round_trip_element(xi, k_in, k_out, dphi[None, None, None, :], 50.0, KernelKind.WKB0)
    assert el.mm.shape == (5, 6, 6, 9)
    assert np.array_equal(el.ee, el.mm)
    assert np.array_equal(el.em, -el.me)


def test_wkb0_kernels_te_rows_equal_tm_rows(monkeypatch):
    # feed the TE channels (EE, -EM) through the TM sampling path: the
    # coefficients must not change by a bit
    geometry = Geometry(R=50.0, L=1.0)
    config = QuadratureConfig.auto(geometry)
    xi = float(half_line_nodes_weights(config.n_xi)[0][10])
    ii, jj, tm = _fourier_kernels(xi, geometry, KernelKind.WKB0, config)

    def te_as_tm(*args):
        el = round_trip_element(*args)
        return el._replace(mm=el.ee, me=-el.em)

    monkeypatch.setattr(solver, "round_trip_element", te_as_tm)
    ii_te, jj_te, te = _fourier_kernels(xi, geometry, KernelKind.WKB0, config)
    assert ii.size > 0 and np.array_equal(ii_te, ii) and np.array_equal(jj_te, jj)
    assert len(tm) == len(te) == 2
    assert all(np.array_equal(a, b) for a, b in zip(te, tm))


@pytest.mark.parametrize("m_grid", [16, 64, 256])
def test_packed_transform_matches_separate_transforms(m_grid):
    rng = np.random.default_rng(m_grid)
    mh = m_grid // 2
    even = rng.standard_normal((40, mh + 1))
    odd = rng.standard_normal((40, mh + 1)) * np.exp(rng.uniform(-5.0, 5.0, (40, 1)))
    odd[:, [0, mh]] = 0.0   # an odd sequence vanishes at dphi = 0 and pi
    for width in (mh + 1, mh // 2, 1):
        # one column per sequence, samples and coefficients along the rows
        cos, sin = np.empty((2, mh + 1, 40))
        _cos_sin_coefficients(0.5 * (even - 1j * odd)[:, :width].T, m_grid, cos, sin)
        want_cos = np.fft.irfft(even[:, :width], m_grid, axis=1)[:, : mh + 1]
        want_sin = np.fft.irfft(-1j * odd[:, :width], m_grid, axis=1)[:, : mh + 1]
        row_max = np.maximum(np.abs(want_cos).max(axis=1), np.abs(want_sin).max(axis=1))
        assert np.all(np.abs(cos.T - want_cos) <= 1e-15 * row_max[:, None])
        assert np.all(np.abs(sin.T - want_sin) <= 1e-15 * row_max[:, None])


def test_live_node_factoring_matches_full_blocks(monkeypatch):
    # at R/L = 50, xi ~ 0.5 some radial nodes are in no kept pair; their zero
    # rows and columns add ln 1 = 0 to every block's log det
    geometry = Geometry(R=50.0, L=1.0)
    config = QuadratureConfig.auto(geometry)
    n = config.n_radial
    xi_nodes, _ = half_line_nodes_weights(config.n_xi)
    xi = float(xi_nodes[np.argmin(np.abs(xi_nodes - 0.5))])
    monkeypatch.setattr(solver, "CLOSED_FORM_TAIL", 0.0)
    for kind in (KernelKind.WKB0, KernelKind.WKB1):
        coeffs = _fourier_kernels(xi, geometry, kind, config)
        live = np.union1d(coeffs[0], coeffs[1]).size
        assert live < n
        got, _ = _xi_contribution((xi, geometry, kind, config))
        weights = _azimuthal_weights(config)
        want = math.fsum(
            weights[m] * log_det_contribution(solver.BlockMatrix(
                m=m, xi=xi, entries=_dense_block(n, m, *coeffs)))
            for m in range(config.n_azimuthal // 2 + 1)
        )
        assert got == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("kind", list(KernelKind))
def test_reused_buffer_factoring_matches_dense_blocks(kind, monkeypatch):
    # every block factored (CLOSED_FORM_TAIL = 0) at R/L = 50: each ln det
    # from the reused lower-triangle buffer is bit for bit that of the full
    # dense block over the live nodes; for wkb0 the parity halves
    # ln det(1 - C - X) + ln det(1 - C + X) sum to slogdet of the full block
    geometry = Geometry(R=50.0, L=1.0)
    config = QuadratureConfig.auto(geometry)
    xi_nodes, _ = half_line_nodes_weights(config.n_xi)
    xi = float(xi_nodes[np.argmin(np.abs(xi_nodes - 0.5))])
    monkeypatch.setattr(solver, "CLOSED_FORM_TAIL", 0.0)
    factored = {}

    def recording(block):
        value = log_det_contribution(block)
        factored.setdefault(block.m, []).append((block.entries.shape[0], value))
        return value

    monkeypatch.setattr(solver, "log_det_contribution", recording)
    _xi_contribution((xi, geometry, kind, config))
    ii, jj, coef = _fourier_kernels(xi, geometry, kind, config)
    n_live, ii, jj = _live_pairs(ii, jj)
    assert sorted(factored) == list(range(config.n_azimuthal // 2 + 1))
    for m, calls in factored.items():
        dense = _dense_block(n_live, m, ii, jj, coef)
        if kind is KernelKind.WKB0:
            assert [dim for dim, _ in calls] == [n_live, n_live]
            sign, want = np.linalg.slogdet(np.eye(2 * n_live) - dense)
            assert sign == 1.0
            assert calls[0][1] + calls[1][1] == pytest.approx(want, rel=1e-13)
        else:
            want = log_det_contribution(solver.BlockMatrix(m=m, xi=xi, entries=dense))
            assert calls == [(2 * n_live, want)]


def test_log_det_contribution_reads_the_lower_triangle_only():
    geometry = Geometry(R=4.0, L=1.0)
    rng = np.random.default_rng(7)
    cfg = small_config(n_radial=20)
    for block in list(_iter_blocks(1.2, geometry, KernelKind.WKB1, cfg))[:4]:
        want = log_det_contribution(block)
        garbage = block.entries.copy()
        upper = np.triu_indices(garbage.shape[0], 1)
        garbage[upper] = rng.uniform(-1e3, 1e3, upper[0].size)
        garbage[0, -1] = np.nan
        got = log_det_contribution(solver.BlockMatrix(m=block.m, xi=block.xi, entries=garbage))
        assert got == want


def _eigen_reference_energy(geometry, kind):
    """Energy from sum_i log1p(-lambda_i) of every block, summed by fsum."""
    config = QuadratureConfig.auto(geometry)
    mh = config.n_azimuthal // 2
    xi_nodes, xi_weights = half_line_nodes_weights(config.n_xi)
    terms = []
    for xi, w_xi in zip(xi_nodes, xi_weights):
        for block in _iter_blocks(float(xi), geometry, kind, config):
            weight = 1.0 if block.m in (0, mh) else 2.0
            log_det = np.log1p(-np.linalg.eigvalsh(block.entries))
            terms.extend(w_xi * weight * log_det)
    return math.fsum(terms) / (2.0 * math.pi)


def test_closed_form_energy_matches_cholesky_and_eigen_reference(monkeypatch):
    geometry = Geometry(R=50.0, L=1.0)
    closed = energy(geometry, KernelKind.WKB1).energy
    monkeypatch.setattr(solver, "CLOSED_FORM_TAIL", 0.0)
    cholesky = energy(geometry, KernelKind.WKB1).energy
    reference = _eigen_reference_energy(geometry, KernelKind.WKB1)
    assert closed == pytest.approx(cholesky, rel=1e-12)
    assert abs(closed - reference) <= abs(cholesky - reference)


def test_log_det_contribution_matches_slogdet():
    geometry = Geometry(R=4.0, L=1.0)
    cfg = small_config(n_radial=20)
    for block in list(_iter_blocks(1.2, geometry, KernelKind.WKB1, cfg))[:6]:
        got = log_det_contribution(block)
        _, want = np.linalg.slogdet(np.eye(block.entries.shape[0]) - block.entries)
        assert got == pytest.approx(float(want), rel=1e-11, abs=1e-14)


def test_non_contractive_error():
    blk_entries = np.array([[1.5, 0.0], [0.0, 0.2]])
    from planesphere.solver import BlockMatrix

    with pytest.raises(NonContractiveKernelError):
        log_det_contribution(BlockMatrix(m=0, xi=1.0, entries=blk_entries))


# ---------------------------------------------------------------------------
# energy-level invariances
# ---------------------------------------------------------------------------

def test_scaling_invariance():
    # only R/L enters: energies in hbar c / L must match to 1e-12
    cfg = small_config()
    e1 = energy(Geometry(R=5.0, L=1.0), KernelKind.WKB1, config=cfg).energy
    e2 = energy(Geometry(R=15.0, L=3.0), KernelKind.WKB1, config=cfg).energy
    assert e2 == pytest.approx(e1, rel=1e-12)


def test_energy_negative_and_monotone_in_gap():
    # |E(L)| decreases as the gap widens at fixed R
    cfg = small_config(n_radial=24)
    values = []
    for L in (1.0, 1.25, 1.6):
        rep = energy(Geometry(R=5.0, L=L), KernelKind.WKB1, config=cfg)
        # report is in hbar c / L; convert to a fixed unit (hbar c / R)
        values.append(rep.energy * L / 5.0)
        assert rep.energy < 0.0
    assert abs(values[1]) < abs(values[0])
    assert abs(values[2]) < abs(values[1])


def test_ratio_to_pfa_approaches_one():
    cfg = None  # auto per geometry
    ratios = []
    for rho in (10.0, 50.0):
        rep = energy(Geometry(R=rho, L=1.0), KernelKind.WKB1, config=cfg)
        ratios.append(rep.ratio_to_pfa)
        assert 0.0 < rep.ratio_to_pfa < 1.05
    assert ratios[1] > ratios[0]


@pytest.mark.parametrize("threads", [0, -2])
def test_energy_rejects_fewer_than_one_thread(threads):
    with pytest.raises(ValueError, match="threads"):
        energy(Geometry(R=3.0, L=1.0), KernelKind.WKB0, config=small_config(), threads=threads)


class InlinePool:
    """A stand-in for solver.ProcessPoolExecutor that maps in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize("threads,workers", [(64, 4), (3, 3)])
def test_pool_never_exceeds_the_xi_nodes(threads, workers, monkeypatch):
    # a stand-in pool records its size and maps in this process, so no
    # worker is started whatever the thread count
    sizes = []

    class RecordingPool(InlinePool):
        def __init__(self, max_workers):
            sizes.append(max_workers)

    geometry, config = Geometry(R=3.0, L=1.0), small_config(n_xi=4)
    serial = energy(geometry, KernelKind.WKB0, config=config).energy
    monkeypatch.setattr(solver, "ProcessPoolExecutor", RecordingPool)
    pooled = energy(geometry, KernelKind.WKB0, config=config, threads=threads).energy
    assert sizes == [workers]
    assert pooled == pytest.approx(serial, rel=1e-14)


@pytest.mark.parametrize("kind", list(KernelKind))
def test_pool_workers_split_the_xi_nodes(kind, monkeypatch):
    # three workers over four nodes get uneven sets; each set is solved in
    # this process, builds the exact-mie tables of its own nodes only, and
    # the reassembled results equal the serial solve's bit for bit
    geometry, config = Geometry(R=3.0, L=1.0), small_config(n_xi=4)
    serial = energy(geometry, kind, config=config)
    built, build = [], solver._mie_tables
    monkeypatch.setattr(solver, "_mie_tables",
                        lambda xi_nodes, *args: built.append(xi_nodes) or build(xi_nodes, *args))
    monkeypatch.setattr(solver, "ProcessPoolExecutor", InlinePool)
    pooled = energy(geometry, kind, config=config, threads=3)
    assert pooled.energy == serial.energy
    assert pooled.diagnostics == serial.diagnostics
    if kind is KernelKind.EXACT_MIE:
        nodes = list(half_line_nodes_weights(4)[0])
        assert sorted(xi for xi_nodes in built for xi in xi_nodes) == nodes
        assert len(built) == 3
    else:
        assert built == []


def test_exact_mie_energy_does_not_depend_on_the_chunk_size(monkeypatch):
    # every chunk of a xi node reads its amplitudes off the node's one
    # table, so cutting the pairs into smaller chunks changes no bit
    geometry = Geometry(R=20.0, L=1.0)
    want = energy(geometry, KernelKind.EXACT_MIE).energy
    monkeypatch.setattr(solver, "CHUNK_SAMPLES", 1 << 10)
    assert energy(geometry, KernelKind.EXACT_MIE).energy == want


def test_each_table_is_transformed_once_per_energy(monkeypatch):
    # a table holds its node's Chebyshev coefficients, so the transform runs
    # once per xi node with a kept pair, not once per sampling chunk
    calls = []
    transform = mie._chebyshev_table
    monkeypatch.setattr(mie, "_chebyshev_table",
                        lambda values: calls.append(values.shape) or transform(values))
    monkeypatch.setattr(solver, "CHUNK_SAMPLES", 1 << 8)
    report = energy(Geometry(R=10.0, L=1.0), KernelKind.EXACT_MIE)
    assert report.energy == -0.38188202296729484
    kept = sum(m >= 0 for m in report.diagnostics["m_factored"])
    assert kept == 35
    assert len(calls) == kept


def test_mie_tables_live_only_inside_energy(monkeypatch):
    # the tables of a solve are gone when it returns or raises, so a second
    # identical solve does the same work; no chunk sums partial waves itself
    calls, steps = [], []
    direct, advance = ExactAmplitudes.__call__, AngularRecurrence.advance
    monkeypatch.setattr(ExactAmplitudes, "__call__",
                        lambda self, z: calls.append(z.size) or direct(self, z))
    monkeypatch.setattr(AngularRecurrence, "advance",
                        lambda self, *a: steps.append(self.z.size) or advance(self, *a))
    geometry = Geometry(R=10.0, L=1.0)
    first = energy(geometry, KernelKind.EXACT_MIE)
    assert not mie._TABLES
    work, steps[:] = list(steps), []
    second = energy(geometry, KernelKind.EXACT_MIE)
    assert not mie._TABLES
    assert second.energy == first.energy
    assert work and steps == work
    assert calls == []

    seen = []

    def failing(block):
        seen.append(len(mie._TABLES))
        raise NonContractiveKernelError("probe")

    monkeypatch.setattr(solver, "log_det_contribution", failing)
    with pytest.raises(NonContractiveKernelError):
        energy(geometry, KernelKind.EXACT_MIE)
    assert seen and seen[0] > 0
    assert not mie._TABLES


def test_pooled_exact_mie_equals_serial(monkeypatch):
    # every worker builds the tables of its own xi nodes instead of
    # inheriting the parent's memory: spawned workers, which import the
    # package afresh (and chunk by the default CHUNK_SAMPLES), give the
    # serial energy bit for bit
    geometry = Geometry(R=10.0, L=1.0)
    config = small_config(n_radial=24, n_xi=6)
    monkeypatch.setattr(solver, "CHUNK_SAMPLES", 1 << 8)
    serial = energy(geometry, KernelKind.EXACT_MIE, config=config).energy

    class SpawnPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, mp_context=multiprocessing.get_context("spawn"), **kwargs)

    monkeypatch.setattr(solver, "ProcessPoolExecutor", SpawnPool)
    assert energy(geometry, KernelKind.EXACT_MIE, config=config, threads=2).energy == serial


def test_threads_do_not_change_result():
    cfg = small_config()
    geometry = Geometry(R=3.0, L=1.0)
    serial = energy(geometry, KernelKind.WKB0, config=cfg, threads=1)
    parallel = energy(geometry, KernelKind.WKB0, config=cfg, threads=2)
    assert parallel.energy == pytest.approx(serial.energy, rel=1e-14)


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it is not found."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas*.so")
    for path in glob.glob(pattern):
        try:
            getter = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.argtypes = []
        getter.restype = ctypes.c_int
        return getter()
    return None


def test_pool_workers_run_blas_on_one_thread(monkeypatch):
    # the count is read where a worker factors its first block, and sent
    # back in the error that stops the solve; with it the worker's OS
    # thread count, since a forked worker inherits the parent's pinned count
    # and must not start OpenBLAS's thread server, whose idle thread spins
    if _blas_threads() is None:
        pytest.skip("numpy's bundled OpenBLAS getter not found")

    def probing(block):
        tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else 1
        raise NonContractiveKernelError(f"{os.getpid()} {_blas_threads()} {tasks}")

    class ForkPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, mp_context=multiprocessing.get_context("fork"), **kwargs)

    monkeypatch.setattr(solver, "log_det_contribution", probing)
    monkeypatch.setattr(solver, "ProcessPoolExecutor", ForkPool)
    with pytest.raises(NonContractiveKernelError) as probe:
        energy(Geometry(R=3.0, L=1.0), KernelKind.WKB0, config=small_config(n_xi=4), threads=2)
    pid, threads, tasks = str(probe.value).split()
    assert int(pid) != os.getpid()
    assert threads == "1"
    assert tasks == "1"


def test_serial_solve_runs_blas_on_one_thread(monkeypatch):
    before = _blas_threads()
    if before is None:
        pytest.skip("numpy's bundled OpenBLAS getter not found")
    seen = []

    def probing(block):
        seen.append(_blas_threads())
        return log_det_contribution(block)

    monkeypatch.setattr(solver, "log_det_contribution", probing)
    cfg = small_config(n_xi=4)
    energy(Geometry(R=3.0, L=1.0), KernelKind.WKB0, config=cfg)
    assert seen and set(seen) == {1}
    assert _blas_threads() == before

    def failing(block):
        raise NonContractiveKernelError("probe")

    monkeypatch.setattr(solver, "log_det_contribution", failing)
    with pytest.raises(NonContractiveKernelError):
        energy(Geometry(R=3.0, L=1.0), KernelKind.WKB0, config=cfg)
    assert _blas_threads() == before


def test_frozen_reference_energy_rho50():
    # converged reference frozen from a grid-doubling study (spread ~3e-7)
    rep = energy(Geometry(R=50.0, L=1.0), KernelKind.WKB1)
    assert rep.energy == pytest.approx(-2.0947110987, rel=3e-6)


@pytest.mark.parametrize("rho,reference", [
    (10.0, -0.38188202296729407),
    (20.0, -0.8070889038584479),
])
def test_exact_mie_energy_pinned(rho, reference):
    # exact-mie energies of the auto config, pinned to the values of the
    # direct partial-wave sum at every sample; with amplitudes read off the
    # Chebyshev interpolants they must not drift from them
    rep = energy(Geometry(R=rho, L=1.0), KernelKind.EXACT_MIE)
    assert rep.energy == pytest.approx(reference, rel=1e-12)


def test_trace_r1_positive_and_decreasing_in_xi():
    geometry = Geometry(R=5.0, L=1.0)
    cfg = small_config(n_radial=40)
    values = [
        trace_Mr_numeric(1, xi, geometry, KernelKind.WKB0, cfg)
        for xi in (0.5, 1.0, 2.0)
    ]
    assert all(v > 0.0 for v in values)
    assert values[0] > values[1] > values[2]
