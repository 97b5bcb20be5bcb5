"""Derivative oracles: stencils, W transform, appendix checks, brute traces."""
import math

import numpy as np
import pytest

from planesphere import mie, oracles, reflection
from planesphere.asymptotics import appendix_D
from planesphere.core import Geometry
from planesphere.oracles import (
    _eta_c,
    _pair_elements,
    _radial_gl,
    beta_fit,
    brute_force_trace,
    d_pq_classes,
    f_phase,
    g_function,
    g_scalar,
    hessian_counter_diagonal,
    mixed_derivative,
    numeric_F1,
    polarization_mixing_cancellation,
    saddle_config,
    vanishing_residuals,
    w_direction,
    w_matrix,
)
from planesphere.reflection import KernelKind, round_trip_element, sphere_element


def test_w_matrix_unitary():
    for r in (2, 3, 5):
        w = w_matrix(r)
        np.testing.assert_allclose(w @ w.conj().T, np.eye(r), atol=1e-14)


def test_derivative_stencil_polynomials():
    x0 = np.zeros((1, 2), dtype=complex)
    u = np.zeros((1, 2), dtype=complex)
    u[0, 0] = 1.0
    v = np.zeros((1, 2), dtype=complex)
    v[0, 1] = 1.0
    f = lambda x: x[0, 0] ** 3 * x[0, 1] + 2.0 * x[0, 0] * x[0, 1]
    # d2/dx dy at 0 = 2, d4/dx^3 dy = 6
    assert complex(mixed_derivative(f, x0, [u, v], 0.1)).real == pytest.approx(
        2.0, abs=1e-10
    )
    assert complex(mixed_derivative(f, x0, [u, u, u, v], 0.1)).real == pytest.approx(
        6.0, abs=1e-8
    )


def test_derivative_stencil_complex_direction():
    # analytic functions admit complex displacement directions
    x0 = np.zeros((1, 2), dtype=complex)
    u = np.zeros((1, 2), dtype=complex)
    u[0, 0] = 1.0j
    f = lambda x: np.exp(x[0, 0])
    got = complex(mixed_derivative(f, x0, [u, u], 0.05))
    assert got.real == pytest.approx(-1.0, abs=1e-9)  # (i)^2 e^0
    assert got.imag == pytest.approx(0.0, abs=1e-9)


def test_mixed_derivative_keeps_real_arguments_real():
    # a function of real arguments only (math.hypot would drop an imaginary
    # part) sees real arrays when x0 and the directions are real
    x0 = np.array([[3.0, 4.0]])
    u = np.array([[1.0, 0.0]])
    seen = set()

    def f(x):
        seen.add(x.dtype)
        return math.hypot(x[0, 0], x[0, 1])

    first = mixed_derivative(f, x0, [u], 0.1)
    second = mixed_derivative(f, x0, [u, u], 0.1)
    assert seen == {np.dtype(float)}
    assert isinstance(first, float) and isinstance(second, float)
    assert first == pytest.approx(0.6, abs=1e-9)  # x / |x|
    assert second == pytest.approx(16.0 / 125.0, abs=1e-9)  # y^2 / |x|^3


def test_f_phase_zero_on_saddle_and_positive_nearby():
    xi, ks = 0.7, 1.3
    for r in (2, 4):
        x0 = saddle_config(r, xi, ks)
        assert abs(f_phase(xi, x0)) < 1e-14
        bumped = x0.copy()
        bumped[0, 0] += 0.05
        assert f_phase(xi, bumped).real > 0.0
    # the one-leg phase is symmetric in its two wave vectors
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.array([2.0 * math.cos(0.5), 2.0 * math.sin(0.5)], dtype=complex)
    assert _eta_c(xi, a, b) == pytest.approx(_eta_c(xi, b, a), rel=1e-14)


def test_g_scalar_value():
    xi = 0.9
    cfg = saddle_config(3, xi, 2.0)
    kappa = 2.0
    want = (math.exp(-2.0 * kappa) / kappa) ** 3
    assert complex(g_scalar(xi, cfg)).real == pytest.approx(want, rel=1e-13)


def test_g_function_on_saddle_matches_closed_form():
    # order 0 on the saddle: both polarization chains survive with weight
    # prod_j e^{-2 kappa L} / kappa each, so g = 2 (e^{-2 kappa L}/kappa)^r
    xi, k = 0.8, 1.5
    kappa = math.hypot(xi, k)
    for r in (1, 2, 3, 13):
        config = np.zeros((r, 2))
        config[:, 0] = k
        want = 2.0 * (math.exp(-2.0 * kappa) / kappa) ** r
        assert g_function(xi, config) == pytest.approx(want, rel=1e-12)


def test_g_function_collinear_off_saddle():
    # with every k_y = 0 the channels share one scattering plane, so the
    # polarizations do not mix and both chains carry prod_j e^{-2 kappa_j}/kappa_j
    # (a leg that reverses k_x flips the sign of both channels; a closed loop
    # reverses an even number of times)
    rng = np.random.default_rng(5)
    for r in range(1, 9):
        for _ in range(5):
            xi = rng.uniform(0.2, 2.0)
            config = np.zeros((r, 2))
            config[:, 0] = rng.uniform(0.05, 3.0, size=r) * rng.choice([-1.0, 1.0], size=r)
            kap = np.hypot(xi, config[:, 0])
            want = 2.0 * math.prod(math.exp(-2.0 * q) / q for q in kap)
            assert g_function(xi, config) == pytest.approx(want, rel=1e-10)


def per_leg_g(xi, config):
    """g_function's transfer-matrix trace, one scalar sphere element per leg."""
    r = len(config)
    chain = np.eye(2)
    for j in range(r):
        (ax, ay), (bx, by) = config[j], config[(j + 1) % r]
        el = sphere_element(xi, math.hypot(ax, ay), math.hypot(bx, by),
                            math.atan2(by, bx) - math.atan2(ay, ax), 1.0, KernelKind.WKB0)
        rho = np.array([[el.mm, el.me], [el.em, el.ee]], dtype=float) / math.pi
        kap = math.hypot(xi, math.hypot(ax, ay))
        chain = (rho * np.array([1.0, -1.0]) * math.exp(-2.0 * kap) / kap) @ chain
    return float(np.trace(chain))


def test_g_function_matches_per_leg_chain():
    # off the saddle and out of plane, where the polarizations mix
    rng = np.random.default_rng(9)
    for r in range(1, 9):
        for _ in range(5):
            xi = rng.uniform(0.1, 2.0)
            config = rng.uniform(-3.0, 3.0, size=(r, 2))
            assert g_function(xi, config) == pytest.approx(per_leg_g(xi, config), rel=1e-12)


def test_hessian_counter_diagonal_structure():
    # (W^T H_xx W)_{jl} = lambda_j delta_{j, r-l}; this also certifies the
    # real parametrization used for all v-space derivatives
    for r in (2, 3, 4):
        assert hessian_counter_diagonal(r, 0.7, 1.3) < 1e-6


def test_numeric_F1_matches_closed_forms():
    for r in (2, 3):
        for (xi, ks) in ((0.7, 1.3), (1.5, 2.0)):
            num = numeric_F1(r, xi, ks)
            ref = appendix_D(r, xi, ks)
            assert num.d1 == pytest.approx(ref.d1, rel=1e-5, abs=1e-9)
            assert num.d2 == pytest.approx(ref.d2, rel=1e-5)
            assert num.d3_over_g == pytest.approx(ref.d3_over_g, rel=1e-5)
            assert num.f1_over_g == pytest.approx(ref.f1_over_g, rel=1e-5)


def test_numeric_F1_requires_r_at_least_2():
    with pytest.raises(ValueError):
        numeric_F1(1, 0.7, 1.3)


def test_vanishing_claims():
    res = vanishing_residuals(3, 0.7, 1.3)
    assert res["g_i_scaled"] < 1e-7
    assert res["f_ijjbar_scaled"] < 1e-7


def test_polarization_mixing_cancels():
    for r in (2, 3):
        assert polarization_mixing_cancellation(r, 0.7, 1.3) < 1e-7


def test_d_pq_classes():
    res = d_pq_classes(3, 0.7, 1.3)
    for name, residual in res.items():
        assert residual < 1e-5, name


def test_brute_force_trace_r1_frozen():
    # frozen after cross-checking against adaptive scipy quadrature of the
    # same integrand (agreement ~1e-15)
    geometry = Geometry(R=5.0, L=1.0)
    assert brute_force_trace(1, 1.0, geometry, n_k=140) == pytest.approx(
        0.3141983752347467, rel=1e-12
    )


def test_brute_force_trace_r2_frozen():
    # the criterion-5 r = 2 quadrature, frozen at the value of its
    # evaluation as one whole-grid array
    geometry = Geometry(R=5.0, L=1.0)
    assert brute_force_trace(2, 1.0, geometry, n_k=64, n_phi=192) == pytest.approx(
        0.008048406945296332, rel=1e-12
    )


def test_brute_force_trace_r2_makes_one_amplitude_call(monkeypatch):
    # only the outgoing leg is evaluated, every element of the grid exactly
    # once over its chunks; the return leg is read off the same table, and
    # one partial-wave sum, the table's, serves every chunk
    n_k, n_phi = 8, 16
    monkeypatch.setattr(oracles, "CHUNK_SAMPLES", 3 * n_k * n_phi)   # chunks of 3, 3, 2 rows
    calls, sums = [], []
    original = reflection._amplitudes
    sum_batches = mie._sum_batches

    def counted(xi, p_diff, rho, kind):
        calls.append((np.size(p_diff), kind))
        return original(xi, p_diff, rho, kind)

    monkeypatch.setattr(reflection, "_amplitudes", counted)
    monkeypatch.setattr(mie, "_sum_batches", lambda *a: sums.append(a) or sum_batches(*a))
    brute_force_trace(2, 1.0, Geometry(R=5.0, L=1.0), n_k=n_k, n_phi=n_phi)
    assert [size for size, _ in calls] == [3 * n_k * n_phi, 3 * n_k * n_phi, 2 * n_k * n_phi]
    assert sum(size for size, _ in calls) == n_k * n_k * n_phi
    assert all(kind is KernelKind.EXACT_MIE for _, kind in calls)
    assert len(sums) == 1


def test_pair_elements_chunks_equal_one_whole_grid_call(monkeypatch):
    # in-node rows in chunks over one table, against one untabled
    # round_trip_element call over the whole grid, bit for bit
    xi, rho, n_k, n_phi = 1.0, 5.0, 10, 16
    monkeypatch.setattr(oracles, "CHUNK_SAMPLES", 4 * n_k * n_phi)   # chunks of 4, 4, 2 rows
    assert len(oracles._row_chunks(n_k, n_phi)) == 3
    k, _ = _radial_gl(n_k, xi)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    forward = _pair_elements(xi, k, phi, rho)
    *channels, log_scale = round_trip_element(
        xi, k[:, None, None], k[None, :, None], phi, rho, KernelKind.EXACT_MIE
    )
    scale = np.exp(log_scale)
    assert forward.shape == (4, n_k, n_k, n_phi)
    for got, want in zip(forward, channels):
        np.testing.assert_array_equal(got, want * scale)


def test_pair_elements_backward_leg_is_the_direct_element():
    # the return leg in=b -> out=a at -phi_l, read at grid point
    # (b, a, -l mod n_phi) of the outgoing table, against a direct
    # evaluation at those arguments, channel by channel
    xi, rho, n_phi = 1.0, 5.0, 16
    k, _ = _radial_gl(8, xi)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    forward = _pair_elements(xi, k, phi, rho)
    backward = forward.transpose(0, 2, 1, 3)[..., -np.arange(n_phi) % n_phi]
    *channels, log_scale = round_trip_element(
        xi, k[None, :, None], k[:, None, None], -phi, rho, KernelKind.EXACT_MIE
    )
    scale = np.exp(log_scale)
    for got, want in zip(backward, channels):
        want = want * scale
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_brute_force_trace_unsupported_r():
    with pytest.raises(ValueError):
        brute_force_trace(3, 1.0, Geometry(R=5.0, L=1.0))


def test_beta_fit_recovers_synthetic_slopes():
    beta, gamma, delta = -1.7, 2.3, -0.9
    samples = [
        (rho, 1.0 + beta / rho + gamma / rho**1.5 + delta / rho**2)
        for rho in (100.0, 200.0, 400.0, 800.0)
    ]
    est, err = beta_fit(samples, model="quadratic")
    assert est == pytest.approx(beta, rel=1e-9)
    lin_est, lin_err = beta_fit([(r, 1.0 + beta / r) for r in (50.0, 100.0)],
                                model="linear")
    assert lin_est == pytest.approx(beta, rel=1e-12)
    with pytest.raises(ValueError):
        beta_fit(samples, model="cubic")


def test_w_direction_shape():
    d = w_direction(4, 1, 1)
    assert d.shape == (4, 2)
    assert np.all(d[:, 0] == 0.0)
    np.testing.assert_allclose(d[:, 1], w_matrix(4)[:, 1])
