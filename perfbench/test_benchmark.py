"""Tests of the benchmark itself: its correctness checks and its trace arithmetic.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import math

import numpy as np
import pytest

from perfbench import checks, tracer, workloads
from perfbench.tracer import Span
from planesphere import solver
from planesphere.asymptotics import beta_bundle
from planesphere.core import Geometry
from planesphere.mie import ExactAmplitudes
from planesphere.reflection import KernelKind
from planesphere.solver import QuadratureConfig, energy

RHOS = (50.0, 100.0, 200.0)


def _ratios(beta, gamma):
    return {rho: 1.0 + beta / rho + gamma / rho**1.5 for rho in RHOS}


def _sweep(beta1_scale=1.0, beta_go_scale=1.0):
    b = beta_bundle()
    wkb0 = _ratios(b.beta_go * beta_go_scale, 0.4)
    wkb1 = _ratios(b.beta1 * beta1_scale, 0.9)
    return wkb0, wkb1


def test_beta_sweep_accepts_closed_forms():
    assert checks.check_beta_sweep(*_sweep()) == []


@pytest.mark.parametrize("scale", [1.1, 0.9])
def test_beta_sweep_rejects_beta_off_by_ten_percent(scale):
    assert checks.check_beta_sweep(*_sweep(beta1_scale=scale))
    assert checks.check_beta_sweep(*_sweep(beta_go_scale=scale))


def test_beta_sweep_rejects_energy_off_by_1e_2():
    wkb0, wkb1 = _sweep()
    wkb1[100.0] *= 1.0 + 1e-2
    assert checks.check_beta_sweep(wkb0, wkb1)


def test_beta_sweep_rejects_ratio_above_one_or_falling():
    wkb0, wkb1 = _sweep()
    assert checks.check_beta_sweep(wkb0, {**wkb1, 200.0: 1.0 + 1e-9})
    assert checks.check_beta_sweep(wkb0, {**wkb1, 200.0: wkb1[50.0] - 1e-9})


def test_exact_vs_wkb1_gap():
    e_wkb1 = -0.81
    assert checks.check_exact_vs_wkb1(e_wkb1 * (1 - 3e-3), e_wkb1, 0.937, 20.0) == []
    # the gap allowed at R/L = 20 is 20^-1.5 = 1.1e-2
    assert checks.check_exact_vs_wkb1(e_wkb1 * (1 - 3e-3) * (1 - 1e-2), e_wkb1, 0.937, 20.0)
    assert checks.check_exact_vs_wkb1(e_wkb1, e_wkb1, 1.01, 20.0)


def test_trace_and_pool_checks_reject_perturbed_values():
    assert checks.check_traces(0.314, 0.314 * (1 + 1e-6), 1) == []
    assert checks.check_traces(0.314, 0.314 * (1 + 1e-2), 1)
    assert checks.check_pool(-4.2, -4.2) == []
    assert checks.check_pool(-4.2 * (1 + 1e-2), -4.2)
    assert checks.check_pool(-4.2 * (1 + 1e-12), -4.2)


def test_amplitudes_match_mpmath_and_reject_perturbation():
    xi, z = 0.7, -3.0
    mant_perp, mant_par, log_scale = ExactAmplitudes(xi, 20.0)(np.array([z]))
    code = (float(mant_perp[0]), float(mant_par[0]), float(log_scale[0]))
    ref = checks.mp_amplitudes(xi, 20.0, z)
    assert checks.check_amplitudes(code, ref, "x") == []
    assert checks.check_amplitudes((code[0] * (1 + 1e-2), code[1], code[2]), ref, "x")
    assert checks.check_amplitudes((code[0], -code[1], code[2]), ref, "x")


def test_spot_points_follow_the_seed():
    assert workloads.spot_points(3) == workloads.spot_points(3)
    assert workloads.spot_points(3) != workloads.spot_points(4)
    for xi, z in workloads.spot_points(7):
        assert 0.05 <= xi <= 1.5 and -11.0 <= z <= -1.001


def _span(sid, parent, name, start, end, data=None):
    return Span(sid, parent, name, float(start), float(end), 1, data)


def test_self_times_on_a_hand_built_tree():
    spans = [
        _span(1, None, "root", 0, 10),
        _span(2, 1, "a", 1, 4),
        _span(3, 1, "b", 3, 6),     # overlaps a, as parallel pool workers do
        _span(4, 1, "c", 9, 12),    # runs past its parent: clipped at 10
        _span(5, 2, "d", 2, 3),
        _span(6, 2, "e", 2.5, 3.5),
    ]
    own = tracer.self_times(spans)
    assert own[1] == pytest.approx(10 - (5 + 1))
    assert own[2] == pytest.approx(3 - 1.5)
    assert own[3] == pytest.approx(3)
    assert own[4] == pytest.approx(3)
    assert own[5] == pytest.approx(1)


def test_layer_metrics_on_a_hand_built_trace():
    spans = [
        _span(1, None, "solver.xi", 0, 10, {"total": -1.0, "mh": 4}),
        _span(2, 1, "solver.block_iter", 0, 3),
        _span(3, 2, "solver.kernel", 0, 2, {"kept": 0, "total": 10}),
        _span(4, 1, "solver.logdet", 3, 5, {"dim": 10, "m": 0, "value": -0.9}),
        _span(5, 1, "solver.logdet", 5, 6, {"dim": 10, "m": 1, "value": -6e-14}),
        _span(6, 1, "solver.logdet", 6, 7, {"dim": 10, "m": 4, "value": -8e-14}),
        _span(7, None, "mie.amplitudes", 10, 20, {"z": 5}),
        _span(8, 7, "special.recurrence", 11, 12, {"elems": 5}),
        _span(9, 7, "special.recurrence", 12, 13, {"elems": 5}),
    ]
    m = tracer.layer_metrics(spans, rounds=2)
    assert list(m) == list(tracer.LAYER_UNITS)
    assert m["solver.xi_s"] == pytest.approx((10 - 3 - 4) / 2)
    assert m["solver.block_iter_s"] == pytest.approx(1 / 2)
    assert m["solver.kernel_s"] == pytest.approx(2 / 2)
    assert m["solver.logdet_s"] == pytest.approx(4 / 2)
    assert m["solver.logdet_gflop"] == pytest.approx(3 * 1000 / 3 / 1e9 / 2)
    # m=1 counts twice (1.2e-13 of the total), m=mh=4 once (8e-14 < 1e-13)
    assert m["solver.blocks_negligible"] == pytest.approx(1 / 2)
    assert m["solver.xi_nodes_empty"] == pytest.approx(1 / 2)
    assert m["mie.amplitudes_s"] == pytest.approx(8 / 2)
    assert m["special.recurrence_elem_steps"] == pytest.approx(10 / 2)
    assert m["mie.ell_max"] == 3


def test_pool_worker_spans_reach_the_trace():
    geometry = Geometry(R=5.0, L=1.0)
    config = QuadratureConfig(n_radial=16, n_azimuthal=64, n_xi=4)
    serial = energy(geometry, KernelKind.WKB1, config=config).energy
    tr = tracer.Tracer()
    tr.install()
    try:
        with tr.solve("pool"):
            pooled = energy(geometry, KernelKind.WKB1, config=config, threads=2).energy
    finally:
        tr.uninstall()
    assert solver._xi_contribution.__name__ == "_xi_contribution"
    assert not hasattr(solver._xi_contribution, "__wrapped__")
    assert pooled == pytest.approx(serial, rel=1e-14)
    (pool,) = [s for s in tr.spans if s.name == "solver.pool"]
    xi_spans = [s for s in tr.spans if s.name == "solver.xi"]
    assert len(xi_spans) == 4
    assert all(s.parent == pool.sid and s.solve == 1 for s in xi_spans)
    assert all(pool.start <= s.start and s.end <= pool.end for s in xi_spans)
    assert math.isfinite(tracer.layer_metrics(tr.spans, 1)["solver.pool_wait_s"])
