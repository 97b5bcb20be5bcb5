"""Analytic asymptotics: beta constants, saddle quantities, reconstructions."""
import ast
import math
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import planesphere
from planesphere.asymptotics import (
    appendix_D,
    beta_bundle,
    e_pfa,
    energy_asymptotic,
    hessian_eigenvalues,
    integrate_0_inf,
    sum_series_with_tail,
    trace_Mr_leading,
    trace_Mr_ntlo,
    trace_Mr_saddle_numeric,
)
from planesphere.core import Geometry, Polarization

PI2 = math.pi**2
TM, TE = Polarization.TM, Polarization.TE


# ---------------------------------------------------------------------------
# beta constants (exact arithmetic)
# ---------------------------------------------------------------------------

def test_beta_constants_exact():
    b = beta_bundle()
    assert b.beta1 == 1.0 / 3.0 - 20.0 / PI2
    assert b.beta_go == 1.0 / 3.0 - 5.0 / PI2
    assert b.beta_d == -15.0 / PI2
    assert b.beta_d_te == -12.5 / PI2
    assert b.beta_d_tm == -2.5 / PI2
    assert b.beta_te == 1.0 / 6.0 - 15.0 / PI2
    assert b.beta_tm == 1.0 / 6.0 - 5.0 / PI2
    assert b.beta_dd == pytest.approx(1.0 / 6.0, abs=0)
    assert b.beta_nn == 1.0 / 6.0 - 20.0 / PI2


def test_beta_sum_rules():
    b = beta_bundle()
    # the NTLO coefficient splits into geometric-optics and diffraction parts
    assert b.beta1 == pytest.approx(b.beta_go + b.beta_d, abs=1e-16)
    assert b.beta_d == pytest.approx(b.beta_d_te + b.beta_d_tm, abs=1e-16)
    assert b.beta_te == pytest.approx(b.beta_go / 2.0 + b.beta_d_te, abs=1e-16)
    assert b.beta_tm == pytest.approx(b.beta_go / 2.0 + b.beta_d_tm, abs=1e-16)


def test_beta_exact_fractions():
    exact = beta_bundle().exact
    assert exact["beta1"] == (Fraction(1, 3), Fraction(-20))
    assert exact["beta_go"] == (Fraction(1, 3), Fraction(-5))
    assert exact["beta_d"] == (Fraction(0), Fraction(-15))
    assert exact["beta_dd"] == (Fraction(1, 6), Fraction(0))
    assert exact["beta_nn"] == (Fraction(1, 6), Fraction(-20))


def test_table_percentages():
    assert beta_bundle().table_percentages == (74.8, 15.0, 5.1, 5.1)


def test_pfa_energy_and_ntlo():
    geometry = Geometry(R=100.0, L=1.0)
    assert e_pfa(geometry) == pytest.approx(-math.pi**3 * 100.0 / 720.0, rel=1e-15)
    b1 = beta_bundle().beta1
    assert energy_asymptotic(geometry) == pytest.approx(
        e_pfa(geometry) * (1.0 + b1 / 100.0), rel=1e-15
    )


# ---------------------------------------------------------------------------
# saddle-point geometry
# ---------------------------------------------------------------------------

def test_hessian_eigenvalues_product_identity():
    # prod_{j=1}^{r-1} (1/lambda_j) = (2 kappa_sp)^{r-1} / r^2
    for r in (2, 3, 5, 8):
        kappa_sp = 1.7
        lam = hessian_eigenvalues(r, kappa_sp)
        assert lam[0] == 0.0
        inv_prod = math.prod(1.0 / v for v in lam[1:])
        assert inv_prod == pytest.approx((2.0 * kappa_sp) ** (r - 1) / r**2, rel=1e-12)


def test_appendix_identity_f1():
    for r in (2, 3, 4, 5):
        for (xi, ks) in ((0.5, 1.0), (1.0, 3.0)):
            ref = appendix_D(r, xi, ks)
            assert ref.f1_over_g == pytest.approx(
                ref.d1 / 12.0 - ref.d2 / 8.0 + ref.d3_over_g / 2.0, rel=1e-12
            )


def test_appendix_D_r2_special_cases():
    # r = 2: D1 vanishes identically (the (r-2) factor)
    ref = appendix_D(2, 0.9, 1.7)
    assert ref.d1 == 0.0
    with pytest.raises(ValueError):
        appendix_D(3, 2.0, 1.0)  # kappa_sp < xi


# ---------------------------------------------------------------------------
# closed traces vs their numeric saddle-integral forms
# ---------------------------------------------------------------------------

def test_leading_traces_match_saddle_numeric():
    geometry = Geometry(R=20.0, L=1.0)
    for r in (1, 2, 4):
        for xi in (0.3, 1.1):
            u = 2.0 * xi * r
            for pol in (TE, TM):
                lead, const = trace_Mr_leading(r, u, pol)
                closed = lead * geometry.aspect_ratio + const
                numeric = trace_Mr_saddle_numeric(r, xi, geometry, "leading", pol)
                assert numeric == pytest.approx(closed, rel=1e-10)


def test_ntlo_traces_match_saddle_numeric():
    geometry = Geometry(R=20.0, L=1.0)
    for r in (2, 3, 5):
        for xi in (0.4, 1.3):
            u = 2.0 * xi * r
            closed = trace_Mr_ntlo(r, u)
            numeric = trace_Mr_saddle_numeric(r, xi, geometry, "ntlo")
            assert numeric == pytest.approx(closed, rel=1e-10)


def test_ntlo_trace_vanishes_for_r1():
    # +0.0, not -0.0: reports print the value ("-0.0" in JSON, "-0" in CSV)
    for u in (0.5, 2.0):
        value = trace_Mr_ntlo(1, u)
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0


# ---------------------------------------------------------------------------
# quadrature and series helpers
# ---------------------------------------------------------------------------

def test_integrate_0_inf_known_values():
    assert integrate_0_inf(lambda u: np.exp(-u)) == pytest.approx(1.0, rel=1e-11)
    assert integrate_0_inf(lambda u: u * np.exp(-u)) == pytest.approx(1.0, rel=1e-11)
    assert integrate_0_inf(lambda u: np.exp(-u) / np.sqrt(u)) == pytest.approx(
        math.sqrt(math.pi), rel=1e-10
    )


def test_sum_series_with_tail_zeta():
    assert sum_series_with_tail(lambda r: 1.0 / r**2) == pytest.approx(
        PI2 / 6.0, rel=1e-11
    )
    assert sum_series_with_tail(lambda r: 1.0 / r**4) == pytest.approx(
        math.pi**4 / 90.0, rel=1e-11
    )



# ---------------------------------------------------------------------------
# layering
# ---------------------------------------------------------------------------

def test_import_loads_no_round_trip_layer():
    # the analytic layer states closed forms only; a fresh interpreter that
    # imports it must load neither the round-trip element nor the solver
    src = str(pathlib.Path(planesphere.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import planesphere.asymptotics; "
        "print(sorted(m for m in sys.modules if m.startswith('planesphere')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    loaded = set(ast.literal_eval(out))
    assert "planesphere.asymptotics" in loaded
    assert not loaded & {"planesphere.reflection", "planesphere.solver"}
