"""Special-function layer: fixtures, Wronskian, and stability properties."""
import csv
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planesphere.special import (
    EULER_GAMMA,
    AngularRecurrence,
    ScaledValue,
    bessel_ik_half_scaled,
    exp_integral_e1,
    log_bessel_i_half,
    log_bessel_k_half,
    pi_tau,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "special_values.csv"


def load_fixtures(function: str):
    rows = []
    with FIXTURES.open() as fh:
        for row in csv.DictReader(fh):
            if row["function"] == function:
                rows.append(
                    (
                        int(row["ell"]),
                        row["x_or_z"],
                        float(row["mantissa"]),
                        float(row["log_scale"]),
                    )
                )
    assert rows, f"no fixture rows for {function}"
    return rows


# ---------------------------------------------------------------------------
# ScaledValue arithmetic
# ---------------------------------------------------------------------------

def test_scaled_value_normalization():
    sv = ScaledValue(1234.5).normalized()
    assert 0.1 < abs(sv.mantissa) <= 1.0
    assert sv.to_float() == pytest.approx(1234.5, rel=1e-15)
    assert ScaledValue(0.0, 5.0).normalized() == ScaledValue(0.0, 0.0)


@given(
    st.floats(min_value=-1e6, max_value=1e6).filter(lambda v: abs(v) > 1e-6),
    st.floats(min_value=-50.0, max_value=50.0),
)
def test_scaled_value_roundtrip(mantissa, log_scale):
    sv = ScaledValue(mantissa, log_scale).normalized()
    assert 0.1 < abs(sv.mantissa) <= 1.0
    assert sv.log_abs() == pytest.approx(
        math.log(abs(mantissa)) + log_scale, abs=1e-12
    )


@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_scaled_value_product(a, b):
    pa = ScaledValue(a).normalized()
    pb = ScaledValue(b, 2.0).normalized()
    prod = pa * pb
    assert prod.to_float() == pytest.approx(a * b * math.exp(2.0), rel=1e-13)


# ---------------------------------------------------------------------------
# Bessel functions against mpmath fixtures
# ---------------------------------------------------------------------------

def test_bessel_i_against_fixtures():
    for ell, x_str, mant, log_scale in load_fixtures("bessel_i_half"):
        x = float(x_str)
        got = log_bessel_i_half(ell, x)[ell]
        want = math.log(mant) + log_scale
        assert got == pytest.approx(want, abs=5e-12 * max(1.0, abs(want)))


def test_bessel_k_against_fixtures():
    for ell, x_str, mant, log_scale in load_fixtures("bessel_k_half"):
        x = float(x_str)
        got = log_bessel_k_half(ell, x)[ell]
        want = math.log(mant) + log_scale
        assert got == pytest.approx(want, abs=5e-12 * max(1.0, abs(want)))


def test_wronskian_identity():
    # I_nu(x) K'_nu(x) - I'_nu(x) K_nu(x) = -1/x, checked in scaled form
    for ell, x in ((0, 0.5), (3, 2.0), (25, 10.0), (200, 170.0), (1000, 900.0)):
        i_v, k_v, i_d, k_d = bessel_ik_half_scaled(ell, x)
        term1 = i_v * k_d
        term2 = i_d * k_v
        # both terms are O(1/x); the shared scale cancels in the difference
        lead = max(term1.log_scale, term2.log_scale)
        diff = term1.mantissa * math.exp(term1.log_scale - lead) - (
            term2.mantissa * math.exp(term2.log_scale - lead)
        )
        value = diff * math.exp(lead)
        assert abs(value * x + 1.0) < 1e-10


def test_bessel_invalid_arguments():
    with pytest.raises(ValueError):
        log_bessel_i_half(3, -1.0)
    with pytest.raises(ValueError):
        log_bessel_k_half(3, 0.0)
    with pytest.raises(ValueError):
        bessel_ik_half_scaled(-1, 1.0)


# ---------------------------------------------------------------------------
# exponential integral
# ---------------------------------------------------------------------------

def test_e1_against_fixtures():
    for _, u_str, mant, log_scale in load_fixtures("e1"):
        u = float(u_str)
        want = mant * math.exp(log_scale)
        assert exp_integral_e1(u) == pytest.approx(want, rel=1e-12)


def test_e1_series_fraction_crossover():
    # the two internal branches must agree where they meet
    for u in (0.9, 0.999, 1.0, 1.001, 1.1):
        val = exp_integral_e1(u)
        # reference via the other branch's region using the recurrence
        # E1(u) = e^{-u} - u * E1_int ... instead compare to mp-fixed value
        assert val > 0.0
    lo = exp_integral_e1(1.0 - 1e-9)
    hi = exp_integral_e1(1.0 + 1e-9)
    # remove the genuine slope E1'(1) = -e^{-1} before comparing branches
    assert lo - hi == pytest.approx(2e-9 * math.exp(-1.0), rel=1e-3)


def test_e1_domain():
    with pytest.raises(ValueError):
        exp_integral_e1(0.0)


def test_e1_small_u_log_behavior():
    u = 1e-8
    assert exp_integral_e1(u) == pytest.approx(-EULER_GAMMA - math.log(u), rel=1e-7)


# ---------------------------------------------------------------------------
# angular functions
# ---------------------------------------------------------------------------

def test_pi_tau_against_fixtures():
    pi_rows = load_fixtures("pi_ell")
    tau_rows = load_fixtures("tau_ell")
    for (ell, z_str, mant, log_scale), (_, _, mant_t, log_t) in zip(pi_rows, tau_rows):
        z = float(z_str)
        pi_arr, tau_arr = pi_tau(ell, z)
        got_pi = pi_arr[ell - 1]
        got_tau = tau_arr[ell - 1]
        assert got_pi.log_abs() == pytest.approx(
            math.log(abs(mant)) + log_scale, abs=1e-11
        )
        assert got_pi.sign == math.copysign(1.0, mant)
        assert got_tau.log_abs() == pytest.approx(
            math.log(abs(mant_t)) + log_t, abs=1e-11
        )
        assert got_tau.sign == math.copysign(1.0, mant_t)


def test_pi_tau_low_orders_closed_form():
    z = -2.5
    pi_arr, tau_arr = pi_tau(3, z)
    assert pi_arr[0].to_float() == pytest.approx(1.0)
    assert tau_arr[0].to_float() == pytest.approx(z)
    # pi_2 = 3z, tau_2 = 3(2z^2 - 1) = 6z^2 - 3
    assert pi_arr[1].to_float() == pytest.approx(3.0 * z, rel=1e-14)
    assert tau_arr[1].to_float() == pytest.approx(2.0 * z * 3.0 * z - 3.0 * 1.0, rel=1e-14)


def test_angular_recurrence_matches_scalar_path():
    # independent references, all on one array: the closed forms
    # pi_ell(-1) = (-1)^(ell-1) ell(ell+1)/2, tau_ell(-1) = (-1)^ell ell(ell+1)/2
    # at every ell up to 10^4, and the mpmath fixtures at z = -3 and -1e6
    fixtures = {
        (name, ell, float(z_str)): (mant, log_scale)
        for name in ("pi_ell", "tau_ell")
        for ell, z_str, mant, log_scale in load_fixtures(name)
    }
    z = np.array([-1.0, -3.0, -1e6])
    rec = AngularRecurrence(z)
    ell_top = 10_000
    pi_edge = np.empty(ell_top)
    tau_edge = np.empty(ell_top)
    for ell in range(1, ell_top + 1):
        if ell > 1:
            rec.advance()
        pi_edge[ell - 1] = rec.pi[0] * math.exp(rec.log_offset[0])
        tau_edge[ell - 1] = rec.tau[0] * math.exp(rec.log_offset[0])
        if ell == 400:
            for idx in (1, 2):
                for name, held in (("pi_ell", rec.pi), ("tau_ell", rec.tau)):
                    mant, log_scale = fixtures[(name, ell, float(z[idx]))]
                    got = rec.log_offset[idx] + math.log(abs(held[idx]))
                    assert got == pytest.approx(math.log(abs(mant)) + log_scale, abs=1e-11)
                    assert math.copysign(1.0, held[idx]) == math.copysign(1.0, mant)
    ells = np.arange(1, ell_top + 1, dtype=float)
    half = ells * (ells + 1.0) / 2.0
    sign = np.where(ells % 2 == 1, 1.0, -1.0)   # (-1)^(ell-1)
    np.testing.assert_allclose(pi_edge, sign * half, rtol=1e-13)
    np.testing.assert_allclose(tau_edge, -sign * half, rtol=1e-13)


def test_angular_recurrence_rejects_bad_branch():
    with pytest.raises(ValueError):
        AngularRecurrence(np.array([-0.5]))
    with pytest.raises(ValueError):
        pi_tau(5, 0.0)


@settings(max_examples=25)
@given(st.floats(min_value=-50.0, max_value=-1.0), st.integers(min_value=2, max_value=400))
def test_pi_tau_growth_is_monotone(z, ell_max):
    # |pi_ell| grows like (|z| + sqrt(z^2-1))^ell for z < -1: log-convex tail
    pi_arr, _ = pi_tau(ell_max, z)
    logs = pi_arr.log_abs()
    if z < -1.0 and ell_max >= 10:
        assert logs[-1] >= logs[ell_max // 2]
