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
    exp_integral_e1,
    log_bessel_i_half,
    log_bessel_k_half,
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
    # I_nu K'_nu - I'_nu K_nu = -1/x with I'_nu = I_{nu+1} + (nu/x) I_nu and
    # K'_nu = (nu/x) K_nu - K_{nu+1} reads I_nu K_{nu+1} + I_{nu+1} K_nu = 1/x;
    # both terms are positive and O(1/x), so the large scales cancel in log
    for ell, x in ((0, 0.5), (3, 2.0), (25, 10.0), (200, 170.0), (1000, 900.0)):
        log_i = log_bessel_i_half(ell + 1, x)
        log_k = log_bessel_k_half(ell + 1, x)
        value = math.exp(log_i[ell] + log_k[ell + 1]) + math.exp(log_i[ell + 1] + log_k[ell])
        assert abs(value * x - 1.0) < 1e-10


def test_bessel_invalid_arguments():
    with pytest.raises(ValueError):
        log_bessel_i_half(3, -1.0)
    with pytest.raises(ValueError):
        log_bessel_k_half(3, 0.0)
    with pytest.raises(ValueError):
        log_bessel_i_half(-1, 1.0)
    with pytest.raises(ValueError):
        log_bessel_k_half(-1, 1.0)


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

def recurrence_at(ell: int, z: float) -> AngularRecurrence:
    """An AngularRecurrence over the single value z, advanced to order ell."""
    rec = AngularRecurrence(np.array([z]))
    for _ in range(ell - 1):
        rec.advance()
    return rec


def test_pi_tau_against_fixtures():
    pi_rows = load_fixtures("pi_ell")
    tau_rows = load_fixtures("tau_ell")
    for (ell, z_str, mant, log_scale), (_, _, mant_t, log_t) in zip(pi_rows, tau_rows):
        rec = recurrence_at(ell, float(z_str))
        for held, want_mant, want_log in ((rec.pi, mant, log_scale), (rec.tau, mant_t, log_t)):
            got = rec.log_offset[0] + math.log(abs(held[0]))
            assert got == pytest.approx(math.log(abs(want_mant)) + want_log, abs=1e-11)
            assert math.copysign(1.0, held[0]) == math.copysign(1.0, want_mant)


def test_pi_tau_low_orders_closed_form():
    z = -2.5
    rec = recurrence_at(1, z)
    assert rec.pi[0] * math.exp(rec.log_offset[0]) == pytest.approx(1.0)
    assert rec.tau[0] * math.exp(rec.log_offset[0]) == pytest.approx(z)
    # pi_2 = 3z, tau_2 = 3(2z^2 - 1) = 6z^2 - 3
    rec.advance()
    assert rec.pi[0] * math.exp(rec.log_offset[0]) == pytest.approx(3.0 * z, rel=1e-14)
    assert rec.tau[0] * math.exp(rec.log_offset[0]) == pytest.approx(
        2.0 * z * 3.0 * z - 3.0 * 1.0, rel=1e-14
    )


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


def test_angular_recurrence_keep_continues_the_kept_elements():
    # dropping elements mid-way leaves the others exactly where a recurrence
    # over them alone would be
    rng = np.random.default_rng(3)
    z = -1.0 - 10.0 ** rng.uniform(-12.0, 4.0, 40)
    mask = np.arange(z.size) % 2 == 0
    rec = AngularRecurrence(z)
    alone = AngularRecurrence(z[mask])
    for _ in range(20):
        rec.advance()
        alone.advance()
    rec.keep(mask)
    for _ in range(50):
        rec.advance()
        alone.advance()
    np.testing.assert_array_equal(rec.z, z[mask])
    for name in ("pi", "pi_prev", "tau", "log_offset"):
        np.testing.assert_array_equal(getattr(rec, name), getattr(alone, name))


def test_angular_recurrence_rejects_bad_branch():
    with pytest.raises(ValueError):
        AngularRecurrence(np.array([-0.5]))
    with pytest.raises(ValueError):
        AngularRecurrence(np.array([-3.0, 0.0]))


@pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
def test_angular_recurrence_rejects_non_finite_z(bad):
    # NaN compares false with everything, so a branch check z > -1 alone
    # lets it through, and -inf lies on the branch but has no finite scale
    with pytest.raises(ValueError, match="finite"):
        AngularRecurrence(np.array([-3.0, bad]))


@settings(max_examples=25)
@given(st.floats(min_value=-50.0, max_value=-1.0), st.integers(min_value=2, max_value=400))
def test_pi_tau_growth_is_monotone(z, ell_max):
    # |pi_ell| grows like (|z| + sqrt(z^2-1))^ell for z < -1: log-convex tail
    rec = AngularRecurrence(np.array([z]))
    logs = np.empty(ell_max)
    for ell in range(1, ell_max + 1):
        if ell > 1:
            rec.advance()
        logs[ell - 1] = rec.log_offset[0] + math.log(abs(rec.pi[0]))
    if z < -1.0 and ell_max >= 10:
        assert logs[-1] >= logs[ell_max // 2]
