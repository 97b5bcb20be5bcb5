"""Mie coefficients and scattering amplitudes: fixtures, WKB limit, scaling."""
import csv
import math
import pathlib

import numpy as np
import pytest

from planesphere.mie import (
    ExactAmplitudes,
    TruncationError,
    _mie_ab_log_arrays,
    wkb_diffraction_s,
)
from planesphere.reflection import KernelKind, _amplitudes

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
    assert rows
    return rows


def test_mie_coefficients_against_fixtures():
    a_rows = load_fixtures("mie_a")
    b_rows = load_fixtures("mie_b")
    for (ell, x_str, a_mant, a_log), (_, _, b_mant, b_log) in zip(a_rows, b_rows):
        sign_a, log_a, sign_b, log_b = _mie_ab_log_arrays(float(x_str), ell)
        a = sign_a[ell - 1] * math.exp(log_a[ell - 1])
        b = sign_b[ell - 1] * math.exp(log_b[ell - 1])
        assert a == pytest.approx(a_mant * math.exp(a_log), rel=1e-11)
        assert b == pytest.approx(b_mant * math.exp(b_log), rel=1e-11)


def test_mie_signs():
    # sign(a_ell) = (-1)^ell, sign(b_ell) = (-1)^{ell+1}
    sign_a, _, sign_b, _ = _mie_ab_log_arrays(2.5, 8)
    for ell in range(1, 9):
        assert sign_a[ell - 1] == (-1.0) ** ell
        assert sign_b[ell - 1] == (-1.0) ** (ell + 1)


def test_mie_input_validation():
    with pytest.raises(ValueError):
        _mie_ab_log_arrays(-1.0, 1)
    with pytest.raises(ValueError):
        ExactAmplitudes(-1.0, 1.0)


def test_amplitudes_against_fixtures():
    perp_rows = load_fixtures("s_perp")
    par_rows = load_fixtures("s_par")
    # logs and signs: the largest reference, |S| ~ e^2752, overflows a float
    for perp_row, par_row in zip(perp_rows, par_rows):
        x_str, z_str = perp_row[1].split("|")
        mant_perp, mant_par, log_acc = ExactAmplitudes(float(x_str), 1.0)(np.array([float(z_str)]))
        for got, (_, _, mant, log_scale) in ((mant_perp[0], perp_row), (mant_par[0], par_row)):
            assert math.log(abs(got)) + log_acc[0] == pytest.approx(
                math.log(abs(mant)) + log_scale, abs=1e-10
            )
            assert math.copysign(1.0, got) == math.copysign(1.0, mant)


def test_amplitudes_wkb_limit():
    """Exact partial-wave sums approach the WKB form as x -> infinity.

    The mantissas are S_p / e^{2x sin(Theta/2)}, so the order-1 corrected
    WKB reference is -/+ (x/2)(1 + s_p/R).  It differs from the exact
    amplitude by O(1/x^2), so the scaled residual must fall ~4x per
    doubling of x.
    """
    z, R = -3.0, 1.0
    residuals = []
    for x in (40.0, 80.0, 160.0):
        mant_perp, mant_par, _ = ExactAmplitudes(x, R)(np.array([z]))
        s_perp, s_par = wkb_diffraction_s(x, x * x * (-1.0 - z))
        r_perp = abs(mant_perp[0] / (-0.5 * x * (1.0 + s_perp / R)) - 1.0)
        r_par = abs(mant_par[0] / (0.5 * x * (1.0 + s_par / R)) - 1.0)
        residuals.append(max(r_perp, r_par))
    assert residuals[0] < 1e-2
    assert residuals[1] < 0.30 * residuals[0]
    assert residuals[2] < 0.30 * residuals[1]


def test_wkb_exponent_matches_log_scale():
    # the log_scale of the wkb0 amplitudes is exactly 2 xi R sin(Theta/2),
    # and (2 pi / xi) S_p = pref * mantissa with S_p = -/+ (xi R/2) on it
    xi, R, z = 2.0, 7.0, -5.0
    sh = math.sqrt(0.5 * (1.0 - z))
    wkb = _amplitudes(xi, xi * xi * (-1.0 - z), R, KernelKind.WKB0)
    assert wkb.log_scale == pytest.approx(2.0 * xi * R * sh, rel=1e-15)
    assert wkb.pref * wkb.par == pytest.approx(2.0 * math.pi / xi * (0.5 * xi * R))
    assert wkb.pref * wkb.perp == pytest.approx(2.0 * math.pi / xi * (-0.5 * xi * R))


def test_wkb_diffraction_signs():
    # both diffraction corrections are strictly negative on the branch z <= -1
    # and equal the cos(Theta) forms (1/2 xi) z / sh^3 and -(1/2 xi) / sh^3
    for xi in (0.3, 1.0, 4.0):
        for z in (-1.0, -2.0, -50.0):
            s_perp, s_par = wkb_diffraction_s(xi, xi * xi * (-1.0 - z))
            assert s_perp < 0.0
            assert s_par < 0.0
            # |s_perp| >= |s_par| since |cos Theta| >= 1
            assert abs(s_perp) >= abs(s_par) - 1e-15
            sh = math.sqrt(0.5 * (1.0 - z))
            assert s_perp == pytest.approx(0.5 * z / (xi * sh**3), rel=1e-14)
            assert s_par == pytest.approx(-0.5 / (xi * sh**3), rel=1e-14)


def test_exact_amplitudes_domain_and_clip():
    amps = ExactAmplitudes(1.0, 1.0)
    with pytest.raises(ValueError):
        amps(np.array([-0.5]))
    # roundoff slightly above -1 is clipped, not rejected
    out = amps(np.array([-1.0 + 1e-12]))
    ref = amps(np.array([-1.0]))
    assert out[0][0] == pytest.approx(ref[0][0], rel=1e-12)


def test_fixed_scale_is_the_wkb_exponent():
    # the returned log scale is 2x sin(Theta/2) and the mantissas, the
    # WKB-normalised amplitudes, neither vanish nor exceed max(1, x)
    z = np.array([-1.0, -1.0 - 1e-14, -3.0, -1e4])
    for x in (1e-3, 0.05, 1.0, 7.0, 60.0):
        mant_perp, mant_par, log_scale = ExactAmplitudes(x, 1.0)(z)
        np.testing.assert_allclose(log_scale, 2.0 * x * np.sqrt((1.0 - z) / 2.0), rtol=1e-15)
        for mant in (mant_perp, mant_par):
            assert np.all(np.abs(mant) > 0.0), x
            assert np.all(np.abs(mant) <= max(1.0, x)), x


def test_truncation_error_raised_on_tiny_cap(monkeypatch):
    monkeypatch.setattr(ExactAmplitudes, "_cap_for", lambda self, z_extreme: 3)
    amps = ExactAmplitudes(5.0, 1.0)
    with pytest.raises(TruncationError):
        amps(np.array([-30.0]))


def test_amplitude_scale_tracks_wkb_growth():
    # at large x the log scale of the exact amplitude approaches the WKB
    # exponent 2 x sin(Theta/2); overflow never occurs because only logs grow
    x, z = 300.0, -8.0
    _, mant_par, log_acc = ExactAmplitudes(x, 1.0)(np.array([z]))
    sh = math.sqrt(0.5 * (1.0 - z))
    assert math.log(abs(mant_par[0])) + log_acc[0] == pytest.approx(
        2.0 * x * sh + math.log(0.5 * x), rel=1e-3
    )
