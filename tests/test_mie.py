"""Mie coefficients and scattering amplitudes: fixtures, WKB limit, scaling."""
import csv
import math
import pathlib

import numpy as np
import pytest

from planesphere.mie import (
    ExactAmplitudes,
    TruncationError,
    amplitudes_exact,
    amplitudes_wkb,
    mie_ab,
    wkb_diffraction_s,
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
    assert rows
    return rows


def test_mie_coefficients_against_fixtures():
    a_rows = load_fixtures("mie_a")
    b_rows = load_fixtures("mie_b")
    for (ell, x_str, a_mant, a_log), (_, _, b_mant, b_log) in zip(a_rows, b_rows):
        coeff = mie_ab(ell, float(x_str))
        assert coeff.a.to_float() == pytest.approx(a_mant * math.exp(a_log), rel=1e-11)
        assert coeff.b.to_float() == pytest.approx(b_mant * math.exp(b_log), rel=1e-11)


def test_mie_signs():
    # sign(a_ell) = (-1)^ell, sign(b_ell) = (-1)^{ell+1}
    for ell in range(1, 9):
        coeff = mie_ab(ell, 2.5)
        assert coeff.a.sign == (-1.0) ** ell
        assert coeff.b.sign == (-1.0) ** (ell + 1)


def test_mie_input_validation():
    with pytest.raises(ValueError):
        mie_ab(0, 1.0)
    with pytest.raises(ValueError):
        mie_ab(1, -1.0)


def test_amplitudes_against_fixtures():
    perp_rows = load_fixtures("s_perp")
    par_rows = load_fixtures("s_par")
    # logs and signs: the largest reference, |S| ~ e^2752, overflows a float
    for perp_row, par_row in zip(perp_rows, par_rows):
        x_str, z_str = perp_row[1].split("|")
        pair = amplitudes_exact(xi=float(x_str), R=1.0, cos_theta=float(z_str))
        for got, (_, _, mant, log_scale) in ((pair.s_perp, perp_row), (pair.s_par, par_row)):
            assert got.log_abs() == pytest.approx(math.log(abs(mant)) + log_scale, abs=1e-10)
            assert got.sign == math.copysign(1.0, mant)


def test_amplitudes_wkb_limit():
    """Exact partial-wave sums approach the WKB form as x -> infinity.

    The order-1 corrected WKB amplitude differs from the exact one by
    O(1/x^2), so the scaled residual must fall ~4x per doubling of x.
    """
    z = -3.0
    residuals = []
    for x in (40.0, 80.0, 160.0):
        exact = amplitudes_exact(xi=x, R=1.0, cos_theta=z)
        wkb = amplitudes_wkb(xi=x, R=1.0, cos_theta=z, order=1)
        r_perp = abs(
            exact.s_perp.to_float() / wkb.s_perp.to_float() - 1.0
        )
        r_par = abs(exact.s_par.to_float() / wkb.s_par.to_float() - 1.0)
        residuals.append(max(r_perp, r_par))
    assert residuals[0] < 1e-2
    assert residuals[1] < 0.30 * residuals[0]
    assert residuals[2] < 0.30 * residuals[1]


def test_wkb_exponent_matches_log_scale():
    # the log_scale of the WKB pair is exactly 2 xi R sin(Theta/2)
    xi, R, z = 2.0, 7.0, -5.0
    sh = math.sqrt(0.5 * (1.0 - z))
    pair = amplitudes_wkb(xi, R, z, order=0)
    assert pair.s_par.log_scale == pytest.approx(2.0 * xi * R * sh, rel=1e-15)
    assert pair.s_par.mantissa == pytest.approx(0.5 * xi * R)
    assert pair.s_perp.mantissa == pytest.approx(-0.5 * xi * R)


def test_wkb_diffraction_signs():
    # both diffraction corrections are strictly negative on the branch z <= -1
    for xi in (0.3, 1.0, 4.0):
        for z in (-1.0, -2.0, -50.0):
            s_perp, s_par = wkb_diffraction_s(xi, z)
            assert s_perp < 0.0
            assert s_par < 0.0
            # |s_perp| >= |s_par| since |cos Theta| >= 1
            assert abs(s_perp) >= abs(s_par) - 1e-15


def test_exact_amplitudes_vectorized_matches_scalar():
    xi, R = 1.5, 3.0
    amps = ExactAmplitudes(xi, R)
    z = np.array([-1.0, -2.5, -40.0])
    mant_perp, mant_par, log_acc = amps(z)
    for idx, zz in enumerate(z):
        pair = amplitudes_exact(xi, R, float(zz))
        got = math.log(abs(mant_perp[idx])) + log_acc[idx]
        assert got == pytest.approx(pair.s_perp.log_abs(), abs=1e-11)
        got_par = math.log(abs(mant_par[idx])) + log_acc[idx]
        assert got_par == pytest.approx(pair.s_par.log_abs(), abs=1e-11)


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


def test_truncation_error_raised_on_tiny_cap():
    amps = ExactAmplitudes(5.0, 1.0, ell_cap=3)
    with pytest.raises(TruncationError):
        amps(np.array([-30.0]))


def test_amplitude_scale_tracks_wkb_growth():
    # at large x the log scale of the exact amplitude approaches the WKB
    # exponent 2 x sin(Theta/2); overflow never occurs because only logs grow
    x, z = 300.0, -8.0
    pair = amplitudes_exact(xi=x, R=1.0, cos_theta=z)
    sh = math.sqrt(0.5 * (1.0 - z))
    assert pair.s_par.log_abs() == pytest.approx(
        2.0 * x * sh + math.log(0.5 * x), rel=1e-3
    )
