"""Mie coefficients and scattering amplitudes: fixtures, WKB limit, scaling."""
import csv
import math
import pathlib

import numpy as np
import pytest

from planesphere import mie
from planesphere.mie import (
    ExactAmplitudes,
    TruncationError,
    _mie_ab_log_arrays,
    interpolated_amplitudes,
    wkb_diffraction_s,
)
from planesphere.reflection import KernelKind, _amplitudes
from planesphere.special import AngularRecurrence

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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mie_and_bessel_entry_points_reject_non_finite_arguments(bad):
    for call in (lambda: ExactAmplitudes(bad, 1.0), lambda: ExactAmplitudes(1.0, bad),
                 lambda: _mie_ab_log_arrays(bad, 3), lambda: mie.log_bessel_i_half(3, bad),
                 lambda: mie.log_bessel_k_half(3, bad)):
        with pytest.raises(ValueError, match="finite"):
            call()


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


def test_amplitudes_against_fixtures_in_one_call_per_x():
    # the rows of one x summed together: an element that converges early
    # leaves the batch while the others are still being summed
    by_x = {}
    for perp_row, par_row in zip(load_fixtures("s_perp"), load_fixtures("s_par")):
        x_str, z_str = perp_row[1].split("|")
        by_x.setdefault(float(x_str), []).append((float(z_str), perp_row, par_row))
    assert max(len(rows) for rows in by_x.values()) > 1
    for x, rows in by_x.items():
        mant_perp, mant_par, log_acc = ExactAmplitudes(x, 1.0)(np.array([z for z, _, _ in rows]))
        for i, (_, perp_row, par_row) in enumerate(rows):
            for got, (_, _, mant, log_scale) in ((mant_perp[i], perp_row), (mant_par[i], par_row)):
                assert math.log(abs(got)) + log_acc[i] == pytest.approx(
                    math.log(abs(mant)) + log_scale, abs=1e-10
                )
                assert math.copysign(1.0, got) == math.copysign(1.0, mant)


@pytest.mark.parametrize("x", [1.0, 7.0, 60.0])
def test_amplitudes_independent_of_order_and_batch(x):
    rng = np.random.default_rng(int(x))
    z = -np.concatenate([[1.0, 1.0, 1.0 + 1e-12, 1e4, 1e4], 10.0 ** rng.uniform(0.0, 4.0, 20)])
    z = np.concatenate([z, z[5:11]])   # repeated values
    mant_perp, mant_par, log_scale = ExactAmplitudes(x, 1.0)(z)
    perm = rng.permutation(z.size)
    shuffled = ExactAmplitudes(x, 1.0)(z[perm])
    for got, want in zip(shuffled, (mant_perp, mant_par, log_scale)):
        np.testing.assert_array_equal(got, want[perm])
    amps = ExactAmplitudes(x, 1.0)
    for i, zi in enumerate(z):
        one_perp, one_par, one_scale = amps(np.array([zi]))
        # each element stops on its own: its sum does not depend on the batch
        assert one_scale[0] == log_scale[i]
        assert mant_perp[i] == one_perp[0]
        assert mant_par[i] == one_par[0]


def test_each_element_stops_after_its_own_three_calm_terms(monkeypatch):
    """Synthetic terms: L is loud, C is below TOL times the sum; x < 1.

    z = -1 is calm at ell = 2, 3, 4 and leaves then; z = -2 is calm only at
    ell = 6, 7, 8; z = -3 is calm from ell = 2 on and leaves at ell = 4,
    without waiting for z = -2, whatever its place in the batch.
    """
    loud, calm = 2.0 ** -10, 2.0 ** -60
    patterns = {-1.0: "LCCC", -2.0: "LCLCLCCC", -3.0: "LCCCCCCC"}
    stops = {-1.0: 4, -2.0: 8, -3.0: 4}

    def term(z, ell):
        pattern = patterns[z]
        return loud if ell <= len(pattern) and pattern[ell - 1] == "L" else calm

    def fake_terms(self, ell, rec, log_scale, pi, tau, t_perp, t_par, w):
        # one row per order ell, ell + 1, ... of the block
        t_perp[:] = t_par[:] = [[term(z, ell + r) for z in rec.z]
                                for r in range(t_perp.shape[0])]

    monkeypatch.setattr(ExactAmplitudes, "_terms", fake_terms)
    z = np.array([-2.0, -3.0, -1.0])
    amps = ExactAmplitudes(1e-3, 1.0)
    mant_perp, mant_par, _ = amps(z)
    want = [sum(term(zi, ell) for ell in range(1, stops[zi] + 1)) for zi in z]
    np.testing.assert_array_equal(mant_perp, want)
    np.testing.assert_array_equal(mant_par, want)
    alone = [amps(np.array([zi]))[0][0] for zi in z]
    np.testing.assert_array_equal(mant_perp, alone)


def test_partial_wave_sum_does_not_depend_on_the_block_size(monkeypatch):
    # blocks of one order up to blocks of many orders, and blocks cut by the
    # element budget: the same sums bit for bit, stops carried across the
    # block boundaries included
    rng = np.random.default_rng(5)
    batches = [(x, -1.0 - 10.0 ** rng.uniform(-12.0, 4.0, 40)) for x in (1e-3, 1.0, 60.0)]
    want = [ExactAmplitudes(x, 1.0)(z) for x, z in batches]
    for rows, elements in ((1, 4096), (2, 4096), (3, 7), (7, 50), (32, 1)):
        monkeypatch.setattr(mie, "BLOCK_ROWS", rows)
        monkeypatch.setattr(mie, "BLOCK_ELEMENTS", elements)
        for (x, z), ref in zip(batches, want):
            for got, values in zip(ExactAmplitudes(x, 1.0)(z), ref):
                np.testing.assert_array_equal(got, values)


# the sizes x = xi R and the z ranges that QuadratureConfig.auto samples at
# R/L <= 100: |z| reaches ~1.2e7 / x^2, up to 2e9 at the smallest xi node
INTERPOLATION_X = (0.005, 0.0176, 0.1, 1.0, 5.0, 50.0, 400.0, 2000.0)


@pytest.mark.parametrize("x", INTERPOLATION_X)
def test_interpolated_amplitudes_match_the_direct_sum(x):
    """The Chebyshev interpolants against the direct sum, ExactAmplitudes.

    The reference is the direct partial-wave sum over the same z.  Its own
    rounding is not smooth in z: at x sin(Theta/2) ~ 3e3 neighbouring z
    differ from a smooth curve by ~5e-12, which sets the 1e-11 bound.
    """
    z_max = min(2e9, 1.2e7 / x**2 + 10.0)
    z = -1.0 - np.concatenate(([0.0, z_max - 1.0], np.geomspace(1e-12, z_max - 1.0, 400)))
    got = interpolated_amplitudes(x, 1.0, z)
    want = ExactAmplitudes(x, 1.0)(z)
    np.testing.assert_array_equal(got[2], want[2])
    for mant, ref in zip(got[:2], want[:2]):
        np.testing.assert_array_equal(np.sign(mant), np.sign(ref))
        assert np.max(np.abs(mant / ref - 1.0)) < 1e-11


def test_interpolated_amplitudes_against_fixtures():
    # the mpmath fixtures through reflection._amplitudes, the exact-mie
    # kernel's own path, at the tolerance of the direct sum's fixture test
    for perp_row, par_row in zip(load_fixtures("s_perp"), load_fixtures("s_par")):
        x_str, z_str = perp_row[1].split("|")
        x, z = float(x_str), float(z_str)
        amps = _amplitudes(x, np.array([x * x * (-1.0 - z)]), 1.0, KernelKind.EXACT_MIE)
        for got, (_, _, mant, log_scale) in ((amps.perp[0], perp_row), (amps.par[0], par_row)):
            assert math.log(abs(got)) + amps.log_scale[0] == pytest.approx(
                math.log(abs(mant)) + log_scale, abs=1e-10
            )
            assert math.copysign(1.0, got) == math.copysign(1.0, mant)


@pytest.mark.parametrize("x", [0.0176, 3.0, 300.0])
def test_interpolated_amplitude_does_not_depend_on_its_call(x):
    # the panels are fixed and the Mie coefficients do not depend on how
    # far each call sizes them, so a z gets the same amplitude bit for bit
    # alone, in a call that reaches much larger |z| and in a shuffled one
    rng = np.random.default_rng(int(x))
    top = math.log10(min(1e3, 1.2e7 / x**2))
    z = -1.0 - 10.0 ** rng.uniform(-10.0, top, 200)
    wide = np.concatenate((z, -1.0 - 10.0 ** rng.uniform(top, top + 1.0, 100)))
    perm = rng.permutation(wide.size)
    alone = [interpolated_amplitudes(x, 1.0, z[i:i + 1]) for i in range(0, z.size, 37)]
    batch = interpolated_amplitudes(x, 1.0, z)
    in_wide = interpolated_amplitudes(x, 1.0, wide)
    shuffled = interpolated_amplitudes(x, 1.0, wide[perm])
    for k in range(3):
        np.testing.assert_array_equal(in_wide[k][: z.size], batch[k])
        np.testing.assert_array_equal(shuffled[k], in_wide[k][perm])
        np.testing.assert_array_equal([a[k][0] for a in alone], batch[k][::37])


@pytest.mark.parametrize("x", [1e-3, 0.0176, 1.0, 3.0, 50.0, 300.0, 2000.0, 3e4])
def test_coefficients_do_not_depend_on_their_sizing(x):
    # the arrays of a call sized for sin(Theta/2) = 1 are a leading part,
    # bit for bit, of those of calls sized up to three times as far
    small = ExactAmplitudes(x, 1.0)
    n = small._size(np.array([2.0 * x]))
    for factor in (1.1, 2.0, 3.0):
        large = ExactAmplitudes(x, 1.0)
        large._extend(int(factor * n))
        for got, want in ((small._log_a, large._log_a), (small._ka, large._ka),
                          (small._kb, large._kb)):
            np.testing.assert_array_equal(got, want[:n])


@pytest.mark.parametrize("x", [0.003, 3.0, 30.0, 300.0])
def test_one_coefficient_sizing_covers_the_sum(x):
    # past sin(Theta/2) ~ 10 an element's sum ends ~5 sqrt(w) past its
    # impact parameter w = x sin(Theta/2), beyond the Airy width 20 w^(1/3)
    # once w > ~2e3; the sizing covers it up to w = 3e4 (R/L = 800 reaches
    # 2.4e4 at its top panels), so the sum never outgrows its coefficients
    s = np.array([1.0, 1.5, 10.0, 3e4 / x])
    mant_perp, mant_par, _ = ExactAmplitudes(x, 1.0)(1.0 - 2.0 * s * s)
    assert np.all(mant_perp < 0.0) and np.all(mant_par > 0.0)


def test_skipping_underflowed_orders_changes_no_bit(monkeypatch):
    # the orders before an element's first one add exact zeros: summing
    # every element from ell = 1 gives the same mantissas bit for bit
    x = 40.0
    s = np.geomspace(1.0, 400.0, 60)
    z = 1.0 - 2.0 * s * s
    amps = ExactAmplitudes(x, 1.0)
    skipped = amps(z)
    log_scale = amps._log_scale(z)
    first = amps._first_orders(AngularRecurrence(z).log_q, log_scale)
    assert first.max() > 1000   # sin(Theta/2) = 400: w = 1.6e4
    monkeypatch.setattr(ExactAmplitudes, "_first_orders",
                        lambda self, log_q, log_scale: np.ones(log_q.size, dtype=np.intp))
    for got, want in zip(amps(z), skipped):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("x", [1e-3, 0.2, 5.0, 80.0, 2e3, 1e5])
def test_log_mie_a_is_concave_in_ell(x):
    # _first_orders relies on it: the increments of log|a_ell| never grow
    _, log_a, _, _ = _mie_ab_log_arrays(x, int(x) + 3000)
    assert np.all(np.diff(log_a, 2) <= 0.0)


# x = xi R below 1, near 20 and above 300, with the panels each reaches
SHARED_XI = {0.3: 40, 20.0: 25, 450.0: 6}


def test_shared_loop_node_values_equal_per_xi_sums():
    # the panel nodes of several xi summed over one angular recurrence,
    # each xi as a batch of its own: every node value equals that of a
    # call of its own ExactAmplitudes(xi, R) bit for bit
    z = mie._panel_nodes(max(SHARED_XI.values()))
    sums = mie._sum_batches([(ExactAmplitudes(xi, 1.0), panels * mie.PANEL_NODES)
                             for xi, panels in SHARED_XI.items()], z)
    for (xi, panels), got in zip(SHARED_XI.items(), sums):
        want = ExactAmplitudes(xi, 1.0)(z[: panels * mie.PANEL_NODES])
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def test_interpolated_amplitudes_read_the_tables_in_use(monkeypatch):
    # a call up to its xi's top panel reads off the table what it would sum
    # alone and runs no direct sum; a call past the top panel, or at an
    # (xi, R) without a table, sums its own nodes; leaving the block, or
    # raising in it, removes the tables
    rng = np.random.default_rng(3)
    # 1 - z up to 2^(panels/2), i.e. sin(Theta/2) up to about 2^(panels/4)
    samples = {xi: -1.0 - 10.0 ** rng.uniform(-12.0, math.log10(2.0 ** (panels / 2)), 60)
               for xi, panels in SHARED_XI.items()}
    tables = mie.panel_tables(1.0, samples)
    assert set(tables) == {(xi, 1.0) for xi in SHARED_XI}
    alone = {xi: interpolated_amplitudes(xi, 1.0, z) for xi, z in samples.items()}
    calls = []
    direct = ExactAmplitudes.__call__
    monkeypatch.setattr(ExactAmplitudes, "__call__",
                        lambda self, z: calls.append(self.xi) or direct(self, z))
    with mie.interpolation_tables(tables):
        for xi, z in samples.items():
            got = interpolated_amplitudes(xi, 1.0, z[::2])
            for values, want in zip(got, alone[xi]):
                np.testing.assert_array_equal(values, want[::2])
        assert calls == []
        interpolated_amplitudes(0.3, 1.0, [1.0 - 2.0 * 4.0 ** 11])   # sin(Theta/2) = 2^11
        interpolated_amplitudes(0.3, 2.0, [-3.0])
        assert calls == [0.3, 0.3]
    assert not mie._TABLES
    with pytest.raises(RuntimeError):
        with mie.interpolation_tables(tables):
            raise RuntimeError("probe")
    assert not mie._TABLES


def test_nested_interpolation_tables_restore_the_outer_table(monkeypatch):
    # a block nested in one with the same (xi, R) key uses its own table
    # and, on leaving, puts the outer table back rather than none, so the
    # outer block's calls still read it and sum no panel nodes
    xi, z = 0.3, -1.0 - 10.0 ** np.linspace(-3.0, 1.0, 7)
    outer = mie.panel_tables(1.0, {xi: z})
    inner = mie.panel_tables(1.0, {xi: z[:3]})
    calls = []
    direct = ExactAmplitudes.__call__
    monkeypatch.setattr(ExactAmplitudes, "__call__",
                        lambda self, z: calls.append(self.xi) or direct(self, z))
    with mie.interpolation_tables(outer):
        with mie.interpolation_tables(inner):
            assert mie._TABLES[(xi, 1.0)] is inner[(xi, 1.0)]
        assert mie._TABLES[(xi, 1.0)] is outer[(xi, 1.0)]
        interpolated_amplitudes(xi, 1.0, z)
        assert calls == []
    assert not mie._TABLES


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


@pytest.mark.parametrize("bad", [-0.5, math.nan, -math.inf])
def test_both_amplitude_entry_points_reject_the_same_cos_theta(bad):
    # cos(Theta) must be finite and <= -1 (up to roundoff) in the direct
    # sum and in its interpolants alike
    z = np.array([-2.0, bad])
    with pytest.raises(ValueError, match="cos\\(Theta\\)"):
        ExactAmplitudes(1.0, 1.0)(z)
    with pytest.raises(ValueError, match="cos\\(Theta\\)"):
        interpolated_amplitudes(1.0, 1.0, z)
    with pytest.raises(ValueError, match="cos\\(Theta\\)"):
        interpolated_amplitudes(1.0, 1.0, [bad])


def test_exact_amplitudes_on_empty_array():
    out = ExactAmplitudes(0.7, 3.0)(np.array([]))
    assert len(out) == 3
    for values in out:
        assert values.shape == (0,) and values.dtype == float


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


def size_to(limit):
    """A stand-in for ExactAmplitudes._size: coefficients, and so the sum, end at limit."""
    def size(self, log_scale):
        self._extend(limit)
        return self._n_coeff
    return size


def test_truncation_error_raised_on_tiny_cap(monkeypatch):
    monkeypatch.setattr(ExactAmplitudes, "_size", size_to(3))
    amps = ExactAmplitudes(5.0, 1.0)
    with pytest.raises(TruncationError):
        amps(np.array([-30.0]))


def test_truncation_error_judges_only_unconverged_elements(monkeypatch):
    # at x = 5 the elements up to |z| = 3 converge by ell = 25; z = -1e4
    # needs far more than a limit of 60, and the error reports it alone
    monkeypatch.setattr(ExactAmplitudes, "_size", size_to(60))
    amps = ExactAmplitudes(5.0, 1.0)
    with pytest.raises(TruncationError) as alone:
        amps(np.array([-1e4]))
    with pytest.raises(TruncationError) as mixed:
        amps(np.array([-1e4, -1.0, -1.5, -3.0]))
    assert mixed.value.ell_reached == 60
    assert math.isfinite(mixed.value.worst_rel)
    assert mixed.value.worst_rel > ExactAmplitudes.TOL
    assert mixed.value.worst_rel == alone.value.worst_rel


def test_amplitude_scale_tracks_wkb_growth():
    # at large x the log scale of the exact amplitude approaches the WKB
    # exponent 2 x sin(Theta/2); overflow never occurs because only logs grow
    x, z = 300.0, -8.0
    _, mant_par, log_acc = ExactAmplitudes(x, 1.0)(np.array([z]))
    sh = math.sqrt(0.5 * (1.0 - z))
    assert math.log(abs(mant_par[0])) + log_acc[0] == pytest.approx(
        2.0 * x * sh + math.log(0.5 * x), rel=1e-3
    )
