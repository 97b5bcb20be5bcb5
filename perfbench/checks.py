"""Correctness checks of the benchmark's outputs.

Every check compares against a closed form, an independent computation or a
property of the method, never against a stored copy of earlier output.  Each
returns a list of failure messages (empty when the check passes), so the
benchmark can report all of them and the tests can feed perturbed values.
"""
from __future__ import annotations

import math

from planesphere.asymptotics import beta_bundle
from planesphere.oracles import beta_fit

# beta tolerances of the quadratic fit over R/L = 50, 100, 200 (relative)
BETA1_TOL = 0.03
BETA_D_TOL = 0.03
BETA_GO_TOL = 0.05
TRACE_TOL = 1e-5        # criterion-5 tolerance, brute force vs solver
POOL_TOL = 1e-14        # xi nodes are summed in a fixed order
AMPLITUDE_TOL = 1e-10   # partial-wave sum vs the mpmath reference


def _rel(a: float, b: float) -> float:
    return abs(a / b - 1.0)


def check_beta_sweep(wkb0: dict[float, float], wkb1: dict[float, float]) -> list[str]:
    """Quadratic beta_fit of the ratios to PFA recovers beta1, beta_d and beta_go.

    wkb0 / wkb1 map R/L to E/E_PFA.  Beyond the fits, every ratio must lie
    below 1 (beta < 0) and rise towards 1 with R/L.
    """
    b = beta_bundle()
    fails = []
    for name, ratios in (("wkb0", wkb0), ("wkb1", wkb1)):
        rhos = sorted(ratios)
        values = [ratios[r] for r in rhos]
        if not all(v < 1.0 for v in values):
            fails.append(f"{name}: a ratio to PFA is not below 1: {values}")
        if not all(x < y for x, y in zip(values, values[1:])):
            fails.append(f"{name}: ratios to PFA do not rise with R/L: {values}")
    rhos = sorted(wkb1)
    beta1, _ = beta_fit([(r, wkb1[r]) for r in rhos], model="quadratic")
    beta_go, _ = beta_fit([(r, wkb0[r]) for r in rhos], model="quadratic")
    beta_d, _ = beta_fit([(r, 1.0 + wkb1[r] - wkb0[r]) for r in rhos], model="quadratic")
    for name, got, want, tol in (
        ("beta1", beta1, b.beta1, BETA1_TOL),
        ("beta_d", beta_d, b.beta_d, BETA_D_TOL),
        ("beta_go", beta_go, b.beta_go, BETA_GO_TOL),
    ):
        if not _rel(got, want) < tol:
            fails.append(f"{name} fit {got:.6g} is off the closed form {want:.6g} by more than {tol:.0%}")
    return fails


def check_exact_vs_wkb1(e_exact: float, e_wkb1: float, ratio_to_pfa: float,
                        aspect_ratio: float) -> list[str]:
    """The exact-Mie energy sits within the O((L/R)^{3/2}) gap of wkb1.

    wkb1 carries the NTLO term exactly, so the two kernels differ at the next
    order, (L/R)^{3/2}; the bound takes that order's coefficient as 1.  The
    exact ratio to PFA must also lie in (0, 1).
    """
    fails = []
    gap = _rel(e_exact, e_wkb1)
    limit = aspect_ratio ** -1.5
    if not gap < limit:
        fails.append(f"exact-mie vs wkb1 energy gap {gap:.3g} exceeds (L/R)^1.5 = {limit:.3g}")
    if not 0.0 < ratio_to_pfa < 1.0:
        fails.append(f"exact-mie ratio to PFA {ratio_to_pfa!r} outside (0, 1)")
    return fails


def check_traces(brute: float, solved: float, r: int) -> list[str]:
    """Solver trace tr M^r agrees with the brute-force quadrature (criterion 5)."""
    if not _rel(solved, brute) < TRACE_TOL:
        return [f"r={r}: solver trace {solved!r} vs brute force {brute!r}"]
    return []


def check_pool(e_pool: float, e_serial: float) -> list[str]:
    """A pooled energy equals the serial energy of the same config."""
    if not _rel(e_pool, e_serial) < POOL_TOL:
        return [f"pooled energy {e_pool!r} differs from serial {e_serial!r}"]
    return []


def check_amplitudes(code: tuple[float, float, float], ref: tuple[float, float],
                     where: str) -> list[str]:
    """ExactAmplitudes (mantissas and log scale) against reference S_perp, S_par."""
    mant_perp, mant_par, log_scale = code
    fails = []
    for name, mant, want in (("S_perp", mant_perp, ref[0]), ("S_par", mant_par, ref[1])):
        if not (math.copysign(1.0, mant) == math.copysign(1.0, want)
                and abs(math.log(abs(mant)) + log_scale - math.log(abs(want))) < AMPLITUDE_TOL):
            fails.append(f"{name} at {where}: {mant!r} e^{log_scale!r} vs mpmath {want!r}")
    return fails


def mp_amplitudes(xi: float, R: float, z: float, dps: int = 40) -> tuple[float, float]:
    """S_perp, S_par by the partial-wave sum in mpmath arithmetic.

    Independent of planesphere.special: the Bessel functions come from
    mpmath, and pi_ell = P'_ell, tau_ell = ell(ell+1) P_ell - z P'_ell from
    Legendre polynomials built by Bonnet's recurrence.  Returns floats
    (logs are compared, so a float range suffices at the spot-check points).
    """
    import mpmath as mp  # imported here, so that it stays out of the timed set-up

    with mp.workdps(dps):
        x = mp.mpf(xi) * R
        zz = mp.mpf(z)
        p_prev, p = mp.mpf(1), zz            # P_0, P_1
        s_perp = s_par = mp.mpf(0)
        calm = 0
        ell = 1
        k_nu = mp.besselk(1.5, x)
        i_nu = mp.besseli(1.5, x)
        while True:
            nu = ell + mp.mpf(1) / 2
            k_next = mp.besselk(nu + 1, x)
            i_next = mp.besseli(nu + 1, x)
            d_i = i_next + (nu / x) * i_nu          # I'_nu
            d_k = (nu / x) * k_nu - k_next          # K'_nu
            sign = 1 if ell % 2 == 1 else -1        # (-1)^(ell+1)
            a = sign * (mp.pi / 2) * (d_i + i_nu / (2 * x)) / (d_k + k_nu / (2 * x))
            b = sign * (mp.pi / 2) * i_nu / k_nu
            dp = ell * (zz * p - p_prev) / (zz * zz - 1)
            pi_l = dp
            tau_l = ell * (ell + 1) * p - zz * dp
            c = mp.mpf(2 * ell + 1) / (ell * (ell + 1))
            t_perp = c * (a * pi_l + b * tau_l)
            t_par = c * (a * tau_l + b * pi_l)
            s_perp += t_perp
            s_par += t_par
            if ell > x:
                small = abs(t_perp) + abs(t_par) < mp.mpf(10) ** (-dps + 5) * (abs(s_perp) + abs(s_par))
                calm = calm + 1 if small else 0
                if calm >= 3:
                    return float(s_perp), float(s_par)
            p_prev, p = p, ((2 * ell + 1) * zz * p - ell * p_prev) / (ell + 1)
            i_nu, k_nu = i_next, k_next
            ell += 1
