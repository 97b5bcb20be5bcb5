#!/usr/bin/env python3
"""Generate high-precision reference fixtures with mpmath.

Writes tests/fixtures/special_values.csv with columns

    function, ell, x_or_z, mantissa, log_scale

where the reference value is mantissa * exp(log_scale) with |mantissa| in
(0.1, 1].  Run from the repository root:

    python3 tools/make_fixtures.py
"""
from __future__ import annotations

import csv
import functools
import pathlib

import mpmath as mp

mp.mp.dps = 40

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "special_values.csv"


def scaled(value: mp.mpf) -> tuple[float, float]:
    """Split into (mantissa, log_scale) with |mantissa| in (0.1, 1]."""
    if value == 0:
        return 0.0, 0.0
    log10 = mp.floor(mp.log10(abs(value))) + 1
    mant = value / mp.mpf(10) ** log10
    if abs(mant) > 1:
        mant /= 10
        log10 += 1
    elif abs(mant) <= mp.mpf("0.1"):
        mant *= 10
        log10 -= 1
    return float(mant), float(log10 * mp.log(10))


@functools.lru_cache(maxsize=None)
def bessel_i(ell: int, x) -> mp.mpf:
    return mp.besseli(ell + mp.mpf(1) / 2, mp.mpf(x))


@functools.lru_cache(maxsize=None)
def bessel_k(ell: int, x) -> mp.mpf:
    return mp.besselk(ell + mp.mpf(1) / 2, mp.mpf(x))


def mie_a(ell: int, x) -> mp.mpf:
    x = mp.mpf(x)
    nu = ell + mp.mpf(1) / 2
    i_p = (bessel_i(ell + 1, x) + bessel_i(ell - 1, x)) / 2  # I'_nu
    k_p = -(bessel_k(ell + 1, x) + bessel_k(ell - 1, x)) / 2  # K'_nu
    num = i_p + bessel_i(ell, x) / (2 * x)
    den = k_p + bessel_k(ell, x) / (2 * x)
    return (-1) ** (ell + 1) * mp.pi / 2 * num / den


def mie_b(ell: int, x) -> mp.mpf:
    x = mp.mpf(x)
    return (-1) ** (ell + 1) * mp.pi / 2 * bessel_i(ell, x) / bessel_k(ell, x)


def pi_tau_mp(ell_max: int, z):
    """pi_ell, tau_ell for ell = 1..ell_max by the Bohren-Huffman recurrence."""
    z = mp.mpf(z)
    pi_prev, pi_cur = mp.mpf(0), mp.mpf(1)
    out = []
    for ell in range(1, ell_max + 1):
        if ell > 1:
            pi_new = ((2 * ell - 1) * z * pi_cur - ell * pi_prev) / (ell - 1)
            pi_prev, pi_cur = pi_cur, pi_new
        tau = ell * z * pi_cur - (ell + 1) * pi_prev
        out.append((pi_cur, tau))
    return out


def partial_sums_mp(x, z, ell_max: int):
    """Partial sums (S_perp, S_par) through ell = 1..ell_max, by direct summation."""
    pt = pi_tau_mp(ell_max, z)
    s_perp = mp.mpf(0)
    s_par = mp.mpf(0)
    sums = []
    for ell in range(1, ell_max + 1):
        c = mp.mpf(2 * ell + 1) / (ell * (ell + 1))
        a, b = mie_a(ell, x), mie_b(ell, x)
        p, t = pt[ell - 1]
        s_perp += c * (a * p + b * t)
        s_par += c * (a * t + b * p)
        sums.append((s_perp, s_par))
    return sums


def amplitudes_mp(x, z, ell_max: int = 200):
    """S_perp, S_par at size parameter x and cos(Theta) = z, summed to ell_max."""
    return partial_sums_mp(x, z, ell_max)[-1]


def amplitudes_converged_mp(x, z, ell_max: int = 200):
    """S_perp, S_par summed to an ell_max whose doubling leaves both unchanged.

    "Unchanged" means the same (mantissa, log_scale) pair after rounding to
    doubles, which is what the fixture stores.
    """
    while True:
        sums = partial_sums_mp(x, z, 2 * ell_max)
        half, full = sums[ell_max - 1], sums[-1]
        if all(scaled(h) == scaled(f) for h, f in zip(half, full)):
            return full
        ell_max *= 2


def main() -> None:
    rows = []

    for ell, x in ((0, 0.5), (1, 1.0), (5, 2.0), (12, 7.5), (50, 30.0),
                   (200, 150.0), (1000, 400.0), (100000, 1000.0)):
        rows.append(("bessel_i_half", ell, x, *scaled(bessel_i(ell, x))))
        rows.append(("bessel_k_half", ell, x, *scaled(bessel_k(ell, x))))

    for u in (0.01, 0.3, 1.0, 2.5, 10.0, 50.0):
        rows.append(("e1", 0, u, *scaled(mp.e1(mp.mpf(u)))))

    for p, t in [pi_tau_mp(10, -3.0)[-1]]:
        rows.append(("pi_ell", 10, -3.0, *scaled(p)))
        rows.append(("tau_ell", 10, -3.0, *scaled(t)))

    for ell, x in ((1, 1.0), (1, 5.0), (4, 5.0), (10, 5.0)):
        rows.append(("mie_a", ell, x, *scaled(mie_a(ell, x))))
        rows.append(("mie_b", ell, x, *scaled(mie_b(ell, x))))

    for x, z in ((5.0, -2.0), (5.0, -1.5), (2.0, -4.0)):
        sp, sq = amplitudes_mp(x, z)
        rows.append(("s_perp", 0, f"{x}|{z}", *scaled(sp)))
        rows.append(("s_par", 0, f"{x}|{z}", *scaled(sq)))

    # orders and arguments where pi_ell, tau_ell and the amplitudes span
    # hundreds to thousands of e-folds (|S| reaches e^2752 at x = 0.02)
    for ell, z in ((400, -3.0), (400, -1e6), (3000, -1.0 - 1e-6)):
        p, t = pi_tau_mp(ell, z)[-1]
        rows.append(("pi_ell", ell, z, *scaled(p)))
        rows.append(("tau_ell", ell, z, *scaled(t)))

    for x, z in ((60.0, -3.0), (1.0, -2e5), (0.02, -9.5e9)):
        sp, sq = amplitudes_converged_mp(x, z)
        rows.append(("s_perp", 0, f"{x}|{z}", *scaled(sp)))
        rows.append(("s_par", 0, f"{x}|{z}", *scaled(sq)))

    OUT.parent.mkdir(parents=True, exist_ok=True)
    with OUT.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["function", "ell", "x_or_z", "mantissa", "log_scale"])
        for row in rows:
            writer.writerow([row[0], row[1], row[2], repr(row[3]), repr(row[4])])
    print(f"wrote {len(rows)} rows to {OUT}")


if __name__ == "__main__":
    main()
