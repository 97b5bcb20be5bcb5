"""Closed-form asymptotics: PFA, saddle-point structures, NTLO traces, betas.

The r-round-trip trace is evaluated around the specular saddle manifold
k_0 = ... = k_{r-1}.  With u = 2 xi L r (units hbar = c = L = 1) the leading
per-polarization traces are

    (tr M^r_TE)_0 = (R/L) e^{-u}/(4 r^2) + (1/8)[(u^2-4) E1(u) - (u-1) e^{-u}]
    (tr M^r_TM)_0 = (R/L) e^{-u}/(4 r^2) - (1/8)[u^2 E1(u) - (u-1) e^{-u}]

and the NTLO (1/R) correction is, per polarization,

    (tr M^r_p)_1 = -(r^2-1) e^{-u}/(12 r^2).

Summing over r with Mercator weights and integrating over frequency yields
the beta coefficients of E = E_PFA (1 + beta1 L/R); these are stored here
exactly as pairs (rational, rational/pi^2) so that the identities
beta1 = beta_d + beta_go = beta_TE + beta_TM hold in exact arithmetic.

The module also exposes the saddle quantities (the circulant Hessian
spectrum and the appendix D1/D2/D3/F1 closed forms) and numeric quadrature
paths over u and kappa_sp.  Each closed form is stated once: the
reconstructions and the saddle-integral traces call the functions above
rather than retyping them, so that every closed form is testable against an
independent evaluation.  The round-trip phase f, its one-leg terms eta and
the round-trip weight g live with the finite-difference oracles
(oracles.f_phase, oracles.g_function).  This module depends on no
round-trip element: it imports neither reflection nor solver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .core import Geometry, Polarization
from .mie import wkb_diffraction_s
from .special import exp_integral_e1

PI2 = math.pi**2


# ---------------------------------------------------------------------------
# PFA and the beta coefficients
# ---------------------------------------------------------------------------

def e_pfa(geometry: Geometry) -> float:
    """PFA energy -pi^3 R/(720 L^2) in units of hbar c / L."""
    return -math.pi**3 * geometry.aspect_ratio / 720.0


_BETA_EXACT: dict[str, tuple[Fraction, Fraction]] = {
    # name: (rational part, coefficient of 1/pi^2)
    "beta_d_te": (Fraction(0), Fraction(-25, 2)),
    "beta_d_tm": (Fraction(0), Fraction(-5, 2)),
    "beta_d": (Fraction(0), Fraction(-15)),
    "beta_go": (Fraction(1, 3), Fraction(-5)),
    "beta1": (Fraction(1, 3), Fraction(-20)),
    "beta_te": (Fraction(1, 6), Fraction(-15)),
    "beta_tm": (Fraction(1, 6), Fraction(-5)),
    "beta_dd": (Fraction(1, 6), Fraction(0)),
    "beta_nn": (Fraction(1, 6), Fraction(-20)),
}


def _beta_float(name: str) -> float:
    q0, q2 = _BETA_EXACT[name]
    return float(q0) + float(q2) / PI2


@dataclass(frozen=True)
class BetaBundle:
    beta_d_te: float
    beta_d_tm: float
    beta_d: float
    beta_go: float
    beta1: float
    beta_te: float
    beta_tm: float
    beta_dd: float
    beta_nn: float
    table_percentages: tuple[float, float, float, float]

    @property
    def exact(self) -> dict[str, tuple[Fraction, Fraction]]:
        """Exact (rational, rational/pi^2) pairs behind the float fields."""
        return dict(_BETA_EXACT)


def beta_bundle() -> BetaBundle:
    """All beta coefficients; floats rendered from the exact pairs.

    The table percentages are the relative contributions to beta1 of
    beta_d_te, beta_d_tm and the two equal polarization halves of beta_go,
    rounded to one decimal.
    """
    b1 = _beta_float("beta1")
    parts = (
        _beta_float("beta_d_te"),
        _beta_float("beta_d_tm"),
        _beta_float("beta_go") / 2.0,
        _beta_float("beta_go") / 2.0,
    )
    percentages = tuple(round(100.0 * p / b1, 1) for p in parts)
    return BetaBundle(
        beta_d_te=_beta_float("beta_d_te"),
        beta_d_tm=_beta_float("beta_d_tm"),
        beta_d=_beta_float("beta_d"),
        beta_go=_beta_float("beta_go"),
        beta1=b1,
        beta_te=_beta_float("beta_te"),
        beta_tm=_beta_float("beta_tm"),
        beta_dd=_beta_float("beta_dd"),
        beta_nn=_beta_float("beta_nn"),
        table_percentages=percentages,  # type: ignore[arg-type]
    )


def energy_asymptotic(geometry: Geometry) -> float:
    """NTLO energy E_PFA (1 + beta1 L/R) in units of hbar c / L."""
    return e_pfa(geometry) * (1.0 + _beta_float("beta1") / geometry.aspect_ratio)


# ---------------------------------------------------------------------------
# saddle-point machinery: Hessian spectrum, appendix closed forms
# ---------------------------------------------------------------------------

def hessian_eigenvalues(r: int, kappa_sp: float) -> list[float]:
    """Spectrum (2/kappa_sp) sin^2(pi j / r) of the saddle Hessian blocks.

    lambda_0 = 0 is the flat direction along the saddle manifold.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    return [2.0 / kappa_sp * math.sin(math.pi * j / r) ** 2 for j in range(r)]


@dataclass(frozen=True)
class AppendixD:
    d1: float
    d2: float
    d3_over_g: float
    f1_over_g: float


def appendix_D(r: int, xi: float, kappa_sp: float) -> AppendixD:
    """Closed forms of the appendix (gap units): D1, D2 and D3, F1 divided by g|sp.

    Satisfies F1 = g (D1/12 - D2/8) + D3/2 identically.  Vectorized over
    broadcastable (xi, kappa_sp).
    """
    if np.any(kappa_sp < xi):
        raise ValueError("kappa_sp must be >= xi")
    k2, k3 = kappa_sp**2, kappa_sp**3
    x2 = xi**2
    d1 = (r - 2.0) * (r - 1.0) ** 2 * (k2 - x2) / (r * k3)
    d2 = 2.0 * (r - 1.0) ** 2 * ((r - 2.0) * k2 - 3.0 * r * x2) / (3.0 * r * k3)
    d3 = -(r * r - 1.0) * (x2 + kappa_sp * (k2 + x2)) / (3.0 * k3)
    f1 = -(r * r - 1.0) * (r * kappa_sp * (k2 + x2) + x2) / (6.0 * r * k3)
    return AppendixD(d1, d2, d3, f1)


# ---------------------------------------------------------------------------
# per-round-trip traces
# ---------------------------------------------------------------------------

def trace_Mr_leading(r: int, u: float, pol: Polarization) -> tuple[float, float]:
    """Leading saddle trace, split as (coefficient of R/L, constant term)."""
    if u <= 0.0:
        raise ValueError("u must be positive")
    lead = math.exp(-u) / (4.0 * r * r)
    e1 = exp_integral_e1(u)
    if pol is Polarization.TE:
        const = 0.125 * ((u * u - 4.0) * e1 - (u - 1.0) * math.exp(-u))
    else:
        const = -0.125 * (u * u * e1 - (u - 1.0) * math.exp(-u))
    return lead, const


def trace_Mr_ntlo(r: int, u: float) -> float:
    """NTLO (1/R) trace correction per polarization: -(r^2-1) e^{-u}/(12 r^2).

    Both polarizations contribute this same amount, so the total NTLO trace
    is twice this value.
    """
    if u < 0.0:
        raise ValueError("u must be >= 0")
    return (1.0 - r * r) * math.exp(-u) / (12.0 * r * r)


# ---------------------------------------------------------------------------
# numeric quadrature and series machinery for the reconstruction tests
# ---------------------------------------------------------------------------

def integrate_0_inf(f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Exp-sinh quadrature of integral_0^inf f(u) du.

    Substitution u = exp((pi/2) sinh t) with trapezoid steps halved until
    two successive results agree to 1e-11 relative (at most 2^12 steps);
    handles both the logarithmic endpoint behavior of E1 and the e^{-u}
    decay double-exponentially.
    """
    t_span = 4.2
    result_prev = None
    for level in range(3, 13):
        n = 2**level
        t = np.linspace(-t_span, t_span, n + 1)
        h = t[1] - t[0]
        u = np.exp(0.5 * math.pi * np.sinh(t))
        w = 0.5 * math.pi * np.cosh(t) * u * h
        vals = f(u)
        result = float(np.sum(vals * w))
        if result_prev is not None and abs(result - result_prev) <= 1e-11 * max(
            abs(result), 1e-300
        ):
            return result
        result_prev = result
    return result


SERIES_TERMS = 10_000


def sum_series_with_tail(term: Callable[[int], float]) -> float:
    """Sum_{r>=1} term(r) for terms with a 1/r^2-type tail.

    Richardson extrapolation on the partial sums at N/4, N/2 and N, with
    N = SERIES_TERMS, eliminates the 1/N and 1/N^2 tail contributions,
    leaving an O(N^-3) remainder.
    """
    n0 = SERIES_TERMS // 4
    values = [term(r) for r in range(1, SERIES_TERMS + 1)]
    s1 = math.fsum(values[:n0])
    s2 = math.fsum(values[: 2 * n0])
    s4 = math.fsum(values[: 4 * n0])
    # with S_N = S - a/N - b/N^2: the double Richardson combination
    return (8.0 * s4 - 6.0 * s2 + s1) / 3.0


def reconstruct_e_p0_coefficients(pol: Polarization) -> tuple[float, float]:
    """Numeric (R/L coefficient, constant) of E_{p,0} from the leading traces.

    E_{p,0} = -(1/4 pi) sum_r r^{-2} integral_0^inf du (tr M^r_p)_0(u), where
    the R/L part integrates to 1/(4 r^2) and the constant part is
    r-independent.  Exact targets: coefficient -pi^3/1440 (half the PFA) and
    constant -pi^3 beta_{d,p}/720.
    """
    i_lead = integrate_0_inf(lambda u: np.exp(-u))
    i_const = integrate_0_inf(
        lambda u: np.array([trace_Mr_leading(1, v, pol)[1] for v in u])
    )
    zeta4 = sum_series_with_tail(lambda r: 1.0 / r**4)
    zeta2 = sum_series_with_tail(lambda r: 1.0 / r**2)
    lead_coeff = -(1.0 / (4.0 * math.pi)) * zeta4 * i_lead / 4.0
    const_coeff = -(1.0 / (4.0 * math.pi)) * zeta2 * i_const
    return lead_coeff, const_coeff


def reconstruct_beta_go() -> float:
    """beta_go from the NTLO traces: numeric sum/integral against Eq. targets.

    E_go = -(1/4 pi) * 2 * sum_r r^{-2} integral du (tr)_1 = E_PFA beta_go L/R.
    """
    i_exp = integrate_0_inf(lambda u: np.exp(-u))
    # the u-dependence integrates to i_exp exactly
    series = sum_series_with_tail(lambda r: trace_Mr_ntlo(r, 0.0) / r**2)
    e_go = -(1.0 / (4.0 * math.pi)) * 2.0 * series * i_exp
    return e_go * (-720.0 / math.pi**3)


def trace_Mr_saddle_numeric(r: int, xi: float, geometry: Geometry, term: str,
                            pol: Polarization = Polarization.TE) -> float:
    """Numeric kappa_sp-integral form of the saddle traces.

    term='leading' evaluates (R/2r) * integral dkappa e^{-2 kappa r}
    (1 + r s_p(kappa)/R) [the full order-1 g|sp], with s_p of
    mie.wkb_diffraction_s on the saddle (p_diff = 2(kappa^2 - xi^2));
    term='ntlo' evaluates (1/2r) * integral dkappa e^{-2 kappa r}
    (F1/g)(kappa) with F1/g of appendix_D, the pure 1/R trace correction
    (per polarization).  Both use the exp-sinh quadrature on kappa in
    [xi, inf) so the closed traces are testable.
    """
    rho = geometry.aspect_ratio
    if term == "leading":
        def integrand(kap: np.ndarray) -> np.ndarray:
            s_perp, s_par = wkb_diffraction_s(xi, 2.0 * (kap**2 - xi**2))
            s_p = s_perp if pol is Polarization.TE else s_par
            return np.exp(-2.0 * kap * r) * (rho + r * s_p)
    elif term == "ntlo":
        def integrand(kap: np.ndarray) -> np.ndarray:
            return np.exp(-2.0 * kap * r) * appendix_D(r, xi, kap).f1_over_g
    else:
        raise ValueError(f"unknown term {term!r}")
    return integrate_0_inf(lambda v: integrand(v + xi)) / (2.0 * r)
