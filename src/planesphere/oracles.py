"""Independent numerical oracles for the closed-form asymptotics and solver.

Nothing in this module reuses the closed forms it checks.  The saddle-point
quantities D1, D2, D3 and F1 are rebuilt from finite differences of the
round-trip phase f and the scalar weight g_scalar; the claim that the
polarization tilt cancels is checked against the full polarization-summed
weight g_function, a 2x2 transfer-matrix trace over wkb0 sphere elements
(reflection.sphere_element).  The r-round-trip traces are rebuilt by direct
quadrature of the scattering formula.  They share the round-trip element
(reflection.round_trip_element) and the Gauss-Legendre rule
(core.gauss_legendre) with the solver, but none of its Nystrom/FFT
machinery.  A trace builds one exact-mie amplitude table per call
(mie.panel_tables) for its whole grid; the r = 2 quadrature evaluates its
outgoing leg, and forms its integrand, in chunks of in-node rows of about
CHUNK_SAMPLES samples that all read that table, so every element is bit for
bit that of one untabled call over the whole grid, and so is the trace.

Derivatives in the Fourier-transformed saddle variables v (defined by
k_{j,alpha} = sum_l W_{jl} v_{l,alpha}, W_{jl} = r^{-1/2} e^{2 pi i j l / r})
are taken as directional derivatives of the analytically continued f and g
along the complex columns of W: both functions extend holomorphically to
complex transverse wave vectors in a neighborhood of the saddle, so nested
central differences in real step parameters multiplying complex direction
vectors converge like h^2 and Richardson extrapolation lifts that to h^6.
Every derivative in the module comes from the one engine mixed_derivative,
with the one step rule h = 0.04 kappa_sp.  The polarization-summed weight
g_function is defined for real wave vectors only, so its check takes real
differences along the Re and Im parts of the W columns; the engine keeps
real arguments real.
"""
from __future__ import annotations

import cmath
import math
from typing import Callable, Sequence

import numpy as np

from . import mie
from .asymptotics import AppendixD, hessian_eigenvalues
from .core import Geometry, gauss_legendre
from .reflection import KernelKind, cos_theta, round_trip_element, sphere_element


# ---------------------------------------------------------------------------
# the scalar saddle functions on complex wave-vector configurations
# ---------------------------------------------------------------------------

def _kappa_c(xi: float, kx: complex, ky: complex) -> complex:
    return cmath.sqrt(xi * xi + kx * kx + ky * ky)


def _eta_c(xi: float, a: np.ndarray, b: np.ndarray) -> complex:
    """One-leg phase eta = kappa_a + kappa_b - sqrt(2(xi^2 + kappa_a kappa_b + k_a.k_b)).

    a and b are complex transverse wave vectors (k_x, k_y).
    """
    ka = _kappa_c(xi, *a)
    kb = _kappa_c(xi, *b)
    dot = a[0] * b[0] + a[1] * b[1]
    return ka + kb - cmath.sqrt(2.0 * (xi * xi + ka * kb + dot))


def f_phase(xi: float, config: np.ndarray) -> complex:
    """Round-trip phase f = sum_j eta(j, j+1) on a complex k configuration.

    config has shape (r, 2) holding (k_x, k_y) per leg.
    """
    r = config.shape[0]
    total = 0.0 + 0.0j
    for j in range(r):
        total += _eta_c(xi, config[j], config[(j + 1) % r])
    return total


def g_scalar(xi: float, config: np.ndarray) -> complex:
    """Scalar round-trip weight prod_j e^{-2 kappa_j} / kappa_j (gap units).

    This is the chi = 0 (no polarization tilt) weight; both polarizations
    reduce to it on the saddle manifold at leading order in 1/R.
    """
    total = 1.0 + 0.0j
    for j in range(config.shape[0]):
        kap = _kappa_c(xi, *config[j])
        total *= cmath.exp(-2.0 * kap) / kap
    return total


def g_function(xi: float, config: np.ndarray) -> float:
    """Round-trip weight g, summed over all polarization chains (gap units).

    config is a real (r, 2) array of (k_x, k_y) per leg; leg j runs from
    channel j into channel j+1 (mod r) and carries the 2x2 transfer matrix
        T_j[p_out][p_in] = rho_j[p_out][p_in] (-1)^{p_in} e^{-2 kappa_j} / kappa_j,
    with rho the polarization factor of the leading (wkb0) sphere element
    (pi R / kappa_out) e^{2 xi R sin(Theta/2)} rho_{p_out, p_in} and (-1)^p
    the plane's Fresnel coefficient (+1 TM, -1 TE).  The sum over the 2^r
    chains is tr(T_{r-1} ... T_0).  rho does not depend on R, so all r legs
    are evaluated in one sphere_element call at R = 1.
    """
    k = np.hypot(config[:, 0], config[:, 1])
    phi = np.arctan2(config[:, 1], config[:, 0])
    el = sphere_element(xi, k, np.roll(k, -1), np.roll(phi, -1) - phi, 1.0, KernelKind.WKB0)
    # indices [leg][p_out][p_in] with 0 = TM, 1 = TE
    rho = np.array([[el.mm, el.me], [el.em, el.ee]]).transpose(2, 0, 1) / math.pi
    kap = np.hypot(xi, k)
    transfer = rho * np.array([1.0, -1.0]) * (np.exp(-2.0 * kap) / kap)[:, None, None]
    chain = np.eye(2)
    for leg in transfer:
        chain = leg @ chain
    return float(np.trace(chain))


def saddle_config(r: int, xi: float, kappa_sp: float) -> np.ndarray:
    """The saddle configuration k_0 = ... = k_{r-1} = (k_sp, 0)."""
    k_sp = math.sqrt(kappa_sp**2 - xi**2)
    config = np.zeros((r, 2), dtype=complex)
    config[:, 0] = k_sp
    return config


def w_matrix(r: int) -> np.ndarray:
    """The unitary Fourier transform W_{jl} = r^{-1/2} e^{2 pi i j l / r}."""
    j = np.arange(r)
    return np.exp(2j * math.pi * np.outer(j, j) / r) / math.sqrt(r)


def w_direction(r: int, i: int, alpha: int) -> np.ndarray:
    """Displacement direction in k-space of the saddle variable v_{i,alpha}."""
    direction = np.zeros((r, 2), dtype=complex)
    direction[:, alpha] = w_matrix(r)[:, i]
    return direction


# ---------------------------------------------------------------------------
# Richardson-extrapolated nested central differences
# ---------------------------------------------------------------------------

def mixed_derivative(func: Callable[[np.ndarray], complex], x0: np.ndarray,
                     directions: Sequence[np.ndarray], step: float) -> complex:
    """Mixed directional derivative d^n/dt_1...dt_n of func at x0.

    Evaluates func(x0 + sum t_a u_a) on the 2^n corners t_a = +-h, contracts
    with the product of signs, and Richardson-extrapolates twice with steps
    h = step, step/2, step/4, cancelling the h^2 and h^4 error terms (leaving
    O(h^6)).  func sees arrays of the dtype of x0 and the directions: real
    in, real out.
    """
    n = len(directions)

    def estimate(h: float) -> complex:
        total = 0.0
        for corner in range(2**n):
            signs = [1.0 if (corner >> a) & 1 else -1.0 for a in range(n)]
            x = x0
            for s, u in zip(signs, directions):
                x = x + (s * h) * u
            total += math.prod(signs) * func(x)
        return total / (2.0 * h) ** n

    d1, d2, d3 = (estimate(step / scale) for scale in (1.0, 2.0, 4.0))
    e1 = (4.0 * d2 - d1) / 3.0
    e2 = (4.0 * d3 - d2) / 3.0
    return (16.0 * e2 - e1) / 15.0


# ---------------------------------------------------------------------------
# appendix quantities rebuilt numerically
# ---------------------------------------------------------------------------

def numeric_F1(r: int, xi: float, kappa_sp: float) -> AppendixD:
    """D1, D2, D3 and F1 from finite differences of f and the scalar g.

    D1 contracts third v-derivatives of f pairwise over conjugate indices
    (i, r-i), D2 is the doubly-conjugate fourth derivative, D3 the conjugate
    Hessian of g; all are divided by the Hessian eigenvalues
    lambda_j = (2/kappa_sp) sin^2(pi j / r).
    """
    if r < 2:
        raise ValueError("the NTLO saddle correction requires r >= 2")
    x0 = saddle_config(r, xi, kappa_sp)
    lam = hessian_eigenvalues(r, kappa_sp)
    step = 0.04 * kappa_sp
    f = lambda cfg: f_phase(xi, cfg)
    g = lambda cfg: g_scalar(xi, cfg)
    gsp = g_scalar(xi, x0).real

    idx = [(i, alpha) for i in range(1, r) for alpha in (0, 1)]
    third = {}

    def f3(i, a, j, b, l, c):
        key = tuple(sorted(((i, a), (j, b), (l, c))))
        if key not in third:
            dirs = [w_direction(r, p, q) for p, q in key]
            third[key] = mixed_derivative(f, x0, dirs, step)
        return third[key]

    d1 = 0.0 + 0.0j
    for i, a in idx:
        for j, b in idx:
            for l, c in idx:
                d1 += (
                    f3(i, a, j, b, l, c)
                    * f3(r - i, a, r - j, b, r - l, c)
                    / (lam[i] * lam[j] * lam[l])
                )

    d2 = 0.0 + 0.0j
    for i in range(1, r):
        for j in range(1, r):
            for a in (0, 1):
                for b in (0, 1):
                    dirs = [
                        w_direction(r, i, a),
                        w_direction(r, r - i, a),
                        w_direction(r, j, b),
                        w_direction(r, r - j, b),
                    ]
                    d2 += mixed_derivative(f, x0, dirs, step) / (lam[i] * lam[j])

    d3 = 0.0 + 0.0j
    for i in range(1, r):
        for a in (0, 1):
            dirs = [w_direction(r, i, a), w_direction(r, r - i, a)]
            d3 += mixed_derivative(g, x0, dirs, step) / lam[i]

    f1_over_g = (d1.real / 12.0 - d2.real / 8.0) + (d3.real / gsp) / 2.0
    return AppendixD(d1.real, d2.real, d3.real / gsp, f1_over_g)


def vanishing_residuals(r: int, xi: float, kappa_sp: float) -> dict[str, float]:
    """Scaled residuals of the claims g_i = 0 and f_{i j jbar} = 0.

    The first v-derivatives of g away from the flat direction and the mixed
    third derivatives of f with one free and one conjugate index pair vanish
    by the permutation symmetry of both functions.  Residuals are scaled by
    a same-order nonvanishing quantity of each kind.
    """
    if r < 2:
        raise ValueError("requires r >= 2")
    x0 = saddle_config(r, xi, kappa_sp)
    step = 0.04 * kappa_sp
    f = lambda cfg: f_phase(xi, cfg)
    g = lambda cfg: g_scalar(xi, cfg)

    # scale for g_i: the flat-direction derivative d g / d v_{0,x}
    g_scale = abs(mixed_derivative(g, x0, [w_direction(r, 0, 0)], step))
    g_res = max(
        abs(mixed_derivative(g, x0, [w_direction(r, i, a)], step))
        for i in range(1, r)
        for a in (0, 1)
    )

    # scale for f_{i j jbar}: a generic nonvanishing conjugate triple
    if r > 2:
        f_scale = max(
            abs(mixed_derivative(f, x0, [w_direction(r, i, 0), w_direction(r, j, 0),
                                         w_direction(r, (2 * r - i - j) % r, 0)], step))
            for i in range(1, r)
            for j in range(1, r)
            if (i + j) % r != 0
        )
    else:
        f_scale = abs(mixed_derivative(f, x0, [w_direction(r, 1, 0)] * 3, step))
    f_res = max(
        abs(mixed_derivative(f, x0, [w_direction(r, i, a), w_direction(r, j, b),
                                     w_direction(r, r - j, b)], step))
        for i in range(1, r)
        for j in range(1, r)
        for a in (0, 1)
        for b in (0, 1)
    )
    return {
        "g_i_scaled": g_res / g_scale,
        "f_ijjbar_scaled": f_res / max(f_scale, 1e-300),
    }


def hessian_counter_diagonal(r: int, xi: float, kappa_sp: float) -> float:
    """Max deviation of (W^T H_xx W)_{jl} from lambda_j delta_{j, r-l}."""
    x0 = saddle_config(r, xi, kappa_sp)
    step = 0.04 * kappa_sp
    f = lambda cfg: f_phase(xi, cfg)
    lam = hessian_eigenvalues(r, kappa_sp)
    worst = 0.0
    for j in range(r):
        for l in range(r):
            dirs = [w_direction(r, j, 0), w_direction(r, l, 0)]
            val = mixed_derivative(f, x0, dirs, step)
            want = lam[j] if (j + l) % r == 0 else 0.0
            worst = max(worst, abs(val - want))
    return worst


def polarization_mixing_cancellation(r: int, xi: float, kappa_sp: float) -> float:
    """Scaled residual of the claim that polarization tilt cancels in D3.

    Evaluates the conjugate Hessian sum sum_i g_{i ibar} / 2 lambda_i once
    with the full polarization-summed weight g_function (including the
    chi-rotation factors of the matrix elements) and once with twice the
    scalar chi = 0 weight, and returns their difference scaled by the
    latter.  The full weight is only defined for real wave vectors, so each
    g_{i ibar} is expanded by bilinearity into real second derivatives along
    the Re and Im parts of the W columns.
    """
    if r < 2 or kappa_sp <= xi:
        raise ValueError("requires r >= 2 and kappa_sp > xi (a nondegenerate saddle)")
    lam = hessian_eigenvalues(r, kappa_sp)
    x0 = saddle_config(r, xi, kappa_sp).real
    step = 0.04 * kappa_sp

    def conj_hessian(func) -> float:
        total = 0.0
        for i in range(1, r):
            for alpha in (0, 1):
                u = w_direction(r, i, alpha)
                v = w_direction(r, r - i, alpha)
                # d_u d_v = d_ur d_vr - d_ui d_vi + i(d_ur d_vi + d_ui d_vr);
                # the result is real by conjugate symmetry, so only the first
                # two second derivatives are needed
                d_uv = (mixed_derivative(func, x0, [u.real, v.real], step)
                        - mixed_derivative(func, x0, [u.imag, v.imag], step))
                total += d_uv / (2.0 * lam[i])
        return total

    full = conj_hessian(lambda config: g_function(xi, config))
    pair = conj_hessian(lambda config: 2.0 * g_scalar(xi, config).real)
    scale = abs(pair) if pair != 0.0 else 1.0
    return abs(full - pair) / scale


def d_pq_classes(r: int, xi: float, kappa_sp: float) -> dict[str, float]:
    """Check the nonzero classes of d_pq against d, -d/3, +d/3 and the zeros.

    d_pq(m,n,s;t,u,w) contracts third k-derivatives of the single-leg phases
    eta_{p,p+1} and eta_{q,q+1} over the Cartesian components; on the saddle
    only three argument classes survive, all proportional to
    d = (3/4) k_sp^2 / kappa_sp^6.  Returns the worst relative error per
    class (zeros scaled by d).
    """
    if not (2 <= r <= 4):
        raise ValueError("class check intended for r in {2, 3, 4}")
    k_sp = math.sqrt(kappa_sp**2 - xi**2)
    x0 = saddle_config(r, xi, kappa_sp)
    step = 0.04 * kappa_sp

    def eta_leg(p):
        return lambda config: _eta_c(xi, config[p], config[(p + 1) % r])

    def unit(j, alpha):
        e = np.zeros((r, 2), dtype=complex)
        e[j, alpha] = 1.0
        return e

    def dpq(p, q, m, n, s, t, u, w):
        total = 0.0
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    da = mixed_derivative(eta_leg(p), x0,
                                          [unit(m, a), unit(n, b), unit(s, c)], step)
                    db = mixed_derivative(eta_leg(q), x0,
                                          [unit(t, a), unit(u, b), unit(w, c)], step)
                    total += (da * db).real
        return total

    d_ref = 0.75 * k_sp**2 / kappa_sp**6
    p, q = 0, 1 % r
    p1, q1 = (p + 1) % r, (q + 1) % r
    results = {
        "class_d": abs(dpq(p, q, p, p, p, q, q, q) / d_ref - 1.0),
        "class_minus_d3_a": abs(dpq(p, q, p1, p, p, q, q, q) / (-d_ref / 3.0) - 1.0),
        "class_minus_d3_b": abs(dpq(p, q, p, p, p, q1, q, q) / (-d_ref / 3.0) - 1.0),
        "class_plus_d3": abs(dpq(p, q, p1, p, p, q1, q, q) / (d_ref / 3.0) - 1.0),
        "class_zero_a": abs(dpq(p, q, p1, p, p, q, q1, q)) / d_ref,
        "class_zero_b": abs(dpq(p, q, p1, p, p, q, q, q1)) / d_ref,
    }
    return results


# ---------------------------------------------------------------------------
# brute-force round-trip traces (no Nystrom blocks, no FFT)
# ---------------------------------------------------------------------------

# brute-force r = 2: the outgoing leg is evaluated, and the integrand formed,
# in chunks of whole in-node rows of about this many (out node, azimuth)
# samples, so that a chunk's temporaries stay in cache
CHUNK_SAMPLES = 1 << 14


def _radial_gl(n: int, xi: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [0, k_max], mapped from the rule of core.gauss_legendre.

    The sphere amplitude grows like e^{2 xi R sin(Theta/2)}, which on the
    specular diagonal equals e^{2 rho kappa} and cancels all but e^{-2 kappa}
    of the translation damping e^{-2 kappa (1 + rho)} (gap units), so the
    cutoff must not scale with rho: kappa_max = xi + 25 leaves a tail below
    e^{-50} of the peak.
    """
    kappa_max = xi + 25.0
    k_max = math.sqrt(kappa_max**2 - xi**2)
    t, w = gauss_legendre(n)
    return 0.5 * k_max * (t + 1.0), 0.5 * k_max * w


def _amplitude_table(xi, rho, k_in, k_out):
    """Put in use one exact-mie amplitude table for the elements k_in -> k_out at xi.

    An element's largest sin(Theta/2) over the azimuth lies at dphi = 0, so
    the cos(Theta) there bound the panels of every element of the grid (see
    mie.panel_tables); every call in the block reads the table, and its
    values are those of a call that sums its own panel nodes, bit for bit.
    """
    tables = mie.panel_tables(rho, {xi: cos_theta(xi, k_in, k_out, 0.0)})
    return mie.interpolation_tables(tables)


def _row_chunks(n_k: int, n_phi: int) -> list[slice]:
    """Slices of whole in-node rows of an (n_k, n_k, n_phi) grid, about CHUNK_SAMPLES samples each."""
    rows = max(1, CHUNK_SAMPLES // (n_k * n_phi))
    return [slice(lo, lo + rows) for lo in range(0, n_k, rows)]


def _pair_elements(xi, k, phi, rho):
    """Plane-dressed channels (MM, EE, ME, EM) of the outgoing leg of a loop on the grid.

    k holds the radial nodes and phi the uniform azimuths phi_l = 2 pi l /
    n_phi.  Returns one (4, n_k, n_k, n_phi) array: at grid point (a, b,
    l) the leg in=a -> out=b at phi_l, with translation damping, quadrature
    measure excluded.  The grid is evaluated in chunks of in-node rows
    (_row_chunks), all reading one amplitude table built for the whole grid
    (_amplitude_table), so every value is bit for bit that of one untabled
    round_trip_element call over the whole grid.  The grid maps onto itself
    under swapping a and b and negating the azimuth (-phi_l is phi_{-l mod
    n_phi} up to a period), so the return leg in=b -> out=a at -phi_l is
    this table read at (b, a, -l mod n_phi).  No physical symmetry such as
    reciprocity is assumed: every value read is the element at the
    arguments it stands for.
    """
    out = np.empty((4, k.size, k.size, phi.size))
    with _amplitude_table(xi, rho, k[:, None], k[None, :]):
        for rows in _row_chunks(k.size, phi.size):
            *channels, scale = round_trip_element(
                xi, k[rows, None, None], k[None, :, None], phi, rho, KernelKind.EXACT_MIE
            )
            np.exp(scale, out=scale)
            for channel, table in zip(channels, out):
                np.multiply(channel, scale, out=table[rows])
    return out


def brute_force_trace(r: int, xi: float, geometry: Geometry,
                      n_k: int = 80, n_phi: int = 256) -> float:
    """tr M^r at one frequency by direct quadrature (exact Mie kernel).

    Supports r = 1 (radial integral over the specular diagonal) and r = 2
    (two radial integrals and one relative azimuth, summing the four
    polarization products).  Shares only the round-trip element with the
    solver: no symmetrized blocks, no FFT, no azimuthal series.  For r = 2
    the return leg is read off the outgoing leg's table by re-indexing the
    quadrature grid (see _pair_elements), not by a symmetry of the kernel,
    and the integrand is formed chunk by chunk over the in-node rows.
    Either way one partial-wave sum, the amplitude table's, serves the
    whole call.
    """
    rho = geometry.aspect_ratio
    k, wk = _radial_gl(n_k, xi)
    if r == 1:
        with _amplitude_table(xi, rho, k, k):
            mm, ee, _, _, log_scale = round_trip_element(xi, k, k, 0.0, rho, KernelKind.EXACT_MIE)
        integrand = (mm + ee) * np.exp(log_scale)
        return float(np.sum(k * wk * integrand)) / (2.0 * math.pi)
    if r == 2:
        phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
        w_phi = 2.0 * math.pi / n_phi
        mm, ee, me, em = _pair_elements(xi, k, phi, rho)
        kw = k * wk
        back = -np.arange(n_phi) % n_phi
        integrand = np.empty((n_k, n_k, n_phi))
        for rows in _row_chunks(n_k, n_phi):
            # the return leg of the pairs (a, b) with a in rows, at (b, a, -l)
            mm_b, ee_b, me_b, em_b = (c[:, rows][..., back].transpose(1, 0, 2)
                                      for c in (mm, ee, me, em))
            pol_sum = mm[rows] * mm_b + ee[rows] * ee_b + me[rows] * em_b + em[rows] * me_b
            meas = kw[rows, None, None] * kw[None, :, None] * w_phi
            np.multiply(meas, pol_sum, out=integrand[rows])
        # one sum over the whole grid, in the order of a single-array evaluation
        return float(np.sum(integrand)) / (2.0 * math.pi) ** 3
    raise ValueError("brute-force trace implemented for r in {1, 2}")


# ---------------------------------------------------------------------------
# beta extraction from energy samples
# ---------------------------------------------------------------------------

def beta_fit(samples: Sequence[tuple[float, float]], model: str = "quadratic"
             ) -> tuple[float, float]:
    """Extract the NTLO slope beta from (R/L, ratio_to_pfa) samples.

    The PFA limit pins the intercept at 1, and beyond the NTLO term the
    expansion of the ratio proceeds in half-integer powers of x = L/R, so
    the local slope (ratio - 1)/x is modeled as a polynomial in sqrt(x):

        linear:     ratio - 1 = beta x
        quadratic:  ratio - 1 = beta x + gamma x^{3/2} + delta x^2

    Returns (beta, stderr) with the standard error from the residual
    variance; with as many parameters as points it degenerates to 0 and
    should be read as "unconstrained by the data".
    """
    x = np.array([1.0 / s[0] for s in samples])
    y = np.array([s[1] - 1.0 for s in samples])
    if model == "linear":
        design = x[:, None]
    elif model == "quadratic":
        design = np.stack([x, x**1.5, x * x], axis=1)
    else:
        raise ValueError(f"unknown model {model!r}")
    coef, residuals, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    dof = len(y) - design.shape[1]
    if dof > 0 and residuals.size:
        sigma2 = float(residuals[0]) / dof
    else:
        resid = y - design @ coef
        sigma2 = float(resid @ resid) / max(dof, 1)
    cov = sigma2 * np.linalg.inv(design.T @ design)
    return float(coef[0]), float(math.sqrt(max(cov[0, 0], 0.0)))
